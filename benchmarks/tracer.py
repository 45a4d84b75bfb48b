"""Span tracing of the phigeo layers, installed from outside the package.

The tracer rebinds the public functions of each layer in every phigeo
module that holds a reference to them (a module binds imported names at
import time, so patching only the defining module would miss callers such
as ``deform.integrate``), and wraps the ``Deformation`` methods on the
class.  Each call becomes a span with a name, start, end, parent span and
op id.  Aggregates (calls, self time, errors) are kept for every span;
the span records themselves are kept in memory for all but the hottest
leaf calls and written out when the run ends.

Self time is a span's duration minus the time covered by its child spans.
Each thread keeps its own stack, so the spans of fig2's worker threads
have no parent and their self times add up across threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from time import perf_counter

# (module, attribute, span name).  Span names are dotted; the first
# component is the layer, and a metric for a prefix sums every span under it.
FUNCTIONS = [
    ("phigeo.specfun", "lambert_w", "specfun.lambert_w"),
    ("phigeo.specfun", "upper_gamma", "specfun.upper_gamma"),
    ("phigeo.specfun", "integrate", "specfun.integrate"),
    ("phigeo.specfun", "find_root", "specfun.find_root"),
    ("phigeo.specfun", "numeric_diff", "specfun.numeric_diff"),
    ("phigeo.deform", "h_phi", "deform.h_phi"),
    ("phigeo.deform", "escort", "deform.escort"),
    ("phigeo.deform", "exp_of_log", "deform.derived.exp_of_log"),
    ("phigeo.deform", "chi_dual", "deform.derived.chi_dual"),
    ("phigeo.deform", "ts_dual", "deform.derived.ts_dual"),
    ("phigeo.families", "identity", "families.construct.identity"),
    ("phigeo.families", "tsallis", "families.construct.tsallis"),
    ("phigeo.families", "stretched", "families.construct.stretched"),
    ("phigeo.families", "cd_family", "families.construct.cd_family"),
    ("phigeo.families", "cd_params", "families.cd_params"),
    ("phigeo.geometry", "metric_naudts", "geometry.metric.metric_naudts"),
    ("phigeo.geometry", "metric_amari", "geometry.metric.metric_amari"),
    ("phigeo.geometry", "metric_fd_oracle", "geometry.metric.metric_fd_oracle"),
    ("phigeo.geometry", "t_operator", "geometry.metric.t_operator"),
    ("phigeo.geometry", "ts_metric_transform",
     "geometry.metric.ts_metric_transform"),
    ("phigeo.geometry", "entropy_naudts", "geometry.entropy.entropy_naudts"),
    ("phigeo.geometry", "entropy_amari", "geometry.entropy.entropy_amari"),
    ("phigeo.geometry", "entropy_from_phi_nu",
     "geometry.entropy.entropy_from_phi_nu"),
    ("phigeo.geometry", "divergence_naudts",
     "geometry.divergence.divergence_naudts"),
    ("phigeo.geometry", "divergence_amari",
     "geometry.divergence.divergence_amari"),
    ("phigeo.geometry", "conformal_check", "geometry.conformal_check"),
    ("phigeo.geometry", "cd_entropy_closed", "geometry.closed.cd_entropy_closed"),
    ("phigeo.geometry", "cd_entropy_aligned",
     "geometry.closed.cd_entropy_aligned"),
    ("phigeo.geometry", "cd_entropy_alignment_constant",
     "geometry.closed.cd_entropy_alignment_constant"),
    ("phigeo.geometry", "cd_metrics_closed", "geometry.closed.cd_metrics_closed"),
    ("phigeo.maxent", "normalize", "maxent.normalize"),
    ("phigeo.maxent", "fit_linear_moments", "maxent.fit.linear"),
    ("phigeo.maxent", "fit_escort_moments", "maxent.fit.escort"),
    ("phigeo.maxent", "psi_forms", "maxent.dual.psi_forms"),
    ("phigeo.maxent", "eta_coords", "maxent.dual.eta_coords"),
    ("phigeo.maxent", "varphi_dual", "maxent.dual.varphi_dual"),
    ("scipy.optimize", "linprog", "maxent.linprog"),
    ("phigeo.estimation", "dp_dtheta", "estimation.dp_dtheta"),
    ("phigeo.estimation", "fisher_general", "estimation.fisher_general"),
    ("phigeo.estimation", "regularity_check", "estimation.regularity_check"),
    ("phigeo.estimation", "cr_report", "estimation.cr_report"),
    ("phigeo.estimation", "naudts_identity_check",
     "estimation.identity.naudts"),
    ("phigeo.estimation", "amari_identity_check", "estimation.identity.amari"),
    ("phigeo.cli", "main", "cli.main"),
]

# Called per element or per integrand point: aggregated, never stored.
HOT = ("deform.log.", "deform.exp.", "specfun.lambert_w")
# The first argument of these is a callable whose evaluations are counted.
COUNT_EVALS = ("specfun.integrate", "specfun.find_root")
LAYERS = ("specfun", "deform", "families", "geometry", "maxent",
          "estimation", "cli")
SPAN_CAP = 1_000_000


def _log_name(self):
    return "deform.log.closed" if self.log_closed is not None \
        else "deform.log.numeric"


def _exp_name(self):
    return "deform.exp.closed" if self.exp_closed is not None \
        else "deform.exp.numeric"


METHODS = [
    ("__init__", "deform.construct", None),
    ("log", None, _log_name),
    ("exp", None, _exp_name),
]


class _ThreadState:
    __slots__ = ("index", "stack", "stats", "evals", "name_ix", "start", "end",
                 "parent", "op", "normalize_calls", "normalize_in_estimation",
                 "passing_fits", "normalize_in_passing_fits", "dropped")

    def __init__(self, index):
        self.index = index
        self.stack = []
        self.stats = {}        # name -> [calls, self_s, errors, phigeo_errors]
        self.evals = {}        # name -> callable evaluations
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.normalize_calls = 0
        self.normalize_in_estimation = 0
        self.passing_fits = 0
        self.normalize_in_passing_fits = 0
        self.dropped = 0


class Tracer:
    """Collects spans while ``active``; ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self._name_ids = {}
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._patched = []
        self.missing = []
        self._phigeo_error = importlib.import_module("phigeo.errors").PhigeoError

    # -- state -------------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, name_of=None):
        tracer = self
        fixed = name
        count_evals = name in COUNT_EVALS
        phigeo_error = self._phigeo_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nm = fixed if name_of is None else name_of(args[0])
            st = tracer._state()
            if count_evals and args and not getattr(args[0], "_bench_counted", False):
                args = (_counting(args[0], st.evals, nm),) + args[1:]
            stack = st.stack
            if nm == "maxent.normalize":
                st.normalize_calls += 1
                for fr in stack:
                    if fr[0].startswith("estimation."):
                        st.normalize_in_estimation += 1
                        break
            anchor = stack[-1][3] if stack else -1
            slot = -1
            if not nm.startswith(HOT):
                if len(st.start) < SPAN_CAP:
                    slot = len(st.start)
                    st.name_ix.append(tracer._name_id(nm))
                    st.start.append(0.0)
                    st.end.append(0.0)
                    st.parent.append(anchor)
                    st.op.append(tracer.op)
                else:
                    st.dropped += 1
            frame = [nm, 0.0, 0.0, slot if slot >= 0 else anchor,
                     st.normalize_calls]
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                rec = st.stats.get(nm)
                if rec is None:
                    rec = st.stats[nm] = [0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[2]
                if error is not None:
                    rec[2] += 1
                    if isinstance(error, phigeo_error):
                        rec[3] += 1
                elif nm.startswith("maxent.fit."):
                    st.passing_fits += 1
                    st.normalize_in_passing_fits += st.normalize_calls - frame[4]
                if slot >= 0:
                    st.start[slot] = t0
                    st.end[slot] = t1

        wrapper._bench_original = fn
        return wrapper

    def install(self):
        """Patch every listed function in every phigeo module that refers
        to it, plus the Deformation methods."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "phigeo" or k.startswith("phigeo."))]
        for modname, attr, name in FUNCTIONS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, name)
            for m in modules + [mod]:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)
        cls = importlib.import_module("phigeo.deform").Deformation
        for attr, name, name_of in METHODS:
            orig = cls.__dict__.get(attr)
            if orig is None:
                self.missing.append(f"Deformation.{attr}")
                continue
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name, name_of))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def merged(self):
        """Totals over all threads: per-name stats, evals and counters."""
        stats, evals = {}, {}
        counters = {"normalize_calls": 0, "normalize_in_estimation": 0,
                    "passing_fits": 0, "normalize_in_passing_fits": 0,
                    "spans": 0, "dropped": 0, "threads": len(self._threads)}
        for st in self._threads:
            for nm, rec in st.stats.items():
                tot = stats.setdefault(nm, [0, 0.0, 0, 0])
                for i in range(4):
                    tot[i] += rec[i]
            for nm, k in st.evals.items():
                evals[nm] = evals.get(nm, 0) + k
            for key in ("normalize_calls", "normalize_in_estimation",
                        "passing_fits", "normalize_in_passing_fits",
                        "dropped"):
                counters[key] += getattr(st, key)
            counters["spans"] += len(st.start)
        return stats, evals, counters

    def write_spans(self, path):
        """Write every stored span as one .npz: name index, start, end,
        parent (index within the same thread, -1 for none), op id, thread."""
        import numpy as np
        cols = {k: [] for k in ("name", "start", "end", "parent", "op", "thread")}
        for st in self._threads:
            cols["name"].append(np.frombuffer(st.name_ix, dtype=np.int32))
            cols["start"].append(np.frombuffer(st.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(st.end, dtype=np.float64))
            cols["parent"].append(np.frombuffer(st.parent, dtype=np.int32))
            cols["op"].append(np.frombuffer(st.op, dtype=np.int32))
            cols["thread"].append(np.full(len(st.start), st.index, dtype=np.int32))
        arrays = {k: (np.concatenate(v) if v else np.zeros(0))
                  for k, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)


def _counting(fn, evals, name):
    def counted(*args, **kwargs):
        evals[name] = evals.get(name, 0) + 1
        return fn(*args, **kwargs)
    counted._bench_counted = True
    return counted


def group(stats, prefix):
    """(calls, self_s, errors, phigeo_errors) summed over a name prefix."""
    out = [0, 0.0, 0, 0]
    for nm, rec in stats.items():
        if nm == prefix or nm.startswith(prefix + "."):
            for i in range(4):
                out[i] += rec[i]
    return out
