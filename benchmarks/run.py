"""Benchmark of the phigeo library: one client, one op at a time.

    python3 benchmarks/run.py --workload fit --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the package is imported from its
``src/`` directory.  Workloads: fit, grid, duality, cli (see NOTES.md).

--trace 0  times the workload for about --seconds (ending on the nearest
           round of blocks) and prints the end-to-end metrics.  setup_s is
           the median over several fresh interpreters of the time until the
           first op could be timed: import, inputs, one warm-up op.
--trace 1  runs the first blocks of the same op sequence twice, untraced
           and then with every layer wrapped in spans, and prints the
           per-layer metrics and the tracing overhead.

Op times are rescaled to a reference machine speed read from a fixed
probe loop (see machine_probe), setup_s by a reference import (see
measure_setup and NOTES.md); the unscaled figures are printed too.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  Full results, including run metadata
and failure counts by cause, go to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE_ITERS = 10000
# The probe's time at the fast speed of the host the benchmark was built on
# (2 CPUs, Python 3.11.7).  Every reported time is rescaled to it.
PROBE_REF_S = 0.6e-3
SEGMENT_S = 0.1
# setup_s is rescaled by a fixed task of its own kind that no change to
# phigeo can alter: a fresh interpreter importing what phigeo imports.
# REF_IMPORT_S is its time on the host the benchmark was built on, at the
# probe's reference speed.
REF_IMPORT = "import numpy, scipy.optimize"
REF_IMPORT_S = 0.5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fit", "grid", "duality", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 2


def timed(wl, op):
    exc = out = None
    t0 = perf_counter()
    try:
        out = wl.execute(op)
    except Exception as e:  # judged by the caller: a rejection or a failure
        exc = e
    return perf_counter() - t0, out, exc


def run_op(wl, op):
    """Time one op; the check runs after the clock stops."""
    dt, out, exc = timed(wl, op)
    return dt, wl.judge(op, out, exc)


class Tally:
    """Outcomes of ops: times, failure counts by cause, and one
    (probe segment, seconds, passed) record per op."""

    def __init__(self):
        self.ok_times = []
        self.attempted = 0
        self.busy = 0.0
        self.failures = Counter()
        self.wrong = 0
        self.records = []

    def add(self, dt, verdict, segment=-1):
        self.attempted += 1
        self.busy += dt
        self.records.append((segment, dt, verdict is None))
        if verdict is None:
            self.ok_times.append(dt)
        else:
            kind, key = verdict
            self.failures[f"{kind}:{key}"] += 1
            self.wrong += kind == "wrong"

    @property
    def failed(self):
        return self.attempted - len(self.ok_times)


def probe_setup(args):
    """Child side of setup_s: import, build inputs, one warm-up op, then
    report the wall-clock time at which the first op could be timed."""
    import workloads
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(args.workload, args.seed, tmp)
        run_op(wl, wl.warmup())
        print(repr(time.time()), flush=True)
    return 0


def import_times():
    """Cumulative import time of phigeo and of scipy.optimize inside it,
    from `python -X importtime -c "import phigeo"`, median over fresh
    interpreters, rescaled to the reference probe speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    phigeo_s, optimize_s = [], []
    for _ in range(IMPORT_PROBES):
        before = machine_probe()
        res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import phigeo"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        scale = speed_scale(before, machine_probe())
        cum = {}
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                try:
                    cum.setdefault(name, int(parts[1]) * 1e-6)
                except ValueError:
                    continue
        if "phigeo" not in cum:
            raise RuntimeError(f"importtime run failed: {res.stderr[-500:]}")
        phigeo_s.append(cum["phigeo"] * scale)
        optimize_s.append(cum.get("scipy.optimize", 0.0) * scale)
    return statistics.median(phigeo_s), statistics.median(optimize_s)


def metadata(args):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "phigeo", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = os.cpu_count() or 1
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        # the formula cmd_figure uses for its fig2 thread pool
        "fig2_pool_threads": int(os.environ.get("PHIGEO_THREADS", "0"))
        or min(8, nproc),
    }


def machine_probe():
    """Seconds for a fixed pure-Python loop, best of five (0.6 ms each at
    the fast speed), so that a hiccup of a few milliseconds does not count.

    The shared host this benchmark was built on switches the CPU between
    two speeds about 1.5x apart, often within a second and sometimes for
    a whole run.  Readings around a timed interval give its speed."""
    best = math.inf
    for _ in range(5):
        t0 = perf_counter()
        s = 0.0
        for i in range(PROBE_ITERS):
            s += math.sqrt(i)
        best = min(best, perf_counter() - t0)
    return best


def speed_scale(before, after):
    """Factor that rescales a time measured between two probe readings to
    the reference probe speed PROBE_REF_S."""
    return PROBE_REF_S / (0.5 * (before + after))


def reference_import():
    """Wall seconds of a fresh interpreter running REF_IMPORT."""
    t0 = perf_counter()
    res = subprocess.run([sys.executable, "-c", REF_IMPORT], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"reference import failed: {res.stderr[-500:]}")
    return perf_counter() - t0


def measure_setup(args):
    """Median over fresh interpreters, run one after another, each sample
    rescaled by the reference imports run just before and after it:
    sample * REF_IMPORT_S / (their mean time).

    Interpreter start-up and imports slow down on the shared host in ways
    the pure-Python probe does not see (its reading and the set-up time
    drifted apart by up to a quarter within an hour); a task of the same
    kind slows down with them."""
    raw, scaled = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    refs = [reference_import()]
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr[-500:]}")
        raw.append(float(res.stdout.strip().splitlines()[-1]) - t0)
        refs.append(reference_import())
        scaled.append(raw[-1] * REF_IMPORT_S / (0.5 * (refs[-2] + refs[-1])))
    return statistics.median(scaled), statistics.median(raw), refs


def time_metrics(ops):
    """ok_ops_per_s, op_p50_ms, op_p90_ms and the p90 sample counts over
    (seconds, passed) records."""
    ok = sorted(dt for dt, passed in ops if passed)
    p90 = statistics.quantiles(ok, n=10, method="inclusive")[8]
    return ({"ok_ops_per_s": len(ok) / sum(dt for dt, _ in ops),
             "op_p50_ms": statistics.median(ok) * 1e3,
             "op_p90_ms": p90 * 1e3},
            {"ok_samples": len(ok),
             "samples_beyond_p90": sum(t > p90 for t in ok)})


def more_rounds(elapsed, n_blocks, round_blocks, seconds):
    """Whether to start another round: always inside a round, and at a
    round boundary while the next boundary would lie nearer to `seconds`
    than this one, so the measured phase lasts about `seconds`."""
    if n_blocks % round_blocks or n_blocks == 0:
        return True
    per_round = elapsed * round_blocks / n_blocks
    return elapsed + 0.5 * per_round < seconds


def measured_run(args, wl):
    """Whole rounds of blocks, ending on the round boundary nearest to
    --seconds.  A probe is read on the first op boundary after every
    SEGMENT_S of measuring, and the op times of each segment are rescaled
    to the reference probe speed by the readings at its two ends; the
    unscaled figures are kept too."""
    setup_s, setup_raw, setup_refs = measure_setup(args)
    run_op(wl, wl.warmup())
    tally = Tally()
    blocks = wl.blocks()
    scaled, segment = [], []
    probes = [machine_probe()]
    t_start = t_probe = perf_counter()
    n_blocks = 0
    while more_rounds(perf_counter() - t_start, n_blocks, wl.round_blocks,
                      args.seconds):
        n_blocks += 1
        for op in next(blocks):
            dt, verdict = run_op(wl, op)
            tally.add(dt, verdict, segment=len(probes) - 1)
            segment.append((dt, verdict is None))
            if perf_counter() - t_probe >= SEGMENT_S:
                probes.append(machine_probe())
                t_probe = perf_counter()
                scale = speed_scale(probes[-2], probes[-1])
                scaled += [(dt * scale, passed) for dt, passed in segment]
                segment = []
    if segment:
        probes.append(machine_probe())
        scale = speed_scale(probes[-2], probes[-1])
        scaled += [(dt * scale, passed) for dt, passed in segment]
    elapsed = perf_counter() - t_start
    metrics, counts = time_metrics(scaled)
    metrics.update({
        "setup_s": setup_s,
        "ok_ratio": len(tally.ok_times) / tally.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    unscaled, _ = time_metrics([(dt, ok) for _, dt, ok in tally.records])
    unscaled["setup_s"] = setup_raw
    detail = dict(counts, **{
        "fail_ratio": tally.failed / tally.attempted,
        "probe_median_ms": statistics.median(probes) * 1e3,
        "unscaled": unscaled,
        "busy_s": tally.busy, "elapsed_s": elapsed, "blocks": n_blocks,
        "probes_s": probes,
        "setup_ref_imports_s": setup_refs,
        "failures": dict(sorted(tally.failures.items())),
        "ops": tally.records,
    })
    return tally, metrics, detail


def traced_run(args, wl):
    from tracer import LAYERS, Tracer, group
    run_op(wl, wl.warmup())
    blocks = wl.blocks()
    ops = [op for _ in range(wl.trace_blocks) for op in next(blocks)]
    plain = Tally()
    probes = [machine_probe()]
    for op in ops:
        plain.add(*run_op(wl, op))
    probes.append(machine_probe())

    tracer = Tracer()
    tracer.install()
    traced = Tally()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            tracer.active = True
            try:
                dt, out, exc = timed(wl, op)
            finally:
                tracer.active = False
            traced.add(dt, wl.judge(op, out, exc))
    finally:
        tracer.uninstall()
    probes.append(machine_probe())
    plain_scale = speed_scale(probes[0], probes[1])
    traced_scale = speed_scale(probes[1], probes[2])
    stats, evals, ctr = tracer.merged()
    for rec in stats.values():
        rec[1] *= traced_scale
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(
        OUT, f"spans-{args.workload}-s{args.seed}.npz"))

    def g(prefix, field=0):
        return group(stats, prefix)[field]

    m = {}
    for layer in LAYERS:
        calls, self_s, errors, _ = group(stats, layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.errors"] = errors
    for fn in ("integrate", "find_root"):
        m[f"specfun.{fn}.calls"] = g(f"specfun.{fn}")
        m[f"specfun.{fn}.evals"] = evals.get(f"specfun.{fn}", 0)
        m[f"specfun.{fn}.self_s"] = g(f"specfun.{fn}", 1)
    m["specfun.lambert_w.calls"] = g("specfun.lambert_w")
    m["specfun.lambert_w.self_s"] = g("specfun.lambert_w", 1)
    m["specfun.numeric_diff.calls"] = g("specfun.numeric_diff")
    m["specfun.upper_gamma.calls"] = g("specfun.upper_gamma")
    m["deform.construct.calls"] = g("deform.construct")
    m["deform.construct.self_s"] = g("deform.construct", 1)
    for fn in ("log", "exp"):
        for path in ("closed", "numeric"):
            m[f"deform.{fn}.{path}.calls"] = g(f"deform.{fn}.{path}")
    m["deform.exp.self_s"] = g("deform.exp", 1)
    m["deform.derived.self_s"] = g("deform.derived", 1)
    m["families.construct.calls"] = g("families.construct")
    m["families.construct.self_s"] = g("families.construct", 1)
    m["families.rejected"] = g("families.construct", 3)
    for part in ("metric", "entropy", "divergence", "closed"):
        m[f"geometry.{part}.self_s"] = g(f"geometry.{part}", 1)
    m["maxent.normalize.calls"] = g("maxent.normalize")
    m["maxent.normalize.self_s"] = g("maxent.normalize", 1)
    m["maxent.fit.calls"] = g("maxent.fit")
    m["maxent.normalize_per_fit"] = (ctr["normalize_in_passing_fits"]
                                     / ctr["passing_fits"]
                                     if ctr["passing_fits"] else 0.0)
    m["maxent.linprog.self_s"] = g("maxent.linprog", 1)
    m["estimation.cr_report.calls"] = g("estimation.cr_report")
    m["estimation.normalize_calls"] = ctr["normalize_in_estimation"]
    m["cli.main.calls"] = g("cli.main")
    m["cli.main.self_s"] = g("cli.main", 1)
    m["import.phigeo_s"], m["import.scipy_optimize_s"] = import_times()
    m["trace.ops"] = len(ops)
    traced_s = traced.busy * traced_scale
    plain_s = plain.busy * plain_scale
    m["trace.ok_ops_per_s"] = len(traced.ok_times) / traced_s
    m["trace.untraced_ok_ops_per_s"] = len(plain.ok_times) / plain_s
    m["trace.overhead"] = traced_s / plain_s - 1.0
    detail = {
        "fail_ratio": plain.failed / plain.attempted,
        "traced_failed": traced.failed,
        "spans_stored": ctr["spans"], "spans_dropped": ctr["dropped"],
        "threads": ctr["threads"], "not_wrapped": tracer.missing,
        "probes_s": probes,
        "failures": dict(sorted(plain.failures.items())),
        "by_span": {nm: {"calls": r[0], "self_s": r[1], "errors": r[2]}
                    for nm, r in sorted(stats.items())},
    }
    return plain, m, detail


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phigeo", "__init__.py")):
        return fail(f"no phigeo package under {SRC}")
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore")
    import phigeo
    if not os.path.abspath(phigeo.__file__).startswith(SRC + os.sep):
        return fail(f"imported phigeo from {phigeo.__file__}, not {SRC}")
    if args.probe_setup:
        return probe_setup(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    import workloads
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(args.workload, args.seed, tmp)
        run = traced_run if args.trace else measured_run
        tally, metrics, detail = run(args, wl)

    meta = metadata(args)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {w["name"]: {"value": metrics[w["name"]],
                                      "unit": w["unit"]} for w in wanted}}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}"
                                f"-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "all_metrics": metrics,
                   "detail": detail}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={meta['python']} numpy={meta['numpy']} "
          f"scipy={meta['scipy']} nproc={meta['nproc']} "
          f"fig2_pool_threads={meta['fig2_pool_threads']} "
          f"git={meta['git_sha'][:12]} src={meta['src_sha256'][:12]}")
    units = {w["name"]: w["unit"] for w in wanted}
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units.get(name, '')}")
    for key in ("fail_ratio", "ok_samples", "samples_beyond_p90",
                "probe_median_ms"):
        if key in detail:
            print(f"{key:<36} {detail[key]:>16.6g}")
    for name, value in detail.get("unscaled", {}).items():
        print(f"unscaled {name:<27} {value:>16.6g}")
    for key, count in detail["failures"].items():
        print(f"failed  {count:>6}  {key}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
