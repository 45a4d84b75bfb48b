"""The benchmark's four workloads: seeded inputs, the op each one times, and
the independent check each op's output must pass.

A workload yields its ops in blocks.  A block has a fixed composition (the
same kinds and sizes in every block, in a seeded order, with seeded
parameters), so a run that ends on a block boundary measures the same mix
whatever the seed.  Where an outcome depends on a drawn parameter (the
round-trip point x of ``duality``, the cell of ``grid``), the draw is
stratified across the block or the round, so a run of whole rounds fails
the same share of ops at every seed.

``execute(op)`` is the timed call into the library; ``judge(op, out, exc)``
runs afterwards, untimed, and returns None when the op passed or a
``(kind, key)`` pair when it failed: kind ``"error"`` for an exception or a
nonzero exit code, ``"wrong"`` for an output that failed its check.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os

import numpy as np

import phigeo as pg
import phigeo.cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GRID_FILE = os.path.join(DATA, "grid_cells.json.gz")
CLI_FILE = os.path.join(DATA, "cli_refs.json.gz")

WORKLOADS = ("fit", "grid", "duality", "cli")


def load_gz(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) /
                 max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300))


def random_interior(rng, n):
    """Dirichlet(3) point clipped below at 0.06/n and renormalised; for
    n = 3 this is the construction of the library's property suites."""
    w = rng.dirichlet(np.full(n, 3.0))
    w = np.clip(w, 0.06 / n, None)
    return pg.ProbVec(w / w.sum())


def make_family(spec):
    """Build a Deformation from a JSON family spec such as
    {"family": "tsallis", "q": 0.5}."""
    kind = spec["family"]
    if kind == "shannon":
        return pg.identity()
    if kind == "tsallis":
        return pg.tsallis(spec["q"])
    if kind == "stretched":
        return pg.stretched(spec["eta"])
    if kind == "cd":
        return pg.cd_family(spec["c"], spec["d"])
    raise ValueError(f"unknown family spec {spec}")


def _err(prefix, exc):
    return ("error", f"{prefix}/{type(exc).__name__}")


class Workload:
    name = ""
    trace_blocks = 1
    # The measured phase ends on a multiple of this many blocks: the
    # period after which the block composition repeats.
    round_blocks = 1

    def __init__(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir

    def rng(self, stream):
        return np.random.default_rng(
            [self.seed, WORKLOADS.index(self.name), stream])

    def blocks(self):
        rng = self.rng(1)
        decks = {}
        b = 0
        while True:
            ops = self.block(rng, b, decks)
            yield [ops[i] for i in rng.permutation(len(ops))]
            b += 1


# ---------------------------------------------------------------------------
# fit: one fit_linear_moments / fit_escort_moments call per op

FIT_FAMILIES = [
    ("identity", lambda: pg.identity()),
    ("tsallis(0.5)", lambda: pg.tsallis(0.5)),
    ("tsallis(2)", lambda: pg.tsallis(2.0)),
    ("stretched(2)", lambda: pg.stretched(2.0)),
    ("cd(0.7,0.4)", lambda: pg.cd_family(0.7, 0.4)),
    ("cd(0.8,-0.5)", lambda: pg.cd_family(0.8, -0.5)),
]
FIT_SIZES = (8, 32, 128)
FIT_COMBOS = [(m, kind) for m in (1, 2, 3) for kind in ("linear", "escort")]


class Fit(Workload):
    """A block holds every (family, n) pair once; (m, constraint kind)
    rotates with the block index, so six blocks cover the full factorial."""
    name = "fit"
    trace_blocks = 2
    round_blocks = len(FIT_COMBOS)

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.families = {label: ctor() for label, ctor in FIT_FAMILIES}
        self.pairs = [(label, n) for label, _ in FIT_FAMILIES for n in FIT_SIZES]

    def _op(self, rng, label, n, m, kind):
        E = rng.standard_normal((n, m))
        w = rng.dirichlet(np.full(n, 2.0))
        return {"kind": kind, "label": label, "n": n, "m": m,
                "E": E, "t": E.T @ w}

    def block(self, rng, b, decks):
        return [self._op(rng, label, n, *FIT_COMBOS[(j + b) % len(FIT_COMBOS)])
                for j, (label, n) in enumerate(self.pairs)]

    def warmup(self):
        return self._op(self.rng(2), "tsallis(2)", 8, 1, "linear")

    def execute(self, op):
        fit = (pg.fit_linear_moments if op["kind"] == "linear"
               else pg.fit_escort_moments)
        d = self.families[op["label"]]
        return fit(d, pg.ConfigMatrix(op["E"]), op["t"]).pmf.probs

    def judge(self, op, out, exc):
        key = f"fit/{op['label']}/n{op['n']}"
        if exc is not None:
            return _err(key, exc)
        return check_moments(self.families[op["label"]], op["kind"], op["E"],
                             op["t"], out, key)


def check_moments(d, kind, E, t, pmf, key):
    """Sum to one within 1e-10; plain or escort moments within 1e-8, with
    the escort recomputed from the generator d.phi."""
    p = np.asarray(pmf, dtype=float)
    if p.shape != (E.shape[0],) or not np.all(np.isfinite(p)) or np.any(p < 0):
        return ("wrong", f"{key}/pmf-shape-or-sign")
    if abs(p.sum() - 1.0) > 1e-10:
        return ("wrong", f"{key}/pmf-sum")
    if kind == "escort":
        phi = np.array([d.phi(float(x)) for x in p])
        p = phi / phi.sum()
    if np.max(np.abs(E.T @ p - t)) > 1e-8:
        return ("wrong", f"{key}/moments")
    return None


# ---------------------------------------------------------------------------
# grid: one (c, d) cell of fig2's rectangle per op

GRID_SIZES = (2, 16, 256)
# Cell states recorded at the seed commit: "0" cd_family builds and the op
# passes, "1" it raises a PhigeoError, "2" it raises anything else, "3" it
# builds but the op fails.  States 2 and 3 are the seed's failing cells.
CELL_OK, CELL_REJECTED, CELL_ERROR, CELL_BROKEN = "0", "1", "2", "3"
# One op per round of this many blocks (1 in 2400) draws from the failing
# cells, which cover 61 of the map's 144,000; every other op draws from the
# rest, so a run of whole rounds fails the same share of ops at any seed.
GRID_ROUND = 80


class GridMap:
    """Cell centres of a lattice on fig2's rectangle and the outcome of
    cd_family(c, d) at each centre, recorded at the seed commit."""

    def __init__(self, data):
        self.c_lo, self.c_hi = data["c_range"]
        self.d_lo, self.d_hi = data["d_range"]
        self.nc, self.nd = data["nc"], data["nd"]
        self.rows = data["rows"]

    def centre(self, i, j):
        c = self.c_lo + (i + 0.5) * (self.c_hi - self.c_lo) / self.nc
        d = self.d_lo + (j + 0.5) * (self.d_hi - self.d_lo) / self.nd
        return c, d

    def state(self, i, j):
        return self.rows[i][j]


def cd_log_phi(c, d, r, x):
    """Generic-branch (c,d) log and generator 1/log', evaluated with numpy
    directly from the closed-form logarithm."""
    x = np.asarray(x, dtype=float)
    a = (1.0 - (1.0 - c) * r) / (d * r)
    u = 1.0 - a * np.log(x)
    v = (1.0 - c) * u + a * d
    log = r - r * x ** (c - 1.0) * u ** d
    phi = x ** (2.0 - c) * u ** (1.0 - d) / (r * v)
    return log, phi


class Grid(Workload):
    name = "grid"
    trace_blocks = 30
    round_blocks = GRID_ROUND

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.map = GridMap(load_gz(GRID_FILE))
        self.failing = [(i, j) for i in range(self.map.nc)
                        for j in range(self.map.nd)
                        if self.map.state(i, j) in (CELL_ERROR, CELL_BROKEN)]

    def _op(self, rng, n, failing=False):
        if failing:
            i, j = self.failing[int(rng.integers(len(self.failing)))]
        else:
            while True:
                i = int(rng.integers(self.map.nc))
                j = int(rng.integers(self.map.nd))
                if self.map.state(i, j) in (CELL_OK, CELL_REJECTED):
                    break
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        return {"i": i, "j": j, "n": n,
                "p": pg.ProbVec(p / p.sum()), "q": pg.ProbVec(q / q.sum())}

    def block(self, rng, b, decks):
        """Ten ops per size; in one seeded block of each round the first
        op of one size (rotating with the round) takes a failing cell."""
        if b % GRID_ROUND == 0:
            decks["failing_block"] = int(rng.integers(GRID_ROUND))
        n_failing = GRID_SIZES[b // GRID_ROUND % len(GRID_SIZES)]
        here = b % GRID_ROUND == decks["failing_block"]
        return [self._op(rng, n, here and n == n_failing and k == 0)
                for n in GRID_SIZES for k in range(10)]

    def warmup(self):
        rng = self.rng(2)
        while True:
            op = self._op(rng, 16)
            if self.map.state(op["i"], op["j"]) == CELL_OK:
                return op

    def execute(self, op):
        c, d = self.map.centre(op["i"], op["j"])
        return grid_outputs(c, d, op["p"], op["q"])

    def judge(self, op, out, exc):
        state = self.map.state(op["i"], op["j"])
        key = f"grid/cell{state}/n{op['n']}"
        if exc is not None:
            if (isinstance(exc, pg.PhigeoError)
                    and state in (CELL_REJECTED, CELL_ERROR)):
                return None
            return _err(key, exc)
        if state == CELL_REJECTED:
            return ("wrong", f"{key}/accepted-a-rejected-cell")
        c, d = self.map.centre(op["i"], op["j"])
        return check_grid(c, d, op["p"], op["q"], out, key)


def grid_outputs(c, d, p, q):
    """The grid op: build cd_family(c, d), then its closed-form geometry."""
    fam = pg.cd_family(c, d)
    mN, mA = pg.cd_metrics_closed(pg.cd_params(c, d), p)
    return {
        "gN": pg.metric_naudts(fam, p).entries,
        "gA": pg.metric_amari(fam, p).entries,
        "h": pg.h_phi(fam, p),
        "escort": pg.escort(fam, p).probs,
        "S": pg.entropy_amari(fam, p),
        "D": pg.divergence_amari(fam, p, q),
        "closed": (mN, mA),
    }


def check_grid(c, d, p, q, out, key):
    """The generic metrics must agree with the printed (c,d) forms, and
    h_phi, the escort, the escort entropy and the escort divergence with
    numpy recomputations from the closed-form logarithm."""
    mN, mA = out["closed"]
    for part in ("gN", "gA", "escort"):
        if not np.all(np.isfinite(out[part])):
            return ("wrong", f"{key}/nonfinite-{part}")
    if rel(out["gN"], mN.entries) >= 1e-6:
        return ("wrong", f"{key}/naudts-vs-printed")
    if rel(out["h"] * out["gA"], mA.entries) >= 1e-6:
        return ("wrong", f"{key}/amari-vs-printed")
    for m in (mN, mA):
        check = getattr(m, "check", None)
        if check is not None and not check.max_rel_residual < 1e-6:
            return ("wrong", f"{key}/closed-form-check")
    r = pg.auto_r(c, d)
    logp, phi = cd_log_phi(c, d, r, p.probs)
    logq, _ = cd_log_phi(c, d, r, q.probs)
    h = phi.sum()
    if abs(out["h"] - h) > 1e-10 * h:
        return ("wrong", f"{key}/h_phi")
    if np.max(np.abs(out["escort"] - phi / h)) > 1e-12:
        return ("wrong", f"{key}/escort")
    terms = phi * logp / h
    if abs(out["S"] + terms.sum()) > 1e-9 * (1.0 + np.abs(terms).sum()):
        return ("wrong", f"{key}/entropy_amari")
    terms = phi * (logp - logq) / h
    if abs(out["D"] - terms.sum()) > 1e-9 * (1.0 + np.abs(terms).sum()):
        return ("wrong", f"{key}/divergence_amari")
    return None


# ---------------------------------------------------------------------------
# duality: conformal pairs and chi round trips, quadrature entropy,
# metric identities, Cramer-Rao sweeps

DUAL_BASES = [
    ("tsallis(0.5)", lambda: pg.tsallis(0.5)),
    ("tsallis(2)", lambda: pg.tsallis(2.0)),
    ("tsallis(1.4)", lambda: pg.tsallis(1.4)),
    ("cd(0.8,0.5)", lambda: pg.cd_family(0.8, 0.5)),
]
ENTROPY_CD = [(0.7, 0.4), (0.8, 0.5), (0.8, -0.5), (0.6, 1.2)]
ENTROPY_SIZES = (3, 24)
IDENTITY_FAMILIES = [
    ("identity", lambda: pg.identity()),
    ("tsallis(0.5)", lambda: pg.tsallis(0.5)),
    ("tsallis(2)", lambda: pg.tsallis(2.0)),
    ("stretched(2)", lambda: pg.stretched(2.0)),
    ("cd(0.8,-0.5)", lambda: pg.cd_family(0.8, -0.5)),
]
CR_FAMILIES = IDENTITY_FAMILIES[:3]
CR_E = np.array([[0.0], [1.0], [3.0]])
X_STRATA = 4


class Duality(Workload):
    name = "duality"
    trace_blocks = 10

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.bases = {label: ctor() for label, ctor in DUAL_BASES}
        self.entropy = {}
        for c, d in ENTROPY_CD:
            params = pg.cd_params(c, d)
            fam = pg.cd_family(c, d)
            for n in ENTROPY_SIZES:
                const = pg.cd_entropy_alignment_constant(params, n)
                self.entropy[(c, d, n)] = (fam, params, const)
        self.ident = {label: ctor() for label, ctor in IDENTITY_FAMILIES}
        self.cr_E = pg.ConfigMatrix(CR_E)
        self.cr_est = pg.Estimator(CR_E)

    def _x(self, rng, label, k):
        """Round-trip point of stratum k: strata 0 to X_STRATA - 2 split
        (1e-3, 1) evenly in log x, the last one is (1, min(5, 0.9 x_upper)],
        so every block has the same number of points above 1."""
        u = rng.uniform()
        if k < X_STRATA - 1:
            return math.exp(math.log(1e-3) * (1.0 - (k + u) / (X_STRATA - 1)))
        hi = min(5.0, 0.9 * self.bases[label].x_upper)
        return math.exp(math.log(hi) * (1.0 - u))

    def block(self, rng, b, decks):
        ops = []
        for label in self.bases:
            for k in range(X_STRATA):
                ops.append({"kind": "conformal", "label": label,
                            "p": random_interior(rng, 2 + k % 2),
                            "x": self._x(rng, label, k)})
        for c, d, n in self.entropy:
            ops.append({"kind": "entropy", "label": f"cd({c},{d})",
                        "key": (c, d, n), "p": random_interior(rng, n)})
        for label in self.ident:
            u1, u2 = rng.uniform(0.5, 1.5), rng.uniform(2.0, 4.0)
            ops.append({"kind": "identity", "label": label,
                        "E": np.array([[0.0], [u1], [u2]]),
                        "theta": [float(rng.uniform(-0.2, 0.3))]})
        for label, _ in CR_FAMILIES:
            ops.append({"kind": "cr", "label": label,
                        "theta": [float(rng.uniform(-0.3, 0.3))],
                        "P": [random_interior(rng, 3) for _ in range(10)]})
        return ops

    def warmup(self):
        rng = self.rng(2)
        return {"kind": "conformal", "label": "tsallis(0.5)",
                "p": random_interior(rng, 3), "x": 0.5}

    def execute(self, op):
        kind = op["kind"]
        if kind == "conformal":
            b = self.bases[op["label"]]
            xi = pg.exp_of_log(b)
            chi = pg.chi_dual(b)
            rep = pg.conformal_check(b, op["p"], xi=xi)
            return rep.max_rel_residual, chi.exp(chi.log(op["x"]))
        if kind == "entropy":
            fam = self.entropy[op["key"]][0]
            return pg.entropy_naudts(fam, op["p"])
        if kind == "identity":
            d = self.ident[op["label"]]
            fam = pg.normalize(d, pg.ConfigMatrix(op["E"]), op["theta"])
            return (fam.pmf.probs, fam.psi,
                    pg.naudts_identity_check(fam).max_rel_residual,
                    pg.amari_identity_check(fam).max_rel_residual)
        d = self.ident[op["label"]]
        fam = pg.normalize(d, self.cr_E, op["theta"])
        refs = list(op["P"]) + [pg.escort(d, fam.pmf)]
        reps = [pg.cr_report(fam, P, self.cr_est) for P in refs]
        return (fam.pmf.probs, [P.probs for P in refs],
                [(r.lhs, r.rhs, r.slack, r.f_second) for r in reps])

    def judge(self, op, out, exc):
        key = f"duality/{op['kind']}/{op['label']}"
        if exc is not None:
            return _err(key, exc)
        return check_duality(self, op, out, key)


def check_duality(wl, op, out, key):
    """Tolerances are those of the library's matching property suites."""
    kind = op["kind"]
    if kind == "conformal":
        residual, back = out
        if not residual < 1e-6:
            return ("wrong", f"{key}/conformal")
        x = op["x"]
        if not abs(back - x) / max(x, 1.0) < 1e-8:
            return ("wrong", f"{key}/roundtrip")
        return None
    if kind == "entropy":
        _, params, const = wl.entropy[op["key"]]
        closed = pg.cd_entropy_aligned(params, op["p"], const)
        if not abs(out - closed) < 1e-7:
            return ("wrong", f"{key}/entropy")
        return None
    if kind == "identity":
        d = wl.ident[op["label"]]
        p, psi, rn, ra = out
        if abs(np.sum(p) - 1.0) > 1e-10:
            return ("wrong", f"{key}/pmf-sum")
        gap = np.array([d.log(float(x)) for x in p]) - op["E"] @ op["theta"] - psi
        if np.max(np.abs(gap)) > 1e-9 * max(1.0, abs(psi)):
            return ("wrong", f"{key}/normalizer")
        if not rn < 1e-6:
            return ("wrong", f"{key}/naudts")
        if not ra < 1e-5:
            return ("wrong", f"{key}/amari")
        return None
    d = wl.ident[op["label"]]
    p, refs, reps = out
    phi = np.array([d.phi(float(x)) for x in p])
    E = CR_E[:, 0]
    eta = E @ phi / phi.sum()
    J = phi * (E - eta)
    for i, (P, (lhs, rhs, slack, f2)) in enumerate(zip(refs, reps)):
        cov = P @ (E * E) - (P @ E) ** 2
        if rel(lhs, cov / f2 ** 2) > 1e-9:
            return ("wrong", f"{key}/cr-lhs")
        if rel(rhs, 1.0 / np.sum(J * J / P)) > 1e-9:
            return ("wrong", f"{key}/cr-fisher")
        if i < len(refs) - 1 and not slack >= -1e-10:
            return ("wrong", f"{key}/cr-bound")
    if not abs(reps[-1][2]) < 1e-8:
        return ("wrong", f"{key}/cr-escort-equality")
    return None


# ---------------------------------------------------------------------------
# cli: one in-process phigeo.cli.main(argv) call per op

# Blocks per round: the fit deck (32 entries, 4 per block), the eval slot
# decks (8 or 4 entries, 2 per block) and the verify decks (4 seeds, 1 per
# block) all empty after 8 blocks.
CLI_ROUND = 8
CLI_FITS, CLI_TABLE2, CLI_EVALS_PER_SLOT = 4, 8, 2


def compare_json(a, b, tol=1e-12):
    """Same structure, equal strings, numbers within a relative tol,
    NaN exactly where the reference has NaN."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(compare_json(a[k], b[k], tol) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(compare_json(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        if not isinstance(b, (int, float)) or isinstance(b, bool):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= tol * max(abs(a), abs(b)) + 1e-300
    return a == b


def parse_csv(text):
    lines = text.strip().split("\n")
    return [lines[0].split(",")] + [[float(v) for v in line.split(",")]
                                    for line in lines[1:]]


def parse_verify(text):
    """{check name: PASS/FAIL} from `phigeo verify` output."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[-1] in ("PASS", "FAIL"):
            out[parts[0]] = parts[-1]
    return out


class Cli(Workload):
    """A block: figure fig1, every verify suite once, and draws from the
    reference pool for fit, table2 and each eval slot; figure fig2 (about
    0.8 s, more than all the rest of a block) once per round of blocks."""
    name = "cli"
    trace_blocks = CLI_ROUND
    round_blocks = CLI_ROUND

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        refs = load_gz(CLI_FILE)
        self.out_dir = os.path.join(tmpdir, "figures")
        os.makedirs(self.out_dir, exist_ok=True)
        self.pool = {}
        for entry in refs["entries"]:
            argv = [a.replace("{OUT}", self.out_dir) for a in entry["argv"]]
            if entry["group"] == "fit":
                path = os.path.join(tmpdir, f"fit{len(self.pool.get('fit', []))}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(entry["config"], fh)
                argv = [a.replace("{CONFIG}", path) for a in argv]
                entry = dict(entry, family_obj=make_family(entry["family"]),
                             E=np.array(entry["config"]["E"], dtype=float),
                             t=np.array(entry["config"]["targets"], dtype=float))
            entry = dict(entry, argv=argv)
            self.pool.setdefault(entry["group"], []).append(entry)
        self.slots = {}
        for entry in self.pool["eval"]:
            self.slots.setdefault(entry["slot"], []).append(entry)
        self.suites = {}
        for entry in self.pool["verify"]:
            self.suites.setdefault(entry["argv"][2], []).append(entry)

    def block(self, rng, b, decks):
        def deal(name, entries, k=1):
            """Draw from a shuffled deck of the entries, reshuffled when
            empty, so every entry is used equally often whatever the seed."""
            deck = decks.setdefault(name, [])
            out = []
            for _ in range(k):
                if not deck:
                    deck.extend(entries[i] for i in rng.permutation(len(entries)))
                out.append(deck.pop())
            return out
        fig1, fig2 = self.pool["figure"]
        ops = [fig1] + ([fig2] if b % CLI_ROUND == 0 else [])
        for suite, entries in sorted(self.suites.items()):
            ops += deal(suite, entries)
        ops += deal("fit", self.pool["fit"], CLI_FITS)
        ops += deal("table2", self.pool["table2"], CLI_TABLE2)
        for slot, entries in sorted(self.slots.items()):
            ops += deal(slot, entries, CLI_EVALS_PER_SLOT)
        return ops

    def warmup(self):
        return self.slots[sorted(self.slots)[0]][0]

    def execute(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = phigeo.cli.main(list(op["argv"]))
        return code, stdout.getvalue()

    def judge(self, op, out, exc):
        key = f"cli/{op['group']}/{op['argv'][0]}"
        if exc is not None:
            return _err(key, exc)
        code, stdout = out
        if code != 0:
            return ("error", f"{key}/exit{code}")
        group = op["group"]
        try:
            if group in ("eval", "table2"):
                ok = compare_json(json.loads(stdout), op["stdout"])
            elif group == "figure":
                ok = all(_csv_matches(os.path.join(self.out_dir, name), ref)
                         for name, ref in op["files"].items())
            elif group == "verify":
                got = parse_verify(stdout)
                ok = (sorted(got) == sorted(op["checks"])
                      and all(v == "PASS" for v in got.values()))
            else:
                res = json.loads(stdout)
                return check_moments(op["family_obj"], op["constraints"], op["E"],
                                     op["t"], res["pmf"], key)
        except (ValueError, KeyError, IndexError, OSError):
            ok = False
        return None if ok else ("wrong", key)


def _csv_matches(path, ref_text):
    with open(path, encoding="utf-8") as fh:
        got = parse_csv(fh.read())
    ref = parse_csv(ref_text)
    return got[0] == ref[0] and compare_json(got[1:], ref[1:])


def make(name, seed, tmpdir):
    return {"fit": Fit, "grid": Grid, "duality": Duality,
            "cli": Cli}[name](seed, tmpdir)
