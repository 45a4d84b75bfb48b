"""Command line front end: evaluate library quantities, run verification
suites, fit moment-constrained families, and emit figure/table data (each
figure from one cd_lattice call, through geometry's array metric forms).

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 infeasible target, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .deform import Deformation, ProbVec, escort, h_phi, ts_dual
from .errors import (ConvergenceError, DivergentIntegralError,
                     InfeasibleTargetError, PhigeoError)
from .families import cd_family, cd_lattice, identity, stretched, tsallis
from . import geometry as geo
from .maxent import (ConfigMatrix, eta_coords, fit_escort_moments,
                     fit_linear_moments, psi_forms, varphi_dual)
from .specfun import upper_gamma
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


def _ts_base(args) -> Deformation:
    """The base of ts-dual: tsallis with --q, else stretched with --eta,
    else shannon."""
    if args.q is not None:
        return tsallis(args.q)
    if args.eta is not None:
        return stretched(args.eta)
    return identity()


# --family: the flags each family requires, and its constructor.
FAMILIES = {
    "shannon": ((), lambda a: identity()),
    "tsallis": (("q",), lambda a: tsallis(a.q)),
    "stretched": (("eta",), lambda a: stretched(a.eta)),
    "cd": (("c", "d"), lambda a: cd_family(a.c, a.d, a.r)),
    "ts-dual": (("nu",), lambda a: ts_dual(_ts_base(a), a.nu)),
}


def build_family(args) -> Deformation:
    flags, build = FAMILIES[args.family]
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(
                f"--{flag} is required for the {args.family} family")
    return build(args)


def _parse_probvec(text) -> ProbVec:
    vals = np.array([float(t) for t in text.split(",")])
    return ProbVec(vals)


# --what: the inputs each quantity reads (--x a float, --p and --p2
# probability vectors), and the value it prints.
QUANTITIES = {
    "log": (("x",), lambda d, x: d.log(x)),
    "exp": (("x",), lambda d, x: d.exp(x)),
    "phi": (("x",), lambda d, x: d.phi(x)),
    "escort": (("p",), lambda d, p: escort(d, p).probs.tolist()),
    "h": (("p",), lambda d, p: h_phi(d, p)),
    "entropy-n": (("p",), lambda d, p: geo.entropy_naudts(d, p)),
    "entropy-a": (("p",), lambda d, p: geo.entropy_amari(d, p)),
    "divergence-n": (("p", "p2"),
                     lambda d, p, p2: geo.divergence_naudts(d, p, p2)),
    "divergence-a": (("p", "p2"),
                     lambda d, p, p2: geo.divergence_amari(d, p, p2)),
    "metric-n": (("p",),
                 lambda d, p: geo.metric_naudts(d, p).entries.tolist()),
    "metric-a": (("p",),
                 lambda d, p: geo.metric_amari(d, p).entries.tolist()),
}


def _eval_input(args, name):
    value = getattr(args, name)
    if value is None:
        problem = "is required"
    elif name == "x" and not math.isfinite(value):
        problem = "must be finite"
    elif name == "x" and args.what == "phi" and value < 0.0:
        problem = "must be nonnegative"
    else:
        return value if name == "x" else _parse_probvec(value)
    raise ValueError(f"--{name} {problem} for --what {args.what}")


def cmd_eval(args) -> int:
    d = build_family(args)
    inputs, quantity = QUANTITIES[args.what]
    value = quantity(d, *(_eval_input(args, name) for name in inputs))
    print(json.dumps({"value": value}))
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=args.seed)
    failed = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        print(f"{c.name:<48} residual {c.residual:12.4e}  tol {c.tol:8.1e}  {status}")
        if not c.ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def cmd_fit(args) -> int:
    d = build_family(args)
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    E = ConfigMatrix(np.array(cfg["E"], dtype=float))
    targets = np.array(cfg["targets"], dtype=float)
    fit = fit_linear_moments if args.constraints == "linear" else fit_escort_moments
    fam = fit(d, E, targets)
    forms = psi_forms(fam)
    dual = varphi_dual(fam)
    try:
        s_naudts = geo.entropy_naudts(d, fam.pmf)
    except DivergentIntegralError:
        s_naudts = math.nan
    out = {
        "theta": fam.theta.tolist(),
        "psi": fam.psi,
        "pmf": fam.pmf.probs.tolist(),
        "eta": eta_coords(fam).tolist(),
        "varphi": dual["legendre_value"],
        "entropy_naudts": s_naudts,
        "entropy_amari": geo.entropy_amari(d, fam.pmf),
        "psi_forms": forms,
    }
    print(json.dumps(out))
    return EXIT_OK


def _write_csv(path, header, rows):
    """One line per row, every value printed as %.17g."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def figure_metrics(c, d, p):
    """From one cd_lattice call over flat arrays of (c, d) cells: its status,
    and g^N, g^A (bit for bit metric_naudts and metric_amari; NaN where the
    family does not build or either is not finite) and h_phi of
    cd_family(c[i], d[i]) at each two-point row of p, shape (cells, rows)."""
    p = np.asarray(p, dtype=float)
    status, phis, dphis = cd_lattice(c, d, p.ravel())
    phis, dphis = (a.reshape(-1, *p.shape) for a in (phis, dphis))
    with np.errstate(all="ignore"):
        g_n = geo.naudts_entries(phis)[..., 0, 0]
        g_a = geo.amari_entries(phis, dphis)[..., 0, 0]
    bad = ~(np.isfinite(g_n) & np.isfinite(g_a))
    g_n[bad] = g_a[bad] = np.nan
    return status, g_n, g_a, phis.sum(axis=-1)


def _fig1(out):
    """g^N, g^A and the Cramer-Rao information h_phi g^N with its bound
    against p for three (c, d) families of a two-state system."""
    c, d = np.array([(1.0, 1.0), (1.0, 0.5), (0.5, 0.0)]).T
    cells = [f"c{ci}_d{di}" for ci, di in zip(c.tolist(), d.tolist())]
    ps = 0.01 + 0.0025 * np.arange(393)
    _, g_n, g_a, h = figure_metrics(c, d, np.stack([ps, 1.0 - ps], axis=1))
    info = h * g_n
    cr = np.stack([info, 1.0 / info], axis=1).reshape(-1, ps.size)
    for name, cols, g in (("fig1_naudts.csv", ["value"], g_n),
                          ("fig1_amari.csv", ["value"], g_a),
                          ("fig1_crbound.csv", ["info", "bound"], cr)):
        _write_csv(os.path.join(out, name),
                   ["p"] + [f"{k}_{l}" for l in cells for k in cols],
                   np.column_stack([ps, *g]).tolist())


def _fig2(out):
    """g^N and g^A over a 61 x 61 (c, d) grid at p = (1/3, 2/3)."""
    c = np.repeat(0.2 + 0.02 * np.arange(61), 61)
    d = np.tile(-1.0 + 0.05 * np.arange(61), 61)
    _, g_n, g_a, _ = figure_metrics(c, d, [[1.0 / 3.0, 2.0 / 3.0]])
    for name, g in (("fig2_naudts.csv", g_n), ("fig2_amari.csv", g_a)):
        _write_csv(os.path.join(out, name), ["c", "d", "value"],
                   np.column_stack([c, d, g]).tolist())


# --which: the function that writes each figure's CSVs into --out.
FIGURES = {"fig1": _fig1, "fig2": _fig2}


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    FIGURES[args.which](args.out)
    return EXIT_OK


def cmd_table2(args) -> int:
    q, eta, x = args.q, args.eta, args.x
    p = _parse_probvec(args.p)
    dq, de = tsallis(q), stretched(eta)
    phie = de.phi(x)  # before the printed phi, which divides by 0 at x = 1
    lx = math.log(x)
    yq = (x ** (1.0 - q) - 1.0) / (1.0 - q)
    ye = math.copysign(abs(lx) ** (1.0 / eta), lx)  # signed-power log
    chie_den = (eta - 1.0) + eta * lx
    rows = [{
        "row": "phi",
        "tsallis": {"printed": x ** q, "library": dq.phi(x)},
        "stretched": {"printed": x * eta * abs(lx) ** (1.0 - 1.0 / eta),
                      "library": phie,
                      "note": "printed log(x)^{1-1/eta} read as |log x| for x<1"},
    }, {
        "row": "log",
        "tsallis": {"printed": yq, "library": dq.log(x)},
        "stretched": {"printed": ye, "library": de.log(x),
                      "note": "signed-power reading below x=1"},
    }, {
        "row": "exp",
        "tsallis": {"printed": (1.0 + (1.0 - q) * yq) ** (1.0 / (1.0 - q)),
                    "library": dq.exp(dq.log(x))},
        "stretched": {"printed": math.exp(math.copysign(abs(ye) ** eta, ye)),
                      "library": de.exp(de.log(x)),
                      "note": "printed exp(x^eta) extended by sign below 0"},
    }, {
        "row": "chi",
        "tsallis": {"printed": x / q, "library": dq.phi(x) / dq.phi_prime(x)},
        "stretched": {"printed": (x * eta * lx / chie_den
                                  if chie_den != 0.0 else math.nan),
                      "library": de.phi(x) / de.phi_prime(x)},
    }, {
        "row": "entropy_n",
        "tsallis": ({"printed": math.nan, "library": math.nan,
                     "note": "integral entropy diverges at q = 2"}
                    if q == 2.0 else
                    {"printed": (sum(pj ** (2.0 - q) for pj in p.probs)
                                 / (2.0 - q) - 1.0) / (q - 1.0),
                     "library": geo.entropy_naudts(dq, p)}),
        "stretched": {"printed": sum(upper_gamma(1.0 + 1.0 / eta, -math.log(pj))
                                     for pj in p.probs),
                      "library": geo.entropy_naudts(de, p)},
    }, {
        "row": "entropy_a",
        "tsallis": {"printed": (1.0 / sum(pj ** q for pj in p.probs) - 1.0)
                               / (1.0 - q),
                    "library": geo.entropy_amari(dq, p),
                    "note": "printed value has the opposite sign of the "
                            "general escort-average definition"},
        "stretched": {"printed": sum(pj * abs(math.log(pj)) for pj in p.probs)
                                 / sum(pj * abs(math.log(pj)) ** (1.0 - 1.0 / eta)
                                       for pj in p.probs),
                      "library": geo.entropy_amari(de, p),
                      "note": "printed ratio read with |log p|"},
    }]
    print(json.dumps(rows))
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args returns a
    fresh Namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="phigeo",
        description="deformed-logarithm information geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(sp):
        sp.add_argument("--family", required=True, choices=list(FAMILIES))
        for flag in ("q", "eta", "c", "d", "r", "nu"):
            sp.add_argument(f"--{flag}", type=float)

    sp = sub.add_parser("eval", help="evaluate a single quantity")
    add_family_flags(sp)
    sp.add_argument("--what", required=True, choices=list(QUANTITIES))
    sp.add_argument("--x", type=float)
    sp.add_argument("--p")
    sp.add_argument("--p2")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("verify", help="run a property suite")
    sp.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("fit", help="fit moment constraints")
    add_family_flags(sp)
    sp.add_argument("--constraints", required=True,
                    choices=["linear", "escort"])
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("figure", help="emit figure data as CSV")
    sp.add_argument("--which", required=True, choices=list(FIGURES))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("table2", help="evaluate the special-case table")
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--eta", type=float, default=2.0)
    sp.add_argument("--x", type=float, default=0.5)
    sp.add_argument("--p", default="0.3,0.7")
    sp.set_defaults(func=cmd_table2)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InfeasibleTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (PhigeoError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
