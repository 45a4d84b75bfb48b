"""Command line front end: evaluate library quantities, run verification
suites, fit moment-constrained families, and emit figure/table data.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 infeasible target, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .deform import Deformation, ProbVec, escort, h_phi, ts_dual
from .errors import (ConvergenceError, DivergentIntegralError,
                     InfeasibleTargetError, PhigeoError)
from .families import cd_family, identity, stretched, tsallis
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


def _fmt(v):
    return f"{v:.17g}"


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
        raise ValueError(f"--{name} is required for --what {args.what}")
    return value if name == "x" else _parse_probvec(value)


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


def _fig1_families():
    return [("c1.0_d1.0", cd_family(1.0, 1.0)),
            ("c1.0_d0.5", cd_family(1.0, 0.5)),
            ("c0.5_d0.0", cd_family(0.5, 0.0))]


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.which == "fig1":
        fams = _fig1_families()
        ps = [0.01 + 0.0025 * i for i in range(393)]
        rows_n, rows_a, rows_cr = [], [], []
        for pv in ps:
            prob = ProbVec(np.array([pv, 1.0 - pv]))
            rn, ra, rc = [pv], [pv], [pv]
            for _, d in fams:
                gN = geo.metric_naudts(d, prob).entries[0, 0]
                gA = geo.metric_amari(d, prob).entries[0, 0]
                info = h_phi(d, prob) * gN
                rn.append(gN)
                ra.append(gA)
                rc.extend([info, 1.0 / info])
            rows_n.append(rn)
            rows_a.append(ra)
            rows_cr.append(rc)
        labels = [lab for lab, _ in fams]
        _write_csv(os.path.join(args.out, "fig1_naudts.csv"),
                   ["p"] + [f"value_{l}" for l in labels], rows_n)
        _write_csv(os.path.join(args.out, "fig1_amari.csv"),
                   ["p"] + [f"value_{l}" for l in labels], rows_a)
        crh = ["p"]
        for l in labels:
            crh.extend([f"info_{l}", f"bound_{l}"])
        _write_csv(os.path.join(args.out, "fig1_crbound.csv"), crh, rows_cr)
        return EXIT_OK

    if args.which == "fig2":
        cs = [0.2 + 0.02 * i for i in range(61)]
        ds = [-1.0 + 0.05 * i for i in range(61)]
        prob = ProbVec(np.array([1.0 / 3.0, 2.0 / 3.0]))
        points = [(c, dd) for c in cs for dd in ds]

        def one(point):
            c, dd = point
            try:
                fam = cd_family(c, dd)
                gN = geo.metric_naudts(fam, prob).entries[0, 0]
                gA = geo.metric_amari(fam, prob).entries[0, 0]
                if not (math.isfinite(gN) and math.isfinite(gA)):
                    return (math.nan, math.nan)
                return (gN, gA)
            except PhigeoError:
                return (math.nan, math.nan)

        values = [one(point) for point in points]
        rows_n = [[c, dd, v[0]] for (c, dd), v in zip(points, values)]
        rows_a = [[c, dd, v[1]] for (c, dd), v in zip(points, values)]
        _write_csv(os.path.join(args.out, "fig2_naudts.csv"),
                   ["c", "d", "value"], rows_n)
        _write_csv(os.path.join(args.out, "fig2_amari.csv"),
                   ["c", "d", "value"], rows_a)
        return EXIT_OK
    raise ValueError(f"unknown figure {args.which}")


def cmd_table2(args) -> int:
    q, eta = args.q, args.eta
    x = args.x
    p = _parse_probvec(args.p)
    dq = tsallis(q)
    de = stretched(eta)

    def s_abslog(y):
        return math.copysign(abs(math.log(y)) ** (1.0 / eta), math.log(y))

    lx = math.log(x)
    rows = []
    rows.append({
        "row": "phi",
        "tsallis": {"printed": x ** q, "library": dq.phi(x)},
        "stretched": {"printed": x * eta * abs(lx) ** (1.0 - 1.0 / eta),
                      "library": de.phi(x),
                      "note": "printed log(x)^{1-1/eta} read as |log x| for x<1"},
    })
    rows.append({
        "row": "log",
        "tsallis": {"printed": (x ** (1.0 - q) - 1.0) / (1.0 - q),
                    "library": dq.log(x)},
        "stretched": {"printed": s_abslog(x), "library": de.log(x),
                      "note": "signed-power reading below x=1"},
    })
    yq = (x ** (1.0 - q) - 1.0) / (1.0 - q)
    ye = s_abslog(x)
    rows.append({
        "row": "exp",
        "tsallis": {"printed": (1.0 + (1.0 - q) * yq) ** (1.0 / (1.0 - q)),
                    "library": dq.exp(dq.log(x))},
        "stretched": {"printed": math.exp(math.copysign(abs(ye) ** eta, ye)),
                      "library": de.exp(de.log(x)),
                      "note": "printed exp(x^eta) extended by sign below 0"},
    })
    chie_den = (eta - 1.0) + eta * lx
    rows.append({
        "row": "chi",
        "tsallis": {"printed": x / q, "library": dq.phi(x) / dq.phi_prime(x)},
        "stretched": {"printed": (x * eta * lx / chie_den
                                  if chie_den != 0.0 else math.nan),
                      "library": de.phi(x) / de.phi_prime(x)},
    })
    if q == 2.0:
        sn_ts = sn_ts_lib = math.nan
        sn_note = "integral entropy diverges at q = 2"
    else:
        sn_ts = (sum(pj ** (2.0 - q) for pj in p.probs) / (2.0 - q) - 1.0) / (q - 1.0)
        sn_ts_lib = geo.entropy_naudts(dq, p)
        sn_note = None
    sn_st = sum(upper_gamma(1.0 + 1.0 / eta, -math.log(pj)) for pj in p.probs)
    ts_cell = {"printed": sn_ts, "library": sn_ts_lib}
    if sn_note:
        ts_cell["note"] = sn_note
    rows.append({
        "row": "entropy_n",
        "tsallis": ts_cell,
        "stretched": {"printed": sn_st, "library": geo.entropy_naudts(de, p)},
    })
    h = sum(pj ** q for pj in p.probs)
    sa_ts = (1.0 / h - 1.0) / (1.0 - q)
    num = sum(pj * abs(math.log(pj)) for pj in p.probs)
    den = sum(pj * abs(math.log(pj)) ** (1.0 - 1.0 / eta) for pj in p.probs)
    rows.append({
        "row": "entropy_a",
        "tsallis": {"printed": sa_ts, "library": geo.entropy_amari(dq, p),
                    "note": "printed value has the opposite sign of the "
                            "general escort-average definition"},
        "stretched": {"printed": num / den, "library": geo.entropy_amari(de, p),
                      "note": "printed ratio read with |log p|"},
    })
    print(json.dumps(rows))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phigeo",
        description="deformed-logarithm information geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(sp):
        sp.add_argument("--family", required=True, choices=list(FAMILIES))
        sp.add_argument("--q", type=float)
        sp.add_argument("--eta", type=float)
        sp.add_argument("--c", type=float)
        sp.add_argument("--d", type=float)
        sp.add_argument("--r", type=float)
        sp.add_argument("--nu", type=float)

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
    sp.add_argument("--which", required=True, choices=["fig1", "fig2"])
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
