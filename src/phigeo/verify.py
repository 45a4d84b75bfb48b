"""Named property suites over the built-in family matrix, shared by the
command line and the test battery.  Each check is a (name, residual,
tolerance) triple; a suite passes when every residual is below its
tolerance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import ProbVec, escort, exp_of_log, ts_dual
from .families import cd_family, identity, stretched, tsallis
from . import geometry as geo
from . import estimation as est
from .maxent import ConfigMatrix, normalize


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.residual) and self.residual < self.tol


def _families():
    return [
        ("shannon", identity()),
        ("tsallis_q0.5", tsallis(0.5)),
        ("tsallis_q2", tsallis(2.0)),
        ("stretched_eta0.5", stretched(0.5)),
        ("stretched_eta2", stretched(2.0)),
        ("cd_1_1", cd_family(1.0, 1.0)),
        ("cd_1_0.5", cd_family(1.0, 0.5)),
        ("cd_0.5_0", cd_family(0.5, 0.0)),
        ("cd_0.7_0.4", cd_family(0.7, 0.4)),
        ("cd_0.8_-0.5", cd_family(0.8, -0.5)),
    ]


def _random_interior(rng, n):
    w = rng.dirichlet(np.full(n, 3.0))
    w = np.clip(w, 0.02, None)
    return ProbVec(w / w.sum())


def suite_roundtrip(seed=0):
    checks = []
    for label, d in _families():
        hi = min(10.0, 0.9 * d.x_upper)
        grid = np.geomspace(1e-4, hi, 12)
        tol = 1e-10 if d.log_closed is not None else 1e-8
        worst = 0.0
        for x in grid:
            back = d.exp(d.log(x))
            worst = max(worst, abs(back - x) / max(x, 1.0))
        checks.append(Check(f"roundtrip/{label}", worst, tol))
    return checks


def suite_metrics_fd(seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    subset = [f for f in _families()
              if f[0] in ("tsallis_q0.5", "tsallis_q2", "stretched_eta2",
                          "cd_0.7_0.4")]
    for label, d in subset:
        for n in (2, 3):
            worst_n = worst_a = 0.0
            for _ in range(3):
                p = _random_interior(rng, n)
                on = geo.metric_fd_oracle(
                    lambda a, b: geo.divergence_naudts(d, a, b), p)
                oa = geo.metric_fd_oracle(
                    lambda a, b: geo.divergence_amari(d, a, b), p)
                worst_n = max(worst_n, geo.rel_residual(
                    geo.metric_naudts(d, p).entries, on.entries))
                worst_a = max(worst_a, geo.rel_residual(
                    geo.metric_amari(d, p).entries, oa.entries))
            checks.append(Check(f"metrics-fd/{label}/n{n}/naudts", worst_n, 1e-4))
            checks.append(Check(f"metrics-fd/{label}/n{n}/amari", worst_a, 1e-4))
    return checks


def suite_t_operator(seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    for label, d in _families():
        worst = 0.0
        for _ in range(5):
            p = _random_interior(rng, 3)
            worst = max(worst, float(np.max(np.abs(
                geo.t_operator(d, p).entries - geo.metric_amari(d, p).entries))))
        checks.append(Check(f"t-operator/{label}", worst, 1e-10))
    return checks


def suite_conformal(seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    chis = [("tsallis_q0.5", tsallis(0.5)),
            ("tsallis_q2", tsallis(2.0)),
            ("cd_0.8_0.5", cd_family(0.8, 0.5))]
    for label, chi in chis:
        xi = exp_of_log(chi)
        worst = 0.0
        for n in (2, 3):
            for _ in range(3):
                p = _random_interior(rng, n)
                rep = geo.conformal_check(chi, p, xi=xi)
                worst = max(worst, rep.max_rel_residual)
        checks.append(Check(f"conformal/{label}", worst, 1e-6))
    return checks


def suite_ts_duality(seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    for q in (0.5, 1.4):
        nu = 1.0 - q
        d = tsallis(q)
        dual = ts_dual(d, nu)
        worst = 0.0
        worst_s = 0.0
        for _ in range(3):
            p = _random_interior(rng, 3)
            m1 = geo.ts_metric_transform(d, nu, p).entries
            m2 = geo.metric_naudts(dual, p).entries
            worst = max(worst, geo.rel_residual(m1, m2))
            s1 = geo.entropy_from_phi_nu(d, nu, p)
            s2 = sum((pj ** q - pj) / (1.0 - q) for pj in p.probs)
            worst_s = max(worst_s, abs(s1 - s2))
        checks.append(Check(f"ts-duality/metric/q{q}", worst, 1e-8))
        checks.append(Check(f"ts-duality/entropy/q{q}", worst_s, 1e-14))
    return checks


def suite_cr_bound(seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    E = ConfigMatrix(np.array([[0.0], [1.0], [3.0]]))
    c = est.Estimator(E.E)
    subset = [f for f in _families()
              if f[0] in ("shannon", "tsallis_q0.5", "tsallis_q2")]
    for label, d in subset:
        fam = normalize(d, E, [float(rng.uniform(-0.3, 0.3))])
        worst_neg = 0.0
        for _ in range(100):
            P = _random_interior(rng, 3)
            rep = est.cr_report(fam, P, c)
            worst_neg = max(worst_neg, -rep.slack)
        checks.append(Check(f"cr-bound/sweep/{label}", worst_neg, 1e-10))
        rep = est.cr_report(fam, escort(d, fam.pmf), c)
        checks.append(Check(f"cr-bound/escort-equality/{label}",
                            abs(rep.slack), 1e-8))
    return checks


def suite_identities(seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    E = ConfigMatrix(np.array([[0.0], [1.0], [3.0]]))
    subset = [f for f in _families()
              if f[0] in ("shannon", "tsallis_q0.5", "tsallis_q2",
                          "stretched_eta2", "cd_0.8_-0.5")]
    for label, d in subset:
        fam = normalize(d, E, [float(rng.uniform(-0.2, 0.3))])
        rn = est.naudts_identity_check(fam)
        ra = est.amari_identity_check(fam)
        checks.append(Check(f"identities/naudts/{label}",
                            rn.max_rel_residual, 1e-6))
        checks.append(Check(f"identities/amari/{label}",
                            ra.max_rel_residual, 1e-5))
    return checks


SUITES = {
    "roundtrip": suite_roundtrip,
    "metrics-fd": suite_metrics_fd,
    "t-operator": suite_t_operator,
    "conformal": suite_conformal,
    "ts-duality": suite_ts_duality,
    "cr-bound": suite_cr_bound,
    "identities": suite_identities,
}


def run_suite(name, seed=0):
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(seed))
        return out
    return SUITES[name](seed)
