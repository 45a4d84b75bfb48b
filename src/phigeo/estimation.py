"""Generalized Fisher information with an arbitrary reference distribution,
the associated variance bound with its equality case at the escort
distribution, and the checks tying the information matrices back to the
two simplex metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deform import ProbVec, escort, exp_of_log, h_phi, require_interior
from .errors import DomainError
from .geometry import DualityReport, MetricMatrix, metric_amari, metric_naudts, _report
from .maxent import PhiExpFamily, normalize, pmf_jacobian
from .specfun import GRAD_STEP


@dataclass(frozen=True)
class Estimator:
    """Per-state values of the estimator components: n states x m."""
    c: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.c, dtype=float))
        if np.ndim(self.c) == 1:
            m = m.T
        if not np.all(np.isfinite(m)):
            raise DomainError("estimator has non-finite entries")
        object.__setattr__(self, "c", m)


@dataclass(frozen=True)
class CRReport:
    lhs: float
    rhs: float
    slack: float
    equality: bool
    f_second: float


def dp_dtheta(fam: PhiExpFamily) -> np.ndarray:
    """Analytic Jacobian of the pmf in theta: phi(p_i) (E_ij - eta_j).

    Differentiating p_i = exp_phi(psi + theta . E_i) and using that the
    normalizer has gradient -eta gives this form; every column sums to 0.
    """
    require_interior(fam.pmf, "dp_dtheta")
    return pmf_jacobian(fam.E.E, fam.d.phi(fam.pmf.probs))


def fisher_general(fam: PhiExpFamily, P: ProbVec) -> MetricMatrix:
    """I_kl = sum_i (1/P_i) dp_i/dtheta_k dp_i/dtheta_l, theta chart."""
    require_interior(P, "fisher_general")
    if P.probs.shape[0] != fam.E.n_states:
        raise DomainError("reference distribution length mismatch")
    J = dp_dtheta(fam)
    I = J.T @ (J / P.probs[:, None])
    return MetricMatrix(I, "theta")


def regularity_check(fam: PhiExpFamily, P: ProbVec) -> float:
    """max_k |sum_i P_i (1/P_i) dp_i/dtheta_k|; zero by normalization,
    evaluated explicitly as a sanity gate before the variance bound."""
    require_interior(P, "regularity_check")
    return float(np.max(np.abs(dp_dtheta(fam).sum(axis=0))))


def _moment_curvature(fam: PhiExpFamily, est: Estimator) -> float:
    """d/dtheta_0 of <c_0> under pmf(theta), by central differences along
    the family."""
    d, E = fam.d, fam.E

    def mean_c0(theta):
        return float(est.c[:, 0] @ normalize(d, E, theta).pmf.probs)

    h = max(abs(fam.theta[0]), 1.0) * GRAD_STEP
    tp = fam.theta.copy(); tp[0] += h
    tm = fam.theta.copy(); tm[0] -= h
    return (mean_c0(tp) - mean_c0(tm)) / (2.0 * h)


def cr_report(fam: PhiExpFamily, P: ProbVec, est: Estimator) -> CRReport:
    """Variance-ratio bound Var_P(c_0)/(f'')^2 >= 1/I_00(P).

    f'' is the theta_0 derivative of the plain mean of c_0 along the
    family; the bound is tight when P is the escort distribution and
    c = E, and ``equality`` reports a slack below 1e-8 in size."""
    require_interior(P, "cr_report")
    if regularity_check(fam, P) > 1e-10:
        raise DomainError("regularity condition violated")
    f2 = _moment_curvature(fam, est)
    if abs(f2) < 1e-14:
        raise ZeroDivisionError("moment curvature vanishes; bound undefined")
    w = P.probs
    c0 = est.c[:, 0]
    var = float(w @ (c0 * c0) - (w @ c0) * (w @ c0))
    I = fisher_general(fam, P).entries[0, 0]
    lhs = var / f2 ** 2
    rhs = 1.0 / I
    slack = lhs - rhs
    return CRReport(lhs, rhs, slack, abs(slack) < 1e-8, f2)


def _pullback(fam: PhiExpFamily, simplex_metric: MetricMatrix) -> np.ndarray:
    """J^T g J with J the Jacobian restricted to the independent simplex
    coordinates (entry 0 dropped)."""
    J = dp_dtheta(fam)[1:, :]
    return J.T @ simplex_metric.entries @ J


def naudts_identity_check(fam: PhiExpFamily) -> DualityReport:
    """fisher_general at the escort distribution equals h_phi times the
    theta-pullback of the linear-constraint simplex metric."""
    require_interior(fam.pmf, "naudts_identity_check")
    d, p = fam.d, fam.pmf
    lhs = fisher_general(fam, escort(d, p)).entries
    rhs = h_phi(d, p) * _pullback(fam, metric_naudts(d, p))
    return _report(lhs, rhs)


def amari_identity_check(fam: PhiExpFamily) -> DualityReport:
    """Escort-metric route: with xi = exp(log_phi), the matrix
    h_xi * pullback(amari_metric(xi)) equals fisher_general at the
    phi-escort divided by h_phi.

    Both sides reduce to the pullback of the linear-constraint metric (the
    conformal factor h_xi cancels the 1/h_xi inside the escort metric and
    xi'/xi = 1/phi), but the left side exercises the numerically built xi
    end to end.  Note the reference distribution achieving this is the
    phi-escort, not the xi-escort; the xi-escort weights would break the
    identity for any non-self-dual generator."""
    require_interior(fam.pmf, "amari_identity_check")
    d, p = fam.d, fam.pmf
    xi = exp_of_log(d)
    lhs = h_phi(xi, p) * _pullback(fam, metric_amari(xi, p))
    rhs = fisher_general(fam, escort(d, p)).entries / h_phi(d, p)
    return _report(lhs, rhs)
