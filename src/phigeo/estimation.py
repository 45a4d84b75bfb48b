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
from .maxent import PhiExpFamily, pmf_jacobian


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


def _moment_curvature(fam: PhiExpFamily, est: Estimator) -> float:
    """f'' = d<c_0>/dtheta_0 along the family, by the 5-point stencil

        (8 (m_1 - m_-1) - (m_2 - m_-2)) / (12 h),  m_k = c_0 . p(theta + k h e_0),

    on the pmfs of ``fam.theta0_stencil``, with h = max(|theta_0|, 1) *
    eps^(1/5), about 7.4e-4.  Its error is O(h^4) truncation plus O(eps/h)
    rounding, a few 1e-12 relative; a central difference errs by up to
    1e-10, the size of the slack the bound is checked to.  f'' does not
    depend on the reference distribution, and the stencil is computed once
    per family.

    It stays a finite difference through ``normalize``, independent of the
    analytic Jacobian of ``dp_dtheta``: c_0^T J[:, 0] would make the bound
    Cauchy-Schwarz on one J, which cannot fail, so that form serves only as
    the oracle of the tests."""
    h, P = fam.theta0_stencil
    m = P @ est.c[:, 0]
    return float(8.0 * (m[2] - m[1]) - (m[3] - m[0])) / (12.0 * h)


def cr_report(fam: PhiExpFamily, P: ProbVec, est: Estimator) -> CRReport:
    """Variance-ratio bound Var_P(c_0)/(f'')^2 >= 1/I_00(P).

    f'' is the theta_0 derivative of the plain mean of c_0 along the
    family, a finite difference on the family's cached stencil (see
    ``_moment_curvature``), so a sweep over any number of P and estimators
    costs four ``normalize`` calls in all; I_00 comes from the analytic
    Jacobian, independently.  The bound is tight when P is the escort
    distribution and c = E, and ``equality`` reports a slack below 1e-8 in
    size."""
    require_interior(P, "cr_report")
    f2 = _moment_curvature(fam, est)
    if abs(f2) < 1e-14:
        raise DomainError("moment curvature vanishes; bound undefined")
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
