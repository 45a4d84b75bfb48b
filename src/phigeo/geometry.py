"""Entropies, divergences, and Fisher metrics of the two dual kinds
(linear-constraint / Naudts and escort-constraint / Amari), together with
the operators connecting them and the (c,d) closed forms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deform import (Deformation, ProbVec, escort, exp_of_log, h_phi,
                     require_interior, uniform)
from .errors import BranchError, DivergentIntegralError
from .families import CdParams, cd_family
from .specfun import integrate, numeric_diff, upper_gamma


@dataclass
class MetricMatrix:
    """Symmetric metric matrix tagged with its coordinate chart.

    chart ``simplex_interior`` means coordinates (p_1, ..., p_{n-1}) with
    p_0 dependent; chart ``theta`` means natural parameters.  ``check`` is
    the report of an independent evaluation, where one was made.
    """
    entries: np.ndarray
    chart: str
    base_point: object = None
    check: DualityReport | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        self.entries = 0.5 * (m + m.T)

    def is_positive_definite(self) -> bool:
        return bool(np.all(np.linalg.eigvalsh(self.entries) > 0.0))


@dataclass
class DualityReport:
    lhs_label: str
    rhs_label: str
    max_abs_residual: float
    max_rel_residual: float
    grid: list = field(default_factory=list)
    conformal_factor: list | None = None


def _report(lhs_label, rhs_label, pairs, grid=None, conformal=None):
    abs_res = 0.0
    rel_res = 0.0
    for lhs, rhs in pairs:
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        diff = float(np.max(np.abs(lhs - rhs)))
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
        abs_res = max(abs_res, diff)
        rel_res = max(rel_res, diff / scale)
    return DualityReport(lhs_label, rhs_label, abs_res, rel_res,
                         grid=list(grid or []), conformal_factor=conformal)


# ---------------------------------------------------------------------------
# Entropies

def entropy_naudts(d: Deformation, p: ProbVec) -> float:
    """Linear-constraint (Naudts) entropy: -sum_j integral_0^{p_j} log_phi.

    Without a closed ``log_int0``, x = e^-t makes each integral one of
    g(t) = log_phi(e^-t) e^-t from t_j = -ln p_j out to where g decays.
    These share their tails: the tail past the largest t_j and each gap
    between sorted neighbours is integrated once, for all entries.
    """
    if d.log_int0 is not None:
        return -sum(d.log_int0(pj) for pj in p.probs if pj != 0.0)

    def g(t):
        return d.log(math.exp(-t)) * math.exp(-t)

    probes = [abs(g(t)) for t in (50.0, 100.0, 200.0)]
    if not (probes[1] < max(probes[0], 1e-280) and probes[2] < 1e-12):
        raise DivergentIntegralError(
            f"{d.name}: integral of log_phi from 0 diverges")
    hi = 200.0
    while abs(g(hi)) > 1e-16 and hi < 700.0:
        hi *= 1.5
    total = tail = 0.0
    for t in -np.sort(np.log(p.probs[p.probs != 0.0])):
        tail += integrate(g, t, hi)
        total += tail
        hi = t
    return -total


def entropy_amari(d: Deformation, p: ProbVec) -> float:
    """Escort-constraint (Amari, canonical) entropy:
    -(1/h_phi) sum_j phi(p_j) log_phi(p_j)."""
    require_interior(p, "entropy_amari")
    phis = d.phi(p.probs)
    return -float(phis @ d.log(p.probs)) / float(phis.sum())


def entropy_from_phi_nu(d: Deformation, nu: float, p: ProbVec) -> float:
    """Trace-form entropy sum_i (phi(p_i) - p_i)/nu of the deformed-log
    duality (Tsallis entropy for phi = x^q, nu = 1-q)."""
    require_interior(p, "entropy_from_phi_nu")
    return float(np.sum((d.phi(p.probs) - p.probs) / nu))


# ---------------------------------------------------------------------------
# Divergences

def divergence_naudts(d: Deformation, p: ProbVec, q: ProbVec) -> float:
    """sum_j integral_{q_j}^{p_j} (log_phi(x) - log_phi(q_j)) dx >= 0."""
    require_interior(p, "divergence_naudts")
    require_interior(q, "divergence_naudts")
    total = 0.0
    for pj, qj in zip(p.probs, q.probs):
        if d.log_int0 is not None:
            part = d.log_int0(pj) - d.log_int0(qj)
        else:
            part = integrate(d.log, qj, pj) if pj != qj else 0.0
        total += part - d.log(qj) * (pj - qj)
    return total


def divergence_amari(d: Deformation, p: ProbVec, q: ProbVec) -> float:
    """(1/h_phi(p)) sum_j phi(p_j) (log_phi(p_j) - log_phi(q_j))."""
    require_interior(p, "divergence_amari")
    require_interior(q, "divergence_amari")
    phis = d.phi(p.probs)
    return float(phis @ (d.log(p.probs) - d.log(q.probs))) / float(phis.sum())


def divergence_csiszar(f, p: ProbVec, q: ProbVec) -> float:
    """Csiszar f-divergence sum_i q_i f(p_i/q_i) for convex f with f(1)=0."""
    require_interior(q, "divergence_csiszar")
    return sum(qj * f(pj / qj) for pj, qj in zip(p.probs, q.probs))


def divergence_bregman(F, gradF, p: ProbVec, q: ProbVec) -> float:
    """Bregman divergence F(p) - F(q) - <grad F(q), p - q>."""
    g = np.asarray(gradF(q), dtype=float)
    return float(F(p) - F(q) - g @ (p.probs - q.probs))


# ---------------------------------------------------------------------------
# Metrics

def metric_naudts(d: Deformation, p: ProbVec) -> MetricMatrix:
    """g^N = diag(1/phi(p_i)) + 1/phi(p_0), simplex-interior chart."""
    require_interior(p, "metric_naudts")
    inv = 1.0 / d.phi(p.probs)
    m = np.diag(inv[1:]) + inv[0]
    return MetricMatrix(m, "simplex_interior", p)


def metric_amari(d: Deformation, p: ProbVec) -> MetricMatrix:
    """g^A = (1/h_phi) (diag(phi'/phi (p_i)) + phi'/phi (p_0))."""
    require_interior(p, "metric_amari")
    phis = d.phi(p.probs)
    ratio = d.phi_prime(p.probs) / phis
    m = (np.diag(ratio[1:]) + ratio[0]) / float(phis.sum())
    return MetricMatrix(m, "simplex_interior", p)


def metric_fd_oracle(div, p: ProbVec) -> MetricMatrix:
    """Finite-difference Hessian of q -> div(p, q) at q = p over the
    simplex-interior coordinates.  The independent oracle for the closed
    metric formulas."""
    require_interior(p, "metric_fd_oracle")

    def f(y):
        vec = np.concatenate(([1.0 - y.sum()], y))
        return div(p, ProbVec(vec))

    H = numeric_diff(f, p.probs[1:], "hessian")
    return MetricMatrix(np.atleast_2d(H), "simplex_interior", p)


def t_operator(d: Deformation, p: ProbVec) -> MetricMatrix:
    """The local transform T(g)(x) = -N_g (log g)'(x) applied to the Naudts
    diagonal generator g = 1/phi, with N_g = 1/sum_i(1/g(p_i)) = 1/h_phi.

    With that normalization T(g^N) reproduces the escort-constraint metric.
    """
    require_interior(p, "t_operator")
    phis = d.phi(p.probs)
    n_g = 1.0 / float(phis.sum())
    # -(log(1/phi))' = phi'/phi
    vals = n_g * d.phi_prime(p.probs) / phis
    m = np.diag(vals[1:]) + vals[0]
    return MetricMatrix(m, "simplex_interior", p)


def ts_metric_transform(d_ht: Deformation, nu: float, p: ProbVec) -> MetricMatrix:
    """T_nu(g)(x) = g(x) / (1 + nu * integral_1^x g)^2 applied to g = 1/phi.

    Written this way round the transform sends 1/phi to 1/phi_TS, since the
    dual generator is phi_TS = phi * (1 + nu * log_phi)^2; the factor moves
    upstairs only when the transform acts on phi itself.  The deformed-log
    integral is evaluated by quadrature here, so agreement with
    metric_naudts(ts_dual(d, nu), p) is a genuine two-path check.
    """
    require_interior(p, "ts_metric_transform")

    def val(x):
        acc = integrate(lambda y: 1.0 / d_ht.phi(y), 1.0, x)
        return 1.0 / ((1.0 + nu * acc) ** 2 * d_ht.phi(x))

    vals = np.array([val(pj) for pj in p.probs])
    m = np.diag(vals[1:]) + vals[0]
    return MetricMatrix(m, "simplex_interior", p)


def conformal_check(chi: Deformation, p: ProbVec,
                    xi: Deformation | None = None) -> DualityReport:
    """Check g^N_chi = h_xi * g^A_xi with xi = exp(log_chi).

    A pre-built xi may be passed in.  This saves little: constructing xi
    integrates nothing (its range limits, which this check never reads, are
    computed on first use)."""
    require_interior(p, "conformal_check")
    if xi is None:
        xi = exp_of_log(chi)
    lhs = metric_naudts(chi, p).entries
    omega = h_phi(xi, p)
    rhs = omega * metric_amari(xi, p).entries
    return _report("naudts_metric(chi)", "h_xi * amari_metric(xi)",
                   [(lhs, rhs)], grid=[p.probs.tolist()],
                   conformal=[omega])


# ---------------------------------------------------------------------------
# (c,d) closed forms

def cd_entropy_closed(params: CdParams, p: ProbVec) -> float:
    """The printed (c,d)-entropy r A^-d e^A sum_i Gamma(1+d, A - c ln p_i) - rc.

    Note: this equals c times the integral-form entropy of the (c,d)-log
    (a p-independent multiplicative constant, consistent with the
    entropy-up-to-a-constant convention)."""
    if params.branch != "generic":
        raise BranchError(
            f"cd_entropy_closed: no closed form on branch {params.branch}")
    c, d, r, A = params.c, params.d, params.r, params.A
    s = sum(upper_gamma(1.0 + d, A - c * math.log(pj)) for pj in p.probs)
    return r * A ** (-d) * math.exp(A) * s - r * c


def cd_entropy_aligned(params: CdParams, p: ProbVec,
                       constant: float | None = None) -> float:
    """Closed-form (c,d)-entropy mapped onto the integral-form convention:
    divide out the factor c, then shift by a constant fixed once at the
    uniform distribution (see cd_entropy_alignment_constant)."""
    base = cd_entropy_closed(params, p) / params.c
    return base + (constant if constant is not None else 0.0)


def cd_entropy_alignment_constant(params: CdParams, n: int) -> float:
    """The additive constant aligning cd_entropy_closed/c with the
    quadrature entropy, computed once at the uniform distribution."""
    u = uniform(n)
    quad = entropy_naudts(cd_family(params.c, params.d, params.r), u)
    return quad - cd_entropy_closed(params, u) / params.c


def _cd_printed_terms(params: CdParams, x: np.ndarray):
    """The printed (c,d) Naudts and Amari metric terms at each entry of x."""
    c, d, r = params.c, params.d, params.r
    k = (c - 1.0) * r + 1.0
    lx = np.log(x)
    dfam_log = r - r * x ** (c - 1.0) * (1.0 - (k / (d * r)) * lx) ** d
    num = (c - 1.0) * k * lx + d
    den = (-c * r + r - 1.0) * lx + d * r
    t1 = (d - 1.0) * k / (k * lx - d * r)
    t2 = ((c - 1.0) ** 2 * r + c - 1.0) / (
        (c - 1.0) * d * r - c * d * r + (c - 1.0) * k * lx + d + d * r)
    return (r - dfam_log) / x * (num / den), (2.0 - c - t1 - t2) / x


def cd_metrics_closed(params: CdParams, p: ProbVec):
    """Evaluate the two printed (c,d) metric expressions verbatim.

    Returns (naudts_matrix, amari_matrix).  The printed Naudts form equals
    the generic 1/phi metric; the printed Amari form omits the global
    1/h_phi factor of the general escort metric, so the attached check
    compares it against h_phi * metric_amari.  Each matrix carries its
    report as ``.check``.
    """
    if params.branch != "generic":
        raise BranchError(
            f"cd_metrics_closed: no closed form on branch {params.branch}")
    require_interior(p, "cd_metrics_closed")
    nvals, avals = _cd_printed_terms(params, p.probs)
    gN = np.diag(nvals[1:]) + nvals[0]
    gA = np.diag(avals[1:]) + avals[0]

    dfam = cd_family(params.c, params.d, params.r)
    h = h_phi(dfam, p)
    checkN = _report("printed_naudts", "generic_naudts",
                     [(gN, metric_naudts(dfam, p).entries)])
    checkA = _report("printed_amari", "h_phi * generic_amari",
                     [(gA, h * metric_amari(dfam, p).entries)])
    return (MetricMatrix(gN, "simplex_interior", p, check=checkN),
            MetricMatrix(gA, "simplex_interior", p, check=checkA))
