"""Deformed exponential families on finite configuration sets: the
normalizer Psi, maximum-entropy fitting under linear and escort moment
constraints with analytic Jacobians, and the Legendre pair built on the
Massieu function -Psi."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import (Deformation, ProbVec, _phi_values, escort,
                     require_interior)
from .errors import (ConvergenceError, DomainError, InfeasibleTargetError,
                     NoNormalizationError, RangeError)


@dataclass(frozen=True)
class ConfigMatrix:
    """n states by m constraints; row i is the configuration vector E_i.

    The columns must be linearly independent of each other and of the
    all-ones vector, otherwise theta is not identifiable.
    """
    E: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.E, dtype=float))
        if m.shape[0] == 1 and m.shape[1] > 1 and np.ndim(self.E) == 1:
            m = m.T
        object.__setattr__(self, "E", m)
        n, k = m.shape
        if n < 2 or k < 1:
            raise DomainError(f"configuration matrix must be at least 2x1, got {n}x{k}")
        if not np.all(np.isfinite(m)):
            raise DomainError("configuration matrix has non-finite entries")
        aug = np.column_stack([np.ones(n), m])
        if np.linalg.matrix_rank(aug) < k + 1:
            raise DomainError(
                "columns of E plus the constant are linearly dependent; "
                "theta would not be identifiable")

    @property
    def n_states(self) -> int:
        return self.E.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.E.shape[1]


@dataclass(frozen=True)
class PhiExpFamily:
    """p_i = exp_phi(psi + theta . E_i) with psi caching the normalizer."""
    d: Deformation
    E: ConfigMatrix
    theta: np.ndarray
    psi: float
    pmf: ProbVec

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))


def normalize(d: Deformation, E: ConfigMatrix, theta) -> PhiExpFamily:
    """Find the unique psi with sum_i exp_phi(psi + theta . E_i) = 1.

    The sum is non-decreasing in psi (strictly where positive), so the root
    is bracketed and found by safeguarded Newton steps; states may sit
    below the cutoff.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != E.n_constraints:
        raise DomainError("theta length does not match constraint count")
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    a = E.E @ theta
    n = E.n_states

    log_unif = d.log(1.0 / n)
    lo = log_unif - float(np.max(a))
    hi = log_unif - float(np.min(a))
    # keep every argument strictly below the upper range limit
    cap = d.log_upper_limit - float(np.max(a))
    if math.isfinite(cap):
        hi = min(hi, lo + 0.999999 * (cap - lo))
    p_hi = d.exp(hi + a)
    grow = 0
    while p_hi.sum() < 1.0:
        if math.isfinite(cap) and hi >= lo + 0.9999995 * (cap - lo):
            raise NoNormalizationError(
                f"{d.name}: no psi below the range limit normalizes theta={theta}")
        step = max(hi - lo, 1.0)
        hi = hi + step if not math.isfinite(cap) else min(
            hi + step, lo + 0.9999995 * (cap - lo))
        p_hi = d.exp(hi + a)
        grow += 1
        if grow > 200:
            raise NoNormalizationError(
                f"{d.name}: failed to bracket the normalizer for theta={theta}")
    psi, probs = _solve_psi(d, a, lo, hi, p_hi)
    s = probs.sum()
    if abs(s - 1.0) > 1e-10:
        raise NoNormalizationError(
            f"{d.name}: normalizer residual {s - 1.0:.3e} too large")
    return PhiExpFamily(d, E, theta, psi, ProbVec(probs / s))


def _solve_psi(d: Deformation, a: np.ndarray, lo: float, hi: float,
               p_hi: np.ndarray):
    """psi in [lo, hi] with sum_i exp_phi(psi + a_i) = 1, given the pmf at
    hi, whose sum is at least 1.

    Newton steps on g(psi) = log sum_i exp_phi(psi + a_i), whose slope is
    sum_{p_i>0} phi(p_i) / sum_i p_i because exp_phi' = phi(exp_phi); g is
    linear in psi for the ordinary exponential.  A step that leaves the
    bracket [lo, hi], kept around the root, is replaced by bisection.  The
    root counts as found when the Newton correction or the bracket is
    below 1e-14 (absolute plus relative), within 300 steps; returns psi and
    the unnormalized pmf there."""
    psi, p = hi, p_hi
    for _ in range(300):
        s = p.sum()
        if math.isnan(s):
            raise DomainError(f"{d.name}: exp_phi gave NaN while normalizing")
        if s == 1.0:
            return psi, p
        if s > 1.0:
            hi = psi
        else:
            lo = psi
        tol = 1e-14 + 1e-14 * abs(psi)
        live = p > 0.0
        slope = d.phi(p[live]).sum() / s if s > 0.0 else 0.0
        if slope > 0.0 and math.isfinite(slope):
            step = math.log(s) / slope
            if abs(step) <= tol:
                return psi, p
            nxt = psi - step
        else:
            nxt = math.nan
        if not (lo < nxt < hi):
            if hi - lo <= tol:
                return psi, p
            nxt = 0.5 * (lo + hi)
        psi = nxt
        p = d.exp(psi + a)
    raise ConvergenceError(f"{d.name}: normalizer did not converge")


def psi_forms(fam: PhiExpFamily) -> dict:
    """The normalizer recovered three ways.

    From log_phi(p_i) = psi + theta . E_i, averaging with any weights w
    gives psi = <log_phi(p)>_w - theta . <E>_w; psi_linear uses w = p,
    psi_escort the escort weights.  phi_sum_diagnostic reports -sum phi(p_i),
    a quantity sometimes quoted as the normalizer but generally different
    from it; it is returned without any equality claim.
    """
    require_interior(fam.pmf, "psi_forms")
    d, p = fam.d, fam.pmf.probs
    logs = d.log(p)
    phis = d.phi(p)
    esc = phis / phis.sum()
    mom_lin = fam.E.E.T @ p
    mom_esc = fam.E.E.T @ esc
    return {
        "psi_root": fam.psi,
        "psi_linear": float(logs @ p - fam.theta @ mom_lin),
        "psi_escort": float(logs @ esc - fam.theta @ mom_esc),
        "phi_sum_diagnostic": -float(phis.sum()),
    }


def eta_coords(fam: PhiExpFamily) -> np.ndarray:
    """Dual coordinates: escort moments eta = E^T . escort(pmf).

    They equal the gradient of the Massieu function -psi(theta); the
    normalizer itself has gradient -eta."""
    require_interior(fam.pmf, "eta_coords")
    return fam.E.E.T @ escort(fam.d, fam.pmf).probs


def massieu(fam: PhiExpFamily) -> float:
    """-psi, the potential whose theta-gradient is eta."""
    return -fam.psi


def varphi_dual(fam: PhiExpFamily) -> dict:
    """The Legendre transform of the Massieu function at eta.

    legendre_value = theta . eta - (-psi); escort_average_value is the
    escort mean of log_phi(p).  Both equal minus the escort-constraint
    entropy."""
    require_interior(fam.pmf, "varphi_dual")
    d, p = fam.d, fam.pmf.probs
    eta = eta_coords(fam)
    esc = escort(d, fam.pmf).probs
    avg = float(esc @ d.log(p))
    return {
        "legendre_value": float(fam.theta @ eta + fam.psi),
        "escort_average_value": avg,
    }


def _hull_check(E: ConfigMatrix, targets: np.ndarray):
    """Require the targets strictly inside the convex hull of the rows of E.

    First a certificate: w, the mixture nearest the uniform pmf among those
    that represent the targets (A w = b with A = [E^T; 1^T], b = [t; 1]).
    If every weight exceeds the LP's margin and the constraints hold to
    rounding, w is feasible for the LP below with objective above that
    margin, so the targets pass.  Otherwise the LP decides: it maximizes the
    smallest weight of a representing mixture; a non-positive optimum means
    the targets sit outside or on a face reachable only by boundary
    distributions."""
    n, m = E.E.shape
    A = np.vstack([E.E.T, np.ones(n)])
    b = np.concatenate([targets, [1.0]])
    u = np.full(n, 1.0 / n)
    w = u + np.linalg.lstsq(A, b - A @ u, rcond=None)[0]
    if (np.min(w) > 1e-10 and np.max(np.abs(A @ w - b))
            <= 1e-12 * max(1.0, np.max(np.abs(b)))):
        return
    # the only use of scipy.optimize: importing it here keeps it off
    # `import phigeo`
    from scipy.optimize import linprog

    # variables: w_1..w_n, t ; maximize t
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_eq = np.column_stack([A, np.zeros(m + 1)])
    A_ub = np.zeros((n, n + 1))
    A_ub[:, :n] = -np.eye(n)
    A_ub[:, -1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=b,
                  bounds=[(None, None)] * n + [(None, None)], method="highs")
    if not res.success or -res.fun <= 1e-10:
        raise InfeasibleTargetError(
            f"targets {targets} are not strictly inside the hull of the "
            "configuration rows")


def _support_phi(d: Deformation, p: np.ndarray) -> np.ndarray:
    """phi(p_i) on the support p_i > 0, and 0 on the cutoff states."""
    w = np.zeros(p.shape)
    live = p > 0.0
    w[live] = d.phi(p[live])
    return w


def pmf_jacobian(E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dp/dtheta of p_i = exp_phi(psi + theta . E_i), given w = phi(p) on
    the support (0 on cutoff states): w_i (E_ij - eta_j) with eta = E^T w /
    sum(w), because exp_phi' = phi(exp_phi) and the normalizer has gradient
    -eta.  Every column sums to 0."""
    return w[:, None] * (E - (E.T @ w) / w.sum())


def _linear_moments(fam: PhiExpFamily):
    """E^T p and its theta-Jacobian E^T dp/dtheta."""
    E, p = fam.E.E, fam.pmf.probs
    return E.T @ p, E.T @ pmf_jacobian(E, _support_phi(fam.d, p))


def _escort_moments(fam: PhiExpFamily):
    """E^T P with P the escort of p, and its theta-Jacobian E^T dP/dtheta,
    dP/dtheta = (phi'(p) o J - P (phi'(p)^T J)) / h_phi with J = dp/dtheta;
    phi' is taken on the support only, where J is nonzero."""
    d, E, p = fam.d, fam.E.E, fam.pmf.probs
    w = _phi_values(d, fam.pmf)
    h = w.sum()
    P = w / h
    live = p > 0.0
    J = pmf_jacobian(E, np.where(live, w, 0.0))
    G = np.zeros(J.shape)
    G[live] = d.phi_prime(p[live])[:, None] * J[live]
    return E.T @ P, E.T @ ((G - P[:, None] * G.sum(axis=0)) / h)


def _fit(d: Deformation, E: ConfigMatrix, targets, moments, label):
    """Check the targets, then descend from theta = 0."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if targets.shape[0] != E.n_constraints:
        raise DomainError("target length does not match constraint count")
    _hull_check(E, targets)
    return _descend(d, E, targets, moments, np.zeros(E.n_constraints), label)


def _descend(d: Deformation, E: ConfigMatrix, targets, moments, theta,
             label) -> PhiExpFamily:
    """Newton descent on the moment residual r = moments - targets from theta.

    Both residuals are gradients of convex potentials: the escort one of
    -psi - theta . t, the linear one of sum_i Lambda(psi + theta . E_i) - psi
    - theta . t with Lambda' = exp_phi.  So the moment Jacobian J is their
    Hessian, symmetric positive semi-definite, and singular along directions
    that only move states held at the cutoff.  Each step solves
    (J + mu I) s = -r on the eigenvectors of J, with mu the norm of the part
    of r in J's null space: Newton's step where J is nonsingular, a
    Levenberg-Marquardt step where it is singular along r, and -r/|r| where
    J = 0.  The step is halved until the trapezoid estimate
    (r + r_new) . s / 2 of the potential's change is at most 1e-4 of the
    linear one r . s; that needs r only, as the linear potential has no
    closed form in general."""

    def evaluate(th):
        fam = normalize(d, E, th)
        mom, jac = moments(fam)
        return fam, mom - targets, jac

    fam, r, J = evaluate(theta)
    for _ in range(100):
        if np.max(np.abs(r)) <= 1e-10:
            return fam
        w, V = np.linalg.eigh(J)
        c = r @ V
        null = w <= 1e-13 * w[-1]
        mu = math.sqrt(c[null] @ c[null])
        # mu = 0 leaves c = 0 on the null space, which then takes no step
        w[null] = 0.0 if mu else math.inf
        step = V @ (c / -(w + mu))
        bound = -(1.0 - 2e-4) * (r @ step)
        lam = 1.0
        for _ in range(60):
            try:
                fam_new, r_new, J_new = evaluate(theta + lam * step)
            except (NoNormalizationError, RangeError, OverflowError):
                lam *= 0.5
                continue
            if r_new @ step <= bound:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"{label}: descent stalled at residual {np.max(np.abs(r)):.3e}")
        theta = theta + lam * step
        fam, r, J = fam_new, r_new, J_new
    if np.max(np.abs(r)) <= 1e-8:
        return fam
    raise ConvergenceError(
        f"{label}: residual {np.max(np.abs(r)):.3e} after iteration budget")


def fit_linear_moments(d: Deformation, E: ConfigMatrix, targets) -> PhiExpFamily:
    """theta such that E^T . pmf = targets (entropy of integral type is
    maximal under these plain moment constraints)."""
    return _fit(d, E, targets, _linear_moments, "fit_linear_moments")


def fit_escort_moments(d: Deformation, E: ConfigMatrix, targets) -> PhiExpFamily:
    """theta such that E^T . escort(pmf) = targets (canonical entropy is
    maximal under escort moment constraints)."""
    return _fit(d, E, targets, _escort_moments, "fit_escort_moments")
