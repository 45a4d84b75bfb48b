"""Numerical kernels: Lambert W (over scipy), upper incomplete gamma,
adaptive quadrature, bracketed root finding, and finite differences.

Everything here is pure and holds no global state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .errors import BracketError, ConvergenceError, DomainError

_EPS = float(np.finfo(float).eps)

# Default finite-difference base steps: eps^(1/3) for gradients,
# eps^(1/4) for Hessians (truncation/round-off balance).
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


DEFAULT_TOL = Tolerance()

_INV_E = -1.0 / math.e


# ---------------------------------------------------------------------------
# Lambert W

_W_BRANCHES = {"principal": 0, "lower": -1}
# Below this distance e*x + 1 from the branch point, scipy's iteration loses
# accuracy on the lower branch (errors up to 1e-4 at e*x + 1 ~ 1e-9, NaN at
# -1/e itself); the branch-point series in p = +-sqrt(2(e*x + 1)), truncated
# after p^5, is exact to rounding there.
_W_SERIES_BELOW = 1e-6


def lambert_w(branch: str, x):
    """Real Lambert W: solve w*exp(w) = x on the requested branch.

    ``principal`` (k = 0) covers x >= -1/e with w >= -1; ``lower`` (k = -1)
    covers -1/e <= x < 0 with w <= -1.  Takes a scalar (returns a float) or
    an ndarray (returns an array of the same shape); any element outside the
    branch's domain raises DomainError.  Values rounded just below -1/e are
    clamped onto the branch point.
    """
    k = _W_BRANCHES.get(branch)
    if k is None:
        raise DomainError(f"unknown branch {branch!r}")
    xa = np.asarray(x, dtype=float)
    lo = float(xa.min(initial=math.inf))
    if math.isnan(lo):
        raise DomainError("lambert_w: x is NaN")
    # Tolerate rounding just below the branch point.
    if lo < _INV_E:
        if lo <= _INV_E - 1e-14 * abs(_INV_E) - 1e-300:
            raise DomainError(f"lambert_w: x={lo} below branch point -1/e")
        xa = np.maximum(xa, _INV_E)
    if k == -1 and xa.max(initial=-math.inf) >= 0.0:
        raise DomainError("lambert_w: lower branch requires x < 0")
    w = lambertw(xa, k).real
    if math.e * lo + 1.0 < _W_SERIES_BELOW:
        t = np.maximum(math.e * xa + 1.0, 0.0)
        p = np.sqrt(2.0 * t) * (1.0 if k == 0 else -1.0)
        series = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (
            11.0 / 72.0 + p * (-43.0 / 540.0 + p * 769.0 / 17280.0))))
        w = np.where(t < _W_SERIES_BELOW, series, w)
    return float(w) if w.ndim == 0 else w


# ---------------------------------------------------------------------------
# Upper incomplete gamma

def _upper_gamma_series(s, x, tol):
    # Gamma(s,x) = Gamma(s) - x^s e^-x sum x^n / (s(s+1)...(s+n))
    term = 1.0 / s
    total = term
    for n in range(1, tol.max_iter * 20):
        term *= x / (s + n)
        total += term
        if abs(term) < abs(total) * tol.rel_tol:
            return math.gamma(s) - total * math.exp(-x + s * math.log(x))
    raise ConvergenceError("upper_gamma: series did not converge")


def _upper_gamma_cf(s, x, tol):
    # Modified Lentz on the standard continued fraction (NR "gcf").
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, tol.max_iter * 20):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol.rel_tol:
            return h * math.exp(-x + s * math.log(x))
    raise ConvergenceError("upper_gamma: continued fraction did not converge")


def upper_gamma(s: float, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Non-regularized upper incomplete gamma Gamma(s, x).

    Series for x < s+1, continued fraction otherwise; for s <= 0 the
    recurrence Gamma(s,x) = (Gamma(s+1,x) - x^s e^-x)/s is applied until
    the shifted parameter is positive.
    """
    if x < 0.0 or math.isnan(x) or math.isnan(s):
        raise DomainError(f"upper_gamma: invalid x={x}")
    if s <= 0.0:
        if x == 0.0:
            raise DomainError("upper_gamma: integral diverges for s <= 0, x = 0")
        return (upper_gamma(s + 1.0, x, tol) - math.exp(s * math.log(x) - x)) / s
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return _upper_gamma_series(s, x, tol)
    return _upper_gamma_cf(s, x, tol)


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 7-15, globally adaptive)

_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _gk15(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fk = 0.0
    fg = 0.0
    for j in range(8):
        xj = _XGK[j] * h
        if j == 7:
            v = f(c)
            fk += _WGK[7] * v
            fg += _WG[3] * v
            break
        v1 = f(c - xj)
        v2 = f(c + xj)
        fk += _WGK[j] * (v1 + v2)
        if j % 2 == 1:
            fg += _WG[j // 2] * (v1 + v2)
    kron = fk * h
    gauss = fg * h
    err = abs(kron - gauss)
    if math.isnan(kron):
        raise DomainError("integrate: integrand returned NaN")
    return kron, err


def integrate(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Globally adaptive Gauss-Kronrod integration of f over (a, b).

    Endpoints are never evaluated, so integrable endpoint singularities
    (logarithmic, or power with exponent > -1) are handled by subdivision.
    An infinite endpoint is mapped onto a finite interval first.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if math.isinf(a) and math.isinf(b):
        return sign * (integrate(f, a, 0.0, tol) + integrate(f, 0.0, b, tol))
    if math.isinf(b):
        g = lambda t: f(a + t / (1.0 - t)) / (1.0 - t) ** 2
        return sign * integrate(g, 0.0, 1.0, tol)
    if math.isinf(a):
        g = lambda t: f(b - t / (1.0 - t)) / (1.0 - t) ** 2
        return sign * integrate(g, 0.0, 1.0, tol)

    val, err = _gk15(f, a, b)
    # Max-heap of (neg error, interval, value, error).
    heap = [(-err, a, b, val, err)]
    total = val
    total_err = err
    budget = 4000
    for _ in range(budget):
        goal = max(tol.abs_tol, tol.rel_tol * abs(total))
        if total_err <= goal:
            return sign * total
        neg, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # Interval at machine resolution; accept its estimate as-is.
            total_err -= e
            total_err += 0.0
            heapq.heappush(heap, (0.0, lo, hi, v, 0.0))
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    if total_err <= max(tol.abs_tol, tol.rel_tol * abs(total)) * 10.0:
        return sign * total
    raise ConvergenceError(
        f"integrate: subdivision budget exhausted (err~{total_err:.3g})")


# ---------------------------------------------------------------------------
# Root finding

def find_root(f, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Safeguarded scalar root finder on a sign-change bracket.

    Secant steps are taken when they fall inside the current bracket and
    shrink it; otherwise the step falls back to bisection.
    """
    flo = f(lo)
    fhi = f(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise DomainError("find_root: NaN at bracket endpoint")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"find_root: no sign change on [{lo}, {hi}]")

    a, fa, b, fb = lo, flo, hi, fhi
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for _ in range(max(tol.max_iter, 100)):
        if abs(b - a) < tol.abs_tol + tol.rel_tol * abs(b):
            return 0.5 * (a + b)
        x_new = None
        if f_cur != f_prev:
            cand = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
            if a < cand < b:
                x_new = cand
        if x_new is None or min(x_new - a, b - x_new) < 0.01 * (b - a):
            x_new = 0.5 * (a + b)
        f_new = f(x_new)
        if math.isnan(f_new):
            raise DomainError("find_root: NaN during iteration")
        if f_new == 0.0:
            return x_new
        if fa * f_new < 0.0:
            b, fb = x_new, f_new
        else:
            a, fa = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
    raise ConvergenceError("find_root: did not converge")


# ---------------------------------------------------------------------------
# Finite differences

def numeric_diff(f, x, order: str, base_step: float | None = None):
    """Central-difference gradient or Hessian of a scalar function.

    The step for coordinate i is max(|x_i|, 1) * base_step.  The Hessian
    uses the symmetric four-point cross stencil and is symmetrized.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    if order == "gradient":
        h0 = GRAD_STEP if base_step is None else base_step
        g = np.empty(n)
        for i in range(n):
            h = max(abs(x[i]), 1.0) * h0
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            g[i] = (f(xp) - f(xm)) / (2.0 * h)
        if np.any(np.isnan(g)):
            raise DomainError("numeric_diff: NaN in gradient stencil")
        return g if n > 1 else float(g[0])
    if order == "hessian":
        h0 = HESS_STEP if base_step is None else base_step
        hs = np.array([max(abs(xi), 1.0) * h0 for xi in x])
        f0 = f(x)
        H = np.empty((n, n))
        for i in range(n):
            xp = x.copy(); xp[i] += hs[i]
            xm = x.copy(); xm[i] -= hs[i]
            H[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / hs[i] ** 2
            for j in range(i + 1, n):
                xpp = x.copy(); xpp[i] += hs[i]; xpp[j] += hs[j]
                xpm = x.copy(); xpm[i] += hs[i]; xpm[j] -= hs[j]
                xmp = x.copy(); xmp[i] -= hs[i]; xmp[j] += hs[j]
                xmm = x.copy(); xmm[i] -= hs[i]; xmm[j] -= hs[j]
                H[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * hs[i] * hs[j])
                H[j, i] = H[i, j]
        if np.any(np.isnan(H)):
            raise DomainError("numeric_diff: NaN in Hessian stencil")
        return 0.5 * (H + H.T)
    raise DomainError(f"numeric_diff: unknown order {order!r}")
