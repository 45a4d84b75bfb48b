"""Numerical kernels: upper incomplete gamma, adaptive quadrature and
finite differences.

Everything here is pure and holds no global state.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(float).eps)

# Default finite-difference base steps: eps^(1/3) for gradients,
# eps^(1/4) for Hessians, eps^(1/5) for the 5-point first derivative
# (truncation/round-off balance).
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25
FIVE_POINT_STEP = _EPS ** 0.2


# The tolerance of every integral: absolute below a total of 1, relative
# above it.
QUAD_TOL = 1e-13


# ---------------------------------------------------------------------------
# Upper incomplete gamma

def _upper_gamma_series(s, x):
    # Gamma(s,x) = Gamma(s) - x^s e^-x sum x^n / (s(s+1)...(s+n))
    term = 1.0 / s
    total = term
    for n in range(1, 4000):
        term *= x / (s + n)
        total += term
        if abs(term) < abs(total) * 1e-12:
            return math.gamma(s) - total * math.exp(-x + s * math.log(x))
    raise ConvergenceError("upper_gamma: series did not converge")


def _upper_gamma_cf(s, x):
    # Modified Lentz on the standard continued fraction (NR "gcf").
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 4000):
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
        if abs(delta - 1.0) < 1e-12:
            return h * math.exp(-x + s * math.log(x))
    raise ConvergenceError("upper_gamma: continued fraction did not converge")


def upper_gamma(s: float, x: float) -> float:
    """Non-regularized upper incomplete gamma Gamma(s, x).

    Series for x < s+1, continued fraction otherwise, each summed to a
    relative 1e-12 within 4000 terms; for s <= 0 the
    recurrence Gamma(s,x) = (Gamma(s+1,x) - x^s e^-x)/s is applied until
    the shifted parameter is positive.
    """
    if x < 0.0 or math.isnan(x) or math.isnan(s):
        raise DomainError(f"upper_gamma: invalid x={x}")
    if s <= 0.0:
        if x == 0.0:
            raise DomainError("upper_gamma: integral diverges for s <= 0, x = 0")
        return (upper_gamma(s + 1.0, x) - math.exp(s * math.log(x) - x)) / s
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return _upper_gamma_series(s, x)
    return _upper_gamma_cf(s, x)


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 7-15, globally adaptive)

# Tuples of plain floats: with numpy arrays every node, integrand argument
# and partial sum in _gk15 would be an np.float64, about twice as slow per
# panel for the same bits.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


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
    if math.isnan(kron):
        raise DomainError("integrate: integrand returned NaN")
    if math.isinf(kron):
        raise OverflowError("integrate: integral over a panel is infinite")
    return kron, abs(kron - fg * h)


def integrate(f, a: float, b: float) -> float:
    """Globally adaptive Gauss-Kronrod integration of f over (a, b) to
    QUAD_TOL.

    Endpoints are never evaluated, so integrable endpoint singularities
    (logarithmic, or power with exponent > -1) are handled by subdivision.
    Both endpoints must be finite.  A panel whose integral is infinite
    raises OverflowError, as an overflowing float operation would.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate: endpoints must be finite ({a}, {b})")
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0

    val, err = _gk15(f, a, b)
    # Max-heap of (neg error, interval, value, error).
    heap = [(-err, a, b, val, err)]
    total = val
    total_err = err
    budget = 4000
    for _ in range(budget):
        if total_err <= QUAD_TOL * max(1.0, abs(total)):
            return sign * total
        neg, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # Interval at machine resolution; accept its estimate as-is.
            total_err -= e
            heapq.heappush(heap, (0.0, lo, hi, v, 0.0))
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    if total_err <= QUAD_TOL * max(1.0, abs(total)) * 10.0:
        return sign * total
    raise ConvergenceError(
        f"integrate: subdivision budget exhausted (err~{total_err:.3g})")


# ---------------------------------------------------------------------------
# Finite differences

def numeric_diff(f, x, order: str):
    """Central-difference gradient or Hessian of a scalar function.

    The step for coordinate i is max(|x_i|, 1) times GRAD_STEP for the
    gradient and HESS_STEP for the Hessian.  The Hessian
    uses the symmetric four-point cross stencil and is symmetrized.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    if order == "gradient":
        g = np.empty(n)
        for i in range(n):
            h = max(abs(x[i]), 1.0) * GRAD_STEP
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            g[i] = (f(xp) - f(xm)) / (2.0 * h)
        if np.any(np.isnan(g)):
            raise DomainError("numeric_diff: NaN in gradient stencil")
        return g if n > 1 else float(g[0])
    if order == "hessian":
        hs = np.array([max(abs(xi), 1.0) * HESS_STEP for xi in x])
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
