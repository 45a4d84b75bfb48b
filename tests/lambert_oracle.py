"""The Lambert-W closed form of the generic (c,d)-exponential (Hanel and
Thurner, EPL 93 (2011) 20006), an oracle for cd_family's exp that shares
none of its code:

    exp(y) = exp(-(d/(1-c)) [W(B (1 - y/r)^(1/d)) - W(B)]),

with B = beta exp(beta), beta = (1-c)r/(1-(1-c)r), on the principal branch
of W for B >= 0 and on the lower one for B < 0.
"""

import math

import numpy as np
from scipy.special import lambertw

from phigeo.errors import DomainError

_INV_E = -1.0 / math.e
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


def cd_exp_closed(params, y):
    """The Lambert-W form of the generic-branch exp of the (c,d) family
    with the given CdParams, at a scalar or an ndarray y below r; an
    element whose W argument lies off the branch comes out NaN."""
    c, d, r = params.c, params.d, params.r
    k = 1.0 - (1.0 - c) * r
    beta = (1.0 - c) * r / k
    B = beta * math.exp(beta)
    branch = "principal" if B >= 0.0 else "lower"
    w_b = lambert_w(branch, B)
    with np.errstate(all="ignore"):
        arg = B * (1.0 - np.asarray(y, dtype=float) / r) ** (1.0 / d)
        on_branch = arg >= _INV_E
        if branch == "lower":
            on_branch &= arg < 0.0
        w = np.full(arg.shape, np.nan)
        if on_branch.any():
            w[on_branch] = lambert_w(branch, arg[on_branch])
        out = np.exp(-(d / (1.0 - c)) * (w - w_b))
    return float(out) if out.ndim == 0 else out
