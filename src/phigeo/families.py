"""Closed-form deformation constructors: identity (Shannon), Tsallis q,
stretched eta, and the (c,d)-family with its Lambert-W exponential."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import Deformation, ScalarOps
from .errors import BranchError, DomainError, RangeError
from .specfun import integrate, lambert_w, upper_gamma


def identity() -> Deformation:
    """phi(x) = x: the ordinary logarithm/exponential (Shannon case)."""
    return Deformation(
        "identity",
        phi=lambda x, m=ScalarOps: x ** 1.0,
        phi_prime=lambda x, m=ScalarOps: x ** 0.0,
        log_closed=lambda x, m=ScalarOps: m.log(x),
        exp_closed=lambda y, m=ScalarOps: m.exp(y),
        log_lower_limit=-math.inf,
        log_upper_limit=math.inf,
        log_int0=lambda x: x * math.log(x) - x if x > 0.0 else 0.0,
        vectorized=True,
    )


def tsallis(q: float) -> Deformation:
    """phi(x) = x^q: Tsallis deformation, q > 0, q != 1."""
    if q == 1.0:
        raise DomainError("tsallis: q = 1 is the identity deformation")
    if q <= 0.0:
        raise DomainError("tsallis: generator x^q requires q > 0")
    one_q = 1.0 - q

    def log_q(x, m=ScalarOps):
        return (x ** one_q - 1.0) / one_q

    def exp_q(y, m=ScalarOps):
        return m.maximum(1.0 + one_q * y, 0.0) ** (1.0 / one_q)

    if q < 1.0:
        lower, upper = -1.0 / one_q, math.inf
    else:
        lower, upper = -math.inf, 1.0 / (q - 1.0)

    log_int0 = None
    if q < 2.0:
        def log_int0(x):
            return (x ** (2.0 - q) / (2.0 - q) - x) / one_q if x > 0.0 else 0.0

    return Deformation(
        f"tsallis(q={q:g})", params=(q,),
        phi=lambda x, m=ScalarOps: x ** q,
        phi_prime=lambda x, m=ScalarOps: q * x ** (q - 1.0),
        log_closed=log_q, exp_closed=exp_q,
        log_lower_limit=lower, log_upper_limit=upper,
        log_int0=log_int0, vectorized=True,
    )


def stretched(eta: float) -> Deformation:
    """phi(x) = eta * x * |log x|^(1 - 1/eta): stretched-exponential
    (Anteneodo-Plastino) deformation, eta > 0, eta != 1.

    The deformed log is the signed power sign(log x) * |log x|^(1/eta); the
    generator vanishes (eta > 1) or blows up (eta < 1) at x = 1.
    """
    if eta <= 0.0 or eta == 1.0:
        raise DomainError("stretched: requires eta > 0, eta != 1")
    inv = 1.0 / eta

    def log_s(x, m=ScalarOps):
        u = m.log(x)
        return m.copysign(abs(u) ** inv, u)

    def exp_s(y, m=ScalarOps):
        return m.exp(m.copysign(abs(y) ** eta, y))

    def phi_s(x, m=ScalarOps):
        return eta * x * abs(m.log(x)) ** (1.0 - inv)

    def phi_s_prime(x, m=ScalarOps):
        u = m.log(x)
        return (eta * abs(u) ** (1.0 - inv)
                + (eta - 1.0) * m.copysign(abs(u) ** (-inv), u))

    g_total = math.gamma(1.0 + inv)

    def log_int0(x):
        if x <= 0.0:
            return 0.0
        if x <= 1.0:
            return -upper_gamma(1.0 + inv, -math.log(x))
        return -g_total + integrate(log_s, 1.0, x)

    return Deformation(
        f"stretched(eta={eta:g})", params=(eta,),
        phi=phi_s, phi_prime=phi_s_prime,
        log_closed=log_s, exp_closed=exp_s,
        log_lower_limit=-math.inf, log_upper_limit=math.inf,
        log_int0=log_int0, vectorized=True,
    )


# ---------------------------------------------------------------------------
# (c,d)-family

@dataclass(frozen=True)
class CdParams:
    """(c, d) scaling exponents with scale r and the derived Lambert-W
    constants A = cdr/(1-(1-c)r) and B = beta*exp(beta), beta = (1-c)r/(1-(1-c)r).

    A and B are None on degenerate branches where 1-(1-c)r-based forms
    do not apply.
    """
    c: float
    d: float
    r: float
    A: float | None
    B: float | None
    branch: str  # generic | d_zero | c_one | shannon


def auto_r(c: float, d: float) -> float:
    """Default scale parameter: 1/(1-c+cd) for d >= 0, exp(-d)/(1-c) for d < 0."""
    if d >= 0.0:
        denom = 1.0 - c + c * d
        if denom == 0.0:
            raise DomainError(f"auto_r: 1-c+cd = 0 at (c,d)=({c},{d})")
        if denom < 0.0:
            raise DomainError(f"auto_r: negative scale at (c,d)=({c},{d})")
        return 1.0 / denom
    if c >= 1.0:
        raise DomainError(f"auto_r: d < 0 requires c < 1 (got c={c})")
    return math.exp(-d) / (1.0 - c)


def cd_params(c: float, d: float, r: float | None = None) -> CdParams:
    if r is None:
        r = auto_r(c, d)
    if not (r > 0.0):
        raise DomainError("cd_params: r must be positive")
    if c == 1.0 and d == 1.0:
        branch = "shannon"
    elif d == 0.0 and c != 1.0:
        branch = "d_zero"
    elif c == 1.0:
        branch = "c_one"
    else:
        branch = "generic"
    A = B = None
    if branch == "generic":
        k = 1.0 - (1.0 - c) * r
        if k == 0.0:
            raise DomainError(
                f"cd_params: 1-(1-c)r = 0 at (c,d,r)=({c},{d},{r})")
        A = c * d * r / k
        beta = (1.0 - c) * r / k
        try:
            B = beta * math.exp(beta)
        except OverflowError:
            raise DomainError(f"cd_params: B = beta*exp(beta) overflows at "
                              f"(c,d,r)=({c},{d},{r})") from None
    return CdParams(c=c, d=d, r=r, A=A, B=B, branch=branch)


def cd_exp_closed(params: CdParams, x, w_branch: str | None = None,
                  w_b: float | None = None):
    """Lambert-W closed form of the (c,d)-exponential (generic branch).

    exp(-(d/(1-c)) * [W(B*(1-x/r)^(1/d)) - W(B)]), with the W branch chosen
    principal for B >= 0 unless given, and W(B) computed unless given.
    Takes a scalar or an ndarray; an element whose W argument lies off the
    branch comes out NaN.
    """
    if params.branch != "generic":
        raise BranchError(f"cd_exp_closed: branch {params.branch} has no "
                          "Lambert-W form")
    c, d, r, B = params.c, params.d, params.r, params.B
    base = 1.0 - np.asarray(x, dtype=float) / r
    if np.any(base < 0.0):
        raise RangeError(f"cd_exp_closed: argument {x} beyond the range limit {r}")
    if w_branch is None:
        w_branch = "principal" if B >= 0.0 else "lower"
    if w_b is None:
        w_b = lambert_w(w_branch, B)
    with np.errstate(all="ignore"):
        arg = B * base ** (1.0 / d)
        on_branch = arg >= -1.0 / math.e
        if w_branch == "lower":
            on_branch &= arg < 0.0
        w = np.full(arg.shape, np.nan)
        if on_branch.any():
            w[on_branch] = lambert_w(w_branch, arg[on_branch])
        out = np.exp(-(d / (1.0 - c)) * (w - w_b))
    return float(out) if out.ndim == 0 else out


def cd_family(c: float, d: float, r: float | None = None) -> Deformation:
    """Deformation of the (c,d)-logarithm
    log(x) = r - r x^(c-1) (1 - a log x)^d with a = (1-(1-c)r)/(dr).

    The generator is 1/log' from the differentiated closed form.  Degenerate
    branches (shannon, d = 0, c = 1) get dedicated closed forms.  The
    (c,d)-entropies have c in (0, 1]; other (c, d, r) build wherever the
    checks below pass, and raise DomainError otherwise.
    """
    params = cd_params(c, d, r)
    r = params.r

    if params.branch == "shannon":
        return identity()

    if params.branch == "d_zero":
        scale = r * (1.0 - c)
        if scale <= 0.0:
            raise DomainError(f"cd_family: d=0 branch needs c < 1 (got c={c})")

        def log_cd(x, m=ScalarOps):
            return r * (1.0 - x ** (c - 1.0))

        def exp_cd(y, m=ScalarOps):
            # the base reaches 0 only at the range limit y = r
            return (1.0 - y / r) ** (1.0 / (c - 1.0))

        return Deformation(
            f"cd(c={c:g}, d=0, r={r:g})", params=(c, d, r),
            phi=lambda x, m=ScalarOps: x ** (2.0 - c) / scale,
            phi_prime=lambda x, m=ScalarOps: (2.0 - c) * x ** (1.0 - c) / scale,
            log_closed=log_cd, exp_closed=exp_cd,
            log_lower_limit=-math.inf, log_upper_limit=r, vectorized=True,
        )

    if params.branch == "c_one":
        if d < 0.0:
            raise DomainError("cd_family: c = 1 with d < 0 is not a valid "
                              "deformed logarithm")
        dr = d * r

        def log_cd(x, m=ScalarOps):
            return r - r * (1.0 - m.log(x) / dr) ** d

        def phi_cd(x, m=ScalarOps):
            return x * (1.0 - m.log(x) / dr) ** (1.0 - d)

        def phi_cd_prime(x, m=ScalarOps):
            u = 1.0 - m.log(x) / dr
            return u ** (1.0 - d) + (d - 1.0) / dr * u ** (-d)

        def exp_cd(y, m=ScalarOps):
            # the base reaches 0 only at the range limit y = r
            return m.exp(dr * (1.0 - (1.0 - y / r) ** (1.0 / d)))

        return Deformation(
            f"cd(c=1, d={d:g}, r={r:g})", params=(c, d, r),
            phi=phi_cd, phi_prime=phi_cd_prime,
            log_closed=log_cd, exp_closed=exp_cd,
            log_lower_limit=-math.inf, log_upper_limit=r,
            x_upper=math.exp(dr), vectorized=True,
        )

    # generic branch
    k = 1.0 - (1.0 - c) * r
    a = k / (d * r)

    def bracket(x, m=ScalarOps):
        return 1.0 - a * m.log(x)

    # Working-range check: the bracket must stay positive on (0, 1].
    if bracket(1e-9) <= 0.0 or bracket(1.0) <= 0.0:
        raise DomainError(
            f"cd_family: bracket 1 - a*log(x) nonpositive on (0,1] for "
            f"(c,d,r)=({c},{d},{r})")

    # Domain sup: the log stops being monotone where (1-c)u + a*d hits 0,
    # and stops being defined where u hits 0.
    u_min = 0.0
    if (1.0 - c) != 0.0:
        u_crit = -a * d / (1.0 - c)
        u_min = max(u_min, u_crit)
    x_upper = math.inf
    if a > 0.0:
        x_upper = math.exp((1.0 - u_min) / a)
    if not x_upper > 1.0:
        raise DomainError(
            f"cd_family: domain sup x_upper={x_upper:.3g} not above 1 for "
            f"(c,d,r)=({c},{d},{r})")
    log_upper = r
    if u_min > 0.0 and math.isfinite(x_upper):
        log_upper = r - r * x_upper ** (c - 1.0) * u_min ** d

    def log_cd(x, m=ScalarOps):
        u = 1.0 - a * m.log(x)
        # with a > 0, u > u_min >= 0 for every x below x_upper
        if a < 0.0 and m.any(u <= 0.0):
            raise DomainError(f"cd_family: bracket nonpositive at x={x}")
        return r - r * x ** (c - 1.0) * u ** d

    def phi_cd(x, m=ScalarOps):
        u = bracket(x, m)
        v = (1.0 - c) * u + a * d
        return x ** (2.0 - c) * u ** (1.0 - d) / (r * v)

    def phi_cd_prime(x, m=ScalarOps):
        u = bracket(x, m)
        v = (1.0 - c) * u + a * d
        return phi_cd(x, m) * ((2.0 - c) - (1.0 - d) * a / u
                               + (1.0 - c) * a / v) / x

    # Lambert fast path: pick the W branch by round-trip probe, keep the
    # numeric monotone inversion as fallback.
    lambert = None  # (branch, W(B)) passing the probe
    probe = 0.5
    for branch in (("principal", "lower") if params.B >= 0.0
                   else ("lower", "principal")):
        try:
            w_b = lambert_w(branch, params.B)
            if abs(cd_exp_closed(params, log_cd(probe), branch, w_b)
                   - probe) < 1e-6:
                lambert = (branch, w_b)
                break
        except (ValueError, ArithmeticError):
            pass

    exp_cd = None
    if lambert is not None:
        def exp_cd(y, m=ScalarOps):
            """W(B) is fixed per family; an element whose W argument
            leaves the branch, or whose value is not finite, falls back to
            the numeric inversion of the closed log."""
            out = cd_exp_closed(params, y, *lambert)
            if m is ScalarOps:
                return out if math.isfinite(out) else dd._invert_log(y)
            for i in np.flatnonzero(~np.isfinite(out)):
                out.flat[i] = dd._invert_log(float(y.flat[i]))
            return out

    dd = Deformation(
        f"cd(c={c:g}, d={d:g}, r={r:g})", params=(c, d, r),
        phi=phi_cd, phi_prime=phi_cd_prime,
        log_closed=log_cd, exp_closed=exp_cd,
        log_lower_limit=-math.inf, log_upper_limit=log_upper,
        x_upper=x_upper, vectorized=True,
    )
    return dd
