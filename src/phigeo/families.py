"""Closed-form deformation constructors: identity (Shannon), Tsallis q,
stretched eta, and the (c,d)-family, whose generic-branch exponential is a
Newton solve of its closed log."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import Deformation, ScalarOps
from .errors import DomainError
from .specfun import integrate, upper_gamma


def _identity_phi(x, m=ScalarOps):
    return x ** 1.0


def _identity_phi_prime(x, m=ScalarOps):
    return x ** 0.0


def identity() -> Deformation:
    """phi(x) = x: the ordinary logarithm/exponential (Shannon case)."""
    return Deformation(
        "identity",
        phi=_identity_phi,
        phi_prime=_identity_phi_prime,
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
    generator vanishes (eta > 1) or blows up (eta < 1) at x = 1, where phi
    (eta < 1) and phi' raise DomainError.
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
        u = m.log(x)
        if eta < 1.0 and m.any(u == 0.0):
            raise DomainError("stretched: phi blows up at x = 1")
        return eta * x * abs(u) ** (1.0 - inv)

    def phi_s_prime(x, m=ScalarOps):
        u = m.log(x)
        if m.any(u == 0.0):
            raise DomainError("stretched: phi' blows up at x = 1")
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
    """(c, d) scaling exponents with scale r, the branch tag, and the
    constant A = cdr/(1-(1-c)r) of the printed (c,d) entropy, which is None
    on the degenerate branches where it does not apply.
    """
    c: float
    d: float
    r: float
    A: float | None
    branch: str  # generic | d_zero | c_one | shannon


def _exp_or_inf(t: float) -> float:
    """math.exp(t), or inf where no float reaches it."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


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
    r = _exp_or_inf(-d) / (1.0 - c)
    if r == math.inf:
        raise DomainError(f"auto_r: exp(-d)/(1-c) overflows (c={c}, d={d})")
    return r


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
    A = None
    if branch == "generic":
        k = 1.0 - (1.0 - c) * r
        if k == 0.0:
            raise DomainError(
                f"cd_params: 1-(1-c)r = 0 at (c,d,r)=({c},{d},{r})")
        A = c * d * r / k
    return CdParams(c=c, d=d, r=r, A=A, branch=branch)


# The closed forms of the d = 0, c = 1 and generic branches, each written
# once: cd_family binds them to one cell's floats, and cd_lattice to column
# arrays of cells, which the same expressions broadcast against rows of x.

def _d_zero_forms(c, r):
    """scale = r(1-c), and log, exp, phi, phi' of log(x) = r(1 - x^(c-1))."""
    scale = r * (1.0 - c)

    def log_cd(x, m=ScalarOps):
        return r * (1.0 - x ** (c - 1.0))

    def exp_cd(y, m=ScalarOps):
        # the base reaches 0 only at the range limit y = r
        return (1.0 - y / r) ** (1.0 / (c - 1.0))

    def phi_cd(x, m=ScalarOps):
        return x ** (2.0 - c) / scale

    def phi_cd_prime(x, m=ScalarOps):
        return (2.0 - c) * x ** (1.0 - c) / scale

    return scale, log_cd, exp_cd, phi_cd, phi_cd_prime


def _c_one_forms(d, r):
    """dr = d*r, and log, exp, phi, phi' of log(x) = r - r(1 - log(x)/dr)^d."""
    dr = d * r

    def log_cd(x, m=ScalarOps):
        return r - r * (1.0 - m.log(x) / dr) ** d

    def exp_cd(y, m=ScalarOps):
        # the base reaches 0 only at the range limit y = r
        return m.exp(dr * (1.0 - (1.0 - y / r) ** (1.0 / d)))

    def phi_cd(x, m=ScalarOps):
        return x * (1.0 - m.log(x) / dr) ** (1.0 - d)

    def phi_cd_prime(x, m=ScalarOps):
        u = 1.0 - m.log(x) / dr
        return u ** (1.0 - d) + (d - 1.0) / dr * u ** (-d)

    return dr, log_cd, exp_cd, phi_cd, phi_cd_prime


def _generic_forms(c, d, r):
    """a = (1-(1-c)r)/(dr), the bracket 1 - a log(x), and log, phi, phi' of
    log(x) = r - r x^(c-1) (1 - a log x)^d."""
    a = (1.0 - (1.0 - c) * r) / (d * r)
    # One cell's log raises where its bracket is not positive, which a > 0
    # rules out below x_upper; cd_lattice evaluates arrays of cells only
    # where the bracket is positive.
    guard = isinstance(a, float) and a < 0.0

    def bracket(x, m=ScalarOps):
        return 1.0 - a * m.log(x)

    def log_cd(x, m=ScalarOps):
        u = 1.0 - a * m.log(x)
        if guard and m.any(u <= 0.0):
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

    return a, bracket, log_cd, phi_cd, phi_cd_prime


# Newton steps of the generic branch's exp before an element falls back to
# the monotone inversion of the closed log; 3 to 5 steps reach the
# tolerance from its seed.
_EXP_STEPS = 12


def cd_family(c: float, d: float, r: float | None = None) -> Deformation:
    """Deformation of the (c,d)-logarithm
    log(x) = r - r x^(c-1) (1 - a log x)^d with a = (1-(1-c)r)/(dr).

    The generator is 1/log' from the differentiated closed form.  Degenerate
    branches (shannon, d = 0, c = 1) get dedicated closed forms, the exp
    included; the generic branch's exp is a Newton solve of the log.  The
    (c,d)-entropies have c in (0, 1]; other (c, d, r) build wherever the
    checks below pass, and raise DomainError otherwise.
    """
    params = cd_params(c, d, r)
    r = params.r

    if params.branch == "shannon":
        return identity()

    if params.branch == "d_zero":
        scale, log_cd, exp_cd, phi_cd, phi_cd_prime = _d_zero_forms(c, r)
        if scale <= 0.0:
            raise DomainError(f"cd_family: d=0 branch needs c < 1 (got c={c})")
        return Deformation(
            f"cd(c={c:g}, d=0, r={r:g})", params=(c, d, r),
            phi=phi_cd, phi_prime=phi_cd_prime,
            log_closed=log_cd, exp_closed=exp_cd,
            log_lower_limit=-math.inf, log_upper_limit=r, vectorized=True,
        )

    if params.branch == "c_one":
        if d < 0.0:
            raise DomainError("cd_family: c = 1 with d < 0 is not a valid "
                              "deformed logarithm")
        dr, log_cd, exp_cd, phi_cd, phi_cd_prime = _c_one_forms(d, r)
        return Deformation(
            f"cd(c=1, d={d:g}, r={r:g})", params=(c, d, r),
            phi=phi_cd, phi_prime=phi_cd_prime,
            log_closed=log_cd, exp_closed=exp_cd,
            log_lower_limit=-math.inf, log_upper_limit=r,
            x_upper=_exp_or_inf(dr), vectorized=True,
        )

    # generic branch
    a, bracket, log_cd, phi_cd, phi_cd_prime = _generic_forms(c, d, r)

    # Working-range check: the bracket must stay positive on (0, 1].
    if bracket(1e-9) <= 0.0 or bracket(1.0) <= 0.0:
        raise DomainError(
            f"cd_family: bracket 1 - a*log(x) nonpositive on (0,1] for "
            f"(c,d,r)=({c},{d},{r})")

    # Domain sup: the log stops being monotone where (1-c)u + a*d hits 0,
    # and stops being defined where u hits 0.
    u_min = max(0.0, -a * d / (1.0 - c))  # c != 1 on this branch
    x_upper = _exp_or_inf((1.0 - u_min) / a) if a > 0.0 else math.inf
    if not x_upper > 1.0:
        raise DomainError(
            f"cd_family: domain sup x_upper={x_upper:.3g} not above 1 for "
            f"(c,d,r)=({c},{d},{r})")
    log_upper = r
    if u_min > 0.0 and math.isfinite(x_upper):
        log_upper = r - r * x_upper ** (c - 1.0) * u_min ** d

    q = (1.0 - c) / (a * d)

    def newton_exp(y, m=ScalarOps):
        """Solve ln(1 - y/r) = (c-1) t + d ln(1 - a t), the log form of the
        closed log in t = ln x, by Newton steps in s = -a t: with
        u = 1 + s, the bracket, it reads h(s) = q s + ln(1 + s) - kd = 0,
        kd = ln(1 - y/r)/d, whose slope is w/u with w = q u + 1.  The seed
        is the d = 0 root s = kd/q after one fixed-point step, a step may at
        most halve u, so u stays positive, and the solve stops once
        Newton's next step, step^2/(2 u |w|), is below 1e-16 max(|s|, |a|),
        that is 1e-16 max(|t|, 1) in t, the rounding of t itself.  No step
        evaluates phi, so none stalls where phi underflows.  Returns
        x = e^t and whether x is in (0, x_upper) with the solve stopped
        within _EXP_STEPS steps."""
        kd = m.log1p(-y / r) / d
        s = m.maximum(kd / q, -0.5)
        s = m.maximum((kd - m.log1p(s)) / q, -0.5)
        tol = 2e-16 * m.maximum(abs(s), abs(a))
        for _ in range(_EXP_STEPS):
            u = 1.0 + s
            w = q * u + 1.0
            step = m.minimum((q * s + m.log1p(s) - kd) * u / w, 0.5 * u)
            s = s - step
            done = step * step <= tol * u * abs(w)
            if m.all(done):
                break
        x = m.exp(s / -a)
        return x, done & (x > 0.0) & (x < x_upper)

    def exp_cd(y, m=ScalarOps):
        """newton_exp, with the monotone inversion of the closed log for
        every element it leaves unsolved."""
        if m is ScalarOps:
            try:
                x, ok = newton_exp(y)
            except (ArithmeticError, ValueError):  # e.g. e^t overflows
                ok = False
            return x if ok else dd._invert_log(y)
        with np.errstate(all="ignore"):
            x, ok = newton_exp(y, np)
        for i in np.flatnonzero(~ok):
            x.flat[i] = dd._invert_log(float(y.flat[i]))
        return x

    dd = Deformation(
        f"cd(c={c:g}, d={d:g}, r={r:g})", params=(c, d, r),
        phi=phi_cd, phi_prime=phi_cd_prime,
        log_closed=log_cd, exp_closed=exp_cd,
        log_lower_limit=-math.inf, log_upper_limit=log_upper,
        x_upper=x_upper, vectorized=True,
    )
    return dd


# ---------------------------------------------------------------------------
# (c,d) lattice

# cd_lattice's status codes: 0 where cd_family(c, d) builds, otherwise one
# code per DomainError it can raise, in the order of its checks.  Its exp
# is a Newton solve that needs no constant of its own, so no code rejects a
# cell for the exp.  CD_STATUS[code] is a phrase of that error's message.
CD_STATUS = (
    "builds",
    "1-c+cd = 0",                         # auto_r
    "negative scale",                     # auto_r
    "d < 0 requires c < 1",               # auto_r
    "exp(-d)/(1-c) overflows",            # auto_r
    "r must be positive",                 # cd_params
    "1-(1-c)r = 0",                       # cd_params
    "d=0 branch needs c < 1",             # cd_family, d = 0
    "c = 1 with d < 0",                   # cd_family, c = 1
    "bracket 1 - a*log(x) nonpositive",   # cd_family, generic
    "not above 1",                        # cd_family, generic x_upper
    "generator not positive",             # Deformation
    "log(1) != 0",                        # Deformation
    "log' != 1/phi",                      # Deformation
)
_CHUNK = 1024  # cells per array pass: (cells x 25) working arrays stay small


def _deformation_codes(x_upper, log, phi):
    """Deformation's validation of rows of cells, each on the validation
    grid below its x_upper (a column): phi > 0 and finite, log(1) = 0, and
    log' = 1/phi at every sixth grid point below 0.9 x_upper.  The status
    code of each row, 0 where it passes."""
    pts = np.geomspace(1e-6, np.minimum(1e3, x_upper[:, 0] * (1.0 - 1e-4)),
                       25, axis=-1)
    on_grid = np.abs(pts - 1.0) > 1e-9
    phis = phi(pts, np)
    bad_phi = on_grid & ~(np.isfinite(phis) & (phis > 0.0))
    h = 1e-6 * pts
    slope = (log(pts + h, np) - log(pts - h, np)) / (2.0 * h)
    ref = 1.0 / phis
    spot = (on_grid & ((np.cumsum(on_grid, axis=1) - 1) % 6 == 0)
            & ~(pts > 0.9 * x_upper))
    bad_slope = spot & (np.abs(slope - ref) > 1e-6 * np.maximum(np.abs(ref), 1.0))
    return np.select(
        [bad_phi.any(axis=1), np.abs(log(1.0)[:, 0]) > 1e-10,
         bad_slope.any(axis=1)], [11, 12, 13], 0)


def _lattice_status(c, d):
    """cd_lattice's status of each cell of the flat arrays c, d."""
    status = np.zeros(c.size, dtype=np.int8)

    def reject(code, bad):
        status[bad & (status == 0)] = code

    def alive(branch):
        return np.flatnonzero(branch & (status == 0))

    # auto_r and cd_params
    up = d >= 0.0
    denom = 1.0 - c + c * d
    reject(1, up & (denom == 0.0))
    reject(2, up & (denom < 0.0))
    reject(3, ~up & (c >= 1.0))
    r = np.where(up, 1.0 / denom, np.exp(-d) / (1.0 - c))
    reject(4, ~up & (r == np.inf))
    reject(5, ~(r > 0.0))
    c_one = c == 1.0
    d_zero = (d == 0.0) & ~c_one
    c_one &= d != 1.0  # (1, 1) is the Shannon cell, which always builds
    generic = ~(c_one | d_zero | ((c == 1.0) & (d == 1.0)))
    k = 1.0 - (1.0 - c) * r
    reject(6, generic & (k == 0.0))

    # the branch checks of cd_family, and the domain sup x_upper
    x_upper = np.full(c.size, np.inf)
    i = alive(d_zero)
    status[i[_d_zero_forms(c[i], r[i])[0] <= 0.0]] = 7
    i = alive(c_one)
    status[i[d[i] < 0.0]] = 8
    x_upper[i] = np.exp(_c_one_forms(d[i], r[i])[0])
    i = alive(generic)
    a, bracket, *_ = _generic_forms(c[i], d[i], r[i])
    u_crit = -a * d[i] / (1.0 - c[i])
    u_min = np.where(u_crit > 0.0, u_crit, 0.0)
    x_upper[i] = np.where(a > 0.0, np.exp((1.0 - u_min) / a), np.inf)
    status[i] = np.select([(bracket(1e-9) <= 0.0) | (bracket(1.0) <= 0.0),
                           ~(x_upper[i] > 1.0)], [9, 10], 0)

    # Deformation's validation of the cells still standing, as columns
    i = alive(d_zero)
    _, log_cd, _, phi_cd, _ = _d_zero_forms(c[i, None], r[i, None])
    status[i] = _deformation_codes(x_upper[i, None], log_cd, phi_cd)
    i = alive(c_one)
    _, log_cd, _, phi_cd, _ = _c_one_forms(d[i, None], r[i, None])
    status[i] = _deformation_codes(x_upper[i, None], log_cd, phi_cd)
    i = alive(generic)
    _, _, log_cd, phi_cd, _ = _generic_forms(c[i, None], d[i, None], r[i, None])
    status[i] = _deformation_codes(x_upper[i, None], log_cd, phi_cd)
    return status


def _cd_generator(c: float, d: float):
    """phi and phi' of cd_family(c, d), a cell it builds: the same forms
    bound to the same floats."""
    params = cd_params(c, d)
    if params.branch == "shannon":
        return _identity_phi, _identity_phi_prime
    if params.branch == "d_zero":
        return _d_zero_forms(c, params.r)[3:]
    if params.branch == "c_one":
        return _c_one_forms(d, params.r)[3:]
    return _generic_forms(c, d, params.r)[3:]


def cd_lattice(c, d, x):
    """The (c,d) family over flat arrays of cells without building a
    Deformation per cell.

    Returns (status, phi, phi'): status[i] is 0 where cd_family(c[i], d[i])
    builds and otherwise the code of the DomainError it raises (the reason
    is CD_STATUS[status[i]]), found by one array pass of its checks over
    every cell's validation grid.  phi[i] and phi'[i] are the generator and
    its derivative at the points x, bit for bit cd_family(c[i], d[i]).phi(x)
    and .phi_prime(x), and NaN where status[i] != 0.
    """
    c = np.asarray(c, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    status = np.empty(c.size, dtype=np.int8)
    with np.errstate(all="ignore"):
        for s in range(0, c.size, _CHUNK):
            status[s:s + _CHUNK] = _lattice_status(c[s:s + _CHUNK],
                                                   d[s:s + _CHUNK])
    phi = np.full((c.size, x.size), np.nan)
    phi_prime = np.full((c.size, x.size), np.nan)
    for i in np.flatnonzero(status == 0):
        f, f_prime = _cd_generator(float(c[i]), float(d[i]))
        phi[i] = f(x, np)
        phi_prime[i] = f_prime(x, np)
    return status, phi, phi_prime
