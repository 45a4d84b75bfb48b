"""The Deformation abstraction: generator phi, deformed log/exp with the
cutoff convention, escort map, and the deformation-to-deformation
constructions (chi = phi/phi', xi = exp(log_chi), Tsallis-Souza nu-dual).
"""

from __future__ import annotations

import bisect
import math
import warnings

import numpy as np

from .errors import BoundaryError, DomainError, PoleError, RangeError
from .specfun import Tolerance, find_root, integrate, numeric_diff

_LOG_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13)


class ScalarOps:
    """Closed forms are written once, as f(x, m=ScalarOps): ``m`` supplies
    the elementary functions, these ``math`` ones (fast on a float) by
    default and numpy itself when a vectorized Deformation evaluates f on an
    ndarray.  Used as the class itself: its attributes are found faster
    than an instance's on this per-call path."""
    log = math.log
    exp = math.exp
    copysign = math.copysign
    maximum = max
    any = bool


# The scalar-or-array test runs on every scalar log/exp/phi call, inside
# quadrature integrands: a float skips the isinstance call, and the
# module-level name saves an attribute lookup.
_NDARRAY = np.ndarray


def _grid(x_upper: float) -> np.ndarray:
    hi = min(1e3, x_upper * (1.0 - 1e-4)) if math.isfinite(x_upper) else 1e3
    pts = np.geomspace(1e-6, hi, 25)
    return pts[np.abs(pts - 1.0) > 1e-9]


_GRID_UNBOUNDED = _grid(math.inf)
_GRID_UNBOUNDED.setflags(write=False)


def validation_grid(x_upper: float = math.inf) -> np.ndarray:
    """Log-spaced grid on (1e-6, min(1e3, x_upper)), avoiding x = 1 where
    some generators (stretched exponentials) vanish.  Read-only."""
    if not math.isfinite(x_upper):
        return _GRID_UNBOUNDED
    return _grid(x_upper)


def _elementwise(f, x: np.ndarray) -> np.ndarray:
    """A scalar function applied to every element of x, one call each."""
    return np.array([f(float(v)) for v in x.flat]).reshape(x.shape)


class ProbVec:
    """A point on the probability simplex.

    Entry 0 is, by convention, the dependent coordinate p0; the remaining
    entries are the independent simplex-interior coordinates.
    """

    __slots__ = ("probs", "interior")

    def __init__(self, probs, interior: bool | None = None):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise DomainError("ProbVec needs a vector of length >= 2")
        if np.any(p < -1e-15):
            raise DomainError("ProbVec entries must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"ProbVec entries must sum to 1 (got {p.sum()!r})")
        p = np.clip(p, 0.0, None)
        if interior is None:
            interior = bool(np.all(p > 0.0))
        elif interior and not np.all(p > 0.0):
            raise DomainError("interior ProbVec must have strictly positive entries")
        self.probs = p
        self.interior = interior

    @property
    def n(self) -> int:
        return self.probs.size

    def __repr__(self):
        return f"ProbVec({self.probs.tolist()}, interior={self.interior})"


def uniform(n: int) -> ProbVec:
    return ProbVec(np.full(n, 1.0 / n))


class Deformation:
    """A positive, strictly increasing generator phi together with its
    deformed logarithm/exponential.

    log_phi(x) = integral_1^x dy/phi(y); exp_phi is its inverse extended by
    the cutoff convention (0 below the lower range limit).  Closed forms are
    used when supplied, otherwise quadrature / monotone inversion backed by
    a write-once anchor cache.  Immutable after construction.

    ``phi``, ``phi_prime``, ``log`` and ``exp`` take a scalar (and return a
    float) or an ndarray (and return a new array of its shape).  With
    ``vectorized=True`` the supplied forms follow the f(x, m=ScalarOps)
    convention, return a new array for an array x, and an array costs one
    numpy evaluation; otherwise arrays are evaluated element by element
    through the scalar path.
    """

    def __init__(self, name, phi, phi_prime, params=(),
                 log_closed=None, exp_closed=None,
                 log_lower_limit=-math.inf, log_upper_limit=math.inf,
                 x_upper=math.inf, log_int0=None, validate=True,
                 vectorized=False):
        self.name = name
        self.params = tuple(params)
        self._phi = phi
        self._phi_prime = phi_prime
        self.log_closed = log_closed
        self.exp_closed = exp_closed
        self.log_lower_limit = float(log_lower_limit)
        self.log_upper_limit = float(log_upper_limit)
        self.x_upper = float(x_upper)
        self.log_int0 = log_int0
        self.vectorized = vectorized

        self._anchor_x = None
        self._anchor_v = None
        grid = validation_grid(self.x_upper) if validate else None
        if validate:
            self._validate_positivity(grid)
        if log_closed is None:
            self._build_anchors()
        if validate:
            self._validate(grid)

    # -- construction helpers -------------------------------------------

    def _build_anchors(self):
        hi_exp = 3
        if math.isfinite(self.x_upper):
            hi_exp = min(hi_exp, int(math.floor(math.log10(self.x_upper))))
        xs = [10.0 ** k for k in range(-12, hi_exp + 1)]
        if 1.0 not in xs:
            xs.append(1.0)
        xs = sorted(set(xs))
        vals = {1.0: 0.0}
        i1 = xs.index(1.0)
        acc = 0.0
        for i in range(i1, len(xs) - 1):
            acc += integrate(lambda y: 1.0 / self._phi(y), xs[i], xs[i + 1], _LOG_TOL)
            vals[xs[i + 1]] = acc
        acc = 0.0
        lo_stop = 0
        for i in range(i1, 0, -1):
            try:
                seg = integrate(lambda y: 1.0 / self._phi(y),
                                xs[i - 1], xs[i], _LOG_TOL)
            except (ZeroDivisionError, OverflowError):
                # generator underflows below this anchor; the log is
                # effectively divergent there, stop caching
                lo_stop = i
                break
            acc -= seg
            vals[xs[i - 1]] = acc
        xs = xs[lo_stop:]
        self._anchor_x = xs
        self._anchor_v = [vals[x] for x in xs]

    def _validate_positivity(self, grid):
        with np.errstate(all="ignore"):
            phis = self.phi(grid)
        if np.any(~np.isfinite(phis)) or np.any(phis <= 0.0):
            bad = grid[~(np.isfinite(phis) & (phis > 0.0))][0]
            raise DomainError(f"{self.name}: generator not positive at x={bad}")

    def _validate(self, grid):
        with np.errstate(all="ignore"):
            dphis = self.phi_prime(grid)
        if np.any(dphis <= 0.0):
            warnings.warn(f"{self.name}: generator not increasing everywhere "
                          "on the validation grid", stacklevel=3)
        if self.log_closed is not None:
            if abs(self.log_closed(1.0)) > 1e-10:
                raise DomainError(f"{self.name}: log(1) != 0")
            # The defining relation d(log)/dx = 1/phi, spot-checked with a
            # step proportional to x (the grid reaches far below 1).
            for x in grid[::6]:
                if x > 0.9 * self.x_upper:
                    continue
                h = 1e-6 * x
                d = (self.log_closed(x + h) - self.log_closed(x - h)) / (2.0 * h)
                ref = 1.0 / self._phi(x)
                if abs(d - ref) > 1e-6 * max(abs(ref), 1.0):
                    raise DomainError(
                        f"{self.name}: log' != 1/phi at x={x} ({d} vs {ref})")

    # -- evaluation ------------------------------------------------------

    def _map(self, f, x: np.ndarray) -> np.ndarray:
        """f at every element of x: one numpy call for vectorized forms,
        otherwise a loop over the scalar path."""
        if self.vectorized:
            return f(x, np)
        return _elementwise(f, x)

    def phi(self, x):
        """The generator phi(x)."""
        if x.__class__ is not float and isinstance(x, _NDARRAY):
            return self._map(self._phi, x)
        return self._phi(x)

    def phi_prime(self, x):
        """The generator's derivative phi'(x)."""
        if x.__class__ is not float and isinstance(x, _NDARRAY):
            return self._map(self._phi_prime, x)
        return self._phi_prime(x)

    def log(self, x):
        if x.__class__ is not float and isinstance(x, _NDARRAY):
            return self._log_array(x)
        if not (x > 0.0):
            raise DomainError(f"log_phi requires x > 0 (got {x})")
        if x >= self.x_upper:
            raise DomainError(
                f"{self.name}: log_phi undefined for x >= {self.x_upper}")
        if self.log_closed is not None:
            return self.log_closed(x)
        xs, vs = self._anchor_x, self._anchor_v
        i = bisect.bisect_right(xs, x) - 1
        i = max(0, min(i, len(xs) - 1))
        return vs[i] + integrate(lambda y: 1.0 / self._phi(y), xs[i], x, _LOG_TOL)

    def _log_array(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0.0):
            raise DomainError(f"log_phi requires x > 0 (got {x[~(x > 0.0)][0]})")
        if np.any(x >= self.x_upper):
            raise DomainError(
                f"{self.name}: log_phi undefined for x >= {self.x_upper}")
        if self.log_closed is not None:
            return self._map(self.log_closed, x)
        return _elementwise(self.log, x)

    def exp(self, y):
        if y.__class__ is not float and isinstance(y, _NDARRAY):
            return self._exp_array(y)
        if math.isnan(y):
            raise DomainError("exp_phi: NaN input")
        if y >= self.log_upper_limit:
            raise RangeError(
                f"{self.name}: exp_phi argument {y} at or above the upper "
                f"range limit {self.log_upper_limit}")
        if y <= self.log_lower_limit:
            return 0.0
        if self.exp_closed is not None:
            return self.exp_closed(y)
        return self._invert_log(y)

    def _exp_array(self, y):
        y = np.asarray(y, dtype=float)
        if np.isnan(y).any():
            raise DomainError("exp_phi: NaN input")
        top = y.max(initial=-math.inf)
        if top >= self.log_upper_limit:
            raise RangeError(
                f"{self.name}: exp_phi argument {top} at or above the upper "
                f"range limit {self.log_upper_limit}")
        out = np.zeros(y.shape)
        live = y > self.log_lower_limit
        if self.exp_closed is not None:
            with np.errstate(over="ignore"):  # the bracket search may overflow
                out[live] = self._map(self.exp_closed, y[live])
        else:
            out[live] = _elementwise(self._invert_log, y[live])
        return out

    def _invert_log(self, y):
        if self.log_closed is None:
            xs, vs = self._anchor_x, self._anchor_v
        else:
            xs = validation_grid(self.x_upper).tolist()
            vs = self.log(np.array(xs)).tolist()
        i = bisect.bisect_left(vs, y)
        if 0 < i < len(vs):
            lo, hi = xs[i - 1], xs[i]
        elif i == 0:
            lo, hi = xs[0], xs[0]
            while self.log(lo) > y:
                lo *= 0.1
                if lo < 1e-300:
                    return 0.0
        else:
            lo, hi = xs[-1], xs[-1]
            while self.log(hi) < y:
                hi *= 10.0
                if hi > min(self.x_upper, 1e300):
                    raise RangeError(f"{self.name}: exp_phi({y}) out of range")
        return find_root(lambda x: self.log(x) - y, lo, hi,
                         Tolerance(abs_tol=1e-14, rel_tol=1e-12))

    def __repr__(self):
        return f"Deformation({self.name})"


# ---------------------------------------------------------------------------
# Module-level operations

def _phi_values(d: Deformation, p: ProbVec) -> np.ndarray:
    """phi at every entry of p: one array call on the positive entries, the
    scalar generator at 0 for the zeros (BoundaryError where undefined)."""
    if p.interior:
        return d.phi(p.probs)
    live = p.probs > 0.0
    vals = np.empty(p.n)
    vals[live] = d.phi(p.probs[live])
    if live.all():
        return vals
    try:
        v0 = d.phi(0.0)
    except (ValueError, ZeroDivisionError, OverflowError):
        v0 = math.nan
    if not math.isfinite(v0):
        raise BoundaryError(
            f"{d.name}: generator undefined at a zero probability")
    vals[~live] = v0
    return vals


def h_phi(d: Deformation, p: ProbVec) -> float:
    """Sum of the generator over the probabilities, h_phi(p)."""
    return float(_phi_values(d, p).sum())


def escort(d: Deformation, p: ProbVec) -> ProbVec:
    """Escort distribution: phi(p_j) / sum_i phi(p_i)."""
    w = _phi_values(d, p)
    return ProbVec(w / w.sum())


def chi_dual(d: Deformation) -> Deformation:
    """The deformation with generator chi = phi/phi', whose linear-constraint
    metric is conformal to the escort-constraint metric of the original."""

    def chi(x):
        return d._phi(x) / d._phi_prime(x)

    def chi_prime(x):
        return numeric_diff(lambda v: chi(v[0]), [x], "gradient")

    return Deformation(f"chi({d.name})", chi, chi_prime,
                       params=d.params, x_upper=d.x_upper, validate=False)


def _probe_limit(f, probes, diverging_sign):
    """Numerically classify lim of a monotone sequence of integrals."""
    vals = [f(t) for t in probes]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    if d2 > 0.5 * d1 and d2 > 1e-8:
        return diverging_sign * math.inf
    return vals[2] + (vals[2] - vals[1])  # crude tail extrapolation


def exp_of_log(d: Deformation) -> Deformation:
    """Build xi with xi(x) = exp(log_d(x)); its deformed log is
    integral_1^x exp(-log_d(y)) dy.  Warns when xi'' > xi'^2/xi (loss of
    concavity of log_d) somewhere on the validation grid."""

    def xi(x):
        return math.exp(d.log(x))

    def xi_prime(x):
        return xi(x) / d._phi(x)

    def inv_xi(y):
        # clamp: values beyond exp(700) only occur when the limit integral
        # diverges anyway, and the clamp keeps the probes finite
        return math.exp(min(-d.log(y), 700.0))

    lower = _probe_limit(
        lambda e: -integrate(inv_xi, e, 1.0, _LOG_TOL),
        [1e-4, 1e-7, 1e-10], -1.0)
    if math.isfinite(d.x_upper):
        upper = integrate(inv_xi, 1.0, d.x_upper * (1 - 1e-12), _LOG_TOL)
    else:
        upper = _probe_limit(
            lambda t: integrate(inv_xi, 1.0, t, _LOG_TOL),
            [1e3, 1e6, 1e9], 1.0)

    out = Deformation(f"exp_of_log({d.name})", xi, xi_prime, params=d.params,
                      log_lower_limit=lower, log_upper_limit=upper,
                      x_upper=d.x_upper, validate=False)

    for x in validation_grid(min(d.x_upper, 1e3))[::4]:
        if abs(x - 1.0) < 1e-3:
            # phi may vanish at x=1 (non-differentiable log); the finite
            # difference is meaningless there
            continue
        xv = xi(float(x))
        if not (math.isfinite(xv) and xv > 0.0):
            continue
        h = 1e-5 * float(x)
        second = (xi_prime(x + h) - xi_prime(x - h)) / (2.0 * h)
        bound = xi_prime(x) ** 2 / xv
        if not (math.isfinite(second) and math.isfinite(bound)):
            continue
        if second > bound * (1.0 + 1e-6) + 1e-9:
            warnings.warn(
                f"exp_of_log({d.name}): concavity condition fails near x={x:g}",
                stacklevel=2)
            break
    return out


def _mobius(t, nu):
    if math.isinf(t):
        return 1.0 / nu if nu != 0.0 else math.copysign(math.inf, t)
    denom = 1.0 + nu * t
    if denom <= 0.0:
        return -math.inf if t < 0 else math.inf
    return t / denom


def ts_dual(d: Deformation, nu: float) -> Deformation:
    """Tsallis-Souza dual: log_TS(x) = log(x) / (1 + nu*log(x)), with
    generator phi_TS = phi * (1 + nu*log)^2.

    Raises PoleError when 1 + nu*log(x) reaches zero on the working range.
    """
    if nu == 0.0:
        return d

    grid = validation_grid(d.x_upper)
    for x in grid:
        if 1.0 + nu * d.log(x) <= 0.0:
            raise PoleError(
                f"ts_dual({d.name}, nu={nu}): 1 + nu*log hits zero near x={x:g}")

    def log_ts(x):
        L = d.log(x)
        denom = 1.0 + nu * L
        if denom <= 0.0:
            raise PoleError(f"ts_dual: pole at x={x}")
        return L / denom

    def phi_ts(x):
        return d._phi(x) * (1.0 + nu * d.log(x)) ** 2

    def phi_ts_prime(x):
        b = 1.0 + nu * d.log(x)
        return d._phi_prime(x) * b * b + 2.0 * nu * b

    exp_ts = None
    if d.exp_closed is not None or d.log_closed is not None:
        def exp_ts(y):
            denom = 1.0 - nu * y
            if denom <= 0.0:
                raise RangeError(f"ts_dual: exp argument {y} out of range")
            return d.exp(y / denom)

    lower = _mobius(d.log_lower_limit, nu)
    upper = _mobius(d.log_upper_limit, nu)
    return Deformation(f"ts_dual({d.name}, nu={nu})", phi_ts, phi_ts_prime,
                       params=d.params + (nu,),
                       log_closed=log_ts, exp_closed=exp_ts,
                       log_lower_limit=lower, log_upper_limit=upper,
                       x_upper=d.x_upper)
