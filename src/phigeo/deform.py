"""The Deformation abstraction: generator phi, deformed log/exp with the
cutoff convention, escort map, and the deformation-to-deformation
constructions (chi = phi/phi', xi = exp(log_chi), Tsallis-Souza nu-dual).
"""

from __future__ import annotations

import bisect
import math
import threading

import numpy as np

from .errors import (BoundaryError, ConvergenceError, DomainError, PoleError,
                     RangeError)
from .specfun import GRAD_STEP, integrate


def _exp(y):
    """math.exp, raising RangeError where the value overflows a float."""
    try:
        return math.exp(y)
    except OverflowError:
        raise RangeError(f"exp({y}) overflows a float") from None


class ScalarOps:
    """Closed forms are written once, as f(x, m=ScalarOps): ``m`` supplies
    the elementary functions, these ``math`` ones (fast on a float; exp
    raises RangeError on overflow) by default and numpy itself when a
    vectorized Deformation evaluates f on an ndarray.  Used as the class
    itself: its attributes are found faster than an instance's on this
    per-call path."""
    log = math.log
    exp = _exp
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


class _Anchors:
    """Decade anchors of a numeric log, log(x) = integral_1^x dy/phi(y), at
    x = 1e-12, 1e-11, ..., min(1e3, x_upper) and 1.

    The table is filled lazily and contiguously outward from x = 1, one
    decade integral per new anchor, and each value is written once, so a
    value does not depend on the order in which anchors are asked for.  The
    downward fill stops for good at the first decade whose integrand raises
    ZeroDivisionError or OverflowError (the generator underflows there and
    the log is effectively divergent); the lowest anchor filled then stands
    in for everything below it.  Fills hold a lock; lo only falls and hi
    only rises, each after its value is written, so reads need none.
    """

    __slots__ = ("inv_phi", "xs", "vs", "lo", "hi", "floor", "_lock")

    def __init__(self, inv_phi, x_upper):
        hi_exp = 3
        if math.isfinite(x_upper):
            hi_exp = min(hi_exp, int(math.floor(math.log10(x_upper))))
        self.inv_phi = inv_phi
        self.xs = sorted({10.0 ** k for k in range(-12, hi_exp + 1)} | {1.0})
        one = self.xs.index(1.0)
        self.vs = [math.nan] * len(self.xs)
        self.vs[one] = 0.0
        self.lo = self.hi = one  # vs[lo:hi + 1] is filled
        self.floor = 0           # no anchor below this index can be filled
        self._lock = threading.Lock()

    def _fill(self, i):
        """Fill every anchor between x = 1 and index i, as far as reachable."""
        with self._lock:
            while self.hi < i:
                k = self.hi
                self.vs[k + 1] = self.vs[k] + integrate(
                    self.inv_phi, self.xs[k], self.xs[k + 1])
                self.hi = k + 1
            while self.lo > max(i, self.floor):
                k = self.lo
                try:
                    seg = integrate(self.inv_phi, self.xs[k - 1], self.xs[k])
                except (ZeroDivisionError, OverflowError):
                    self.floor = k
                    return
                self.vs[k - 1] = self.vs[k] - seg
                self.lo = k - 1

    def anchor(self, x):
        """Index of the anchor log(x) integrates from: the one next to x on
        the side of x = 1 (the highest at or below x for x >= 1, the lowest
        at or above it for x < 1), or the lowest reachable one when x lies
        below that.  The anchor's value and the integral then have the same
        sign, so a large anchor value cannot cancel against the integral."""
        if x >= 1.0:
            i = bisect.bisect_right(self.xs, x) - 1
        else:
            i = bisect.bisect_left(self.xs, x)
        if not self.lo <= i <= self.hi:
            self._fill(i)
        return max(i, self.lo)

    def reach(self, y):
        """The filled anchors and their values, extended outward from x = 1
        until they bracket the log value y or reach the table's end."""
        while self.vs[self.hi] < y and self.hi < len(self.xs) - 1:
            self._fill(self.hi + 1)
        while self.vs[self.lo] >= y and self.lo > self.floor:
            self._fill(self.lo - 1)
        return self.xs[self.lo:self.hi + 1], self.vs[self.lo:self.hi + 1]


class _Limits:
    """The range limits (lower, upper) of a deformed log, given as numbers."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        self.lower = float(lower)
        self.upper = float(upper)


class _ProbedLimits(_Limits):
    """Range limits computed by a probe, a function returning the pair, on
    the first read of either limit, under a lock, and written once.

    Until then the slots are unset and a read falls through to __getattr__;
    afterwards every read is a slot read.  A probe that raises leaves the
    slots unset, so the next read probes again.  (A subclass, because a
    class with __getattr__ makes every attribute read slower, and the exp
    path of the closed families reads the given limits on each call.)
    """

    __slots__ = ("_probe", "_lock")

    def __init__(self, probe):
        self._probe = probe
        self._lock = threading.Lock()

    def __getattr__(self, name):
        if name not in ("lower", "upper"):
            raise AttributeError(name)
        with self._lock:
            if self._probe is not None:
                lower, upper = self._probe()
                self.upper = float(upper)
                self.lower = float(lower)
                self._probe = None
        return object.__getattribute__(self, name)


class ProbVec:
    """A point on the probability simplex.

    Entry 0 is, by convention, the dependent coordinate p0; the remaining
    entries are the independent simplex-interior coordinates.
    """

    __slots__ = ("probs", "interior")

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise DomainError("ProbVec needs a vector of length >= 2")
        if np.any(p < -1e-15):
            raise DomainError("ProbVec entries must be nonnegative")
        total = p.sum()
        if not abs(total - 1.0) <= 1e-12:  # a NaN entry fails here too
            bad = p[~np.isfinite(p)]
            raise DomainError(
                "ProbVec entries must sum to 1 "
                + (f"(non-finite entries {bad.tolist()})" if bad.size
                   else f"(got {total!r})"))
        self.probs = np.clip(p, 0.0, None)
        self.interior = bool(np.all(self.probs > 0.0))

    @property
    def n(self) -> int:
        return self.probs.size

    def __repr__(self):
        return f"ProbVec({self.probs.tolist()}, interior={self.interior})"


def require_interior(p: ProbVec, what: str):
    """Raise BoundaryError unless every entry of p is positive."""
    if not p.interior:
        raise BoundaryError(f"{what} requires an interior probability vector")


def uniform(n: int) -> ProbVec:
    return ProbVec(np.full(n, 1.0 / n))


class Deformation:
    """A positive generator phi together with its deformed
    logarithm/exponential.  ``increasing`` records whether phi' > 0 on the
    validation grid (the escort metric is positive-definite at p where
    phi' > 0 at every p_i), or is None where validation was skipped.

    log_phi(x) = integral_1^x dy/phi(y); exp_phi is its inverse extended by
    the cutoff convention (0 below the lower range limit).  Closed forms are
    used when supplied; otherwise log integrates 1/phi from a lazily filled
    table of decade anchors, and exp inverts the log, closed or numeric, by
    Newton steps with log' = 1/phi.  Immutable after construction (the
    table, and range limits given as a probe, only fill).

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
                 vectorized=False, _probe_limits=None):
        self.name = name
        self.params = tuple(params)
        self._phi = phi
        self._phi_prime = phi_prime
        self.log_closed = log_closed
        self.exp_closed = exp_closed
        self._limits = (_Limits(log_lower_limit, log_upper_limit)
                        if _probe_limits is None
                        else _ProbedLimits(_probe_limits))
        self.x_upper = float(x_upper)
        self.log_int0 = log_int0
        self.vectorized = vectorized

        self._anchors = None
        if log_closed is None:
            self._anchors = _Anchors(lambda y: 1.0 / phi(y), self.x_upper)
        self.increasing = None
        if validate:
            grid = validation_grid(self.x_upper)
            self._validate_positivity(grid)
            self._validate(grid)

    @property
    def log_lower_limit(self) -> float:
        """The lower range limit of log: exp is 0 at or below it."""
        return self._limits.lower

    @property
    def log_upper_limit(self) -> float:
        """The upper range limit of log: exp raises RangeError at or above
        it."""
        return self._limits.upper

    # -- construction helpers -------------------------------------------

    def _validate_positivity(self, grid):
        with np.errstate(all="ignore"):
            phis = self.phi(grid)
        if np.any(~np.isfinite(phis)) or np.any(phis <= 0.0):
            bad = grid[~(np.isfinite(phis) & (phis > 0.0))][0]
            raise DomainError(f"{self.name}: generator not positive at x={bad}")

    def _validate(self, grid):
        with np.errstate(all="ignore"):
            dphis = self.phi_prime(grid)
        self.increasing = bool(np.all(dphis > 0.0))  # a NaN counts as False
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
        a = self._anchors
        i = a.anchor(x)
        try:
            return a.vs[i] + integrate(a.inv_phi, a.xs[i], x)
        except (ZeroDivisionError, OverflowError):  # e.g. below the table
            raise DomainError(
                f"{self.name}: log_phi({x}) out of range: 1/phi is not "
                f"finite between {a.xs[i]} and {x}") from None

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
        limits = self._limits
        if y >= limits.upper:
            raise RangeError(
                f"{self.name}: exp_phi argument {y} at or above the upper "
                f"range limit {limits.upper}")
        if y <= limits.lower:
            return 0.0
        if self.exp_closed is not None:
            return self.exp_closed(y)
        return self._invert_log(y)

    def _exp_array(self, y):
        y = np.asarray(y, dtype=float)
        if np.isnan(y).any():
            raise DomainError("exp_phi: NaN input")
        limits = self._limits
        top = y.max(initial=-math.inf)
        if top >= limits.upper:
            raise RangeError(
                f"{self.name}: exp_phi argument {top} at or above the upper "
                f"range limit {limits.upper}")
        out = np.zeros(y.shape)
        live = y > limits.lower
        if self.exp_closed is not None:
            with np.errstate(over="ignore"):  # the bracket search may overflow
                out[live] = self._map(self.exp_closed, y[live])
        else:
            out[live] = _elementwise(self._invert_log, y[live])
        return out

    def _invert_log(self, y):
        """exp(y) by _newton_log between two neighbouring anchors of a
        numeric log, else by _search from the table's end nearer to y, or
        from (1, 0) for a closed log."""
        if self.log_closed is not None:
            return self._search(y, 1.0, 0.0)
        xs, vs = self._anchors.reach(y)
        i = bisect.bisect_left(vs, y)
        if 0 < i < len(vs):
            return self._newton_log(y, xs[i - 1], vs[i - 1], xs[i], vs[i])
        i = min(i, len(vs) - 1)
        return self._search(y, xs[i], vs[i])

    def _search(self, y, x, log_x):
        """exp(y) by decade steps from (x, log x) away from x = 1 (down for
        y <= log x) until the log passes y, then _newton_log on the last
        two points.  A step that would reach the edge goes to the geometric
        midpoint toward it: the nearest step whose log was not finite, else
        0 below and x_upper above.  Below x = 1e-300 exp is the cutoff 0;
        past 1e300, or with the bracket closed on its edge, it raises
        RangeError above and ConvergenceError below."""
        down = y <= log_x
        edge, factor = (0.0, 0.1) if down else (self.x_upper, 10.0)
        while True:
            t = factor * x
            if not min(x, edge) < t < max(x, edge):
                t = math.sqrt(edge) * math.sqrt(x)
            if not min(x, edge) < t < max(x, edge) or t > 1e300:
                raise (ConvergenceError if down else RangeError)(
                    f"{self.name}: exp_phi({y}) not found beyond x={x}")
            if t < 1e-300:
                return 0.0
            try:
                log_t = self._log_from(x, log_x, t)
            except (ZeroDivisionError, OverflowError):
                log_t = math.nan
            if not math.isfinite(log_t):
                edge = t
            elif (log_t < y) == down:  # the step passed y
                return (self._newton_log(y, t, log_t, x, log_x) if down
                        else self._newton_log(y, x, log_x, t, log_t))
            else:
                x, log_x = t, log_t

    def _newton_log(self, y, a, log_a, b, log_b):
        """The x in [a, b] with log(x) = y, for log_a < y <= log_b.  Newton
        steps x += (y - L) phi(x), since log' = 1/phi, until a step is below
        1e-13 x.  A step that leaves the bracket, or is not half the step
        before last, is replaced by bisection, so that Newton cannot crawl
        where the log bends sharply.  The seed interpolates between a and b
        in log x, exact for log = c ln x.  A numeric L = log(x) is carried
        from the bracket end nearer to y in value (mostly the previous x,
        so each integral spans one step), and a far end's large log cannot
        cancel against it."""
        x = a * (b / a) ** ((y - log_a) / (log_b - log_a))
        step = last = b - a
        for _ in range(100):
            if y - log_a < log_b - y:
                L = self._log_from(a, log_a, x)
            else:
                L = self._log_from(b, log_b, x)
            if L < y:
                a, log_a = x, L
            else:
                b, log_b = x, L
            before, last = last, step
            step = (y - L) * self._phi(x)
            if abs(step) > 1e-13 * x and not (
                    a < x + step < b and 2.0 * abs(step) <= abs(before)):
                step = 0.5 * (a + b) - x
            if abs(step) <= 1e-13 * x:
                return x + step
            x += step
        raise ConvergenceError(f"{self.name}: exp_phi({y}) did not converge")

    def _log_from(self, x0, log_x0, x):
        """log(x), given log(x0): the closed log where there is one, else
        log(x0) plus the integral of 1/phi from x0 to x."""
        if self.log_closed is not None:
            return self.log(x)
        return log_x0 + integrate(self._anchors.inv_phi, x0, x)

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


def _first_zero_above_one(d: Deformation) -> float:
    """The first zero of d's phi' above 1, or d.x_upper if phi' is positive
    at every validation-grid point above 1.  The zero is bracketed by the
    first grid point where phi' is not positive and the point (or 1) before
    it, and bisected down to adjacent floats; the upper end, the least x
    known to have phi' <= 0, is returned."""
    above = validation_grid(d.x_upper)
    above = above[above > 1.0]
    with np.errstate(all="ignore"):
        bad = np.flatnonzero(~(d.phi_prime(above) > 0.0))
    if bad.size == 0:
        return d.x_upper
    k = int(bad[0])
    lo = float(above[k - 1]) if k > 0 else 1.0
    hi = float(above[k])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if d._phi_prime(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi


def chi_dual(d: Deformation) -> Deformation:
    """The deformation with generator chi = phi/phi', whose linear-constraint
    metric is conformal to the escort-constraint metric of the original.

    Since 1/chi = phi'/phi = (ln phi)', its log is closed:
    log_chi(x) = ln phi(x) - ln phi(1), -inf where phi underflows to 0, and
    a DomainError where phi(1) is 0 or infinite (stretched).  chi is a
    generator only where phi' > 0, so its x_upper is the first zero of phi'
    above 1 when that lies below d.x_upper; above it log_chi would fall."""
    phi, phi_prime = d._phi, d._phi_prime

    def chi(x):
        try:
            return phi(x) / phi_prime(x)
        except ZeroDivisionError:
            raise DomainError(
                f"chi({d.name}): phi' is 0 at x={x}") from None

    def chi_prime(x):
        # a central difference with a step relative to x, so that x - h
        # stays positive however small x is
        h = GRAD_STEP * x
        return (chi(x + h) - chi(x - h)) / (2.0 * h)

    try:
        phi_1 = phi(1.0)
    except DomainError:  # stretched(eta < 1) blows up at x = 1
        phi_1 = math.inf
    log_phi_1 = math.log(phi_1) if 0.0 < phi_1 < math.inf else None

    def log_chi(x):
        if log_phi_1 is None:
            raise DomainError(
                f"chi({d.name}): log_chi needs 0 < phi(1) < inf (got {phi_1})")
        v = phi(x)
        return math.log(v) - log_phi_1 if v != 0.0 else -math.inf

    return Deformation(f"chi({d.name})", chi, chi_prime, params=d.params,
                       log_closed=log_chi, x_upper=_first_zero_above_one(d),
                       validate=False)


def _probe_limit(vals, diverging_sign):
    """Numerically classify lim of a monotone sequence of integrals."""
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    if d2 > 0.5 * d1 and d2 > 1e-8:
        return diverging_sign * math.inf
    return vals[2] + (vals[2] - vals[1])  # crude tail extrapolation


def exp_of_log(d: Deformation) -> Deformation:
    """Build xi with xi(x) = exp(log_d(x)); its deformed log is
    integral_1^x exp(-log_d(y)) dy.

    xi is positive and, with xi' = xi/phi, increasing.  Its generator
    condition xi'' <= xi'^2/xi (concavity of log_d) needs no test of its
    own: xi'' = xi (1 - phi')/phi^2 and xi'^2/xi = xi/phi^2, so it holds
    exactly where phi' >= 0, which d's validation records as d.increasing.

    Construction evaluates nothing: xi's range limits, which take
    quadrature over its whole range, are computed on the first read of
    either limit (by exp, or through log_lower_limit/log_upper_limit), so
    callers that need only xi and xi' never pay for them.  An error of
    those probes surfaces at that first read."""

    def xi(x):
        return math.exp(d.log(x))

    def xi_prime(x):
        v = d._phi(x)
        if v == 0.0:
            raise DomainError(f"exp_of_log({d.name}): phi is 0 at x={x}")
        return xi(x) / v

    def inv_xi(y):
        # clamp: values beyond exp(700) only occur when the limit integral
        # diverges anyway, and the clamp keeps the probes finite
        return math.exp(min(-d.log(y), 700.0))

    # The range limits are read off xi's own decade anchors (log_xi at 1e-4,
    # 1e-7, 1e-10 and at the top anchor), so no decade is integrated twice.
    def log_xi_below(e):
        table = out._anchors
        i = table.anchor(e)
        if table.xs[i] == e:
            return table.vs[i]
        # the table stops short where xi underflows
        return -integrate(inv_xi, e, 1.0)

    def limits():
        lower = _probe_limit([log_xi_below(e) for e in (1e-4, 1e-7, 1e-10)],
                             -1.0)
        table = out._anchors
        top = table.anchor(table.xs[-1])
        upper = table.vs[top]
        if math.isfinite(d.x_upper):
            upper += integrate(inv_xi, table.xs[top], d.x_upper * (1 - 1e-12))
        else:
            at_1e6 = upper + integrate(inv_xi, 1e3, 1e6)
            at_1e9 = at_1e6 + integrate(inv_xi, 1e6, 1e9)
            upper = _probe_limit([upper, at_1e6, at_1e9], 1.0)
        return lower, upper

    out = Deformation(f"exp_of_log({d.name})", xi, xi_prime, params=d.params,
                      x_upper=d.x_upper, validate=False, _probe_limits=limits)
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
