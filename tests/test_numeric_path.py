"""The numeric log/exp path: the lazily filled decade-anchor table, the
range limits exp_of_log reads off it, and Newton inversion inside it."""

import ast
import bisect
import math
import pathlib
import random
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from phigeo import deform
from phigeo.deform import Deformation, chi_dual, exp_of_log
from phigeo.errors import ConvergenceError, PhigeoError, RangeError
from phigeo.estimation import amari_identity_check
from phigeo.families import cd_family, identity, tsallis
from phigeo.geometry import conformal_check
from phigeo.maxent import ConfigMatrix, normalize
from phigeo.specfun import integrate


def sqrt_generator():
    """phi = sqrt(x) given numerically: log = 2(sqrt(x) - 1) > -2."""
    return Deformation("sqrt", math.sqrt, lambda x: 0.5 / math.sqrt(x),
                       validate=False)


def eager_anchors(d):
    """The table as built eagerly at construction before it became lazy:
    all decades upward from 1, then downward until an integrand raises."""
    hi_exp = 3
    if math.isfinite(d.x_upper):
        hi_exp = min(hi_exp, int(math.floor(math.log10(d.x_upper))))
    xs = sorted(set([10.0 ** k for k in range(-12, hi_exp + 1)] + [1.0]))
    f = lambda y: 1.0 / d._phi(y)
    vals = {1.0: 0.0}
    i1 = xs.index(1.0)
    acc = 0.0
    for i in range(i1, len(xs) - 1):
        acc += integrate(f, xs[i], xs[i + 1])
        vals[xs[i + 1]] = acc
    acc = 0.0
    lo_stop = 0
    for i in range(i1, 0, -1):
        try:
            seg = integrate(f, xs[i - 1], xs[i])
        except (ZeroDivisionError, OverflowError):
            lo_stop = i
            break
        acc -= seg
        vals[xs[i - 1]] = acc
    xs = xs[lo_stop:]
    return xs, [vals[x] for x in xs]


def old_limits(d):
    """exp_of_log's range limits as computed before the table was shared:
    every probe a from-scratch integral of the clamped 1/xi."""
    inv_xi = lambda y: math.exp(min(-d.log(y), 700.0))

    def probe(f, points, sign):
        v = [f(t) for t in points]
        d1, d2 = abs(v[1] - v[0]), abs(v[2] - v[1])
        if d2 > 0.5 * d1 and d2 > 1e-8:
            return sign * math.inf
        return v[2] + (v[2] - v[1])

    lower = probe(lambda e: -integrate(inv_xi, e, 1.0),
                  [1e-4, 1e-7, 1e-10], -1.0)
    if math.isfinite(d.x_upper):
        upper = integrate(inv_xi, 1.0, d.x_upper * (1 - 1e-12))
    else:
        upper = probe(lambda t: integrate(inv_xi, 1.0, t),
                      [1e3, 1e6, 1e9], 1.0)
    return lower, upper


def probe_limit(vals, sign):
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    if d2 > 0.5 * d1 and d2 > 1e-8:
        return sign * math.inf
    return vals[2] + (vals[2] - vals[1])


def eager_limits(d):
    """exp_of_log(d)'s range limits as computed at its construction before
    they became lazy: log_xi at 1e-4, 1e-7 and 1e-10 off xi's eager anchor
    table (from scratch where the table stops short), and the tail beyond
    its top anchor."""
    xi = Deformation("xi", lambda x: math.exp(d.log(x)), None,
                     x_upper=d.x_upper, validate=False)
    xs, vs = eager_anchors(xi)
    inv_xi = lambda y: math.exp(min(-d.log(y), 700.0))

    def below(e):
        if e in xs:
            return vs[xs.index(e)]
        return -integrate(inv_xi, e, 1.0)

    lower = probe_limit([below(e) for e in (1e-4, 1e-7, 1e-10)], -1.0)
    upper = vs[-1]
    if math.isfinite(d.x_upper):
        upper += integrate(inv_xi, xs[-1], d.x_upper * (1 - 1e-12))
    else:
        at_1e6 = upper + integrate(inv_xi, 1e3, 1e6)
        at_1e9 = at_1e6 + integrate(inv_xi, 1e6, 1e9)
        upper = probe_limit([upper, at_1e6, at_1e9], 1.0)
    return lower, upper


def close(a, b, rel):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.fixture
def integrate_calls(monkeypatch):
    """Counts deform's quadrature calls."""
    calls = [0]

    def counted(*a, **k):
        calls[0] += 1
        return integrate(*a, **k)

    monkeypatch.setattr(deform, "integrate", counted)
    return calls


LAZY_CASES = {
    "exp_of_log(tsallis(0.5))": lambda: exp_of_log(tsallis(0.5)),
    "chi_dual(cd(0.7,0.4))": lambda: chi_dual(cd_family(0.7, 0.4)),
    "x^2 below x_upper=50": lambda: Deformation(
        "sq", lambda x: x * x, lambda x: 2.0 * x, x_upper=50.0,
        validate=False),
    # the downward fill stops at 1e-2: xi underflows to 0 below ~1.3e-3
    "exp_of_log(tsallis(2))": lambda: exp_of_log(tsallis(2.0)),
}


class TestLazyAnchors:
    @pytest.mark.parametrize("name", sorted(LAZY_CASES))
    @pytest.mark.parametrize("order_seed", [1, 2])
    def test_values_match_eager_table_in_any_order(self, name, order_seed):
        d = LAZY_CASES[name]()
        xs_ref, vs_ref = eager_anchors(d)
        table = d._anchors
        queries = [x for x in np.geomspace(3e-13, 0.9 * min(d.x_upper, 1e3), 41)
                   .tolist() + table.xs if x < d.x_upper]
        random.Random(order_seed).shuffle(queries)
        for x in queries:
            # the anchor next to x on the side of x = 1, or the lowest one
            if x >= 1.0:
                i = bisect.bisect_right(xs_ref, x) - 1
            else:
                i = bisect.bisect_left(xs_ref, x)
            try:
                ref = vs_ref[i] + integrate(lambda y: 1.0 / d._phi(y),
                                            xs_ref[i], x)
            except (ZeroDivisionError, OverflowError):
                with pytest.raises((ZeroDivisionError, OverflowError)):
                    d.log(x)
                continue
            assert d.log(x) == ref
        filled = table.xs[table.lo:table.hi + 1]
        assert filled == xs_ref
        assert table.vs[table.lo:table.hi + 1] == vs_ref

    def test_concurrent_fills_match_eager_table(self):
        d = chi_dual(tsallis(0.5))  # nothing is filled at construction
        xs_ref, vs_ref = eager_anchors(d)
        points = np.geomspace(3e-13, 900.0, 30).tolist()
        errors = []
        start = threading.Barrier(6)

        def work(seed):
            order = points[:]
            random.Random(seed).shuffle(order)
            try:
                start.wait(timeout=30)
                for x in order:
                    back = d.exp(d.log(x))
                    if abs(back - x) > 1e-12 * max(x, 1.0):
                        errors.append((x, back))
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        t = d._anchors
        assert t.xs[t.lo:t.hi + 1] == xs_ref
        assert t.vs[t.lo:t.hi + 1] == vs_ref

    def test_construction_integrates_nothing(self, integrate_calls):
        Deformation("numlog", lambda x: x, lambda x: 1.0)
        chi_dual(tsallis(0.5))
        assert integrate_calls[0] == 0

    def test_queries_fill_only_the_decades_they_need(self, integrate_calls):
        d = Deformation("numlog", lambda x: x, lambda x: 1.0)
        d.log(0.5)
        assert integrate_calls[0] == 1  # (1, 0.5), from the anchor at 1
        d.log(0.2)
        assert integrate_calls[0] == 2
        t = d._anchors
        assert t.xs[t.lo] == 1.0 and t.xs[t.hi] == 1.0
        d.log(0.05)
        assert integrate_calls[0] == 4  # the decade (0.1, 1) and (0.1, 0.05)
        assert t.xs[t.lo] == 0.1 and t.xs[t.hi] == 1.0

    def test_deformation_attributes_unchanged_by_queries(self):
        d = exp_of_log(tsallis(0.5))
        before = dict(vars(d))
        d.log(1e-6)
        d.exp(1.2)
        d.exp(np.array([-2.0, 0.3]))
        assert vars(d).keys() == before.keys()
        assert all(vars(d)[k] is v for k, v in before.items())


class TestExpOfLogLimits:
    @pytest.mark.parametrize("name, ctor", [
        ("identity", identity),
        ("tsallis(0.5)", lambda: tsallis(0.5)),
        ("tsallis(2)", lambda: tsallis(2.0)),
        ("cd(0.8,0.5)", lambda: cd_family(0.8, 0.5)),
    ])
    def test_limits_match_from_scratch_probes(self, name, ctor):
        d = ctor()
        xi = exp_of_log(d)
        lower, upper = old_limits(d)
        assert close(xi.log_lower_limit, lower, 1e-12)
        if name == "tsallis(0.5)":
            # The old from-scratch probe over (1, 1e6) missed the mass near
            # 1 and read ~0, which set the limit to -1.4e-52; the decade
            # sum gives the true limit, integral_1^inf e^(2 - 2 sqrt(y)) dy
            # = 3/2, and the probe at 1e3 still agrees.
            assert abs(upper) < 1e-40
            assert close(xi.log_upper_limit, 1.5, 1e-12)
            inv_xi = lambda y: math.exp(-d.log(y))
            assert close(xi.log(999.0), integrate(inv_xi, 1.0, 999.0),
                         1e-12)
        else:
            assert close(xi.log_upper_limit, upper, 1e-12)

    def test_tsallis_half_xi_inverts_above_one(self):
        # with the upper limit at ~0, every y > 0 used to raise RangeError
        xi = exp_of_log(tsallis(0.5))
        for x in (1.5, 3.0, 20.0):
            assert abs(xi.exp(xi.log(x)) - x) < 1e-10 * x

    def test_tsallis_07_upper_limit_is_finite(self):
        # integral_1^inf exp(-(y^0.3 - 1)/0.3) dy, which the from-scratch
        # probes classified as divergent.  The tail beyond the top anchor
        # (~1e-8 of the total) comes from one adaptive integral over
        # (1e3, 1e6), which resolves it to about 1e-8 relative.
        xi = exp_of_log(tsallis(0.7))
        ref = mpmath.quad(lambda y: mpmath.exp(-(y ** 0.3 - 1) / 0.3),
                          [1, 10, 100, 1e3, 1e4, 1e6, 1e9, mpmath.inf])
        assert close(xi.log_upper_limit, float(ref), 1e-7)


LIMIT_BASES = {
    "identity": identity,
    "tsallis(0.5)": lambda: tsallis(0.5),
    "tsallis(2)": lambda: tsallis(2.0),
    "tsallis(0.7)": lambda: tsallis(0.7),
    "cd(0.8,0.5)": lambda: cd_family(0.8, 0.5),
    "numeric sqrt": sqrt_generator,
}


@pytest.fixture
def probes(monkeypatch):
    """Counts the calls of _probe_limit, which every computation of
    exp_of_log's limits makes (two where x_upper is infinite, else one)."""
    calls = [0]
    orig = deform._probe_limit

    def counted(*a, **k):
        calls[0] += 1
        return orig(*a, **k)

    monkeypatch.setattr(deform, "_probe_limit", counted)
    return calls


class TestLazyLimits:
    @pytest.mark.parametrize("name", ["identity", "tsallis(0.5)",
                                      "tsallis(2)", "cd(0.8,0.5)"])
    def test_construction_integrates_nothing(self, name, integrate_calls):
        d = LIMIT_BASES[name]()
        xi = exp_of_log(d)
        assert integrate_calls[0] == 0
        t = xi._anchors
        assert t.lo == t.hi  # only the anchor at 1

    @pytest.mark.parametrize("name", sorted(LIMIT_BASES))
    @pytest.mark.parametrize("first", ["limits", "queries"])
    def test_limits_equal_eager_values(self, name, first):
        d = LIMIT_BASES[name]()
        xi = exp_of_log(d)
        if first == "queries":  # fill part of the table in another order
            for x in (1e-9, 2.0, 1e-5, 0.3, 500.0):
                if x < d.x_upper:
                    try:
                        xi.log(x)
                    except (ZeroDivisionError, OverflowError):
                        pass  # below where xi underflows
        got = (xi.log_lower_limit, xi.log_upper_limit)
        assert got == eager_limits(d)

    def test_first_exp_computes_limits_once(self, integrate_calls, probes):
        xi = exp_of_log(tsallis(2.0))
        assert probes[0] == 0
        xi.exp(-1.0)
        assert probes[0] == 2  # lower and upper, x_upper infinite
        before = integrate_calls[0]
        pair = (xi.log_lower_limit, xi.log_upper_limit)
        assert integrate_calls[0] == before
        assert xi.exp(2.0) > 1.0
        xi.exp(np.array([-3.0, 0.5]))
        assert probes[0] == 2
        assert pair == eager_limits(tsallis(2.0))

    def test_concurrent_first_reads_agree(self, probes, monkeypatch):
        counted = deform._probe_limit

        def slow(*a, **k):
            time.sleep(0.01)  # lets the other threads reach the unset limits
            return counted(*a, **k)

        monkeypatch.setattr(deform, "_probe_limit", slow)
        xi = exp_of_log(tsallis(0.5))
        ref = eager_limits(tsallis(0.5))
        seen, errors = [], []
        start = threading.Barrier(6)

        def work():
            try:
                start.wait(timeout=30)
                seen.append((xi.log_lower_limit, xi.log_upper_limit))
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen == [ref] * 6
        assert probes[0] == 2  # one computation, under the lock

    def test_probe_error_surfaces_at_first_read(self, monkeypatch):
        def fail(*a, **k):
            raise ConvergenceError("probe failed")

        monkeypatch.setattr(deform, "_probe_limit", fail)
        xi = exp_of_log(tsallis(2.0))  # builds: nothing is probed yet
        with pytest.raises(ConvergenceError):
            xi.exp(-1.0)
        monkeypatch.undo()
        # the failed probe wrote nothing, so the next read probes again
        assert xi.log_upper_limit == eager_limits(tsallis(2.0))[1]

    def test_checks_never_compute_limits(self, monkeypatch):
        def fail(*a, **k):
            raise AssertionError("range limits computed")

        monkeypatch.setattr(deform, "_probe_limit", fail)
        p = deform.ProbVec([0.2, 0.3, 0.5])
        for d in (tsallis(2.0), tsallis(1.4), cd_family(0.8, 0.5)):
            assert conformal_check(d, p).max_rel_residual < 1e-8
            xi = exp_of_log(d)
            assert conformal_check(d, p, xi=xi).max_rel_residual < 1e-8
            fam = normalize(d, ConfigMatrix(np.array([[0.0], [1.0], [2.5]])),
                            [0.1])
            assert amari_identity_check(fam).max_rel_residual < 1e-8

    def test_given_limits_are_plain_slots(self):
        # A class with __getattr__ slows every attribute read, and exp
        # reads the limits on each call: only probed limits may have one.
        for d in (tsallis(0.5), identity(), cd_family(0.7, 0.4),
                  deform.ts_dual(tsallis(0.5), 0.3)):
            assert not hasattr(type(d._limits), "__getattr__")
        assert hasattr(type(exp_of_log(tsallis(0.5))._limits), "__getattr__")
        d = tsallis(0.5)
        assert (d.log_lower_limit, d.log_upper_limit) == (-2.0, math.inf)
        assert d.exp(-3.0) == 0.0


NEWTON_CASES = {
    "numeric ln": lambda: Deformation("numlog", lambda x: x, lambda x: 1.0),
    "numeric sqrt": sqrt_generator,
    "chi_dual(tsallis(0.5))": lambda: chi_dual(tsallis(0.5)),
    "chi_dual(tsallis(2))": lambda: chi_dual(tsallis(2.0)),
    "exp_of_log(identity)": lambda: exp_of_log(identity()),
}


class TestNewtonInversion:
    @pytest.mark.parametrize("name", sorted(NEWTON_CASES))
    def test_round_trip_within_budget(self, name, integrate_calls):
        d = NEWTON_CASES[name]()
        for x in np.geomspace(1e-9, 1e2, 67).tolist():
            y = d.log(x)
            before = integrate_calls[0]
            back = d.exp(y)
            assert integrate_calls[0] - before <= 12
            assert abs(back - x) <= 1e-12 * max(x, 1.0)

    def test_far_anchor_does_not_cancel(self):
        # xi = exp(1 - 1/x): log_xi(1e-2) ~ -1e39, so an inversion that
        # carried log_xi up from that anchor would lose every digit.  Below
        # that anchor (y = -1e40, -1e100) the decade step to 1e-3 lands
        # where xi underflows and 1/xi divides by zero.  The answer is
        # checked through u = 1/y: -y = integral_1^(1/x) e^(u-1)/u^2.
        xi = exp_of_log(tsallis(2.0))
        for y in (-1e5, -1e40, -1e100):
            x = xi.exp(y)
            u = 1.0 / mpmath.mpf(x)
            got = mpmath.quad(lambda t: mpmath.exp(t - 1) / t ** 2,
                              mpmath.linspace(1, u, 20))
            assert close(float(got), -y, 1e-9)


class TestNumericLog:
    @pytest.mark.parametrize("x", [0.055, 0.03])
    def test_far_anchor_does_not_cancel(self, x):
        # log_xi(1e-2) ~ -1.0e39 for xi = exp(1 - 1/x); integrating up
        # from that anchor gave 0.0 at x = 0.055 and -4.5e23 at 0.03.  With
        # u = 1/y: log_xi(x) = -integral_1^(1/x) e^(u-1)/u^2 du.
        xi = exp_of_log(tsallis(2.0))
        u = 1.0 / mpmath.mpf(x)
        ref = -mpmath.quad(lambda t: mpmath.exp(t - 1) / t ** 2,
                           mpmath.linspace(1, u, 30))
        assert close(xi.log(x), float(ref), 1e-13)


class TestOutsideTheTable:
    @pytest.mark.parametrize("x", [1.5, 2.5, 3.1])
    def test_chi_of_cd_above_top_anchor_raises(self, x):
        # chi's table stops at 1 (x_upper ~ 3.49); the upward search steps
        # past x_upper at once
        chi = chi_dual(cd_family(0.8, 0.5))
        with pytest.raises(RangeError, match="out of range"):
            chi.exp(chi.log(x))

    @pytest.mark.parametrize("y", [-1.9999999, -1.99999999999])
    def test_below_table_inversion(self, y):
        # below log(1e-12) = -1.999998, above the bound -2; the exact
        # answer is x = (1 + y/2)^2, and the error may be the condition
        # number of exp at y, |y| phi(x)/x, times 1e-12
        x_ref = (1.0 + 0.5 * y) ** 2
        x = sqrt_generator().exp(y)
        assert abs(x - x_ref) <= 1e-12 * abs(y) * math.sqrt(x_ref)

    @pytest.mark.parametrize("y", [-2.0, -2.5, -1e300])
    def test_below_table_cutoff(self, y):
        # the log is bounded below by -2 but the declared lower limit is
        # -inf: the search passes x = 1e-300 and returns the cutoff 0
        assert sqrt_generator().exp(y) == 0.0

    def test_infinite_panel_is_a_failed_step(self):
        # xi = exp(1 - 1/x) for tsallis(2), so -y = integral_1^{1/x} of
        # e^(t-1)/t^2 dt = (Ei(u) - e^u/u - Ei(1) + e)/e at u = 1/x.  The
        # downward search passes decades where xi is subnormal and 1/xi is
        # inf; an infinite GK15 panel must fail that step at once instead of
        # spending the whole subdivision budget on it.
        xi = exp_of_log(tsallis(2.0))
        for k in range(297, 302):
            y = -10.0 ** k
            start = time.perf_counter()
            x = xi.exp(y)
            assert time.perf_counter() - start <= 0.04, y
            assert 0.0014140 < x < 0.0014328, (y, x)
            with mpmath.workdps(40):
                target, u = mpmath.mpf(-y), 1 / mpmath.mpf(x)
                for _ in range(8):
                    F = (mpmath.ei(u) - mpmath.exp(u) / u - mpmath.ei(1)
                         + mpmath.e) / mpmath.e
                    u -= (F - target) / (mpmath.exp(u - 1) / u ** 2)
                assert abs(x * u - 1) <= 1.2e-13, (y, x)


SWEEP_CASES = {
    "exp_of_log(tsallis(0.5))": lambda: exp_of_log(tsallis(0.5)),
    "exp_of_log(tsallis(2))": lambda: exp_of_log(tsallis(2.0)),
    "chi_dual(cd(0.7,0.4))": lambda: chi_dual(cd_family(0.7, 0.4)),
    "numeric sqrt": sqrt_generator,
    # its Lambert fallback inverts the closed log
    "cd(0.8,-0.5)": lambda: cd_family(0.8, -0.5),
}


class TestInversionSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_exp_is_zero_exact_or_typed_error(self, name):
        """exp(y) at y = +-10^k between the range limits returns the cutoff
        0, an x whose log is y to 1e-9 max(1, |y|), or raises a
        PhigeoError.  The log spacing of x itself is allowed on top: a
        subnormal x (cd at y = -1e63) cannot do better.  Each direction
        stops at its first error, as every y beyond it searches past the
        same point (chi_dual(cd) spends ~1 s per y below -1e3 in the
        quadrature near x = 1e-240, where the cd generator underflows)."""
        d = SWEEP_CASES[name]()
        lower, upper = d.log_lower_limit, d.log_upper_limit
        for sign in (1.0, -1.0):
            for k in range(-12, 309, 3):
                y = sign * 10.0 ** k
                if not lower < y < upper:
                    continue
                try:
                    x = d.exp(y)
                except PhigeoError:
                    break
                if x == 0.0:
                    continue
                assert x > 0.0, (y, x)
                spacing = d.log(math.nextafter(x, math.inf)) - d.log(x)
                tol = 1e-9 * max(1.0, abs(y)) + spacing
                assert abs(d.log(x) - y) <= tol, (y, x)


def test_no_broad_except_in_source():
    """Errors are narrow: no bare except and no except Exception."""
    src = pathlib.Path(deform.__file__).parent
    broad = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = [n.id for n in ast.walk(node.type)
                     if isinstance(n, ast.Name)] if node.type else ["bare"]
            if {"bare", "Exception", "BaseException"} & set(names):
                broad.append(f"{path.name}:{node.lineno}")
    assert broad == []
