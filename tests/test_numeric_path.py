"""The numeric log/exp path: the lazily filled decade-anchor table, the
range limits exp_of_log reads off it, and Newton inversion inside it; and
chi_dual's closed log, checked against that path."""

import ast
import bisect
import functools
import math
import pathlib
import random
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from phigeo import deform, errors
from phigeo.deform import Deformation, ProbVec, chi_dual, exp_of_log
from phigeo.errors import (ConvergenceError, DomainError, PhigeoError,
                           RangeError)
from phigeo.estimation import amari_identity_check
from phigeo.families import cd_family, identity, stretched, tsallis
from phigeo.geometry import (conformal_check, divergence_naudts,
                             entropy_naudts)
from phigeo.maxent import ConfigMatrix, normalize
from phigeo.specfun import GRAD_STEP, integrate
from phigeo.verify import _families


def sqrt_generator():
    """phi = sqrt(x) given numerically: log = 2(sqrt(x) - 1) > -2."""
    return Deformation("sqrt", math.sqrt, lambda x: 0.5 / math.sqrt(x),
                       validate=False)


def numeric_chi(d):
    """chi = phi/phi' of d with no closed log, on d's whole x_upper: its
    log integrates 1/chi from the decade anchors, a quadrature that shares
    no code with chi_dual's closed ln phi(x) - ln phi(1)."""
    def chi(x):
        return d._phi(x) / d._phi_prime(x)

    def chi_prime(x):
        h = GRAD_STEP * x
        return (chi(x + h) - chi(x - h)) / (2.0 * h)

    return Deformation(f"numeric chi({d.name})", chi, chi_prime,
                       params=d.params, x_upper=d.x_upper, validate=False)


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
    "numeric_chi(cd(0.7,0.4))": lambda: numeric_chi(cd_family(0.7, 0.4)),
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
                with pytest.raises(DomainError, match="out of range"):
                    d.log(x)
                continue
            assert d.log(x) == ref
        filled = table.xs[table.lo:table.hi + 1]
        assert filled == xs_ref
        assert table.vs[table.lo:table.hi + 1] == vs_ref

    def test_below_lowest_fillable_anchor_is_domain_error(self):
        # once a bare ZeroDivisionError: xi underflows below ~1.3e-3
        xi = exp_of_log(tsallis(2.0))
        for x in (1e-3, 1e-6):
            with pytest.raises(DomainError, match="out of range"):
                xi.log(x)
        assert xi.log(2e-3) < -1e211

    def test_concurrent_fills_match_eager_table(self):
        d = numeric_chi(tsallis(0.5))  # nothing is filled at construction
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
                    except DomainError:
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

    def test_phi_underflow_is_not_convergence(self):
        # phi(x) underflows to 0 near x = 4e-271 on cd(0.8,-0.5), so the
        # step (y - L) phi(x) is 0 while L != y; the inversion once stopped
        # there at 4.4254e-271.  The root, by mpmath on the log form
        # ln(1 - y/r) = (c-1) ln x + d ln(1 - a ln x) at 50 digits, is
        # 3.90432387910188477e-271.
        d = cd_family(0.8, -0.5)
        assert close(d._invert_log(-1e54), 3.90432387910188477e-271, 1e-12)

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


CHI_BASES = {
    "identity": identity,
    "tsallis(0.5)": lambda: tsallis(0.5),
    "tsallis(2)": lambda: tsallis(2.0),
    "tsallis(1.4)": lambda: tsallis(1.4),
    "cd(0.7,0.4)": lambda: cd_family(0.7, 0.4),
    "cd(0.8,0.5)": lambda: cd_family(0.8, 0.5),
    "cd(0.8,-0.5)": lambda: cd_family(0.8, -0.5),
}


class TestChiClosedLog:
    """chi_dual's log is ln phi(x) - ln phi(1), since 1/chi = (ln phi)',
    and its x_upper is the first zero of phi' above 1."""

    def test_log_matches_quadrature_of_phi_prime_over_phi(self):
        covered = 0
        for label, d in _families():
            try:
                phi_1 = d.phi(1.0)
            except DomainError:  # stretched(0.5): phi blows up at 1
                continue
            if not 0.0 < phi_1 < math.inf:
                continue
            covered += 1
            chi = chi_dual(d)
            f = lambda y: d.phi_prime(y) / d.phi(y)
            xs = np.geomspace(1e-12, 0.9 * min(1e3, chi.x_upper), 41).tolist()
            # integral_1^x f, carried outward from 1 over neighbouring x
            for side in ([x for x in xs if x < 1.0][::-1],
                         [x for x in xs if x >= 1.0]):
                a, ref = 1.0, 0.0
                for x in side:
                    ref += integrate(f, a, x)
                    a, got = x, chi.log(x)
                    assert abs(got - ref) <= 1e-12 * max(1.0, abs(got)), \
                        (label, x)
        assert covered == 8

    @pytest.mark.parametrize("c, d", [(0.8, 0.5), (0.7, 0.4), (1.0, 0.5)])
    def test_x_upper_is_the_zero_of_phi_prime(self, c, d):
        base = cd_family(c, d)
        top = chi_dual(base).x_upper
        assert top < base.x_upper
        assert base.phi_prime(top * (1.0 - 1e-9)) > 0.0
        assert base.phi_prime(top * (1.0 + 1e-9)) <= 0.0
        if c == 1.0:  # phi' = sqrt(u) - 1/(2 sqrt(u)), u = 1 - ln x
            assert abs(top - math.sqrt(math.e)) <= 1e-12

    @pytest.mark.parametrize("name", ["identity", "tsallis(0.5)",
                                      "tsallis(2)", "cd(0.8,-0.5)"])
    def test_x_upper_kept_where_phi_prime_stays_positive(self, name):
        d = CHI_BASES[name]()
        assert chi_dual(d).x_upper == d.x_upper

    @pytest.mark.parametrize("x", [1.5, 2.5, 3.1])
    def test_chi_of_cd_round_trip_up_to_x_upper(self, x):
        # chi of cd(0.8,0.5) is a generator below the zero of phi' at
        # ~2.53, not up to the base's x_upper ~3.49
        chi = chi_dual(cd_family(0.8, 0.5))
        if x < chi.x_upper:
            assert abs(chi.exp(chi.log(x)) - x) <= 1e-12 * x
        else:
            with pytest.raises(DomainError):
                chi.log(x)

    @pytest.mark.parametrize("name", ["cd(0.7,0.4)", "tsallis(0.5)"])
    def test_naudts_integrals_match_numeric_chi(self, name):
        # The numeric chi's entropy integrates a quadrature of 1/chi out to
        # x = e^-200, about 1 s per call on cd.  Its log is memoized, and
        # both p have the smallest entry 0.01, so that the n = 24 entropy
        # reuses the n = 3 one's tail; the values are the same.  q lies
        # halfway to p, which halves the divergence's nested quadrature.
        base = CHI_BASES[name]
        chi, ref = chi_dual(base()), numeric_chi(base())
        ref.log = functools.lru_cache(maxsize=None)(ref.log)
        rng = np.random.default_rng(7)
        for n in (3, 24):
            rest = 0.01 + (0.99 - 0.01 * (n - 1)) * rng.dirichlet(np.ones(n - 1))
            p = ProbVec(np.concatenate([[0.01], rest]))
            q = ProbVec(0.5 * (p.probs + rng.dirichlet(np.ones(n))))
            for f, args in ((entropy_naudts, (p,)),
                            (divergence_naudts, (p, q))):
                got, want = f(chi, *args), f(ref, *args)
                assert abs(got - want) <= 1e-12 * abs(want), (f, n)

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    def test_log_raises_where_phi_1_is_not_finite_positive(self, eta):
        chi = chi_dual(stretched(eta))  # builds: phi(1) is inf or 0
        with pytest.raises(DomainError):
            chi.log(0.5)

    def test_underflowing_chi_raises_domain_error(self):
        # phi and phi' of cd(0.7,0.4) both underflow to 0 at x = 1e-280
        with pytest.raises(DomainError):
            chi_dual(cd_family(0.7, 0.4)).phi(1e-280)

    @pytest.mark.parametrize("name", ["tsallis(0.5)", "tsallis(2)",
                                      "tsallis(1.4)", "cd(0.8,0.5)"])
    def test_round_trip_integrates_nothing(self, name, integrate_calls):
        # the bases of the benchmark's duality workload
        chi = chi_dual(CHI_BASES[name]())
        for x in (1e-3, 0.5, 0.999, 2.0):
            assert abs(chi.exp(chi.log(x)) - x) <= 1e-12 * max(x, 1.0)
        assert integrate_calls[0] == 0

    def test_exp_below_underflow_fails_without_quadrature(
            self, integrate_calls):
        # the answer lies where phi underflows and the log reads -inf
        with pytest.raises(ConvergenceError):
            chi_dual(cd_family(0.7, 0.4)).exp(-1e3)
        assert integrate_calls[0] == 0


class TestOutwardSearch:
    """exp without a closed form searches outward from the table's end, or
    from x = 1 for a closed log, and halves its way toward a finite
    x_upper instead of stepping a decade past it."""

    @pytest.mark.parametrize("c, d", [(0.8, 0.5), (0.7, 0.4), (1.0, 0.5)])
    def test_xi_of_cd_round_trip_up_to_x_upper(self, c, d):
        # xi's anchor table ends at x = 1, below x_upper = 3.49, 4.17, e
        xi = exp_of_log(cd_family(c, d))
        for x in np.geomspace(1.0, 0.99 * xi.x_upper, 12)[1:].tolist():
            assert abs(xi.exp(xi.log(x)) - x) <= 1e-12 * x, x

    @pytest.mark.parametrize("x", [12.0, 30.0, 49.0])
    def test_round_trip_between_top_anchor_and_x_upper(self, x):
        # the table's top anchor is 10; a decade step would reach 100
        d = LAZY_CASES["x^2 below x_upper=50"]()
        assert abs(d.exp(d.log(x)) - x) <= 1e-12 * x

    @pytest.mark.parametrize("name", ["tsallis(0.5)", "tsallis(2)",
                                      "tsallis(1.4)", "cd(0.8,0.5)"])
    def test_closed_log_exp_builds_no_table(self, name, monkeypatch):
        # the bases of the benchmark's duality workload
        chi = chi_dual(CHI_BASES[name]())
        logs, grids = [0], [0]

        def counted(f, calls):
            def wrapped(*args):
                calls[0] += 1
                return f(*args)
            return wrapped

        monkeypatch.setattr(chi, "log_closed", counted(chi.log_closed, logs))
        monkeypatch.setattr(deform, "validation_grid",
                            counted(deform.validation_grid, grids))
        for x in (1e-3, 0.5, 0.999, 2.0):
            y = chi.log(x)
            logs[0] = 0
            assert abs(chi.exp(y) - x) <= 1e-12 * max(x, 1.0)
            assert logs[0] <= 8, x
        assert grids[0] == 0

    @pytest.mark.parametrize("y", [5.0, 1e300])
    def test_exp_past_the_log_at_x_upper_raises_range_error(self, y):
        # log_chi is bounded by its value at x_upper ~2.53, well below 5
        with pytest.raises(RangeError):
            chi_dual(cd_family(0.8, 0.5)).exp(y)


SWEEP_CASES = {
    "exp_of_log(tsallis(0.5))": lambda: exp_of_log(tsallis(0.5)),
    "exp_of_log(tsallis(2))": lambda: exp_of_log(tsallis(2.0)),
    "chi_dual(cd(0.7,0.4))": lambda: chi_dual(cd_family(0.7, 0.4)),
    "numeric sqrt": sqrt_generator,
    # its Newton solve hands the deep tail to the inversion of the closed log
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


def test_every_raise_names_a_phigeo_error():
    """Every raise in the package names a PhigeoError subclass, except the
    allow-list: _gk15's OverflowError (the integrand overflowed, which the
    numeric log treats as a failed step), the AttributeError of
    _ProbedLimits.__getattr__ (the attribute protocol), and the cli's two
    usage errors (main reports a ValueError as exit 2)."""
    def raised(exc):
        exc = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(exc, ast.IfExp):
            return raised(exc.body) + raised(exc.orelse)
        return [exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)]

    def raises(node, func):
        """(innermost enclosing function, raised expression) of each raise."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from raises(child, child.name)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                yield func, child.exc
            else:
                yield from raises(child, func)

    src = pathlib.Path(deform.__file__).parent
    untyped = []
    for path in sorted(src.glob("*.py")):
        for func, exc in raises(ast.parse(path.read_text()), None):
            for name in raised(exc):
                cls = getattr(errors, name, None)
                if not (isinstance(cls, type) and issubclass(cls, PhigeoError)):
                    untyped.append(f"{path.name}:{func}:{name}")
    assert sorted(untyped) == [
        "cli.py:_eval_input:ValueError", "cli.py:build_family:ValueError",
        "deform.py:__getattr__:AttributeError",
        "specfun.py:_gk15:OverflowError"]
