import math
import warnings

import mpmath
import numpy as np
import pytest

from phigeo import geometry
from phigeo.deform import (Deformation, ProbVec, chi_dual, escort, exp_of_log,
                           h_phi, ts_dual, uniform, validation_grid)
from phigeo.errors import (BoundaryError, DomainError, PoleError, RangeError)
from phigeo.families import cd_family, identity, stretched, tsallis


class TestProbVec:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            ProbVec(np.array([0.5, 0.6]))

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            ProbVec(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, 0.5, math.nan],
                                       [math.inf, 1.0]])
    def test_non_finite_entry_rejected(self, probs):
        # every comparison with NaN is false, so a NaN entry once passed
        with pytest.raises(DomainError, match="non-finite"):
            ProbVec(np.array(probs))

    def test_interior_flag(self):
        assert ProbVec(np.array([0.4, 0.6])).interior
        assert not ProbVec(np.array([1.0, 0.0])).interior

    def test_uniform(self):
        u = uniform(4)
        assert np.allclose(u.probs, 0.25)
        assert u.interior


class TestDeformationBasics:
    def test_identity_log_exp(self):
        d = identity()
        assert abs(d.log(2.0) - math.log(2.0)) < 1e-14
        assert abs(d.exp(-1.0) - math.exp(-1.0)) < 1e-14

    def test_log_sign_convention(self):
        for d in [identity(), tsallis(1.5)]:
            assert d.log(1.0) == 0.0
            assert d.log(0.5) < 0.0
            assert d.log(2.0) > 0.0

    def test_log_domain(self):
        d = identity()
        with pytest.raises(DomainError):
            d.log(0.0)
        with pytest.raises(DomainError):
            d.log(-1.0)

    def test_cutoff_convention(self):
        # q < 1: finite lower range limit, exp returns 0 below it
        d = tsallis(0.5)
        assert d.log_lower_limit == -2.0
        assert d.exp(-2.5) == 0.0
        assert d.exp(-2.0) == 0.0

    def test_upper_range_limit(self):
        # q > 1: log saturates at 1/(q-1)
        d = tsallis(2.0)
        assert d.log_upper_limit == 1.0
        with pytest.raises(RangeError):
            d.exp(1.0)
        with pytest.raises(RangeError):
            d.exp(1.5)

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            Deformation("bad", lambda x: x - 0.5, lambda x: 1.0)

    def test_monotonicity_recorded(self):
        assert stretched(0.5).increasing is False
        assert tsallis(0.5).increasing is True

    def test_numeric_log_path(self):
        # no closed log supplied: anchor cache + quadrature must reproduce ln
        d = Deformation("numlog", lambda x: x, lambda x: 1.0)
        for x in [1e-5, 0.02, 0.7, 1.0, 3.0, 50.0]:
            assert abs(d.log(x) - math.log(x)) < 1e-10
        for y in [-3.0, -0.4, 0.0, 1.2]:
            assert abs(d.exp(y) - math.exp(y)) < 1e-9


class TestEscort:
    def test_identity_escort_is_p(self):
        p = ProbVec(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(escort(identity(), p).probs, p.probs)

    def test_tsallis_escort(self):
        p = ProbVec(np.array([0.2, 0.8]))
        q = 2.0
        w = p.probs ** q
        assert np.allclose(escort(tsallis(q), p).probs, w / w.sum())

    def test_h_phi(self):
        p = ProbVec(np.array([0.2, 0.8]))
        assert abs(h_phi(tsallis(2.0), p) - (0.04 + 0.64)) < 1e-14

    def test_boundary_rejected_when_phi_undefined_at_zero(self):
        p = ProbVec(np.array([1.0, 0.0]))
        with pytest.raises(BoundaryError):
            h_phi(stretched(2.0), p)

    def test_boundary_allowed_when_phi_extends(self):
        # x^q with q > 0 vanishes continuously at 0, so h is well defined
        p = ProbVec(np.array([1.0, 0.0]))
        assert h_phi(tsallis(0.5), p) == 1.0


class TestChiDual:
    def test_tsallis_chi_is_x_over_q(self):
        q = 2.0
        c = chi_dual(tsallis(q))
        for x in [0.1, 0.5, 2.0]:
            assert abs(c.phi(x) - x / q) < 1e-12

    def test_identity_chi_is_identity(self):
        c = chi_dual(identity())
        for x in [0.3, 1.0, 4.0]:
            assert abs(c.phi(x) - x) < 1e-12

    XS = [1e-6, 5e-6, 1e-3, 0.3, 2.0]

    def test_chi_prime_tsallis_exact(self):
        # chi = x/q, so chi' = 1/q down to x far below the difference step
        c = chi_dual(tsallis(0.5))
        for x in self.XS:
            assert abs(c.phi_prime(x) - 2.0) < 1e-8 * 2.0

    def test_chi_prime_cd_against_mpmath(self):
        # chi = phi/phi' = -L'/L'' for the (c,d)-log L, so
        # chi' = L' L''' / L''^2 - 1, from L's derivatives at 40 digits
        d = cd_family(0.7, 0.4)
        c, dd, r = d.params
        a = (1.0 - (1.0 - c) * r) / (dd * r)

        def L(x):
            return r - r * x ** (c - 1) * (1 - a * mpmath.log(x)) ** dd

        chi = chi_dual(d)
        with mpmath.workdps(40):
            for x in self.XS:
                l1, l2, l3 = (mpmath.diff(L, mpmath.mpf(x), k)
                              for k in (1, 2, 3))
                ref = float(l1 * l3 / l2 ** 2 - 1)
                assert abs(chi.phi_prime(x) - ref) < 1e-8 * abs(ref)

    def test_escort_metric_at_small_entries(self):
        # for chi = 2x, chi'/chi = 1/x and h = 2, so the escort metric is
        # (diag(1/p_i) + 1/p_0) / 2
        p = ProbVec(np.array([1e-6, 0.3, 0.7 - 1e-6]))
        got = geometry.metric_amari(chi_dual(tsallis(0.5)), p).entries
        ref = (np.diag(1.0 / p.probs[1:]) + 1.0 / p.probs[0]) / 2.0
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


class TestExpOfLog:
    def test_identity_fixed_point(self):
        xi = exp_of_log(identity())
        for x in [0.2, 1.0, 3.0]:
            assert abs(xi.phi(x) - x) < 1e-12
            assert abs(xi.log(x) - math.log(x)) < 1e-8

    def test_generator_value(self):
        d = tsallis(0.5)
        xi = exp_of_log(d)
        for x in [0.3, 0.9, 2.0]:
            assert abs(xi.phi(x) - math.exp(d.log(x))) < 1e-13

    def test_derivative_relation(self):
        d = tsallis(1.5)
        xi = exp_of_log(d)
        for x in [0.4, 1.2]:
            assert abs(xi.phi_prime(x) - xi.phi(x) / d.phi(x)) < 1e-12

    def test_construction_evaluates_nothing(self, monkeypatch):
        d = tsallis(0.5)
        calls = []
        monkeypatch.setattr(d, "log", lambda x: calls.append(x))
        exp_of_log(d)
        assert calls == []

    @pytest.mark.parametrize("c, dd", [(0.8, 0.5), (0.7, 0.4), (1.0, 0.5)])
    def test_builds_without_warning(self, c, dd):
        # d is not increasing (phi' < 0 somewhere, which is where
        # xi'' > xi'^2/xi); building xi on d raises no warning
        d = cd_family(c, dd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exp_of_log(d)


class TestTsDual:
    def test_nu_zero_is_same(self):
        d = tsallis(1.5)
        assert ts_dual(d, 0.0) is d

    def test_tsallis_collapse(self):
        # phi = x^q with nu = 1-q maps to the generator x^(2-q)
        q = 1.4
        dd = ts_dual(tsallis(q), 1.0 - q)
        for x in [0.2, 0.7, 1.5]:
            assert abs(dd.phi(x) - x ** (2.0 - q)) < 1e-12

    def test_log_moebius(self):
        d = tsallis(0.5)
        nu = 0.3
        dd = ts_dual(d, nu)
        for x in [0.3, 0.8, 2.0]:
            L = d.log(x)
            assert abs(dd.log(x) - L / (1.0 + nu * L)) < 1e-13

    def test_roundtrip(self):
        dd = ts_dual(tsallis(0.5), 0.3)
        for x in [0.2, 0.9, 3.0]:
            assert abs(dd.exp(dd.log(x)) - x) < 1e-10

    def test_pole_detected(self):
        # log_q hits -1/nu on (0, 1) for q<1 and large nu
        with pytest.raises(PoleError):
            ts_dual(tsallis(0.5), 1.0)

    def test_involution(self):
        d = tsallis(0.7)
        nu = 0.2
        back = ts_dual(ts_dual(d, nu), -nu)
        for x in [0.3, 1.4]:
            assert abs(back.log(x) - d.log(x)) < 1e-12


# Array evaluation against the scalar path.  numpy's elementwise log, exp
# and power may differ from the math module's by an ulp or two, and the
# closed forms compound a few of them: 8 ulps relative, fixed from the dtype.
ARRAY_RTOL = 8 * np.finfo(float).eps


def exp_close(d, got, ys):
    """exp_phi(ys) against the scalar path.  exp_phi is ill-conditioned
    where |y| phi(x) / x is large (near the cd branch point): an ulp in y
    moves it by that factor, so the tolerance scales with it."""
    ref = np.array([d.exp(float(y)) for y in ys])
    cond = np.maximum(1.0, np.abs(ys) * d.phi(ref) / ref)
    return np.all(np.abs(got - ref) <= ARRAY_RTOL * cond * np.abs(ref))


def closed_families():
    return [identity(), tsallis(0.5), tsallis(2.0), tsallis(1.4),
            stretched(2.0), stretched(0.5), cd_family(1.0, 1.0),
            cd_family(0.5, 0.0), cd_family(1.0, 0.5),
            cd_family(0.7, 0.4), cd_family(0.8, -0.5),
            cd_family(0.8, 0.5)]


class TestArrayForms:
    @pytest.mark.parametrize("d", closed_families(), ids=repr)
    def test_matches_scalar_path_on_validation_grid(self, d):
        assert d.vectorized
        grid = validation_grid(d.x_upper)
        for name in ("log", "phi", "phi_prime"):
            f = getattr(d, name)
            got = f(grid)
            ref = np.array([f(float(x)) for x in grid])
            assert got.shape == grid.shape
            assert np.allclose(got, ref, rtol=ARRAY_RTOL, atol=0.0), name
        ys = d.log(grid)
        assert exp_close(d, d.exp(ys), ys)

    def test_scalar_in_float_out(self):
        d = tsallis(0.5)
        assert type(d.log(0.3)) is float
        assert type(d.exp(0.3)) is float
        assert isinstance(d.exp(np.array(0.3)), np.ndarray)
        assert d.exp(np.zeros((2, 3))).shape == (2, 3)

    def test_cutoff_elementwise(self):
        d = tsallis(0.5)
        ys = np.array([-2.5, -2.0, -1.0, 0.5])
        got = d.exp(ys)
        assert got[0] == 0.0 and got[1] == 0.0
        assert exp_close(d, got[2:], ys[2:])

    def test_upper_limit_raises_for_any_element(self):
        d = tsallis(2.0)
        with pytest.raises(RangeError):
            d.exp(np.array([0.2, 0.5, 1.0]))

    def test_nan_raises(self):
        d = stretched(2.0)
        with pytest.raises(DomainError):
            d.exp(np.array([0.1, math.nan]))
        with pytest.raises(DomainError):
            d.log(np.array([0.5, math.nan]))
        with pytest.raises(DomainError):
            d.log(np.array([0.5, 0.0]))

    def test_cd_lambert_fallback_element(self):
        # At y = -1e308 the W argument underflows to -0.0, off the lower
        # branch; that element alone takes the numeric inversion.
        d = cd_family(0.8, -0.5)
        ys = np.array([-1e308, -1.0, 0.0, 1.5])
        got = d.exp(ys)
        assert got[0] == d._invert_log(-1e308) == 0.0
        assert exp_close(d, got[1:], ys[1:])
        assert np.allclose(d.log(got[1:]), ys[1:], rtol=0.0, atol=1e-10)

    def test_scalar_only_generator_loops(self):
        d = Deformation("numlog", lambda x: x, lambda x: 1.0)
        assert not d.vectorized
        xs = np.array([0.02, 0.7, 3.0])
        assert np.allclose(d.log(xs), np.log(xs), atol=1e-10)
        assert np.allclose(d.exp(np.array([-0.4, 1.2])),
                           np.exp([-0.4, 1.2]), atol=1e-9)

    def test_grid_built_once_and_evaluated_once(self, monkeypatch):
        calls = {"geomspace": 0, "phi": 0, "phi_prime": 0}
        geomspace = np.geomspace

        def counted_geomspace(*a, **k):
            calls["geomspace"] += 1
            return geomspace(*a, **k)

        def phi(x, m=None):
            if isinstance(x, np.ndarray):
                calls["phi"] += 1
            return x ** 0.5

        def phi_prime(x, m=None):
            if isinstance(x, np.ndarray):
                calls["phi_prime"] += 1
            return 0.5 * x ** -0.5

        monkeypatch.setattr(np, "geomspace", counted_geomspace)
        Deformation("t", phi, phi_prime,
                    log_closed=lambda x, m=None: 2.0 * (x ** 0.5 - 1.0),
                    x_upper=50.0, vectorized=True)
        assert calls == {"geomspace": 1, "phi": 1, "phi_prime": 1}
        # the unbounded grid is a module constant
        Deformation("t", phi, phi_prime,
                    log_closed=lambda x, m=None: 2.0 * (x ** 0.5 - 1.0),
                    vectorized=True)
        assert calls == {"geomspace": 1, "phi": 2, "phi_prime": 2}
