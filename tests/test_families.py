import math
import warnings

import numpy as np
import pytest

from phigeo.deform import Deformation, chi_dual, exp_of_log
from phigeo.errors import DomainError, PhigeoError
from phigeo.families import (CdParams, auto_r, cd_exp_closed, cd_family,
                             cd_params, identity, stretched, tsallis)
from phigeo.specfun import integrate
from phigeo.verify import _families


class TestClosedFamilies:
    def test_tsallis_phi(self):
        assert tsallis(2.0).phi(2.0) == 4.0

    def test_stretched_phi_at_e(self):
        d = stretched(2.0)
        assert abs(d.phi(math.e) - 2.0 * math.e) < 1e-12

    def test_identity_limits(self):
        d = identity()
        assert d.log_lower_limit == -math.inf
        assert d.log_upper_limit == math.inf

    def test_tsallis_log_formula(self):
        q = 1.5
        d = tsallis(q)
        for x in [0.2, 0.9, 3.0]:
            assert abs(d.log(x) - (x ** (1 - q) - 1) / (1 - q)) < 1e-13

    def test_stretched_signed_log(self):
        d = stretched(2.0)
        assert abs(d.log(math.e) - 1.0) < 1e-13
        assert abs(d.log(0.5) + abs(math.log(0.5)) ** 0.5) < 1e-13

    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            tsallis(0.0)
        with pytest.raises(DomainError):
            tsallis(1.0)
        with pytest.raises(DomainError):
            stretched(-0.5)
        with pytest.raises(DomainError):
            stretched(1.0)

    def test_log_derivative_is_inverse_phi(self):
        for d in [tsallis(0.7), stretched(2.0)]:
            for x in [0.1, 0.5, 2.0]:
                h = 1e-7 * x
                slope = (d.log(x + h) - d.log(x - h)) / (2 * h)
                assert abs(slope * d.phi(x) - 1.0) < 1e-6


class TestAutoR:
    def test_shannon_point(self):
        assert auto_r(1.0, 1.0) == 1.0

    def test_d_zero(self):
        assert auto_r(0.5, 0.0) == 2.0

    def test_negative_d(self):
        assert abs(auto_r(0.5, -1.0) - 2.0 * math.e) < 1e-14

    def test_degenerate(self):
        with pytest.raises(DomainError):
            auto_r(1.0, -0.5)


class TestCdParams:
    def test_derived_constants(self):
        p = cd_params(0.7, 0.4)
        k = 1.0 - (1.0 - p.c) * p.r
        assert abs(p.A - p.c * p.d * p.r / k) < 1e-14
        beta = (1.0 - p.c) * p.r / k
        assert abs(p.B - beta * math.exp(beta)) < 1e-14
        assert p.branch == "generic"

    def test_branch_tags(self):
        assert cd_params(1.0, 1.0).branch == "shannon"
        assert cd_params(0.5, 0.0).branch == "d_zero"
        assert cd_params(1.0, 0.5).branch == "c_one"

    def test_r_positive(self):
        with pytest.raises(DomainError):
            cd_params(0.7, 0.4, r=-1.0)


class TestCdFamily:
    def test_shannon_collapse(self):
        d = cd_family(1.0, 1.0)
        base = identity()
        for x in [0.1, 0.7, 1.0, 5.0]:
            assert abs(d.log(x) - base.log(x)) < 1e-12
            assert abs(d.phi(x) - base.phi(x)) < 1e-12
        for y in [-2.0, 0.0, 1.3]:
            assert abs(d.exp(y) - base.exp(y)) < 1e-12

    def test_d_zero_pure_power(self):
        q = 0.5
        d = cd_family(q, 0.0, r=1.0 / (1.0 - q))
        for x in [0.2, 0.6, 0.95]:
            assert abs(d.phi(x) - x ** (2.0 - q)) < 1e-13

    def test_c_one_log(self):
        dd = cd_family(1.0, 0.5)
        r = dd.params[2]
        for x in [0.3, 0.8]:
            ref = r - r * (1.0 - math.log(x) / (0.5 * r)) ** 0.5
            assert abs(dd.log(x) - ref) < 1e-12

    def test_c_one_negative_d_rejected(self):
        with pytest.raises(DomainError):
            cd_family(1.0, -0.5)

    def test_generic_log_slope(self):
        dd = cd_family(0.7, 0.4)
        for x in [0.05, 0.4, 0.9, 2.0]:
            h = 1e-6 * x
            slope = (dd.log(x + h) - dd.log(x - h)) / (2 * h)
            assert abs(slope * dd.phi(x) - 1.0) < 1e-7

    def test_phi_prime_matches_fd(self):
        for (c, d) in [(0.7, 0.4), (0.8, -0.5)]:
            dd = cd_family(c, d)
            for x in [0.1, 0.5, 0.9]:
                h = 1e-6 * x
                fd = (dd.phi(x + h) - dd.phi(x - h)) / (2 * h)
                assert abs(fd - dd.phi_prime(x)) < 1e-5 * max(
                    abs(dd.phi_prime(x)), 1.0)

    @pytest.mark.parametrize("c,d", [(1.0, 1.0), (1.0, 0.5), (0.5, 0.0),
                                     (0.7, 0.4), (0.8, -0.5)])
    def test_roundtrip(self, c, d):
        dd = cd_family(c, d)
        hi = min(5.0, 0.9 * dd.x_upper)
        for x in np.geomspace(1e-3, hi, 15):
            assert abs(dd.exp(dd.log(x)) - x) < 1e-8 * max(x, 1.0)

    @pytest.mark.parametrize("c,d", [(0.7, 0.4), (0.8, -0.5)])
    def test_roundtrip_needs_no_inversion(self, c, d, monkeypatch):
        # the Lambert closed form covers test_roundtrip's grid on its own
        def no_inversion(self, y):
            raise AssertionError(f"numeric inversion at y={y}")

        dd = cd_family(c, d)
        monkeypatch.setattr(Deformation, "_invert_log", no_inversion)
        hi = min(5.0, 0.9 * dd.x_upper)
        for x in np.geomspace(1e-3, hi, 15):
            assert abs(dd.exp(dd.log(x)) - x) < 1e-8 * max(x, 1.0)

    def test_out_of_range_c_fails_validation(self):
        # with c > 1 the generator loses positivity near 0, and construction
        # is rejected rather than silently accepted
        with pytest.raises(DomainError):
            cd_family(1.2, 0.5)

    def test_overflowing_lambert_argument_rejected(self):
        # beta * exp(beta) overflows for small c and d just above 0
        with pytest.raises(DomainError, match="overflows"):
            cd_params(0.2025, 0.0025)
        with pytest.raises(DomainError, match="overflows"):
            cd_family(0.2025, 0.0025)

    @pytest.mark.parametrize("c,d", [(1.0025, 1.8675), (1.0025, 1.8475)])
    def test_domain_sup_not_above_one_rejected(self, c, d):
        # x_upper underflows to 0 (once a geomspace ValueError) or to
        # ~3e-321 (once a family whose every log raised)
        with pytest.raises(DomainError, match="x_upper"):
            cd_family(c, d)

    def test_cutoff_below_lower_limit(self):
        dd = cd_family(0.7, 0.4)
        # log saturates at r as x -> 0, so exp returns 0 below that
        r = dd.params[2]
        assert dd.log_lower_limit == pytest.approx(-math.inf, abs=0) or \
            dd.log_lower_limit < 0
        assert dd.exp(dd.log_lower_limit - 1.0) == 0.0


class TestCdExpClosed:
    def test_zero_maps_to_one(self):
        p = cd_params(0.5, 2.0)
        assert abs(cd_exp_closed(p, 0.0) - 1.0) < 1e-12

    def test_roundtrip_against_log(self):
        dd = cd_family(0.7, 0.4)
        p = cd_params(*dd.params)
        for x in np.linspace(0.01, 1.0, 12):
            assert abs(cd_exp_closed(p, dd.log(x)) - x) < 1e-8


class TestQuadratureConsistency:
    def test_tsallis_log_integral_matches(self):
        # the closed log agrees with its defining integral of 1/phi
        d = tsallis(0.6)
        for x in [0.2, 0.8, 1.7]:
            ref = integrate(lambda y: 1.0 / d.phi(y), 1.0, x)
            assert abs(d.log(x) - ref) < 1e-10

    def test_cd_log_integral_matches(self):
        dd = cd_family(0.8, -0.5)
        for x in [0.3, 0.9, 1.5]:
            ref = integrate(lambda y: 1.0 / dd.phi(y), 1.0, x)
            assert abs(dd.log(x) - ref) < 1e-10


def _fig2_lattice():
    """increasing for every (c, d) cell of fig2's lattice that builds,
    built with every warning raised as an error."""
    cs = [0.2 + 0.02 * i for i in range(61)]
    ds = [-1.0 + 0.05 * i for i in range(61)]
    flags = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in cs:
            for d in ds:
                try:
                    flags.append(cd_family(c, d).increasing)
                except PhigeoError:
                    pass
    return flags


class TestIncreasing:
    """Deformation.increasing: whether phi' > 0 on the validation grid."""

    NOT_INCREASING = {"stretched_eta0.5", "cd_1_0.5", "cd_0.7_0.4"}

    def test_family_matrix(self):
        for label, d in _families():
            assert d.increasing is (label not in self.NOT_INCREASING), label
        assert cd_family(0.8, 0.5).increasing is False

    def test_unvalidated_deformations_are_none(self):
        for d in (tsallis(0.5), cd_family(0.7, 0.4)):
            assert chi_dual(d).increasing is None
            assert exp_of_log(d).increasing is None

    def test_fig2_lattice(self):
        # building every cell raises nothing but a PhigeoError, and 779 of
        # the 2,480 cells that build are not increasing
        flags = _fig2_lattice()
        assert len(flags) == 2480
        assert flags.count(False) == 779
        assert flags.count(True) == 2480 - 779
