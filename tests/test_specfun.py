import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import phigeo
from lambert_oracle import lambert_w
from phigeo.errors import DomainError
from phigeo.specfun import integrate, numeric_diff, upper_gamma


class TestLambertW:
    """The W of the Lambert-W oracle for cd_family's exp, against mpmath,
    and the library's freedom from scipy.special now that it needs no W."""

    def test_principal_at_zero(self):
        assert lambert_w("principal", 0.0) == 0.0

    def test_principal_at_e(self):
        assert abs(lambert_w("principal", math.e) - 1.0) < 1e-14

    def test_branch_point(self):
        assert abs(lambert_w("lower", -1.0 / math.e) + 1.0) < 1e-7

    def test_principal_at_one(self):
        # bisection oracle on w*exp(w) - 1 over [0, 1], frozen
        assert abs(lambert_w("principal", 1.0) - 0.5671432904097838) < 1e-12

    @pytest.mark.parametrize("x", np.geomspace(1e-6, 1e6, 25).tolist())
    def test_defining_relation_principal(self, x):
        w = lambert_w("principal", x)
        assert abs(w * math.exp(w) - x) <= 1e-11 * max(x, 1.0)

    @pytest.mark.parametrize("x", (-np.geomspace(1e-8, 1 / math.e * 0.999,
                                                 15)).tolist())
    def test_defining_relation_lower(self, x):
        w = lambert_w("lower", x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-11

    def test_against_mpmath(self):
        for x in [0.3, 2.0, 10.0, -0.2, -1 / math.e + 1e-4]:
            ref = float(mpmath.lambertw(x))
            assert abs(lambert_w("principal", x) - ref) < 1e-11
        for x in [-0.05, -0.2, -0.3]:
            ref = float(mpmath.lambertw(x, -1).real)
            assert abs(lambert_w("lower", x) - ref) < 1e-11

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w("principal", -1.0)
        with pytest.raises(DomainError):
            lambert_w("lower", 0.1)

    def test_array_matches_scalar(self):
        xs = np.concatenate([np.geomspace(1e-6, 1e6, 9), [0.0, -0.2, -0.36]])
        got = lambert_w("principal", xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert np.array_equal(got, [lambert_w("principal", x) for x in xs])
        low = -np.geomspace(1e-8, 0.36, 7)
        assert np.array_equal(lambert_w("lower", low),
                              [lambert_w("lower", x) for x in low])
        assert type(lambert_w("principal", 0.5)) is float

    def test_array_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w("principal", np.array([0.5, math.nan]))
        with pytest.raises(DomainError):
            lambert_w("principal", np.array([0.5, -1.0]))
        with pytest.raises(DomainError):
            lambert_w("lower", np.array([-0.2, 0.0]))

    @pytest.mark.parametrize("dist", [1e-15, 1e-12, 1e-9, 1e-7, 1e-5])
    def test_near_branch_point_against_mpmath(self, dist):
        # W is ill-conditioned there: an input rounding of ~1e-16 in e*x + 1
        # moves W by ~1e-16 / sqrt(2 (e*x + 1)); allow ten times that.
        x = -1.0 / math.e + dist
        t = math.e * x + 1.0
        tol = max(10 * 1.2e-16 / math.sqrt(2.0 * t), 1e-14)
        with mpmath.workdps(40):
            for branch, k in (("principal", 0), ("lower", -1)):
                ref = float(mpmath.lambertw(mpmath.mpf(x), k).real)
                assert abs(lambert_w(branch, x) - ref) < tol, branch

    @pytest.mark.parametrize("build, run_exp", [
        ("tsallis(0.5)", False),
        ("cd_family(0.7, 0.4)", True),  # the generic branch once fixed W(B)
        ("verify._families()", False),  # every family of the property suites
    ])
    def test_scipy_special_loaded_by_first_call(self, build, run_exp):
        # the library inverts no log by Lambert's W any more: neither building
        # a family nor running its exp on an array loads scipy.special
        src = os.path.dirname(os.path.dirname(os.path.abspath(phigeo.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        call = ".exp(numpy.linspace(-2.0, 1.0, 7))" if run_exp else ""
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy, phigeo, phigeo.cli, phigeo.verify; "
             f"phigeo.{build}{call}; "
             "print('scipy.special' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestUpperGamma:
    def test_gamma_1_x(self):
        assert abs(upper_gamma(1.0, 0.7) - math.exp(-0.7)) < 1e-13

    def test_gamma_2_0(self):
        assert abs(upper_gamma(2.0, 0.0) - 1.0) < 1e-13

    def test_half_integer(self):
        # quadrature of t^0.5 exp(-t) on [2, inf), frozen via mpmath
        assert abs(upper_gamma(1.5, 2.0) - 0.23171655200098106) < 1e-12

    @pytest.mark.parametrize("s,x", [(0.3, 0.5), (1.7, 4.0), (2.5, 0.1),
                                     (-0.5, 0.8), (-1.7, 2.5), (0.9, 30.0)])
    def test_against_mpmath(self, s, x):
        ref = float(mpmath.gammainc(s, x))
        assert abs(upper_gamma(s, x) - ref) <= 1e-11 * max(abs(ref), 1.0)

    def test_decreasing_in_x(self):
        xs = np.geomspace(0.01, 20.0, 15)
        vals = [upper_gamma(1.4, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_complete_gamma(self):
        assert abs(upper_gamma(2.5, 0.0) - math.gamma(2.5)) < 1e-12

    def test_divergent_at_zero(self):
        with pytest.raises(DomainError):
            upper_gamma(-0.5, 0.0)


class TestIntegrate:
    def test_log_singularity(self):
        assert abs(integrate(math.log, 0.0, 1.0) + 1.0) < 1e-10

    def test_power_singularity(self):
        assert abs(integrate(lambda x: x ** -0.5, 0.0, 1.0) - 2.0) < 1e-10

    def test_reciprocal(self):
        assert abs(integrate(lambda x: 1.0 / x, 1.0, 2.0)
                   - math.log(2.0)) < 1e-12

    def test_infinite_tail(self):
        for a, b in ((2.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                integrate(lambda t: math.exp(-t), a, b)

    def test_additivity(self):
        rng = np.random.default_rng(1)
        f = lambda x: math.sin(3 * x) * math.exp(-x)
        whole = integrate(f, 0.0, 2.0)
        for _ in range(5):
            c = float(rng.uniform(0.1, 1.9))
            parts = integrate(f, 0.0, c) + integrate(f, c, 2.0)
            assert abs(whole - parts) < 1e-11

    def test_reversed_limits(self):
        assert abs(integrate(lambda x: x, 1.0, 0.0) + 0.5) < 1e-12


class TestNumericDiff:
    def test_gradient_square(self):
        g = numeric_diff(lambda v: v[0] ** 2, [3.0], "gradient")
        assert abs(float(g) - 6.0) < 1e-8

    def test_hessian_sphere(self):
        H = numeric_diff(lambda v: v[0] ** 2 + v[1] ** 2, [1.0, 1.0], "hessian")
        assert np.allclose(H, 2.0 * np.eye(2), atol=1e-6)
        assert np.array_equal(H, H.T)

    def test_deformed_log_slope(self):
        from phigeo.families import tsallis
        d = tsallis(2.0)
        g = numeric_diff(lambda v: d.log(v[0]), [0.5], "gradient")
        assert abs(float(g) - 4.0) < 1e-8

    def test_mixed_hessian(self):
        H = numeric_diff(lambda v: v[0] * v[1] ** 2, [2.0, 3.0], "hessian")
        assert abs(H[0, 1] - 6.0) < 1e-5
        assert abs(H[1, 1] - 4.0) < 1e-5
