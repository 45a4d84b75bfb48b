import math
import warnings

import numpy as np
import pytest

import phigeo.geometry as geo
import phigeo.maxent as maxent
from phigeo.deform import ProbVec, escort
from phigeo.errors import (BoundaryError, DomainError, InfeasibleTargetError,
                           NoNormalizationError)
from phigeo.families import cd_family, identity, stretched, tsallis
from phigeo.maxent import (ConfigMatrix, eta_coords, fit_escort_moments,
                           fit_linear_moments, massieu, normalize, psi_forms,
                           varphi_dual)
from phigeo.specfun import GRAD_STEP, numeric_diff


def quiet(fn, *a, **k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*a, **k)


E2 = ConfigMatrix(np.array([[0.0], [1.0]]))
E3 = ConfigMatrix(np.array([[0.0], [1.0], [2.0]]))
E32 = ConfigMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

ALL_FAMILIES = [identity(), tsallis(0.5), tsallis(2.0),
                quiet(stretched, 2.0), quiet(cd_family, 0.7, 0.4)]


class TestConfigMatrix:
    def test_rank_check(self):
        # second column is affine in the first: not identifiable
        with pytest.raises(DomainError):
            ConfigMatrix(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]))

    def test_shape_check(self):
        with pytest.raises(DomainError):
            ConfigMatrix(np.array([[1.0]]))

    def test_finite_check(self):
        with pytest.raises(DomainError):
            ConfigMatrix(np.array([[0.0], [math.inf]]))


class TestNormalize:
    def test_classical_two_state(self):
        fam = normalize(identity(), E2, [0.0])
        assert abs(fam.psi + math.log(2.0)) < 1e-12
        assert np.allclose(fam.pmf.probs, 0.5)

    def test_theta_zero_uniform(self):
        for d in ALL_FAMILIES:
            fam = normalize(d, E3, [0.0])
            assert np.allclose(fam.pmf.probs, 1.0 / 3.0, atol=1e-11)
            assert abs(fam.psi - d.log(1.0 / 3.0)) < 1e-10

    def test_pmf_is_exp_form(self):
        d = tsallis(0.5)
        fam = normalize(d, E3, [0.4])
        for pi, ei in zip(fam.pmf.probs, E3.E[:, 0]):
            assert abs(pi - d.exp(fam.psi + 0.4 * ei)) < 1e-10

    def test_cutoff_states(self):
        fam = normalize(tsallis(0.5), E3, [-3.0])
        assert fam.pmf.probs[-1] == 0.0
        assert abs(fam.pmf.probs.sum() - 1.0) < 1e-12

    def test_cutoff_against_grid_scan_oracle(self):
        d = tsallis(0.5)
        theta = -1.0
        fam = normalize(d, E3, [theta])

        def total(psi):
            return sum(d.exp(psi + theta * e) for e in E3.E[:, 0])

        # coarse scan bracket, then bisect independently
        lo, hi = -5.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if total(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(fam.psi - 0.5 * (lo + hi)) < 1e-9

    def test_bad_theta_length(self):
        with pytest.raises(DomainError):
            normalize(identity(), E3, [0.1, 0.2])


class TestPsiForms:
    def test_theta_zero(self):
        d = tsallis(1.5)
        fam = normalize(d, E3, [0.0])
        forms = psi_forms(fam)
        assert abs(forms["psi_linear"] - fam.psi) < 1e-10
        assert abs(forms["psi_escort"] - fam.psi) < 1e-10

    def test_three_way_agreement(self):
        rng = np.random.default_rng(8)
        for d in ALL_FAMILIES:
            for n, E in ((2, E2), (3, E3)):
                th = rng.uniform(-0.3, 0.3, size=1)
                fam = normalize(d, E, th)
                if not fam.pmf.interior:
                    continue
                forms = psi_forms(fam)
                assert abs(forms["psi_linear"] - forms["psi_root"]) < 1e-9
                assert abs(forms["psi_escort"] - forms["psi_root"]) < 1e-9

    def test_phi_sum_is_diagnostic_only(self):
        # -sum phi(p) differs from the normalizer in general
        fam = normalize(tsallis(0.5), E3, [0.4])
        forms = psi_forms(fam)
        assert abs(forms["phi_sum_diagnostic"] - forms["psi_root"]) > 1e-3

    def test_boundary_rejected(self):
        fam = normalize(tsallis(0.5), E3, [-3.0])
        with pytest.raises(BoundaryError):
            psi_forms(fam)


class TestDualCoordinates:
    def test_eta_theta_zero(self):
        fam = normalize(identity(), E2, [0.0])
        assert abs(eta_coords(fam)[0] - 0.5) < 1e-12

    def test_eta_identity_is_linear_moment(self):
        fam = normalize(identity(), E3, [0.7])
        assert abs(eta_coords(fam)[0]
                   - float(E3.E[:, 0] @ fam.pmf.probs)) < 1e-12

    def test_eta_is_gradient_of_massieu(self):
        for d in [tsallis(2.0), quiet(cd_family, 0.7, 0.4)]:
            th = np.array([0.3])
            fam = normalize(d, E3, th)
            g = numeric_diff(lambda t: -normalize(d, E3, t).psi, th, "gradient")
            assert abs(eta_coords(fam)[0] - float(g)) < 1e-6

    def test_varphi_two_path(self):
        for d in ALL_FAMILIES:
            fam = normalize(d, E3, [0.25])
            v = varphi_dual(fam)
            assert abs(v["legendre_value"] - v["escort_average_value"]) < 1e-9

    def test_varphi_is_minus_canonical_entropy(self):
        d = tsallis(0.5)
        fam = normalize(d, E3, [0.25])
        v = varphi_dual(fam)
        assert abs(v["legendre_value"]
                   + geo.entropy_amari(d, fam.pmf)) < 1e-12

    def test_varphi_identity_family(self):
        fam = normalize(identity(), E3, [0.3])
        v = varphi_dual(fam)
        ref = sum(p * math.log(p) for p in fam.pmf.probs)
        assert abs(v["escort_average_value"] - ref) < 1e-12

    def test_legendre_identity(self):
        for d in ALL_FAMILIES:
            fam = normalize(d, E3, [0.2])
            v = varphi_dual(fam)
            lhs = v["legendre_value"] + massieu(fam)
            assert abs(lhs - float(fam.theta @ eta_coords(fam))) < 1e-9


class TestFitting:
    def test_uniform_targets_give_theta_zero(self):
        t = float(E3.E[:, 0].mean())
        fam = fit_linear_moments(tsallis(1.5), E3, [t])
        assert abs(fam.theta[0]) < 1e-8

    def test_linear_roundtrip(self):
        for d in ALL_FAMILIES:
            ref = normalize(d, E3, [0.35])
            targets = E3.E.T @ ref.pmf.probs
            fam = fit_linear_moments(d, E3, targets)
            assert abs(fam.theta[0] - 0.35) < 1e-6

    def test_escort_roundtrip(self):
        for d in ALL_FAMILIES:
            ref = normalize(d, E3, [0.35])
            targets = E3.E.T @ escort(d, ref.pmf).probs
            fam = fit_escort_moments(d, E3, targets)
            assert abs(fam.theta[0] - 0.35) < 1e-6

    def test_identity_escort_equals_linear(self):
        fam1 = fit_linear_moments(identity(), E3, [1.2])
        fam2 = fit_escort_moments(identity(), E3, [1.2])
        assert abs(fam1.theta[0] - fam2.theta[0]) < 1e-8

    def test_two_constraints(self):
        d = tsallis(0.7)
        ref = normalize(d, E32, [0.3, -0.2])
        fam = fit_linear_moments(d, E32, E32.E.T @ ref.pmf.probs)
        assert np.max(np.abs(fam.theta - ref.theta)) < 1e-6

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            fit_linear_moments(identity(), E3, [2.5])

    def test_hull_boundary_rejected(self):
        with pytest.raises(InfeasibleTargetError):
            fit_linear_moments(identity(), E3, [2.0])

    def test_exp_form_invariant(self):
        # log_phi(p_i) - log_phi(p_j) = theta . (E_i - E_j) for both types
        d = tsallis(0.5)
        for fit in (fit_linear_moments, fit_escort_moments):
            fam = fit(d, E3, [1.1])
            logs = [d.log(p) for p in fam.pmf.probs]
            for i in range(3):
                for j in range(3):
                    lhs = logs[i] - logs[j]
                    rhs = float(fam.theta @ (E3.E[i] - E3.E[j]))
                    assert abs(lhs - rhs) < 1e-9

    def test_maxent_optimality_spot_check(self):
        # perturbing within the linear constraint set lowers the entropy
        d = tsallis(0.5)
        fam = fit_linear_moments(d, E3, [1.1])
        base = geo.entropy_naudts(d, fam.pmf)
        rng = np.random.default_rng(9)
        null = np.array([1.0, -2.0, 1.0])  # keeps sum and first moment
        null /= np.linalg.norm(null)
        for _ in range(10):
            eps = rng.uniform(-0.02, 0.02)
            w = fam.pmf.probs + eps * null
            if np.any(w <= 0):
                continue
            assert geo.entropy_naudts(d, ProbVec(w)) <= base + 1e-12


# The (family, n) pairs whose normalize at theta = 0 rounded
# n * exp_phi(log_phi(1/n)) above 1, which made the bracket [lo, lo] fail.
THETA_ZERO_PAIRS = [("identity", 8), ("identity", 128), ("tsallis(0.5)", 128),
                    ("stretched(2)", 8), ("stretched(2)", 32),
                    ("stretched(2)", 128), ("cd(0.8,-0.5)", 32)]
FAMILY_BY_NAME = {
    "identity": identity, "tsallis(0.5)": lambda: tsallis(0.5),
    "stretched(2)": lambda: quiet(stretched, 2.0),
    "cd(0.8,-0.5)": lambda: quiet(cd_family, 0.8, -0.5)}


class TestThetaZero:
    @pytest.mark.parametrize("name,n", THETA_ZERO_PAIRS)
    def test_normalize_and_fits(self, name, n):
        d = FAMILY_BY_NAME[name]()
        rng = np.random.default_rng(n)
        E = ConfigMatrix(rng.normal(size=(n, 2)))
        fam = normalize(d, E, [0.0, 0.0])
        assert np.allclose(fam.pmf.probs, 1.0 / n, rtol=1e-12)
        targets = E.E.T @ rng.dirichlet(np.full(n, 2.0))
        fam = fit_linear_moments(d, E, targets)
        assert np.max(np.abs(E.E.T @ fam.pmf.probs - targets)) <= 1e-8
        fam = fit_escort_moments(d, E, targets)
        assert np.max(np.abs(eta_coords(fam) - targets)) <= 1e-8


def _bisect_psi(d, a):
    # independent oracle: plain bisection on the scalar exp path
    lo, hi = -60.0, 60.0
    hi = min(hi, d.log_upper_limit - np.max(a) - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(d.exp(mid + ai) for ai in a) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNewtonNormalizer:
    @pytest.mark.parametrize("d", ALL_FAMILIES + [quiet(cd_family, 0.8, -0.5)],
                             ids=repr)
    def test_against_bisection(self, d):
        rng = np.random.default_rng(4)
        E = ConfigMatrix(rng.normal(size=(12, 2)))
        for _ in range(3):
            theta = rng.normal(scale=0.6, size=2)
            fam = normalize(d, E, theta)
            assert abs(fam.psi - _bisect_psi(d, E.E @ theta)) < 1e-11
            assert abs(fam.pmf.probs.sum() - 1.0) < 1e-12


def _fd_jacobian(d, E, theta, moments):
    """The central-difference stencil, kept as the oracle."""
    m = theta.size
    J = np.empty((m, m))
    for j in range(m):
        h = max(abs(theta[j]), 1.0) * GRAD_STEP
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        J[:, j] = (moments(normalize(d, E, tp))[0]
                   - moments(normalize(d, E, tm))[0]) / (2.0 * h)
    return J


JACOBIAN_CASES = [  # (family, theta scale); tsallis(0.5) reaches its cutoff
    (lambda: tsallis(0.5), 1.5), (lambda: tsallis(2.0), 0.3),
    (lambda: quiet(cd_family, 0.7, 0.4), 0.5),
    (lambda: quiet(stretched, 2.0), 0.5)]


class TestAnalyticJacobians:
    @pytest.mark.parametrize("case", range(len(JACOBIAN_CASES)))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_central_differences(self, case, m):
        make, scale = JACOBIAN_CASES[case]
        d = make()
        rng = np.random.default_rng(10 * case + m)
        E = ConfigMatrix(rng.normal(size=(8, m)))
        theta = rng.normal(scale=scale, size=m)
        fam = normalize(d, E, theta)
        if case == 0:
            assert 0 < np.sum(fam.pmf.probs == 0.0) < 8 - m
        for moments in (maxent._linear_moments, maxent._escort_moments):
            analytic = moments(fam)[1]
            fd = _fd_jacobian(d, E, theta, moments)
            assert np.all(np.isfinite(analytic))
            assert np.max(np.abs(analytic - fd)) < 1e-6 * np.max(np.abs(fd))


class TestLargeFit:
    @pytest.mark.parametrize("fit", [fit_linear_moments, fit_escort_moments])
    def test_n1000_m3_converges(self, fit):
        rng = np.random.default_rng(1000)
        E = ConfigMatrix(rng.normal(size=(1000, 3)))
        targets = E.E.T @ rng.dirichlet(np.full(1000, 2.0))
        for d in (tsallis(0.5), quiet(cd_family, 0.7, 0.4)):
            fam = fit(d, E, targets)
            got = (E.E.T @ fam.pmf.probs if fit is fit_linear_moments
                   else eta_coords(fam))
            assert np.max(np.abs(got - targets)) <= 1e-8
