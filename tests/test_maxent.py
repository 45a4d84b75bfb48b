import math

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


E2 = ConfigMatrix(np.array([[0.0], [1.0]]))
E3 = ConfigMatrix(np.array([[0.0], [1.0], [2.0]]))
E32 = ConfigMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
E4 = ConfigMatrix(np.array([[0.0], [1.0], [2.0], [3.0]]))

E16 = ConfigMatrix(np.random.default_rng(31).normal(size=(16, 2)))
# (configuration matrix, planted theta) for the fit round trips
ROUNDTRIPS = [(E3, [0.35]), (E16, [0.35, -0.25])]

ALL_FAMILIES = [identity(), tsallis(0.5), tsallis(2.0),
                stretched(2.0), cd_family(0.7, 0.4)]


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
        for d in [tsallis(2.0), cd_family(0.7, 0.4)]:
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
            for E, theta in ROUNDTRIPS:
                ref = normalize(d, E, theta)
                fam = fit_linear_moments(d, E, E.E.T @ ref.pmf.probs)
                assert np.max(np.abs(fam.theta - theta)) < 1e-6

    def test_escort_roundtrip(self):
        for d in ALL_FAMILIES:
            for E, theta in ROUNDTRIPS:
                ref = normalize(d, E, theta)
                targets = E.E.T @ escort(d, ref.pmf).probs
                fam = fit_escort_moments(d, E, targets)
                assert np.max(np.abs(fam.theta - theta)) < 1e-6

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
    "stretched(2)": lambda: stretched(2.0),
    "cd(0.8,-0.5)": lambda: cd_family(0.8, -0.5)}


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
    @pytest.mark.parametrize("d", ALL_FAMILIES + [cd_family(0.8, -0.5)],
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
    (lambda: cd_family(0.7, 0.4), 0.5),
    (lambda: stretched(2.0), 0.5)]


def _jacobian_case(case, m):
    make, scale = JACOBIAN_CASES[case]
    d = make()
    rng = np.random.default_rng(10 * case + m)
    E = ConfigMatrix(rng.normal(size=(8, m)))
    theta = rng.normal(scale=scale, size=m)
    return d, E, theta, normalize(d, E, theta)


class TestAnalyticJacobians:
    @pytest.mark.parametrize("case", range(len(JACOBIAN_CASES)))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_central_differences(self, case, m):
        d, E, theta, fam = _jacobian_case(case, m)
        if case == 0:
            assert 0 < np.sum(fam.pmf.probs == 0.0) < 8 - m
        for moments in (maxent._linear_moments, maxent._escort_moments):
            analytic = moments(fam)[1]
            fd = _fd_jacobian(d, E, theta, moments)
            assert np.all(np.isfinite(analytic))
            assert np.max(np.abs(analytic - fd)) < 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("case", range(len(JACOBIAN_CASES)))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symmetric_positive_semidefinite(self, case, m):
        # both moment maps are gradients of convex potentials, which is
        # what lets maxent._descend treat their Jacobians as Hessians
        fam = _jacobian_case(case, m)[3]
        for moments in (maxent._linear_moments, maxent._escort_moments):
            J = moments(fam)[1]
            assert np.max(np.abs(J - J.T)) <= 1e-12 * np.max(np.abs(J))
            eig = np.linalg.eigvalsh(J)
            assert np.min(eig) >= -1e-12 * np.max(np.abs(eig))


class TestLargeFit:
    @pytest.mark.parametrize("fit", [fit_linear_moments, fit_escort_moments])
    def test_n1000_m3_converges(self, fit):
        rng = np.random.default_rng(1000)
        E = ConfigMatrix(rng.normal(size=(1000, 3)))
        targets = E.E.T @ rng.dirichlet(np.full(1000, 2.0))
        for d in (tsallis(0.5), cd_family(0.7, 0.4)):
            fam = fit(d, E, targets)
            got = (E.E.T @ fam.pmf.probs if fit is fit_linear_moments
                   else eta_coords(fam))
            assert np.max(np.abs(got - targets)) <= 1e-8


# Escort targets whose first Newton step leaves four or five of the eight
# states at tsallis(0.5)'s cutoff, where the escort Jacobian is singular or
# nearly so; Newton steps halved until the largest residual drops stall there.
STALL_CASES = [
    ([[1.4812976498368908, 0.9652250348221966, 0.7848234892856137],
      [1.0164173875785543, -1.3997581279548579, -0.28571647916122866],
      [-1.1186665614953575, 0.017129354527279497, 0.39306526422533467],
      [0.23571813092905275, 0.5991377286395221, -0.5167186326403737],
      [-0.7003277878208586, -0.8384871344219759, 0.3809131065130006],
      [-0.09398328586040892, -1.210752178823382, 0.2729390339403837],
      [-1.5592955816650873, 0.6837334239979894, -0.503288723653671],
      [-0.9406602504217877, 0.9228885970339709, 0.33706891532913313]],
     [0.32089645861365645, -0.6834075728460812, -0.13345561046615542]),
    ([[-1.625415939448942, 0.5219499365756046, 1.2247097092134631],
      [-1.3443174531751554, 0.8232153143190468, 0.032824667920856886],
      [-1.002469431768867, 1.918028768926799, 1.4686744112389274],
      [-0.988671427712031, 0.017925978455051093, -0.2989517147027147],
      [-0.43695835204897754, -0.7482376179751675, -0.24222777161290607],
      [1.2198545205217985, 1.70276786702821, 2.0025102192987694],
      [0.11668304579999625, 0.14495627512339207, 0.6504198924565862],
      [-0.607403465777299, 0.22124467356753733, -0.3720013398372643]],
     [0.23589431648972406, 1.1410867105415587, 1.206634083351139]),
]


# Fits that each simpler step rule fails, on
# rng = default_rng(K); E = rng.standard_normal((8, 3));
# t = E.T @ rng.dirichlet(np.full(8, 0.3)).
DESIGN_CASES = [
    # three live states meet m = 3, so the escort Jacobian is singular along
    # the residual and pure Newton steps never converge
    (fit_escort_moments, lambda: tsallis(0.5), 35),
    # theta reaches (75, 150, 156), where steps regularised by |r| throughout
    # stall
    (fit_linear_moments, lambda: tsallis(3.0), 0),
]


@pytest.fixture
def normalize_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(maxent, "normalize", counted)
    return calls


class TestEscortStall:
    @pytest.mark.parametrize("case", range(len(STALL_CASES)))
    def test_descent_takes_over(self, case, normalize_calls):
        E, t = (np.array(v) for v in STALL_CASES[case])
        E = ConfigMatrix(E)
        fam = fit_escort_moments(tsallis(0.5), E, t)
        assert np.max(np.abs(maxent._escort_moments(fam)[0] - t)) <= 1e-10
        assert np.sum(fam.pmf.probs == 0.0) > 0
        assert len(normalize_calls) <= 40

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.name)
    def test_descent_alone_agrees_with_newton(self, d):
        # the descent started away from theta = 0 reaches the fit's theta,
        # and an undamped Newton step from there moves it no further
        rng = np.random.default_rng(31)
        E = ConfigMatrix(rng.normal(size=(16, 2)))
        t = E.E.T @ rng.dirichlet(np.full(16, 3.0))
        ref = fit_escort_moments(d, E, t)
        got = maxent._descend(d, E, t, maxent._escort_moments,
                              np.array([0.5, -0.5]), "descent")
        assert np.max(np.abs(got.theta - ref.theta)) < 1e-7
        assert np.max(np.abs(maxent._escort_moments(got)[0] - t)) <= 1e-10
        mom, jac = maxent._escort_moments(ref)
        step = np.linalg.solve(jac, t - mom)
        assert np.max(np.abs(step)) < 1e-8

    def test_descent_from_single_live_state(self):
        # at theta = 20 only the last state is above tsallis(0.5)'s cutoff,
        # so the escort Jacobian is exactly 0 and the first step is -r/|r|
        d = tsallis(0.5)
        theta = np.array([20.0])
        fam = normalize(d, E4, theta)
        assert np.count_nonzero(fam.pmf.probs) == 1
        assert not np.any(maxent._escort_moments(fam)[1])
        got = maxent._descend(d, E4, np.array([1.2]), maxent._escort_moments,
                              theta, "descent")
        assert abs(maxent._escort_moments(got)[0][0] - 1.2) <= 1e-10
        ref = fit_escort_moments(d, E4, [1.2])
        assert np.max(np.abs(got.theta - ref.theta)) < 1e-7

    @pytest.mark.parametrize("fit,make,seed", DESIGN_CASES,
                             ids=["escort-tsallis(0.5)", "linear-tsallis(3)"])
    def test_design_case(self, fit, make, seed):
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((8, 3))
        t = E.T @ rng.dirichlet(np.full(8, 0.3))
        fam = fit(make(), ConfigMatrix(E), t)
        moments = (maxent._linear_moments if fit is fit_linear_moments
                   else maxent._escort_moments)
        assert np.max(np.abs(moments(fam)[0] - t)) <= 1e-10
