import math

import numpy as np
import pytest

from phigeo.deform import ProbVec, escort
from phigeo.errors import BoundaryError, DomainError
from phigeo.estimation import (CRReport, Estimator, amari_identity_check,
                               cr_report, dp_dtheta, fisher_general,
                               naudts_identity_check)
from phigeo.families import cd_family, identity, stretched, tsallis
from phigeo.maxent import ConfigMatrix, normalize


E2 = ConfigMatrix(np.array([[0.0], [1.0]]))
E3 = ConfigMatrix(np.array([[0.0], [1.0], [3.0]]))
E32 = ConfigMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

FAMILIES = [identity(), tsallis(0.5), tsallis(2.0),
            stretched(2.0), cd_family(0.8, -0.5)]


class TestDpDtheta:
    def test_columns_sum_to_zero(self):
        for d in FAMILIES:
            fam = normalize(d, E3, [0.2])
            assert np.max(np.abs(dp_dtheta(fam).sum(axis=0))) < 1e-10

    def test_classical_score(self):
        fam = normalize(identity(), E3, [0.2])
        p = fam.pmf.probs
        mean = float(E3.E[:, 0] @ p)
        ref = p * (E3.E[:, 0] - mean)
        assert np.max(np.abs(dp_dtheta(fam)[:, 0] - ref)) < 1e-12

    def test_matches_finite_differences(self):
        h = 1e-6
        for d in FAMILIES:
            fam = normalize(d, E3, [0.2])
            fd = (normalize(d, E3, [0.2 + h]).pmf.probs
                  - normalize(d, E3, [0.2 - h]).pmf.probs) / (2.0 * h)
            assert np.max(np.abs(dp_dtheta(fam)[:, 0] - fd)) < 1e-6

    def test_boundary_rejected(self):
        fam = normalize(tsallis(0.5), E3, [-2.0])
        assert not fam.pmf.interior
        with pytest.raises(BoundaryError):
            dp_dtheta(fam)


class TestFisherGeneral:
    def test_identity_is_covariance(self):
        fam = normalize(identity(), E3, [0.15])
        p = fam.pmf.probs
        e = E3.E[:, 0]
        cov = float(p @ (e * e) - (p @ e) ** 2)
        assert abs(fisher_general(fam, fam.pmf).entries[0, 0] - cov) < 1e-12

    def test_two_state_hand_value(self):
        fam = normalize(tsallis(0.5), E2, [0.3])
        J = dp_dtheta(fam)
        P = ProbVec(np.array([0.4, 0.6]))
        ref = J[1, 0] ** 2 * (1.0 / 0.6 + 1.0 / 0.4)
        assert abs(fisher_general(fam, P).entries[0, 0] - ref) < 1e-13

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(12)
        for d in FAMILIES:
            fam = normalize(d, E32, [0.1, -0.1])
            for _ in range(5):
                w = rng.dirichlet(np.full(3, 2.0)).clip(0.02)
                P = ProbVec(w / w.sum())
                eig = np.linalg.eigvalsh(fisher_general(fam, P).entries)
                assert np.min(eig) > -1e-12

    def test_length_mismatch(self):
        fam = normalize(identity(), E3, [0.1])
        with pytest.raises(DomainError):
            fisher_general(fam, ProbVec(np.array([0.5, 0.5])))


class TestCRBound:
    def test_classical_equality_at_pmf(self):
        fam = normalize(identity(), E3, [0.2])
        rep = cr_report(fam, fam.pmf, Estimator(E3.E))
        assert rep.equality

    def test_escort_equality(self):
        for d in FAMILIES:
            fam = normalize(d, E3, [0.2])
            rep = cr_report(fam, escort(d, fam.pmf), Estimator(E3.E))
            assert abs(rep.slack) < 1e-8

    def test_random_reference_bound(self):
        rng = np.random.default_rng(14)
        fam = normalize(tsallis(0.5), E3, [0.2])
        est = Estimator(E3.E)
        for _ in range(100):
            w = rng.dirichlet(np.full(3, 2.0)).clip(0.02)
            rep = cr_report(fam, ProbVec(w / w.sum()), est)
            assert rep.slack >= -1e-10

    def test_zero_curvature_rejected(self):
        fam = normalize(identity(), E3, [0.2])
        # constant estimator has zero moment derivative
        with pytest.raises(ZeroDivisionError):
            cr_report(fam, fam.pmf, Estimator(np.full((3, 1), 2.0)))

    def test_report_fields(self):
        fam = normalize(identity(), E3, [0.2])
        rep = cr_report(fam, fam.pmf, Estimator(E3.E))
        assert isinstance(rep, CRReport)
        assert abs(rep.lhs - rep.rhs - rep.slack) < 1e-15
        assert rep.f_second > 0.0


class TestMetricIdentities:
    @pytest.mark.parametrize("E", [E2, E3, E32])
    def test_naudts_identity(self, E):
        theta = np.full(E.n_constraints, 0.15)
        for d in FAMILIES:
            fam = normalize(d, E, theta)
            rep = naudts_identity_check(fam)
            assert rep.max_rel_residual < 1e-6

    @pytest.mark.parametrize("E", [E2, E3, E32])
    def test_amari_identity(self, E):
        theta = np.full(E.n_constraints, 0.15)
        for d in FAMILIES:
            fam = normalize(d, E, theta)
            rep = amari_identity_check(fam)
            assert rep.max_rel_residual < 1e-5

    def test_identity_family_h_is_one(self):
        fam = normalize(identity(), E3, [0.2])
        lhs = fisher_general(fam, escort(identity(), fam.pmf)).entries
        # h = 1, so the escort-reference information is the classical one
        assert np.allclose(lhs, fisher_general(fam, fam.pmf).entries)
