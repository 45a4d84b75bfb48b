import math

import numpy as np
import pytest

import phigeo.geometry as geo
from phigeo import specfun
from phigeo.deform import ProbVec, escort, h_phi, ts_dual, uniform
from phigeo.errors import BoundaryError, BranchError, DivergentIntegralError
from phigeo.families import (cd_family, cd_params, identity, stretched,
                             tsallis)
from phigeo.specfun import integrate


P2 = ProbVec(np.array([0.5, 0.5]))
P3 = ProbVec(np.array([0.5, 0.3, 0.2]))
Q3 = ProbVec(np.array([0.45, 0.33, 0.22]))


def shannon(p):
    return -sum(x * math.log(x) for x in p.probs)


class TestEntropies:
    def test_naudts_identity_offset(self):
        # -sum integral_0^p ln x dx = shannon + 1
        assert abs(geo.entropy_naudts(identity(), P2)
                   - (math.log(2.0) + 1.0)) < 1e-12

    def test_naudts_tsallis_closed(self):
        q = 0.5
        val = geo.entropy_naudts(tsallis(q), P2)
        ref = (sum(p ** (2 - q) for p in P2.probs) / (2 - q) - 1) / (q - 1)
        assert abs(val - ref) < 1e-12
        assert abs(val - 1.0571909584179366) < 1e-12

    def test_naudts_quadrature_agrees_with_closed(self):
        d = tsallis(1.5)
        closed = geo.entropy_naudts(d, P3)
        d2 = tsallis(1.5)
        d2.log_int0 = None
        assert abs(geo.entropy_naudts(d2, P3) - closed) < 1e-9

    def test_naudts_boundary_value(self):
        p = ProbVec(np.array([1.0, 0.0, 0.0]))
        assert abs(geo.entropy_naudts(identity(), p) - 1.0) < 1e-12

    def test_naudts_divergent(self):
        d = tsallis(2.5)
        d.log_int0 = None
        with pytest.raises(DivergentIntegralError):
            geo.entropy_naudts(d, P2)

    def test_amari_identity_is_shannon(self):
        assert abs(geo.entropy_amari(identity(), P3) - shannon(P3)) < 1e-12

    def test_amari_tsallis_h_form(self):
        q = 0.5
        h = sum(p ** q for p in P2.probs)
        ref = (1.0 - 1.0 / h) / (1.0 - q)
        assert abs(geo.entropy_amari(tsallis(q), P2) - ref) < 1e-12
        assert abs(ref - 0.5857864376269049) < 1e-15

    def test_amari_uniform(self):
        for d in [tsallis(1.5), cd_family(0.7, 0.4)]:
            u = uniform(3)
            assert abs(geo.entropy_amari(d, u) + d.log(1.0 / 3.0)) < 1e-12

    def test_phi_nu_tsallis(self):
        q = 2.0
        val = geo.entropy_from_phi_nu(tsallis(q), 1.0 - q, P2)
        assert abs(val - 0.5) < 1e-14

    def test_phi_nu_identity_zero(self):
        assert geo.entropy_from_phi_nu(identity(), 0.7, P3) == 0.0

    def test_uniform_maximality(self):
        rng = np.random.default_rng(5)
        for d in [tsallis(0.5), tsallis(1.5), stretched(2.0)]:
            s_uni_n = geo.entropy_naudts(d, uniform(3))
            s_uni_a = geo.entropy_amari(d, uniform(3))
            for _ in range(50):
                w = rng.dirichlet(np.ones(3))
                w = np.clip(w, 1e-3, None)
                p = ProbVec(w / w.sum())
                assert geo.entropy_naudts(d, p) < s_uni_n + 1e-12
                assert geo.entropy_amari(d, p) < s_uni_a + 1e-12


def entropy_per_entry(d, p):
    """The integral-form entropy with each entry integrated on its own:
    g(t) = log_phi(e^-t) e^-t over [-ln p_j, t_hi] for every p_j > 0."""
    def g(t):
        return d.log(math.exp(-t)) * math.exp(-t)

    t_hi = 200.0
    while abs(g(t_hi)) > 1e-16 and t_hi < 700.0:
        t_hi *= 1.5
    return -sum(integrate(g, -math.log(pj), t_hi)
                for pj in p.probs if pj != 0.0)


SHARED_TAIL_CD = [(0.7, 0.4), (0.8, 0.5), (0.8, -0.5), (0.6, 1.2)]


def _shared_tail_cases():
    rng = np.random.default_rng(8)
    cases = [(f"random{n}", ProbVec(rng.dirichlet(np.ones(n))))
             for n in (2, 3, 24, 128)]
    w = np.array([0.2, 0.05, 0.2, 0.3, 0.05, 0.2])
    cases.append(("repeated", ProbVec(w)))
    cases.append(("uniform24", uniform(24)))
    z = np.array([0.5, 0.0, 0.3, 0.0, 0.2])
    cases.append(("zeros", ProbVec(z)))
    return cases


class TestSharedTail:
    """entropy_naudts without a closed log_int0 integrates one tail and
    the gaps between the sorted -ln p_j, shared across entries."""

    @pytest.mark.parametrize("cd", SHARED_TAIL_CD, ids=str)
    @pytest.mark.parametrize("case", _shared_tail_cases(),
                             ids=lambda c: c[0])
    def test_matches_per_entry(self, cd, case):
        d = cd_family(*cd)
        p = case[1]
        ref = entropy_per_entry(d, p)
        assert abs(geo.entropy_naudts(d, p) - ref) <= 1e-13 * abs(ref)

    def test_panel_count_n24(self, monkeypatch):
        d = cd_family(0.7, 0.4)
        p = ProbVec(np.random.default_rng(24).dirichlet(np.ones(24)))
        panels = []
        gk15 = specfun._gk15

        def counted(f, a, b):
            panels.append((a, b))
            return gk15(f, a, b)

        monkeypatch.setattr(specfun, "_gk15", counted)
        geo.entropy_naudts(d, p)
        assert len(panels) < 100

    def test_divergent_without_log_int0(self):
        d = tsallis(2.0)
        assert d.log_int0 is None
        with pytest.raises(DivergentIntegralError):
            geo.entropy_naudts(d, P3)


class TestDivergences:
    def test_zero_at_diagonal(self):
        for d in [identity(), tsallis(0.5)]:
            assert abs(geo.divergence_naudts(d, P3, P3)) < 1e-12
            assert abs(geo.divergence_amari(d, P3, P3)) < 1e-12

    def test_identity_reduces_to_kl(self):
        kl = sum(p * math.log(p / q) for p, q in zip(P3.probs, Q3.probs))
        assert abs(geo.divergence_naudts(identity(), P3, Q3) - kl) < 1e-12
        assert abs(geo.divergence_amari(identity(), P3, Q3) - kl) < 1e-12

    def test_nonnegativity(self):
        rng = np.random.default_rng(11)

        def draw():
            w = rng.dirichlet(np.full(3, 2.0)).clip(0.01)
            return ProbVec(w / w.sum())

        for d in [tsallis(0.5), tsallis(2.0), cd_family(0.7, 0.4)]:
            for _ in range(30):
                a, b = draw(), draw()
                assert geo.divergence_naudts(d, a, b) >= -1e-12
                assert geo.divergence_amari(d, a, b) >= -1e-12

    def test_csiszar_kl(self):
        kl = sum(p * math.log(p / q) for p, q in zip(P3.probs, Q3.probs))
        val = geo.divergence_csiszar(lambda t: t * math.log(t), P3, Q3)
        assert abs(val - kl) < 1e-13

    def test_csiszar_chi_square(self):
        chi2 = sum((p - q) ** 2 / q for p, q in zip(P3.probs, Q3.probs))
        val = geo.divergence_csiszar(lambda t: (t - 1.0) ** 2, P3, Q3)
        assert abs(val - chi2) < 1e-13

    def test_bregman_kl(self):
        kl = sum(p * math.log(p / q) for p, q in zip(P3.probs, Q3.probs))
        val = geo.divergence_bregman(
            lambda v: sum(x * math.log(x) for x in v.probs),
            lambda v: np.log(v.probs) + 1.0, P3, Q3)
        assert abs(val - kl) < 1e-13

    def test_bregman_quadratic(self):
        val = geo.divergence_bregman(
            lambda v: float(np.sum(v.probs ** 2)),
            lambda v: 2.0 * v.probs, P3, Q3)
        assert abs(val - float(np.sum((P3.probs - Q3.probs) ** 2))) < 1e-14

    def test_bregman_generator_gives_integral_divergence(self):
        # F(p) = sum(int_1^p log_phi + (1 - p)) has Bregman divergence equal
        # to the integral-form divergence
        d = tsallis(0.5)

        def F(v):
            return sum(d.log_int0(x) - d.log_int0(1.0) + (1.0 - x)
                       for x in v.probs)

        def gradF(v):
            return np.array([d.log(x) - 1.0 for x in v.probs])

        lhs = geo.divergence_bregman(F, gradF, P3, Q3)
        assert abs(lhs - geo.divergence_naudts(d, P3, Q3)) < 1e-12

    def test_boundary_rejected(self):
        b = ProbVec(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(BoundaryError):
            geo.divergence_naudts(tsallis(0.5), b, P3)


class TestMetrics:
    def test_naudts_identity_half(self):
        m = geo.metric_naudts(identity(), P2)
        assert m.entries.shape == (1, 1)
        assert abs(m.entries[0, 0] - 4.0) < 1e-14

    def test_naudts_tsallis2_half(self):
        assert abs(geo.metric_naudts(tsallis(2.0), P2).entries[0, 0]
                   - 8.0) < 1e-13

    def test_amari_identity_half(self):
        assert abs(geo.metric_amari(identity(), P2).entries[0, 0]
                   - 4.0) < 1e-13

    def test_amari_tsallis2_half(self):
        assert abs(geo.metric_amari(tsallis(2.0), P2).entries[0, 0]
                   - 16.0) < 1e-13

    def test_symmetric_and_positive_definite(self):
        for d in [tsallis(0.5), cd_family(0.8, -0.5)]:
            m = geo.metric_naudts(d, P3)
            assert np.array_equal(m.entries, m.entries.T)
            assert m.is_positive_definite()

    def test_amari_proportional_to_chi_naudts(self):
        from phigeo.deform import chi_dual
        d = tsallis(1.5)
        chi = chi_dual(d)
        ma = geo.metric_amari(d, P3).entries
        mn = geo.metric_naudts(chi, P3).entries
        ratio = ma / mn
        assert np.allclose(ratio, ratio[0, 0], rtol=1e-8)

    def test_fd_oracle_classical_fisher(self):
        def kl(a, b):
            return sum(x * math.log(x / y)
                       for x, y in zip(a.probs, b.probs))

        H = geo.metric_fd_oracle(kl, P3).entries
        ref = geo.metric_naudts(identity(), P3).entries
        assert np.max(np.abs(H - ref)) / np.max(ref) < 1e-5

    def test_fd_oracle_matches_closed_forms(self):
        d = tsallis(0.5)
        p = ProbVec(np.array([0.4, 0.6]))
        on = geo.metric_fd_oracle(
            lambda a, b: geo.divergence_naudts(d, a, b), p)
        assert abs(on.entries[0, 0]
                   - geo.metric_naudts(d, p).entries[0, 0]) < 1e-5 * \
            geo.metric_naudts(d, p).entries[0, 0]
        ds = stretched(2.0)
        oa = geo.metric_fd_oracle(
            lambda a, b: geo.divergence_amari(ds, a, b), p)
        assert abs(oa.entries[0, 0]
                   - geo.metric_amari(ds, p).entries[0, 0]) < 1e-5 * \
            geo.metric_amari(ds, p).entries[0, 0]

    def test_csiszar_curvature_is_rescaled_fisher(self):
        fisher = geo.metric_naudts(identity(), P3).entries
        cases = [(lambda t: t * math.log(t), 1.0),
                 (lambda t: (t - 1.0) ** 2, 2.0),
                 (lambda t: (t ** 1.5 - t) / 0.5, 1.5)]
        for f, fpp1 in cases:
            H = geo.metric_fd_oracle(
                lambda a, b: geo.divergence_csiszar(f, a, b), P3).entries
            assert np.max(np.abs(H - fpp1 * fisher)) / np.max(
                np.abs(fpp1 * fisher)) < 1e-4


class TestTOperator:
    def test_identity(self):
        m = geo.t_operator(identity(), P3)
        assert np.allclose(m.entries, geo.metric_amari(identity(), P3).entries,
                           atol=1e-12)

    def test_tsallis2_half(self):
        assert abs(geo.t_operator(tsallis(2.0), P2).entries[0, 0]
                   - 16.0) < 1e-12

    def test_equals_amari_everywhere(self):
        rng = np.random.default_rng(2)
        for d in [tsallis(0.5), stretched(2.0),
                  cd_family(0.8, -0.5)]:
            for _ in range(5):
                w = rng.dirichlet(np.full(3, 3.0)).clip(0.02)
                p = ProbVec(w / w.sum())
                assert np.max(np.abs(
                    geo.t_operator(d, p).entries
                    - geo.metric_amari(d, p).entries)) < 1e-10


class TestTsMetricTransform:
    def test_nu_zero_trivial(self):
        d = tsallis(1.5)
        assert np.allclose(geo.ts_metric_transform(d, 0.0, P3).entries,
                           geo.metric_naudts(d, P3).entries, atol=1e-12)

    def test_identity_half_point(self):
        val = geo.ts_metric_transform(identity(), 0.5, P2).entries[0, 0]
        ref = 2.0 / (0.5 * (1.0 + 0.5 * math.log(0.5)) ** 2)
        assert abs(val - ref) < 1e-10

    def test_two_path_agreement(self):
        q = 1.4
        nu = 1.0 - q
        d = tsallis(q)
        dd = ts_dual(d, nu)
        m1 = geo.ts_metric_transform(d, nu, P3).entries
        m2 = geo.metric_naudts(dd, P3).entries
        assert np.max(np.abs(m1 - m2)) < 1e-8


class TestConformal:
    def test_identity_trivial(self):
        rep = geo.conformal_check(identity(), P3)
        assert rep.max_abs_residual < 1e-8
        assert abs(rep.conformal_factor[0] - 1.0) < 1e-8

    def test_tsallis(self):
        rep = geo.conformal_check(tsallis(0.5),
                    ProbVec(np.array([0.3, 0.7])))
        assert rep.max_rel_residual < 1e-6

    def test_cd(self):
        chi = cd_family(0.8, 0.5)
        rep = geo.conformal_check(chi, ProbVec(np.array([0.25, 0.75])))
        assert rep.max_rel_residual < 1e-6


class TestTsallisAdditiveDuality:
    def test_h_mediated_relation(self):
        rng = np.random.default_rng(3)
        for q in (0.5, 0.8, 1.5):
            dq = tsallis(q)
            dq2 = tsallis(2.0 - q)
            for _ in range(50):
                w = rng.dirichlet(np.full(3, 2.0)).clip(0.01)
                p = ProbVec(w / w.sum())
                sa = geo.entropy_amari(dq, p)
                sn = geo.entropy_naudts(dq2, p)
                rhs = (1.0 - 1.0 / (q * (1.0 + (1.0 - q) * sn))) / (1.0 - q)
                assert abs(sa - rhs) < 1e-10

    def test_amari_conformal_to_fisher(self):
        rng = np.random.default_rng(4)
        for q in (0.5, 2.0):
            d = tsallis(q)
            for _ in range(10):
                w = rng.dirichlet(np.full(3, 2.0)).clip(0.01)
                p = ProbVec(w / w.sum())
                ma = geo.metric_amari(d, p).entries
                fisher = geo.metric_naudts(identity(), p).entries
                ref = (q / h_phi(d, p)) * fisher
                assert np.max(np.abs(ma - ref)) < 1e-10 * np.max(np.abs(ref))


class TestCdClosedForms:
    def test_entropy_scale_and_alignment(self):
        for (c, d) in [(0.7, 0.4), (0.8, 0.5)]:
            fam = cd_family(c, d)
            pr = cd_params(*fam.params)
            K = geo.cd_entropy_alignment_constant(pr, 3)
            for p in [P3, ProbVec(np.array([0.3, 0.7]))]:
                quad = geo.entropy_naudts(fam, p)
                aligned = geo.cd_entropy_aligned(pr, p, K)
                assert abs(aligned - quad) < 1e-7

    def test_closed_is_c_times_integral_form(self):
        fam = cd_family(0.7, 0.4)
        pr = cd_params(*fam.params)
        ratio = geo.cd_entropy_closed(pr, P3) / geo.entropy_naudts(fam, P3)
        assert abs(ratio - 0.7) < 1e-10

    def test_branch_error(self):
        with pytest.raises(BranchError):
            geo.cd_entropy_closed(cd_params(1.0, 1.0), P3)
        with pytest.raises(BranchError):
            geo.cd_metrics_closed(cd_params(0.5, 0.0), P3)

    def test_printed_terms_match_scalar_formula(self):
        def naudts_term(c, d, r, x):
            k = (c - 1.0) * r + 1.0
            lx = math.log(x)
            dfam_log = r - r * x ** (c - 1.0) * (1.0 - (k / (d * r)) * lx) ** d
            num = (c - 1.0) * k * lx + d
            den = (-c * r + r - 1.0) * lx + d * r
            return (r - dfam_log) / x * (num / den)

        def amari_term(c, d, r, x):
            k = (c - 1.0) * r + 1.0
            lx = math.log(x)
            t1 = (d - 1.0) * k / (k * lx - d * r)
            t2 = ((c - 1.0) ** 2 * r + c - 1.0) / (
                (c - 1.0) * d * r - c * d * r + (c - 1.0) * k * lx + d + d * r)
            return (2.0 - c - t1 - t2) / x

        rng = np.random.default_rng(256)
        for (c, d) in [(0.7, 0.4), (0.8, 0.5), (0.8, -0.5), (0.6, 1.2),
                       (0.3, 2.0)]:
            pr = cd_params(c, d)
            assert pr.branch == "generic"
            p = ProbVec(rng.dirichlet(np.ones(256)))
            mN, mA = geo.cd_metrics_closed(pr, p)
            for m, term in ((mN, naudts_term), (mA, amari_term)):
                vals = np.array([term(c, d, pr.r, x) for x in p.probs])
                ref = np.diag(vals[1:]) + vals[0]
                assert np.all(np.abs(m.entries - ref) <= 1e-14 * np.abs(ref))

    def test_printed_metrics_match_generic(self):
        for (c, d) in [(0.7, 0.4), (0.8, -0.5)]:
            fam = cd_family(c, d)
            mN, mA = geo.cd_metrics_closed(cd_params(*fam.params), P3)
            assert mN.check.max_rel_residual < 1e-6
            assert mA.check.max_rel_residual < 1e-6

    def test_q0_amari_conformal_to_fisher(self):
        # the d = 0 family has a pure-power generator, so h * amari metric
        # is (2 - q) times the classical Fisher matrix
        q = 0.6
        fam = cd_family(q, 0.0, 1.0 / (1.0 - q))
        h = h_phi(fam, P3)
        lhs = h * geo.metric_amari(fam, P3).entries
        fisher = geo.metric_naudts(identity(), P3).entries
        assert np.max(np.abs(lhs - (2.0 - q) * fisher)) < 1e-8 * np.max(fisher)
