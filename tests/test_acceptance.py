"""End-to-end acceptance battery.  Each test covers one headline property
at its stated tolerance and runtime budget and prints a single PASS/FAIL
line (run with -s to see them inline)."""

import math
import os
import time

import numpy as np
import pytest

import phigeo.estimation as est
import phigeo.geometry as geo
from phigeo.cli import main as cli_main
from phigeo.deform import ProbVec, escort, exp_of_log, h_phi, ts_dual
from phigeo.families import cd_family, cd_params, identity, stretched, tsallis
from phigeo.maxent import (ConfigMatrix, eta_coords, fit_escort_moments,
                           fit_linear_moments, massieu, normalize, psi_forms,
                           varphi_dual)
from phigeo.geometry import rel_residual as _rel
from phigeo.verify import _families, _random_interior


def report(label, ok):
    print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_01_roundtrip():
    t0 = time.monotonic()
    ok = True
    for label, d in _families():
        hi = min(10.0, 0.9 * d.x_upper)
        tol = 1e-10 if d.log_closed is not None else 1e-8
        for x in np.geomspace(1e-4, hi, 24):
            back = d.exp(d.log(x))
            if abs(back - x) / max(x, 1.0) >= tol:
                ok = False
    ok = ok and (time.monotonic() - t0) < 5.0
    report("01 exp/log round trip", ok)


def test_02_metric_divergence_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    for label, d in _families():
        sizes = [2, 3, 5]
        for i in range(20):
            n = sizes[i % 3]
            p = _random_interior(rng, n)
            on = geo.metric_fd_oracle(
                lambda a, b: geo.divergence_naudts(d, a, b), p)
            oa = geo.metric_fd_oracle(
                lambda a, b: geo.divergence_amari(d, a, b), p)
            if _rel(geo.metric_naudts(d, p).entries, on.entries) >= 1e-4:
                ok = False
            if _rel(geo.metric_amari(d, p).entries, oa.entries) >= 1e-4:
                ok = False
    ok = ok and (time.monotonic() - t0) < 60.0
    report("02 metric matches divergence hessian", ok)


def test_03_t_operator_duality():
    rng = np.random.default_rng(102)
    ok = True
    for label, d in _families():
        for n in (2, 3, 5):
            for _ in range(5):
                p = _random_interior(rng, n)
                res = np.max(np.abs(geo.t_operator(d, p).entries
                                    - geo.metric_amari(d, p).entries))
                if res >= 1e-10:
                    ok = False
    report("03 T-operator maps first metric onto second", ok)


def test_04_conformal_duality():
    rng = np.random.default_rng(103)
    ok = True
    chis = [tsallis(0.5), tsallis(2.0), cd_family(0.8, 0.5)]
    for chi in chis:
        xi = exp_of_log(chi)
        for n in (2, 3):
            for _ in range(10):
                p = _random_interior(rng, n)
                rep = geo.conformal_check(chi, p, xi=xi)
                if rep.max_rel_residual >= 1e-6:
                    ok = False
    report("04 conformal pairing of the two metrics", ok)


def test_05_cramer_rao():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    E = ConfigMatrix(np.array([[0.0], [1.0], [3.0]]))
    c = est.Estimator(E.E)
    ok = True
    for label, d in _families():
        for _ in range(3):
            fam = normalize(d, E, [float(rng.uniform(-0.2, 0.25))])
            if not fam.pmf.interior:
                continue
            for _ in range(100):
                P = _random_interior(rng, 3)
                if est.cr_report(fam, P, c).slack < -1e-10:
                    ok = False
            if abs(est.cr_report(fam, escort(d, fam.pmf), c).slack) >= 1e-8:
                ok = False
    ok = ok and (time.monotonic() - t0) < 30.0
    report("05 Cramer-Rao bound and escort equality", ok)


def test_06_information_metric_identities():
    rng = np.random.default_rng(105)
    configs = {
        (2, 1): ConfigMatrix(np.array([[0.0], [1.0]])),
        (3, 1): ConfigMatrix(np.array([[0.0], [1.0], [3.0]])),
        (3, 2): ConfigMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    }
    fams = [identity(), tsallis(0.5), tsallis(2.0), stretched(2.0),
            cd_family(0.8, 0.5)]
    ok = True
    for d in fams:
        for (n, m), E in configs.items():
            theta = rng.uniform(-0.2, 0.25, size=m)
            fam = normalize(d, E, theta)
            if est.naudts_identity_check(fam).max_rel_residual >= 1e-6:
                ok = False
            if est.amari_identity_check(fam).max_rel_residual >= 1e-5:
                ok = False
    report("06 escort information equals pulled-back metrics", ok)


def test_07_tsallis_additive_duality():
    rng = np.random.default_rng(106)
    ok = True
    for q in (0.5, 0.8, 1.5):
        dq = tsallis(q)
        dq2 = tsallis(2.0 - q)
        for _ in range(200):
            p = _random_interior(rng, 3)
            sa = geo.entropy_amari(dq, p)
            sn = geo.entropy_naudts(dq2, p)
            rhs = (1.0 - 1.0 / (q * (1.0 + (1.0 - q) * sn))) / (1.0 - q)
            if abs(sa - rhs) >= 1e-10:
                ok = False
    report("07 q <-> 2-q entropy duality", ok)


def test_08_metric_transform_duality():
    rng = np.random.default_rng(107)
    ok = True
    for q in (0.5, 1.4):
        nu = 1.0 - q
        d = tsallis(q)
        dual = ts_dual(d, nu)
        for _ in range(5):
            p = _random_interior(rng, 3)
            m1 = geo.ts_metric_transform(d, nu, p).entries
            m2 = geo.metric_naudts(dual, p).entries
            if _rel(m1, m2) >= 1e-8:
                ok = False
            s1 = geo.entropy_from_phi_nu(d, nu, p)
            s2 = sum((pj ** q - pj) / (1.0 - q) for pj in p.probs)
            if abs(s1 - s2) >= 1e-14:
                ok = False
    report("08 parametric metric transform and entropy collapse", ok)


def test_09_cd_closed_forms():
    rng = np.random.default_rng(108)
    ok = True
    for (c, dd) in ((0.7, 0.4), (0.8, 0.5)):
        fam = cd_family(c, dd)
        params = cd_params(*fam.params)
        const = geo.cd_entropy_alignment_constant(params, 3)
        for _ in range(10):
            p = _random_interior(rng, 3)
            closed = geo.cd_entropy_aligned(params, p, const)
            quad = geo.entropy_naudts(fam, p)
            if abs(closed - quad) >= 1e-7:
                ok = False
            mn, ma = geo.cd_metrics_closed(params, p)
            if mn.check.max_rel_residual >= 1e-6:
                ok = False
            if ma.check.max_rel_residual >= 1e-6:
                ok = False
    # at (q, 0) the second metric is conformal to the classical Fisher
    # matrix with coefficient 2 - q once the conformal factor is removed
    for q in (0.3, 0.6):
        d = cd_family(q, 0.0, r=1.0 / (1.0 - q))
        for _ in range(5):
            p = _random_interior(rng, 3)
            lhs = h_phi(d, p) * geo.metric_amari(d, p).entries
            fisher = geo.metric_naudts(identity(), p).entries
            if np.max(np.abs(lhs - (2.0 - q) * fisher)) >= 1e-8 * np.max(fisher):
                ok = False
    report("09 closed-form entropy and metrics for the two-parameter family",
           ok)


def test_10_maxent():
    E = ConfigMatrix(np.array([[0.0], [1.0], [2.0]]))
    fams = [identity(), tsallis(0.5), tsallis(2.0), stretched(2.0),
            cd_family(0.7, 0.4)]
    ok = True
    for d in fams:
        fam = normalize(d, E, [0.3])
        forms = psi_forms(fam)
        if abs(forms["psi_linear"] - forms["psi_root"]) >= 1e-9:
            ok = False
        if abs(forms["psi_escort"] - forms["psi_root"]) >= 1e-9:
            ok = False
        v = varphi_dual(fam)
        lhs = v["legendre_value"] + massieu(fam)
        if abs(lhs - float(fam.theta @ eta_coords(fam))) >= 1e-9:
            ok = False
        targets_lin = E.E.T @ fam.pmf.probs
        if abs(fit_linear_moments(d, E, targets_lin).theta[0] - 0.3) >= 1e-6:
            ok = False
        targets_esc = E.E.T @ escort(d, fam.pmf).probs
        if abs(fit_escort_moments(d, E, targets_esc).theta[0] - 0.3) >= 1e-6:
            ok = False
    report("10 normalizer forms, Legendre structure, fit round trips", ok)


def test_11_figures(tmp_path, capsys):
    t0 = time.monotonic()
    out = str(tmp_path / "figs")
    code1 = cli_main(["figure", "--which", "fig1", "--out", out])
    code2 = cli_main(["figure", "--which", "fig2", "--out", out])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0
    with open(os.path.join(out, "fig2_naudts.csv")) as fh:
        lines = fh.read().splitlines()
    ok = ok and len(lines) == 61 * 61 + 1
    hit = [l for l in lines[1:] if l.startswith("1,1,")]
    ok = ok and len(hit) == 1 and float(hit[0].split(",")[2]) == 4.5
    # near the (1, 0) corner the scalar metrics move strictly monotonically
    # along (c, d) = (1 - eps, 0.01); the values grow with eps
    p = ProbVec(np.array([1.0 / 3.0, 2.0 / 3.0]))
    vals_n, vals_a = [], []
    for eps in (0.2, 0.1, 0.05, 0.025):
        d = cd_family(1.0 - eps, 0.01)
        vals_n.append(geo.metric_naudts(d, p).entries[0, 0])
        vals_a.append(geo.metric_amari(d, p).entries[0, 0])
    for vals in (vals_n, vals_a):
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                ok = False
    ok = ok and (time.monotonic() - t0) < 120.0
    report("11 figure sweeps and corner behaviour", ok)
