"""The hull-interiority check that guards the moment fits: a projection
certificate that can only accept, and the LP that decides everything else."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

import phigeo
import phigeo.maxent as maxent
from phigeo.errors import InfeasibleTargetError
from phigeo.families import tsallis
from phigeo.maxent import (ConfigMatrix, eta_coords, fit_escort_moments,
                           fit_linear_moments)

LINPROG = scipy.optimize.linprog


def lp_interior(E: np.ndarray, t: np.ndarray) -> bool:
    """Oracle: the largest smallest weight of a mixture of the rows of E
    with mean t, by LP, exceeds 1e-10."""
    n, m = E.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    A_eq = np.zeros((m + 1, n + 1))
    A_eq[:m, :n] = E.T
    A_eq[m, :n] = 1.0
    A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = LINPROG(cost, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq,
                  b_eq=np.append(t, 1.0), bounds=[(None, None)] * (n + 1),
                  method="highs")
    return bool(res.success and -res.fun > 1e-10)


def planted_face(rng, n, m):
    """Random rows with a planted face: m of them moved onto the hyperplane
    v.x = min_i v.E_i - 1, so they span a face and every other row lies
    strictly on one side of it."""
    E = rng.normal(size=(n, m))
    v = rng.normal(size=m)
    v /= np.linalg.norm(v)
    face = rng.choice(n, size=m, replace=False)
    s = E @ v
    E[face] += np.outer(s.min() - 1.0 - s[face], v)
    return E, face, v


KINDS = ["interior", "near_1e-3", "near_1e-6", "outside", "on_face"]
SHAPES = [(n, m) for n in (3, 8, 32, 128) for m in (1, 2, 3) if n > m]


def target(rng, E, face, v, kind):
    on_face = E[face].T @ rng.dirichlet(np.ones(len(face)))
    inside = E.T @ rng.dirichlet(np.ones(E.shape[0]))
    if kind == "interior":
        return inside
    if kind == "on_face":
        return on_face
    if kind == "outside":
        return on_face - 0.5 * v
    eps = float(kind.split("_")[1])
    return (1.0 - eps) * on_face + eps * inside


class TestDecisionAgreement:
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_matches_lp_oracle(self, n, m, monkeypatch):
        lp_calls = []

        def counted(*a, **k):
            lp_calls.append(1)
            return LINPROG(*a, **k)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        rng = np.random.default_rng(100 * n + m)
        certified = 0
        for rep in range(3):
            E, face, v = planted_face(rng, n, m)
            cm = ConfigMatrix(E)
            for kind in KINDS:
                t = target(rng, E, face, v, kind)
                expected = lp_interior(E, t)
                if kind in ("interior", "near_1e-3", "near_1e-6"):
                    assert expected
                else:
                    assert not expected
                before = len(lp_calls)
                try:
                    maxent._hull_check(cm, t)
                    accepted = True
                except InfeasibleTargetError:
                    accepted = False
                assert accepted == expected, (n, m, rep, kind)
                if len(lp_calls) == before:
                    assert accepted
                    certified += kind == "interior"
        # the interior targets of these shapes are all certified
        assert certified == 3


class TestLinprogNotNeeded:
    def test_fits_on_certified_targets(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("linprog called on a certified target")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        rng = np.random.default_rng(5)
        d = tsallis(0.5)
        for n, m in ((3, 1), (8, 2), (64, 3)):
            E = ConfigMatrix(rng.normal(size=(n, m)))
            targets = E.E.T @ rng.dirichlet(np.full(n, 5.0))
            lin = fit_linear_moments(d, E, targets)
            esc = fit_escort_moments(d, E, targets)
            assert np.max(np.abs(E.E.T @ lin.pmf.probs - targets)) <= 1e-8
            assert np.max(np.abs(eta_coords(esc) - targets)) <= 1e-8

    def test_uncertified_feasible_target_goes_through_lp(self, monkeypatch):
        # the representing mixture nearest uniform for t = 1.9 on rows
        # 0, 1, 2 is (-0.117, 0.333, 0.783), yet (1/30, 1/30, 14/15) has mean
        # 1.9, so the target is interior and only the LP can tell
        lp_calls = []

        def counted(*a, **k):
            lp_calls.append(1)
            return LINPROG(*a, **k)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        E = ConfigMatrix(np.array([[0.0], [1.0], [2.0]]))
        fam = fit_linear_moments(tsallis(0.5), E, [1.9])
        assert len(lp_calls) == 1
        assert abs((E.E.T @ fam.pmf.probs)[0] - 1.9) <= 1e-8
        with pytest.raises(InfeasibleTargetError):
            fit_linear_moments(tsallis(0.5), E, [2.0])
        assert len(lp_calls) == 2


def test_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(phigeo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, phigeo, phigeo.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('scipy.optimize')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
