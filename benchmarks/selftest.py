"""Self-tests of the benchmark: every output check must be able to fail.

    python3 benchmarks/selftest.py          (or: python3 -m pytest benchmarks/selftest.py)

Each test runs real ops, shows that their outputs pass, then plants a
wrong answer (a pmf moved by 1e-6, a metric entry scaled by 1 + 1e-5, one
CSV cell changed, ...) and shows that the check rejects it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
warnings.simplefilter("ignore")

import numpy as np  # noqa: E402

import phigeo as pg  # noqa: E402
import workloads as W  # noqa: E402

OUT = os.path.join(HERE, "out")


def _first(wl, pred):
    for block in wl.blocks():
        for op in block:
            if pred(op):
                return op


def _passing(wl, pred):
    """The first op matching pred, with its output, asserted to pass."""
    op = _first(wl, pred)
    out = wl.execute(op)
    assert wl.judge(op, out, None) is None, "unperturbed output must pass"
    return op, out


def _rejects(wl, op, out):
    verdict = wl.judge(op, out, None)
    assert verdict is not None and verdict[0] == "wrong", verdict


def _tmp():
    os.makedirs(OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def test_fit_rejects_perturbed_pmf():
    wl = W.make("fit", 0, None)
    for kind in ("linear", "escort"):
        op, p = _passing(wl, lambda o, k=kind: o["kind"] == k
                         and o["label"] == "tsallis(2)" and o["n"] == 8)
        moved = p.copy()
        moved[0] += 1e-6
        moved[1] -= 1e-6
        _rejects(wl, op, moved)
        _rejects(wl, op, p * (1 + 1e-9))
    assert wl.judge(op, None, pg.BracketError("x"))[0] == "error"


def test_grid_rejects_planted_values():
    wl = W.make("grid", 0, None)
    op, out = _passing(wl, lambda o: o["n"] == 16 and wl.map.state(
        o["i"], o["j"]) == W.CELL_OK)
    for part, scale in (("gN", 1 + 1e-5), ("gA", 1 + 1e-5), ("h", 1 + 1e-9),
                        ("escort", 1 + 1e-9), ("S", 1 + 1e-7), ("D", 1 + 1e-6)):
        bad = dict(out)
        if np.ndim(out[part]):
            arr = np.array(out[part], dtype=float)
            arr.flat[int(np.argmax(np.abs(arr)))] *= scale
            bad[part] = arr
        else:
            bad[part] = out[part] * scale + (1e-9 if part == "D" else 0.0)
        _rejects(wl, op, bad)
    # an accepted op must not raise, even a PhigeoError
    assert wl.judge(op, None, pg.DomainError("x"))[0] == "error"
    rej = _first(wl, lambda o: wl.map.state(o["i"], o["j"]) == W.CELL_REJECTED)
    assert wl.judge(rej, None, pg.DomainError("x")) is None
    assert wl.judge(rej, None, ValueError("x"))[0] == "error"
    _rejects(wl, rej, out)
    # a cell that built at the seed but whose op failed must still pass
    broken = _first(wl, lambda o: wl.map.state(o["i"], o["j"]) == W.CELL_BROKEN)
    assert wl.judge(broken, None, pg.DomainError("x"))[0] == "error"


def test_failing_draws_are_fixed_per_round():
    """Ops whose outcome depends on a drawn input fail at the seed in the
    same number per round at every seed: one failing grid cell per round,
    one round-trip point above 1 per duality base per block."""
    for seed in (1, 2):
        wl = W.make("grid", seed, None)
        failing = set(wl.failing)
        blocks = wl.blocks()
        for _ in range(2):
            ops = [op for _ in range(W.GRID_ROUND) for op in next(blocks)]
            assert sum((op["i"], op["j"]) in failing for op in ops) == 1
        wl = W.make("duality", seed, None)
        blocks = wl.blocks()
        for _ in range(20):
            xs = {}
            for op in next(blocks):
                if op["kind"] == "conformal":
                    xs.setdefault(op["label"], []).append(op["x"])
            for label, x in xs.items():
                above = [v for v in x if v > 1.0]
                assert len(x) == W.X_STRATA and len(above) == 1, (label, x)
                assert above[0] < wl.bases[label].x_upper


def test_duality_rejects_planted_values():
    wl = W.make("duality", 0, None)
    op, (res, back) = _passing(wl, lambda o: o["kind"] == "conformal"
                               and o["label"] == "tsallis(2)")
    _rejects(wl, op, (1e-5, back))
    _rejects(wl, op, (res, back * (1 + 1e-7) + 1e-9))

    op, s = _passing(wl, lambda o: o["kind"] == "entropy")
    _rejects(wl, op, s + 1e-6)

    op, (p, psi, rn, ra) = _passing(wl, lambda o: o["kind"] == "identity"
                                    and o["label"] == "tsallis(0.5)")
    _rejects(wl, op, (p, psi, 1e-5, ra))
    _rejects(wl, op, (p, psi, rn, 1e-4))
    _rejects(wl, op, (p, psi + 1e-7, rn, ra))
    moved = p.copy()
    moved[0] += 1e-6
    moved[1] -= 1e-6
    _rejects(wl, op, (moved, psi, rn, ra))

    op, (p, refs, reps) = _passing(wl, lambda o: o["kind"] == "cr")
    for i in (0, len(reps) - 1):
        for j, scale in ((0, 1 + 1e-7), (1, 1 + 1e-7)):
            bad = copy.deepcopy(reps)
            row = list(bad[i])
            row[j] *= scale
            bad[i] = tuple(row)
            _rejects(wl, op, (p, refs, bad))
    bad = copy.deepcopy(reps)
    lhs, rhs, _, f2 = bad[0]
    bad[0] = (lhs, rhs, -1e-8, f2)
    _rejects(wl, op, (p, refs, bad))
    bad = copy.deepcopy(reps)
    lhs, rhs, _, f2 = bad[-1]
    bad[-1] = (lhs, rhs, 1e-7, f2)
    _rejects(wl, op, (p, refs, bad))


def test_cli_rejects_planted_outputs():
    with _tmp() as tmp:
        wl = W.make("cli", 0, tmp)
        op, (code, stdout) = _passing(
            wl, lambda o: o["group"] == "eval" and o["slot"] == "metric-a/n3")
        value = json.loads(stdout)
        value["value"][0][0] *= 1 + 1e-11
        _rejects(wl, op, (0, json.dumps(value)))
        assert wl.judge(op, (2, stdout), None)[0] == "error"

        op, (code, stdout) = _passing(wl, lambda o: o["group"] == "table2")
        rows = json.loads(stdout)
        rows[0]["tsallis"]["library"] *= 1 + 1e-11
        _rejects(wl, op, (0, json.dumps(rows)))

        op, (code, stdout) = _passing(wl, lambda o: o["group"] == "verify")
        _rejects(wl, op, (0, stdout.replace("PASS", "FAIL", 1)))
        _rejects(wl, op, (0, "\n".join(stdout.splitlines()[1:])))

        op, (code, stdout) = _passing(
            wl, lambda o: o["group"] == "fit" and o["constraints"] == "escort"
            and o["seed_exit"] == 0)
        res = json.loads(stdout)
        res["pmf"][0] += 1e-6
        res["pmf"][1] -= 1e-6
        _rejects(wl, op, (0, json.dumps(res)))

        op, out = _passing(wl, lambda o: o["argv"][:3] == ["figure", "--which",
                                                            "fig1"])
        path = os.path.join(wl.out_dir, "fig1_amari.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        cells = lines[5].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-10))
        lines[5] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        _rejects(wl, op, out)


def test_compare_json_nan_positions():
    assert W.compare_json([1.0, float("nan")], [1.0, float("nan")])
    assert not W.compare_json([1.0, float("nan")], [1.0, 2.0])
    assert not W.compare_json([1.0, 2.0], [1.0, float("nan")])
    assert not W.compare_json({"a": 1.0}, {"b": 1.0})


def test_benchmark_json_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_measured_phase_ends_on_nearest_round_boundary():
    from run import more_rounds
    assert more_rounds(0.0, 0, 6, 25.0)
    assert more_rounds(30.0, 5, 6, 25.0)          # inside a round
    assert more_rounds(12.0, 6, 6, 25.0)          # next boundary near 24
    assert not more_rounds(21.0, 12, 6, 25.0)     # 21 is nearer than 31.5
    assert more_rounds(9.0, 12, 6, 25.0)          # 27 is nearer than 18
    assert not more_rounds(40.0, 6, 6, 25.0)      # one round, past the end


def test_run_fails_without_the_package():
    """In a tree holding only BENCHMARK.json and benchmarks/, run.py must
    exit nonzero without printing a result."""
    with _tmp() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                              "fit", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=tmp, capture_output=True,
                             text=True, timeout=180)
        assert res.returncode != 0
        assert '"correct"' not in res.stdout


def main():
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
