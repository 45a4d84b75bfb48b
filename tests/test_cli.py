import argparse
import gzip
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from phigeo import cli
from phigeo import geometry as geo
from phigeo.cli import main, make_parser
from phigeo.deform import Deformation, ProbVec, h_phi, ts_dual
from phigeo.errors import DomainError
from phigeo.families import (CD_STATUS, cd_family, cd_lattice, identity,
                             stretched, tsallis)
from phigeo.verify import SUITES, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_tsallis_log(self, capsys):
        code, out = run(capsys, "eval", "--family", "tsallis", "--q", "2.0",
                        "--what", "log", "--x", "0.5")
        assert code == 0
        assert abs(json.loads(out)["value"] + 1.0) < 1e-12

    def test_shannon_exp(self, capsys):
        code, out = run(capsys, "eval", "--family", "shannon",
                        "--what", "exp", "--x", "1.0")
        assert code == 0
        assert abs(json.loads(out)["value"] - math.e) < 1e-12

    def test_metric_matrix(self, capsys):
        code, out = run(capsys, "eval", "--family", "shannon",
                        "--what", "metric-n", "--p", "0.5,0.5")
        assert code == 0
        assert json.loads(out)["value"] == [[4.0]]

    def test_escort_vector(self, capsys):
        code, out = run(capsys, "eval", "--family", "tsallis", "--q", "2.0",
                        "--what", "escort", "--p", "0.2,0.8")
        assert code == 0
        v = json.loads(out)["value"]
        assert abs(v[0] - 0.04 / 0.68) < 1e-12

    def test_divergence_needs_p2(self, capsys):
        code, _ = run(capsys, "eval", "--family", "shannon",
                      "--what", "divergence-n", "--p", "0.5,0.5")
        assert code == 2

    def test_missing_x_is_usage_error(self, capsys):
        code, _ = run(capsys, "eval", "--family", "shannon", "--what", "log")
        assert code == 2

    def test_bad_parameter_is_usage_error(self, capsys):
        code, _ = run(capsys, "eval", "--family", "tsallis", "--q", "1.0",
                      "--what", "log", "--x", "0.5")
        assert code == 2

    @pytest.mark.parametrize("x", ["-1", "nan", "inf"])
    def test_bad_x_for_phi_is_usage_error(self, capsys, x):
        # -1 once raised a TypeError from json.dumps (x ** 0.5 is complex),
        # nan and inf printed a non-JSON value with exit 0
        code, out = run(capsys, "eval", "--family", "tsallis", "--q", "0.5",
                        "--what", "phi", "--x", x)
        assert (code, out) == (2, "")

    def test_nan_probability_is_usage_error(self, capsys):
        # once read as a zero probability: {"value": 1.0}, exit 0
        code, out = run(capsys, "eval", "--family", "tsallis", "--q", "0.5",
                        "--what", "h", "--p", "nan,1")
        assert (code, out) == (2, "")

    # each once a bare OverflowError traceback with exit 1
    def test_exp_overflow_is_range_error(self, capsys):
        code = main(["eval", "--family", "shannon", "--what", "exp",
                     "--x", "1000"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "overflows" in err

    def test_c_one_with_unbounded_domain_sup(self, capsys):
        # exp(dr) = exp(1000) is no float: x_upper is inf
        code, out = run(capsys, "eval", "--family", "cd", "--c", "1",
                        "--d", "0.5", "--r", "2000", "--what", "log",
                        "--x", "0.5")
        assert code == 0
        # r - r sqrt(1 + ln 2/dr), written without the cancellation
        want = -2.0 * math.log(2.0) / (math.sqrt(1.0 + math.log(2.0) / 1e3)
                                       + 1.0)
        assert abs(json.loads(out)["value"] - want) < 1e-11 * abs(want)
        assert cd_family(1.0, 0.5, 2000.0).x_upper == math.inf

    def test_auto_r_overflow_is_domain_error(self, capsys):
        code = main(["eval", "--family", "cd", "--c", "0.5", "--d", "-800",
                     "--what", "log", "--x", "0.5"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "auto_r" in err and "overflows" in err

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2


# --family flags, and the Deformation build_family should make of them.
FAMILIES = {
    "stretched": (["--family", "stretched", "--eta", "0.5"],
                  lambda: stretched(0.5)),
    "cd": (["--family", "cd", "--c", "0.7", "--d", "0.4"],
           lambda: cd_family(0.7, 0.4)),
    "ts-dual of tsallis": (["--family", "ts-dual", "--q", "0.5", "--nu", "0.01"],
                           lambda: ts_dual(tsallis(0.5), 0.01)),
    "ts-dual of stretched": (["--family", "ts-dual", "--eta", "2.0",
                              "--nu", "0.01"],
                             lambda: ts_dual(stretched(2.0), 0.01)),
    "ts-dual of shannon": (["--family", "ts-dual", "--nu", "0.01"],
                           lambda: ts_dual(identity(), 0.01)),
}

P, P2 = "0.2,0.3,0.5", "0.5,0.1,0.4"
PV, PV2 = ProbVec([0.2, 0.3, 0.5]), ProbVec([0.5, 0.1, 0.4])

# --what, its input flags, and the library call it should print.
QUANTITIES = {
    "phi": (["--x", "0.3"], lambda d: d.phi(0.3)),
    "h": (["--p", P], lambda d: h_phi(d, PV)),
    "entropy-n": (["--p", P], lambda d: geo.entropy_naudts(d, PV)),
    "entropy-a": (["--p", P], lambda d: geo.entropy_amari(d, PV)),
    "divergence-a": (["--p", P, "--p2", P2],
                     lambda d: geo.divergence_amari(d, PV, PV2)),
    "metric-a": (["--p", P], lambda d: geo.metric_amari(d, PV).entries.tolist()),
}


class TestEvalPaths:
    """Every printed value is the direct library call's, to the bit."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_flags(self, capsys, name):
        flags, build = FAMILIES[name]
        d = build()
        for x in (0.3, 2.0):
            code, out = run(capsys, "eval", *flags, "--what", "log",
                            "--x", str(x))
            assert code == 0
            assert json.loads(out) == {"value": d.log(x)}

    @pytest.mark.parametrize("flags", [
        ["--family", "stretched"],
        ["--family", "cd", "--c", "0.7"],
        ["--family", "cd", "--d", "0.4"],
        ["--family", "ts-dual", "--q", "0.5"],
    ])
    def test_missing_family_flag_is_usage_error(self, capsys, flags):
        code, _ = run(capsys, "eval", *flags, "--what", "log", "--x", "0.3")
        assert code == 2

    @pytest.mark.parametrize("what", sorted(QUANTITIES))
    def test_quantity(self, capsys, what):
        inputs, call = QUANTITIES[what]
        family, build = FAMILIES["cd"]
        code, out = run(capsys, "eval", *family, "--what", what, *inputs)
        assert code == 0
        assert json.loads(out) == {"value": call(build())}

    @pytest.mark.parametrize("what", sorted(QUANTITIES))
    def test_missing_input_is_usage_error(self, capsys, what):
        inputs, _ = QUANTITIES[what]
        family, _ = FAMILIES["cd"]
        # drop the last input flag and its value
        code, _ = run(capsys, "eval", *family, "--what", what, *inputs[:-2])
        assert code == 2


def _choices(command, dest):
    parser = make_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == dest)


class TestTables:
    """The CLI's choices and input checks come from its tables."""

    def test_choices(self):
        assert _choices("figure", "which") == list(cli.FIGURES)
        assert _choices("eval", "family") == list(cli.FAMILIES)
        assert _choices("fit", "family") == list(cli.FAMILIES)
        assert _choices("eval", "what") == list(cli.QUANTITIES)
        assert _choices("verify", "suite") == [*SUITES, "all"]

    @pytest.mark.parametrize("what", list(cli.QUANTITIES))
    def test_every_required_input(self, capsys, what):
        inputs, _ = cli.QUANTITIES[what]
        given = {"x": ["--x", "0.3"], "p": ["--p", P], "p2": ["--p2", P2]}
        family, _ = FAMILIES["cd"]
        argv = ["eval", *family, "--what", what]
        code, _ = run(capsys, *argv, *(f for n in inputs for f in given[n]))
        assert code == 0
        for dropped in inputs:
            kept = (f for n in inputs if n != dropped for f in given[n])
            code, _ = run(capsys, *argv, *kept)
            assert code == 2


class TestParserReuse:
    """main builds its parser once per process, and no call sees the flags
    of an earlier one."""

    def test_one_parser_for_many_calls(self, capsys, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        make_parser.cache_clear()
        for _ in range(100):
            code, _ = run(capsys, "eval", "--family", "shannon",
                          "--what", "log", "--x", "0.5")
            assert code == 0
        # the main parser and one per subcommand, built by the first call
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert progs.count("phigeo") == 1
        assert len(progs) == 1 + len(sub.choices)

    def test_omitted_flag_is_not_remembered(self, capsys):
        log = ["eval", "--family", "cd", "--c", "0.7", "--d", "0.4",
               "--what", "log"]
        assert run(capsys, *log, "--x", "0.5")[0] == 0
        assert run(capsys, *log)[0] == 2
        assert run(capsys, *log[:-4], "--what", "log", "--x", "0.5")[0] == 2

    def test_defaults_after_an_override(self, capsys):
        make_parser.cache_clear()
        first = run(capsys, "table2")
        assert run(capsys, "table2", "--q", "0.5", "--x", "0.3")[1] != first[1]
        assert run(capsys, "table2") == first


class TestVerify:
    def test_every_suite_passes(self):
        checks = run_suite("all", seed=0)
        assert [c.name for c in checks if not c.ok] == []
        counts = {}
        for c in checks:
            suite = c.name.split("/")[0]
            counts[suite] = counts.get(suite, 0) + 1
        assert counts == {"roundtrip": 10, "metrics-fd": 16, "t-operator": 10,
                          "conformal": 3, "ts-duality": 4, "cr-bound": 6,
                          "identities": 10}

    def test_roundtrip_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "roundtrip")
        assert code == 0
        lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
        assert lines
        assert all("PASS" in l for l in lines)

    def test_t_operator_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "t-operator")
        assert code == 0
        assert "checks passed" in out


class TestNoWarnings:
    """phigeo emits no warnings: with every warning raised as an error, the
    suites and the figure and table commands still run clean."""

    def test_verify_all(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run_suite("all", seed=0)
        assert all(c.ok for c in checks)

    @pytest.mark.parametrize("argv", [["figure", "--which", "fig1"],
                                      ["figure", "--which", "fig2"],
                                      ["table2"]])
    def test_commands(self, capsys, tmp_path, argv):
        if argv[0] == "figure":
            argv = argv + ["--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 0
        assert capsys.readouterr().err == ""


class TestFit:
    def _config(self, tmp_path, targets):
        cfg = {"E": [[0.0], [1.0], [2.0]], "targets": targets}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_linear_fit_roundtrip(self, capsys, tmp_path):
        code, out = run(capsys, "fit", "--family", "tsallis", "--q", "0.5",
                        "--constraints", "linear",
                        "--config", self._config(tmp_path, [1.2]))
        assert code == 0
        res = json.loads(out)
        p = np.array(res["pmf"])
        assert abs(float(np.array([0.0, 1.0, 2.0]) @ p) - 1.2) < 1e-8
        # reported eta is the escort moment, psi forms agree
        forms = res["psi_forms"]
        assert abs(forms["psi_linear"] - forms["psi_root"]) < 1e-9

    def test_escort_fit(self, capsys, tmp_path):
        code, out = run(capsys, "fit", "--family", "tsallis", "--q", "2.0",
                        "--constraints", "escort",
                        "--config", self._config(tmp_path, [1.1]))
        assert code == 0
        res = json.loads(out)
        assert abs(res["eta"][0] - 1.1) < 1e-8
        # integral entropy diverges at q = 2; reported as nan, fit still ok
        assert math.isnan(res["entropy_naudts"])

    def test_infeasible_exit_code(self, capsys, tmp_path):
        code, _ = run(capsys, "fit", "--family", "shannon",
                      "--constraints", "linear",
                      "--config", self._config(tmp_path, [5.0]))
        assert code == 3

    def test_missing_config_file(self, capsys):
        code, _ = run(capsys, "fit", "--family", "shannon",
                      "--constraints", "linear", "--config", "/nonexistent")
        assert code == 2


class TestFigures:
    def test_fig1_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "f1"
        code, _ = run(capsys, "figure", "--which", "fig1", "--out", str(out_dir))
        assert code == 0
        for name in ("fig1_naudts.csv", "fig1_amari.csv", "fig1_crbound.csv"):
            lines = (out_dir / name).read_text().splitlines()
            assert len(lines) == 394  # header + 393 sample points
        lines = (out_dir / "fig1_naudts.csv").read_text().splitlines()
        assert lines[0].startswith("p,")
        assert float(lines[1].split(",")[0]) == 0.01

    def test_fig1_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(capsys, "figure", "--which", "fig1", "--out", str(a))
        run(capsys, "figure", "--which", "fig1", "--out", str(b))
        for name in ("fig1_naudts.csv", "fig1_crbound.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_fig2_grid(self, capsys, tmp_path):
        out_dir = tmp_path / "f2"
        code, _ = run(capsys, "figure", "--which", "fig2", "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "fig2_naudts.csv").read_text().splitlines()
        assert len(lines) == 61 * 61 + 1
        # the (c, d) = (1, 1) grid point carries the classical value
        hit = [l for l in lines[1:]
               if l.startswith("1,1,") or l.startswith("1.0,1.0,")]
        assert len(hit) == 1
        assert abs(float(hit[0].split(",")[2]) - 4.5) < 1e-10
        # out-of-range c > 1 points are reported as nan, not dropped
        assert any(l.endswith(",nan") for l in lines[1:])


FIG2_P = ProbVec(np.array([1.0 / 3.0, 2.0 / 3.0]))
FIGURE_CSVS = {
    "fig1": ("fig1_naudts.csv", "fig1_amari.csv", "fig1_crbound.csv"),
    "fig2": ("fig2_naudts.csv", "fig2_amari.csv"),
}
GRID_CELLS = (pathlib.Path(__file__).parents[1] / "benchmarks" / "data"
              / "grid_cells.json.gz")


def _fig2_cells():
    return [(0.2 + 0.02 * i, -1.0 + 0.05 * j)
            for i in range(61) for j in range(61)]


def _grid_map_cells(stride):
    """Every stride-th cell centre of the benchmark's 240 x 600 map."""
    with gzip.open(GRID_CELLS, "rt", encoding="utf-8") as fh:
        m = json.load(fh)
    (c_lo, c_hi), (d_lo, d_hi) = m["c_range"], m["d_range"]
    cells = []
    for k in range(0, m["nc"] * m["nd"], stride):
        i, j = divmod(k, m["nd"])
        cells.append((c_lo + (i + 0.5) * (c_hi - c_lo) / m["nc"],
                      d_lo + (j + 0.5) * (d_hi - d_lo) / m["nd"]))
    return cells


def _bits(v):
    return np.float64(v).tobytes()


class TestFig2Lattice:
    """fig2's metrics from one figure_metrics call against cd_family,
    metric_naudts and metric_amari cell by cell: the same status reason and
    the same bits."""

    def _check(self, cells):
        c, d = np.array(cells).T
        status, g_n, g_a, _ = cli.figure_metrics(c, d, [FIG2_P.probs])
        g_n, g_a = g_n[:, 0], g_a[:, 0]
        for i, (ci, di) in enumerate(cells):
            try:
                fam = cd_family(ci, di)
            except DomainError as exc:
                assert status[i] != 0 and CD_STATUS[status[i]] in str(exc), \
                    (ci, di, CD_STATUS[status[i]], str(exc))
                assert math.isnan(g_n[i]) and math.isnan(g_a[i])
                continue
            assert status[i] == 0, (ci, di, CD_STATUS[status[i]])
            want_n = geo.metric_naudts(fam, FIG2_P).entries[0, 0]
            want_a = geo.metric_amari(fam, FIG2_P).entries[0, 0]
            if not (math.isfinite(want_n) and math.isfinite(want_a)):
                want_n = want_a = math.nan
            assert _bits(g_n[i]) == _bits(want_n), (ci, di)
            assert _bits(g_a[i]) == _bits(want_a), (ci, di)
        return np.bincount(status, minlength=len(CD_STATUS))

    def test_fig2_cells(self):
        counts = self._check(_fig2_cells())
        assert {CD_STATUS[k]: int(n) for k, n in enumerate(counts) if n} == {
            "builds": 2480, "not above 1": 743, "d < 0 requires c < 1": 420,
            "negative scale": 77, "1-c+cd = 0": 1}

    def test_grid_map_cells(self):
        counts = self._check(_grid_map_cells(97))
        assert counts[0] == 990 and counts.sum() == 1485

    @pytest.mark.parametrize("which", sorted(FIGURE_CSVS))
    def test_figure_builds_no_deformation(self, which, tmp_path, monkeypatch):
        built, lattice_calls = [], []
        init = Deformation.__init__

        def counted(self, name, *args, **kwargs):
            built.append(name)
            init(self, name, *args, **kwargs)

        def lattice(*args):
            lattice_calls.append(args)
            return cd_lattice(*args)

        monkeypatch.setattr(Deformation, "__init__", counted)
        monkeypatch.setattr(cli, "cd_lattice", lattice)
        assert main(["figure", "--which", which, "--out", str(tmp_path)]) == 0
        assert built == []
        assert len(lattice_calls) == 1
        cd_family(0.7, 0.4)
        assert len(built) == 1  # the count sees a construction

    @pytest.mark.parametrize("which", sorted(FIGURE_CSVS))
    def test_fresh_process_writes_the_same_csvs(self, which, tmp_path):
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "phigeo.cli", "figure", "--which", which,
             "--out", str(tmp_path / "fresh")],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert main(["figure", "--which", which,
                     "--out", str(tmp_path / "here")]) == 0
        for name in FIGURE_CSVS[which]:
            assert ((tmp_path / "fresh" / name).read_bytes()
                    == (tmp_path / "here" / name).read_bytes())


class TestFig1Oracle:
    """fig1's CSVs against the per-point path: cd_family, then
    metric_naudts, metric_amari and h_phi at each two-point ProbVec, bit for
    bit at all 393 x 3 points."""

    def test_csvs_match_per_point_path(self, tmp_path):
        assert main(["figure", "--which", "fig1", "--out", str(tmp_path)]) == 0
        fams = [cd_family(1.0, 1.0), cd_family(1.0, 0.5), cd_family(0.5, 0.0)]
        want = {name: [] for name in FIGURE_CSVS["fig1"]}
        for i in range(393):
            pv = 0.01 + 0.0025 * i
            prob = ProbVec(np.array([pv, 1.0 - pv]))
            rn, ra, rc = [pv], [pv], [pv]
            for d in fams:
                g_n = geo.metric_naudts(d, prob).entries[0, 0]
                info = h_phi(d, prob) * g_n
                rn.append(g_n)
                ra.append(geo.metric_amari(d, prob).entries[0, 0])
                rc.extend([info, 1.0 / info])
            for name, row in zip(FIGURE_CSVS["fig1"], (rn, ra, rc)):
                want[name].append(row)
        for name, rows in want.items():
            lines = (tmp_path / name).read_text().splitlines()[1:]
            got = [[float(v) for v in line.split(",")] for line in lines]
            assert len(got) == 393
            for got_row, want_row in zip(got, rows):
                assert [_bits(v) for v in got_row] == \
                    [_bits(v) for v in want_row], (name, got_row[0])


class TestTable2:
    def test_default_rows(self, capsys):
        code, out = run(capsys, "table2")
        assert code == 0
        rows = json.loads(out)
        assert [r["row"] for r in rows] == [
            "phi", "log", "exp", "chi", "entropy_n", "entropy_a"]
        phi = rows[0]
        assert abs(phi["tsallis"]["printed"]
                   - phi["tsallis"]["library"]) < 1e-12

    def test_amari_entropy_sign_flagged(self, capsys):
        _, out = run(capsys, "table2", "--q", "1.5")
        rows = json.loads(out)
        ea = [r for r in rows if r["row"] == "entropy_a"][0]
        assert "opposite sign" in ea["tsallis"]["note"]
        assert abs(ea["tsallis"]["printed"]
                   + ea["tsallis"]["library"]) < 1e-12

    def test_q2_entropy_divergence_noted(self, capsys):
        _, out = run(capsys, "table2", "--q", "2.0")
        rows = json.loads(out)
        en = [r for r in rows if r["row"] == "entropy_n"][0]
        assert math.isnan(en["tsallis"]["printed"])
        assert "diverges" in en["tsallis"]["note"]

    def test_off_default_point_matches(self, capsys):
        _, out = run(capsys, "table2", "--q", "0.5", "--eta", "3.0",
                     "--x", "0.7", "--p", "0.4,0.6")
        rows = json.loads(out)
        for r in rows:
            if r["row"] in ("phi", "log", "exp"):
                for fam in ("tsallis", "stretched"):
                    cell = r[fam]
                    assert abs(cell["printed"] - cell["library"]) < 1e-9
