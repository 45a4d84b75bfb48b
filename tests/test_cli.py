import argparse
import json
import math
import warnings

import numpy as np
import pytest

from phigeo import cli
from phigeo import geometry as geo
from phigeo.cli import main, make_parser
from phigeo.deform import ProbVec, h_phi, ts_dual
from phigeo.families import cd_family, identity, stretched, tsallis
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
