import json
import math
import os

import numpy as np
import pytest

from phigeo.cli import main


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


class TestVerify:
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
        out_dir = str(tmp_path / "f1")
        code, _ = run(capsys, "figure", "--which", "fig1", "--out", out_dir)
        assert code == 0
        for name in ("fig1_naudts.csv", "fig1_amari.csv", "fig1_crbound.csv"):
            lines = open(os.path.join(out_dir, name)).read().splitlines()
            assert len(lines) == 394  # header + 393 sample points
        header = open(os.path.join(out_dir, "fig1_naudts.csv")).readline()
        assert header.startswith("p,")
        first = open(os.path.join(out_dir, "fig1_naudts.csv")).readlines()[1]
        assert float(first.split(",")[0]) == 0.01

    def test_fig1_deterministic(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run(capsys, "figure", "--which", "fig1", "--out", a)
        run(capsys, "figure", "--which", "fig1", "--out", b)
        for name in ("fig1_naudts.csv", "fig1_crbound.csv"):
            assert (open(os.path.join(a, name), "rb").read()
                    == open(os.path.join(b, name), "rb").read())

    def test_fig2_grid(self, capsys, tmp_path):
        out_dir = str(tmp_path / "f2")
        code, _ = run(capsys, "figure", "--which", "fig2", "--out", out_dir)
        assert code == 0
        lines = open(os.path.join(out_dir, "fig2_naudts.csv")).read().splitlines()
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
