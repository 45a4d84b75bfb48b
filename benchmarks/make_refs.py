"""Regenerate the benchmark's reference data from the current source tree.

    python3 benchmarks/make_refs.py [--only grid|cli]

Writes two files under benchmarks/data/:

- grid_cells.json.gz: for each cell centre of a 240 x 600 lattice on fig2's
  rectangle (c in [0.2, 1.4], d in [-1, 2]), whether cd_family(c, d)
  builds and the grid op passes at a fixed p, q ("0"), cd_family raises a
  PhigeoError ("1") or anything else ("2"), or it builds but the op raises
  or fails its check ("3").
- cli_refs.json.gz: a pool of argv lists for the cli workload, drawn with a
  fixed generation seed, each with the output the source produced for it.

The files record the source they came from.  They are made once, at the
commit that defines the benchmark; regenerating them changes the
benchmark and never belongs in a change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import gzip
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import phigeo as pg  # noqa: E402
import phigeo.cli  # noqa: E402
from workloads import (CLI_FILE, DATA, GRID_FILE, check_grid,  # noqa: E402
                       grid_outputs, make_family, parse_verify,
                       random_interior)

GEN_SEED = 20181224
NC, ND = 240, 600
C_RANGE, D_RANGE = (0.2, 1.4), (-1.0, 2.0)
GRID_P, GRID_Q = pg.ProbVec([0.3, 0.7]), pg.ProbVec([0.6, 0.4])
X_WHATS = ("log", "exp", "phi")
P_WHATS = ("escort", "h", "entropy-n", "entropy-a", "divergence-n",
           "divergence-a", "metric-n", "metric-a")
EVAL_SIZES = (2, 3, 50)
SUITES = ("roundtrip", "metrics-fd", "t-operator", "conformal", "ts-duality",
          "cr-bound", "identities")


def source_info():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "phigeo", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def write_gz(path, obj):
    os.makedirs(DATA, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=9) as fh:
        json.dump(obj, fh, separators=(",", ":"))


def grid_cells():
    rows = []
    counts = {"0": 0, "1": 0, "2": 0, "3": 0}
    for i in range(NC):
        c = C_RANGE[0] + (i + 0.5) * (C_RANGE[1] - C_RANGE[0]) / NC
        row = []
        for j in range(ND):
            d = D_RANGE[0] + (j + 0.5) * (D_RANGE[1] - D_RANGE[0]) / ND
            try:
                pg.cd_family(c, d)
                state = "0"
            except pg.PhigeoError:
                state = "1"
            except Exception:  # recorded as a seed defect, see NOTES.md
                state = "2"
            if state == "0":
                try:
                    out = grid_outputs(c, d, GRID_P, GRID_Q)
                    if check_grid(c, d, GRID_P, GRID_Q, out, "") is not None:
                        state = "3"
                except Exception:  # accepted, but unusable: a seed defect
                    state = "3"
            counts[state] += 1
            row.append(state)
        rows.append("".join(row))
    return {"c_range": C_RANGE, "d_range": D_RANGE, "nc": NC, "nd": ND,
            "rows": rows, "counts": counts, "source": source_info()}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = phigeo.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def draw_family(rng):
    """A family spec and its argv flags, with parameters in the ranges the
    constructors accept."""
    kind = ("shannon", "tsallis", "stretched", "cd")[int(rng.integers(4))]
    if kind == "shannon":
        return {"family": "shannon"}, ["--family", "shannon"]
    if kind == "tsallis":
        q = float(rng.uniform(0.3, 2.5))
        if abs(q - 1.0) < 0.05:
            q += 0.1
        return {"family": kind, "q": q}, ["--family", kind, "--q", repr(q)]
    if kind == "stretched":
        eta = float(rng.uniform(0.5, 3.0))
        if abs(eta - 1.0) < 0.05:
            eta += 0.1
        return {"family": kind, "eta": eta}, ["--family", kind, "--eta", repr(eta)]
    while True:
        c, d = float(rng.uniform(0.3, 0.95)), float(rng.uniform(-0.8, 1.8))
        try:
            pg.cd_family(c, d)
        except pg.PhigeoError:
            continue
        return ({"family": kind, "c": c, "d": d},
                ["--family", kind, "--c", repr(c), "--d", repr(d)])


def fmt_p(p):
    return ",".join(repr(float(v)) for v in p.probs)


def eval_candidate(rng, what):
    spec, fam_args = draw_family(rng)
    d = make_family(spec)
    argv = ["eval"] + fam_args + ["--what", what]
    if what in X_WHATS:
        hi = min(10.0, 0.9 * d.x_upper)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(hi)))
        if what == "exp":
            x = d.log(x)
        return argv + ["--x", repr(x)]
    return argv


def eval_entries(rng, dropped):
    entries = []
    for what in X_WHATS:
        for k in range(3):
            entries += pool_slot(rng, f"{what}/{k}", 8,
                                 lambda: eval_candidate(rng, what), dropped)
    for what in P_WHATS:
        for n in EVAL_SIZES:
            def cand(what=what, n=n):
                argv = eval_candidate(rng, what) + ["--p", fmt_p(random_interior(rng, n))]
                if what.startswith("divergence"):
                    argv += ["--p2", fmt_p(random_interior(rng, n))]
                return argv
            variants = 4 if (n == 50 and what.startswith("metric")) else 8
            entries += pool_slot(rng, f"{what}/n{n}", variants, cand, dropped)
    return entries


def pool_slot(rng, slot, variants, candidate, dropped):
    """Draw candidates until `variants` of them exit 0; a nonzero exit here
    is an argument outside the family's domain and is listed in `dropped`."""
    out = []
    while len(out) < variants:
        argv = candidate()
        code, stdout, stderr = run_cli(argv)
        if code != 0:
            dropped.append({"argv": argv, "exit": code,
                            "stderr": stderr.strip()[:160]})
            continue
        out.append({"group": "eval", "slot": slot, "argv": argv,
                    "stdout": json.loads(stdout)})
    return out


def table2_entries(rng, dropped):
    entries = []
    for k in range(32):
        q = 2.0 if k % 8 == 0 else float(rng.uniform(0.3, 2.5))
        eta = float(rng.uniform(0.5, 3.0))
        x = float(rng.uniform(0.05, 3.0))
        if abs(q - 1.0) < 0.05 or abs(eta - 1.0) < 0.05 or abs(x - 1.0) < 0.05:
            continue
        argv = ["table2", "--q", repr(q), "--eta", repr(eta), "--x", repr(x),
                "--p", fmt_p(random_interior(rng, 2 + k % 2))]
        code, stdout, stderr = run_cli(argv)
        if code != 0:
            dropped.append({"argv": argv, "exit": code,
                            "stderr": stderr.strip()[:160]})
            continue
        entries.append({"group": "table2", "argv": argv,
                        "stdout": json.loads(stdout)})
    return entries


def fit_entries(rng, tmpdir):
    """Small fits kept whatever their exit code at this commit: a failure
    here is a program failure the benchmark counts."""
    entries = []
    for k in range(32):
        spec, fam_args = draw_family(rng)
        n = 3 + k % 4
        E = rng.standard_normal((n, 1))
        targets = E.T @ rng.dirichlet(np.full(n, 2.0))
        config = {"E": E.tolist(), "targets": targets.tolist()}
        constraints = ("linear", "escort")[k % 2]
        path = os.path.join(tmpdir, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = ["fit"] + fam_args + ["--constraints", constraints, "--config"]
        code, _, stderr = run_cli(argv + [path])
        entries.append({"group": "fit", "argv": argv + ["{CONFIG}"],
                        "config": config, "family": spec,
                        "constraints": constraints, "seed_exit": code,
                        "seed_stderr": stderr.strip()[:160]})
    return entries


def verify_entries():
    entries = []
    for suite in SUITES:
        for seed in range(4):
            argv = ["verify", "--suite", suite, "--seed", str(seed)]
            code, stdout, _ = run_cli(argv)
            checks = parse_verify(stdout)
            entries.append({"group": "verify", "argv": argv,
                            "checks": sorted(checks), "seed_exit": code,
                            "seed_all_pass": all(v == "PASS"
                                                 for v in checks.values())})
    return entries


def figure_entries(tmpdir):
    entries = []
    for which in ("fig1", "fig2"):
        argv = ["figure", "--which", which, "--out", tmpdir]
        before = set(os.listdir(tmpdir))
        code, _, _ = run_cli(argv)
        if code != 0:
            raise SystemExit(f"figure {which} exited {code}")
        files = {}
        for name in sorted(set(os.listdir(tmpdir)) - before):
            with open(os.path.join(tmpdir, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        entries.append({"group": "figure",
                        "argv": ["figure", "--which", which, "--out", "{OUT}"],
                        "files": files})
    return entries


def main():
    ap = argparse.ArgumentParser(description="Regenerate reference data.")
    ap.add_argument("--only", choices=["grid", "cli"])
    args = ap.parse_args()
    warnings.simplefilter("ignore")
    if args.only != "cli":
        grid = grid_cells()
        write_gz(GRID_FILE, grid)
        print("grid cells:", grid["counts"])
    if args.only != "grid":
        cli_refs()


def cli_refs():
    rng = np.random.default_rng(GEN_SEED)
    dropped = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        fig_dir = os.path.join(tmp, "fig")
        os.makedirs(fig_dir)
        entries = (eval_entries(rng, dropped) + table2_entries(rng, dropped)
                   + fit_entries(rng, tmp) + verify_entries()
                   + figure_entries(fig_dir))
    write_gz(CLI_FILE, {"entries": entries, "dropped": dropped,
                        "source": source_info()})
    groups = {}
    for e in entries:
        groups[e["group"]] = groups.get(e["group"], 0) + 1
    print("cli pool:", groups)
    print("fit entries failing at this commit:",
          [(e["family"], len(e["config"]["E"]), e["seed_exit"], e["seed_stderr"])
           for e in entries if e["group"] == "fit" and e["seed_exit"] != 0])
    print("verify entries not all PASS:",
          [e["argv"] for e in entries
           if e["group"] == "verify" and not e["seed_all_pass"]])
    print(f"dropped candidates (argument outside the domain): {len(dropped)}")
    for item in dropped:
        print("  ", item["exit"], " ".join(item["argv"][:8]), "|", item["stderr"])


if __name__ == "__main__":
    main()
