"""Smoke tests for scripts/*.py: each runs at a tiny size, exits 0 and writes
its CSV header, so that a script importing a deleted public name fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_phase_transition(tmp_path):
    records, summary = tmp_path / "records.csv", tmp_path / "summary.csv"
    run_script("phase_transition.py", "--n", "2000", "--gammas", "0.5", "2",
               "--replicates", "1", "--out", str(records),
               "--summary-out", str(summary), cwd=tmp_path)
    lines = records.read_text().splitlines()
    assert lines[0] == ("n,beta,gamma,mu,replicate,seed,largest,second,"
                        "small_fraction,eta,degree_mean,elapsed_ms")
    assert len(lines) == 3
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("n,beta,gamma,mu,replicates,largest_frac_mean")
    assert len(lines) == 3


def test_degree_convergence(tmp_path):
    lines = run_script("degree_convergence.py", "--ns", "100", "1000",
                       cwd=tmp_path).splitlines()
    assert lines[0] == "n,tv,n_tv"
    assert [line.split(",")[0] for line in lines[1:]] == ["100", "1000"]


def test_tail_bounds(tmp_path):
    lines = run_script("tail_bounds.py", "--n", "1000", "--k", "10", "--reps", "200",
                       cwd=tmp_path).splitlines()
    assert lines[0] == "delta,direction,bound,rate_per_step,s_opt,empirical_freq"
    assert len(lines) > 1
