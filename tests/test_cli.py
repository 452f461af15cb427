import io
import json

import numpy as np
import pytest

import riglab.experiments as experiments
from riglab.cli import main
from riglab.degree import DegreePmf, rig_pmf
from riglab.experiments import records_from_csv
from riglab.model import read_bipartite
from test_experiments import _dying_task


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "rho", "--beta", "1", "--gamma", "2",
                               "--bogus", "3")
        assert code == 1
        assert "usage" in err

    def test_help_exits_zero(self, capsys):
        for sub in ("generate", "degree", "rho", "tails", "branching",
                    "trial", "sweep", "summarize"):
            assert run_cli(capsys, sub, "--help")[0] == 0

    def test_params_echoed_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "rho", "--beta", "1", "--gamma", "2")
        assert code == 0
        assert "# rho:" in err and "beta=1.0" in err and "gamma=2.0" in err
        assert "beta" not in out.split("rho")[0]  # results stay clean


class TestRho:
    def test_supercritical(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--beta", "1", "--gamma", "2")
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        assert float(vals["rho"]) == pytest.approx(0.20318786997997, abs=1e-9)
        assert vals["regime"] == "supercritical"
        assert float(vals["residual"]) <= 1e-12

    def test_subcritical(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--beta", "1", "--gamma", "0.9")
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        assert float(vals["rho"]) == 1.0
        assert vals["regime"] == "subcritical"

    def test_alpha_rejected(self, capsys):
        code, _, err = run_cli(capsys, "rho", "--beta", "1", "--gamma", "2",
                               "--alpha", "2")
        assert code == 1
        assert "alpha" in err


class TestGenerate:
    def test_dump_parses_back(self, capsys, tmp_path):
        out_path = tmp_path / "b.txt"
        code, _, _ = run_cli(capsys, "generate", "--n", "40", "--beta", "1",
                             "--gamma", "1.5", "--seed", "5", "--out", str(out_path))
        assert code == 0
        with open(out_path) as f:
            b = read_bipartite(f)
        assert b.n == 40 and b.m == 40
        b.validate()

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "generate", "--n", "30", "--beta", "1",
                             "--gamma", "1", "--seed", "9")
        _, out2, _ = run_cli(capsys, "generate", "--n", "30", "--beta", "1",
                             "--gamma", "1", "--seed", "9")
        assert out1 == out2

    def test_alpha_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "30", "--beta", "1",
                               "--gamma", "1", "--alpha", "2", "--seed", "1")
        assert code == 0

    def test_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RIGLAB_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "generate", "--n", "10", "--beta", "1",
                             "--gamma", "1", "--seed", "1", "--out", "sub/b.txt")
        assert code == 0
        assert (tmp_path / "sub" / "b.txt").exists()


class TestDegree:
    def test_exact_csv(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "30", "--beta", "1",
                               "--gamma", "1")
        assert code == 0
        pmf = DegreePmf.read_csv(io.StringIO(out))
        ref = rig_pmf(30, 30, 1 / 30)
        assert np.allclose(pmf.probs, ref.probs)

    def test_limit_csv(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "100", "--beta", "1",
                               "--gamma", "1", "--source", "limit")
        assert code == 0
        pmf = DegreePmf.read_csv(io.StringIO(out))
        assert abs(pmf.mean() - 1.0) < 1e-6

    def test_empirical(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "50", "--beta", "1",
                               "--gamma", "1", "--source", "empirical",
                               "--samples", "5000", "--seed", "3")
        assert code == 0
        pmf = DegreePmf.read_csv(io.StringIO(out))
        assert abs(pmf.probs.sum() + pmf.tail - 1.0) < 1e-10

    def test_exact_too_large_fails_validation(self, capsys):
        code, _, err = run_cli(capsys, "degree", "--n", "5000", "--beta", "1",
                               "--gamma", "1")
        assert code == 1
        assert "empirical" in err


class TestTails:
    def test_both_directions(self, capsys):
        code, out, _ = run_cli(capsys, "tails", "--n", "1000", "--beta", "1",
                               "--gamma", "1", "--k", "50", "--delta", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("upper bound ") and lines[1].startswith("lower bound ")
        for line in lines:
            assert 0.0 < float(line.split()[2]) <= 1.0

    def test_delta_validation(self, capsys):
        code, _, _ = run_cli(capsys, "tails", "--n", "100", "--beta", "1",
                             "--gamma", "1", "--k", "5", "--delta", "-1")
        assert code == 1


class TestBranching:
    def test_cpoisson(self, capsys):
        code, out, _ = run_cli(capsys, "branching", "--beta", "1", "--gamma", "2",
                               "--reps", "2000", "--cap", "5000", "--seed", "1")
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        est, se = float(vals["extinction_estimate"]), float(vals["std_error"])
        assert abs(est - float(vals["fixed_point_rho"])) < 3 * se

    def test_rig_requires_n(self, capsys):
        code, _, err = run_cli(capsys, "branching", "--beta", "1", "--gamma", "2",
                               "--offspring", "rig", "--reps", "10", "--cap", "100")
        assert code == 1
        assert "--n" in err


class TestTrialSweepSummarize:
    def test_trial_csv(self, capsys):
        code, out, _ = run_cli(capsys, "trial", "--n", "200", "--beta", "1",
                               "--gamma", "2", "--seed", "4")
        assert code == 0
        recs = records_from_csv(io.StringIO(out))
        assert len(recs) == 1 and recs[0].n == 200

    def test_sweep_and_summarize(self, capsys, tmp_path):
        config = {"grid": [[150, 1.0, 2.0], [150, 1.0, 0.5]],
                  "replicates": 2, "master_seed": 11}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"

        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                               "--out", str(out_path), "--workers", "1")
        assert code == 0
        assert "master_seed=11" in err
        first = out_path.read_bytes()
        with open(out_path) as f:
            assert len(records_from_csv(f)) == 4

        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path),
                             "--out", str(out_path), "--workers", "1")
        assert code == 0
        assert out_path.read_bytes() == first

        code, out, _ = run_cli(capsys, "summarize", "--records", str(out_path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,beta,gamma,mu,replicates")

    def test_sweep_seed_override(self, capsys, tmp_path):
        config = {"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": 1}
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps(config))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(a))
        run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(b),
                "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    def test_sweep_invalid_config_exits_one(self, capsys, tmp_path):
        # gamma too large for n: p > 1 must be rejected up front
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"grid": [[4, 1.0, 9.0]],
                                        "replicates": 1, "master_seed": 1}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1
        assert "exceeds 1" in err

    def test_trial_over_pair_budget_exits_one(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled despite the pair budget")

        monkeypatch.setattr(experiments, "sample_bipartite", no_sampling)
        code, out, err = run_cli(capsys, "trial", "--n", "100000", "--beta", "1",
                                 "--gamma", "1", "--alpha", "0")
        assert code == 1
        assert "pair keys" in err and out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_below_one_exits_one(self, capsys, tmp_path, workers):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"grid": [[100, 1.0, 1.0]],
                                        "replicates": 1, "master_seed": 1}))
        out_path = tmp_path / "kept.csv"
        out_path.write_text("kept\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                                 "--out", str(out_path), "--workers", workers)
        assert code == 1
        assert "workers" in err and out == ""
        assert out_path.read_text() == "kept\n"

    def test_sweep_worker_crash_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_trial_task", _dying_task)
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"grid": [[50, 1.0, 1.0]],
                                        "replicates": 4, "master_seed": 3}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                                 "--workers", "2")
        assert code == 2
        records = records_from_csv(io.StringIO(out))
        lost = err.count("worker process died")
        assert lost >= 1 and len(records) + lost == 4
        assert f"{len(records)} records, {lost} failures" in err

    @pytest.mark.parametrize("row", ["1000,1.0",
                                     "100,1.0,2.0,4.0,0,seven,60,5,0.35,1,3.9,"])
    def test_summarize_malformed_exits_one(self, capsys, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(",".join(experiments.RECORD_FIELDS) + "\n" + row + "\n")
        code, _, err = run_cli(capsys, "summarize", "--records", str(path))
        assert code == 1
        assert "line 2" in err

    def test_sweep_json_format(self, capsys, tmp_path):
        config = {"grid": [[100, 1.0, 1.0]], "replicates": 2, "master_seed": 5,
                  "format": "json"}
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path),
                             "--out", str(out_path))
        assert code == 0
        docs = json.loads(out_path.read_text())
        assert len(docs) == 2 and docs[0]["n"] == 100
