import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

import riglab.cli as cli
import riglab.experiments as experiments
from riglab.cli import main
from riglab.degree import rig_pmf
from riglab.experiments import SweepConfig, records_from_csv
from test_experiments import _dying_task

import oracle


# sweep config documents that must be refused, each with a part of its message
MALFORMED_CONFIGS = [
    ({"grid": [[100, 1.0, float("nan")]], "replicates": 1, "master_seed": 1},
     "finite"),
    ({"grid": [[100, 1.0, "nan"]], "replicates": 1, "master_seed": 1}, "finite"),
    ({"replicates": 1, "master_seed": 1}, "'grid' is missing"),
    ({"grid": {"100": [1.0, 1.0]}, "replicates": 1, "master_seed": 1}, "'grid'"),
    ({"grid": [[100, 1.0]], "replicates": 1, "master_seed": 1}, "'grid'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": "two", "master_seed": 1},
     "'replicates'"),
    ([[100, 1.0, 1.0]], "JSON object"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": 1, "output": 5},
     "output"),
    ({"grid": [[100.7, 1.0, 1.0]], "replicates": 1, "master_seed": 1}, "100.7"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 2.9, "master_seed": 1},
     "'replicates'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": True, "master_seed": 1},
     "'replicates'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": "7"},
     "'master_seed'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": -1},
     "'master_seed'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": 1,
      "small_threshold_coef": 9}, "small_threshold_coef'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": 1,
      "small_threshold_coeff": float("nan")}, "small_threshold_coeff"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": 1,
      "small_threshold_coeff": True}, "'small_threshold_coeff'"),
    ({"grid": [[100, 1.0, 1.0]], "replicates": 1, "master_seed": 1,
      "small_threshold_coeff": "3"}, "'small_threshold_coeff'"),
    ({"grid": [[100, True, 1.0]], "replicates": 1, "master_seed": 1}, "'grid'"),
    ({"grid": [[100, 1.0, "1"]], "replicates": 1, "master_seed": 1}, "'grid'"),
    ({"grid": [[True, 1.0, 1.0]], "replicates": 1, "master_seed": 1}, "True"),
    ({"grid": [], "replicates": 1, "master_seed": 1}, "'grid'"),
    ({"grid": [[1000000, 10000, 0.01]], "replicates": 1, "master_seed": 1},
     "1.01e+10 bipartite offsets and members"),
    ({"grid": [[10000000000, 1e-10, 1.0]], "replicates": 1, "master_seed": 1},
     "n=10000000000 vertices"),
    ({"grid": [[10, 1e308, 1.0]], "replicates": 1, "master_seed": 1},
     "beta * n overflows"),
]


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

    def test_near_critical_error_bound(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--beta", "1.0001", "--gamma", "1")
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        # brentq: 0.99990000667
        assert float(vals["rho"]) == pytest.approx(0.99990000667, abs=1e-11)
        assert 0.0 < float(vals["error_bound"]) <= 1e-13

    def test_root_within_an_ulp_of_one(self, capsys):
        # beta*gamma = 1e-140: the root 1 - 1e-140 rounds to 1
        code, out, _ = run_cli(capsys, "rho", "--beta", "1e-300", "--gamma", "1e160")
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        assert float(vals["rho"]) == 1.0 - 2.0 ** -53
        assert float(vals["error_bound"]) == 2.0 ** -53

    def test_mu_is_the_records_mu(self, capsys):
        # beta * gamma ** 2 is exactly 1 here, (beta * gamma) * gamma is not
        beta, gamma = "0.4720737768284195", "1.4554425309821815"
        code, out, _ = run_cli(capsys, "rho", "--beta", beta, "--gamma", gamma)
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        assert (vals["mu"], vals["rho"], vals["regime"]) == ("1.0", "1.0", "critical")
        code, out, _ = run_cli(capsys, "trial", "--n", "1000", "--beta", beta,
                               "--gamma", gamma)
        assert records_from_csv(io.StringIO(out))[0].mu == 1.0

    @pytest.mark.parametrize("beta,gamma", [("1", "nan"), ("inf", "1"),
                                            ("nan", "1"), ("1", "-inf")])
    def test_non_finite_exits_one(self, capsys, beta, gamma):
        code, out, err = run_cli(capsys, "rho", f"--beta={beta}", f"--gamma={gamma}")
        assert code == 1
        assert "finite" in err and out == ""

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
        b = oracle.read_dump(out_path.read_text())
        assert b.n == 40 and b.m == 40

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
        pmf = oracle.read_degree_csv(out)
        ref = rig_pmf(30, 30, 1 / 30)
        assert np.allclose(pmf.probs, ref.probs)

    def test_limit_csv(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "100", "--beta", "1",
                               "--gamma", "1", "--source", "limit")
        assert code == 0
        pmf = oracle.read_degree_csv(out)
        assert abs(pmf.mean() - 1.0) < 1e-6

    def test_empirical(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "50", "--beta", "1",
                               "--gamma", "1", "--source", "empirical",
                               "--samples", "5000", "--seed", "3")
        assert code == 0
        pmf = oracle.read_degree_csv(out)
        assert abs(pmf.probs.sum() + pmf.tail - 1.0) < 1e-10

    def test_exact_large_n(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "5000", "--beta", "1",
                               "--gamma", "1")
        assert code == 0
        keys = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert keys == [str(k) for k in range(5000)] + ["tail"]
        pmf = oracle.read_degree_csv(out)
        assert abs(pmf.mean() - 1.0) < 1e-3

    def test_limit_over_budget_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "degree", "--n", "10", "--beta", "1e5",
                                 "--gamma", "1", "--source", "limit")
        assert code == 1
        assert out == ""
        assert "budget" in err

    def test_exact_over_budget_fails_validation(self, capsys):
        code, out, err = run_cli(capsys, "degree", "--n", "1000000", "--beta",
                                 "100000", "--gamma", "1", "--alpha", "0")
        assert code == 1
        assert out == ""
        assert "budget" in err


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

    def test_nan_delta_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "tails", "--n", "1000", "--beta", "1",
                                 "--gamma", "1", "--k", "10", "--delta", "nan",
                                 "--direction", "upper")
        assert code == 1
        assert "finite" in err and "nan" in err and out == ""


class TestBranching:
    def test_cpoisson(self, capsys):
        code, out, _ = run_cli(capsys, "branching", "--beta", "1", "--gamma", "2",
                               "--reps", "2000", "--cap", "5000", "--seed", "1")
        assert code == 0
        vals = dict(line.split() for line in out.splitlines())
        est, se = float(vals["extinction_estimate"]), float(vals["std_error"])
        assert abs(est - float(vals["fixed_point_rho"])) < 3 * se

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_exits_one(self, capsys, beta):
        code, out, err = run_cli(capsys, "branching", "--beta", beta, "--gamma", "1",
                                 "--reps", "10")
        assert code == 1
        assert "finite" in err and out == ""

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

    @pytest.mark.parametrize("doc,message", MALFORMED_CONFIGS)
    def test_sweep_malformed_config_exits_one(self, capsys, tmp_path, doc, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                                 "--workers", "1")
        assert code == 1
        assert message in err and out == ""

    @pytest.mark.parametrize("doc,message", [c for c in MALFORMED_CONFIGS
                                             if isinstance(c[0], dict)])
    def test_malformed_config_refused_in_python(self, doc, message):
        # a config built in Python gets the checks of --config; a missing or
        # unknown field is refused by the dataclass signature itself
        names = {f.name for f in dataclasses.fields(SweepConfig)}
        signature_error = "grid" not in doc or not set(doc) <= names
        with pytest.raises(TypeError if signature_error else ValueError) as info:
            SweepConfig(**doc)
        assert message.removesuffix(" is missing") in str(info.value)

    @pytest.mark.parametrize("command,flag", [("sweep", "--config"),
                                              ("summarize", "--records")])
    def test_unreadable_input_exits_one(self, capsys, tmp_path, command, flag):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, command, flag, str(missing))
        assert code == 1
        assert f"cannot read {missing}" in err and out == ""

    def test_sweep_negative_seed_exits_one(self, capsys, tmp_path):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"grid": [[100, 1.0, 1.0]],
                                        "replicates": 1, "master_seed": 1}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                                 "--workers", "1", "--seed", "-1")
        assert code == 1
        assert "'master_seed'" in err and "-1" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("trial", "--n", "100", "--beta", "1", "--gamma", "1"),
        ("generate", "--n", "100", "--beta", "1", "--gamma", "1"),
        ("branching", "--beta", "1", "--gamma", "1", "--reps", "10"),
        ("degree", "--n", "100", "--beta", "1", "--gamma", "1",
         "--source", "empirical"),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 1 and out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: master_seed") and "-1" in last

    @pytest.mark.parametrize("size,argv", [
        ("1.01e+10 bipartite offsets and members",
         ("trial", "--n", "1000000", "--beta", "10000", "--gamma", "0.01")),
        ("1e+11 bipartite offsets and members",
         ("generate", "--n", "1000000", "--beta", "1", "--gamma", "100000")),
        ("5e+08 pair keys", ("degree", "--n", "100000", "--beta", "1",
                             "--gamma", "100", "--source", "empirical")),
        ("n=10000000000 vertices",
         ("trial", "--n", "10000000000", "--beta", "1e-10", "--gamma", "1")),
        ("n=60000000 vertices", ("degree", "--n", "60000000", "--beta", "1e-7",
                                 "--gamma", "1", "--source", "empirical")),
        # m = 100 lists of about ten members, but keys k*n + x past 2**63
        ("m*n > 2**63", ("generate", "--n", "100000000000000000", "--beta", "1e-15",
                         "--gamma", "10")),
    ], ids=["trial", "generate", "degree", "trial-vertices", "degree-vertices",
            "generate-keys"])
    def test_oversized_exits_one_before_sampling(self, capsys, monkeypatch,
                                                 size, argv):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"sampled ({name}) despite the size budgets")

        monkeypatch.setattr(cli, "trial_stream", lambda *key: (0, NoDraws()))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert size in err

    def test_sweep_unwritable_out_exits_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"grid": [[50, 1.0, 1.0]],
                                        "replicates": 1, "master_seed": 1}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                               "--workers", "1", "--out", str(blocker / "r.csv"))
        assert code == 2
        assert "runtime failure" in err

    def test_trial_non_finite_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "trial", "--n", "10", "--beta", "inf",
                                 "--gamma", "1")
        assert code == 1
        assert "finite" in err and out == ""

    def test_trial_over_pair_budget_exits_one(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled despite the pair budget")

        monkeypatch.setattr(experiments, "sample_bipartite", no_sampling)
        code, out, err = run_cli(capsys, "trial", "--n", "100000", "--beta", "1",
                                 "--gamma", "1", "--alpha", "0")
        assert code == 1
        assert "pair keys" in err and out == ""

    @pytest.mark.parametrize("coeff", ["inf", "nan", "-5"])
    def test_trial_bad_threshold_coeff_exits_one(self, capsys, monkeypatch, coeff):
        def no_sampling(*args):
            raise AssertionError("sampled despite a bad coefficient")

        monkeypatch.setattr(experiments, "sample_bipartite", no_sampling)
        code, out, err = run_cli(capsys, "trial", "--n", "10000", "--beta", "1",
                                 "--gamma", "2", "--threshold-coeff", coeff)
        assert code == 1
        assert "small_threshold_coeff" in err and coeff in err and out == ""

    def test_trial_huge_threshold_coeff(self, capsys):
        # ceil(coeff * ln n) overflowed after sampling and exited 2; the
        # threshold is clamped to n, which no component exceeds
        code, out, _ = run_cli(capsys, "trial", "--n", "10", "--beta", "1", "--gamma", "1",
                               "--threshold-coeff", "1e308")
        assert code == 0
        assert records_from_csv(io.StringIO(out))[0].small_fraction == 1.0

    def test_sweep_huge_threshold_coeff(self, capsys, tmp_path):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"grid": [[100, 1.0, 1.0]], "replicates": 2,
                                        "master_seed": 1, "small_threshold_coeff": 1e308}))
        out_path = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path),
                             "--out", str(out_path), "--workers", "1")
        assert code == 0
        with open(out_path) as f:
            assert [r.small_fraction for r in records_from_csv(f)] == [1.0, 1.0]

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
                                     "100,1.0,2.0,4.0,0,seven,60,5,0.35,1,3.9,",
                                     "0,1.0,2.0,4.0,0,7,1,0,0.35,1,3.9,",
                                     "-5,1.0,2.0,4.0,0,7,1,0,0.35,1,3.9,",
                                     "100,1.0,2.0,4.0,0,7,500,5,0.35,1,3.9,",
                                     "100,1.0,2.0,4.0,0,7,60,5,nan,1,3.9,",
                                     "100,1.0,2.0,0.5,0,7,60,5,0.35,1,-3.9,",
                                     "100,1.0,2.0,4.0,-3,-1,60,5,0.35,1,3.9,-5",
                                     "100,1.0,1e200,4.0,0,7,60,5,0.35,1,3.9,"])
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


class TestOverflowRefused:
    # each of these ended in an OverflowError, exit 2, before it was checked
    @pytest.mark.parametrize("message,argv", [
        ("beta * n overflows", ("trial", "--n", "10", "--beta", "1e308", "--gamma", "1")),
        ("beta * n overflows", ("generate", "--n", "10", "--beta", "1e308", "--gamma", "1")),
        ("beta * n overflows", ("degree", "--n", "10", "--beta", "1e308", "--gamma", "1")),
        ("beta * n overflows", ("tails", "--n", "10", "--beta", "1e308", "--gamma", "1",
                                "--k", "3", "--delta", "0.1")),
        ("n must be at most", ("trial", "--n", "1" + "0" * 400, "--beta", "1",
                               "--gamma", "1")),
        ("mu = beta * gamma ** 2 overflows", ("trial", "--n", "10", "--beta", "1",
                                              "--gamma", "1e200", "--alpha", "400")),
        ("mu = beta * gamma ** 2 overflows", ("rho", "--beta", "1", "--gamma", "1e200")),
        ("int64 binomial draws of --offspring rig (n=1" + "0" * 300 + ",",
         ("branching", "--offspring", "rig", "--n", "1" + "0" * 300, "--beta", "1e-300",
          "--gamma", "1", "--reps", "3")),
    ], ids=["trial", "generate", "degree", "tails", "trial-n", "trial-mu", "rho-mu",
            "branching-rig-n"])
    def test_exits_one(self, capsys, message, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("error: ") and message in err


# SHA-256 of stdout, frozen before the graph types lost their test-only
# methods; the generate dump has 11 heavy and 31 repaired lists
PINNED_STDOUT = {
    "generate": (("generate", "--n", "20", "--beta", "3", "--gamma", "8"),
                 "1b7618f0bdf8093103ce6911eb25f3e90f59b59e4a95e600582537b076243c05"),
    "degree-exact": (("degree", "--n", "30", "--beta", "1", "--gamma", "2"),
                     "db9212bfcce3478692ff0180d669fffba7d748e43807a3748b140af89323f222"),
    "degree-limit": (("degree", "--n", "30", "--beta", "1", "--gamma", "2",
                      "--source", "limit"),
                     "ec05d4bd259a31bae4f52191142e68f8340bbd73fbf490c045115d94c5410726"),
    "degree-empirical": (("degree", "--n", "50", "--beta", "1", "--gamma", "2",
                          "--source", "empirical", "--samples", "2000", "--seed", "3"),
                         "d0c8349a1c14dfef1b21d992e90e02e6b649928ec46fe0cd42e597ba58d0083e"),
    "trial": (("trial", "--n", "100000", "--beta", "1", "--gamma", "2"),
              "0f44a58311c1f32d9d386ff3fad773707545c7969ad746af223255d7aa9884d6"),
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, name):
    argv, digest = PINNED_STDOUT[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
