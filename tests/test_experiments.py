import dataclasses
import hashlib
import io
import json
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest

import riglab.experiments as experiments
import riglab.model as model
from riglab.experiments import (ExperimentRecord, SweepConfig, records_from_csv,
                                records_to_csv, rows_to_json, run_sweep,
                                run_trial, summarize, summary_to_csv,
                                trial_stream)
from riglab.model import derive_params, sample_bipartite

_real_trial_task = experiments._trial_task
_real_run_trial = experiments.run_trial


def _dying_task(args):
    # module level, so that the pool can pickle it by reference
    if args[2] == 1:  # replicate
        os._exit(1)
    return _real_trial_task(args)


def _failing_run_trial(params, rng, **kwargs):
    # module level and deterministic, so that forked workers fail alike
    if kwargs["replicate"] == 1:
        raise RuntimeError("injected")
    return _real_run_trial(params, rng, **kwargs)


class _RecordingPool:
    """Executor stand-in: records max_workers and runs tasks in-process."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def small_config(**overrides):
    kwargs = dict(grid=((200, 1.0, 2.0), (200, 1.0, 0.5)), replicates=3,
                  master_seed=42)
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def sweep_csv(config, workers=1):
    buf = io.StringIO()
    run_sweep(config, workers=workers, sink=buf)
    return buf.getvalue()


class TestTrialStream:
    def test_deterministic(self):
        s1, g1 = trial_stream(7, 0, 0)
        s2, g2 = trial_stream(7, 0, 0)
        assert s1 == s2
        assert g1.integers(0, 10 ** 9) == g2.integers(0, 10 ** 9)

    def test_distinct_streams(self):
        ids = {trial_stream(7, gi, rep)[0] for gi in range(3) for rep in range(4)}
        assert len(ids) == 12


class TestRunTrial:
    def test_empty_graph(self):
        params = derive_params(5, 1.0, 0.0)
        rec = run_trial(params, np.random.default_rng(0))
        assert (rec.largest, rec.second) == (1, 1)
        assert rec.small_fraction == 1.0
        assert rec.eta == 0 and rec.degree_mean == 0.0

    def test_single_vertex(self):
        rec = run_trial(derive_params(1, 1.0, 0.0), np.random.default_rng(0))
        assert (rec.largest, rec.second) == (1, 0)

    def test_single_clique(self):
        # p = 1 with one auxiliary vertex: the whole graph is one clique
        params = derive_params(30, 1.0 / 30.0, 30.0)
        assert params.m == 1 and params.p == 1.0
        rec = run_trial(params, np.random.default_rng(0))
        assert rec.largest == 30 and rec.second == 0

    def test_record_invariants(self):
        params = derive_params(500, 1.0, 2.0)
        for seed in range(5):
            _, g = trial_stream(seed, 0, 0)
            rec = run_trial(params, g)
            assert rec.largest >= rec.second
            assert rec.largest + rec.second <= rec.n
            assert 0.0 <= rec.small_fraction <= 1.0
            assert rec.eta >= 0

    def test_partition_identity(self):
        # threshold >= second-largest makes small_fraction + largest/n == 1
        params = derive_params(2000, 1.0, 2.0)
        threshold = max(1, math.ceil(3.0 * math.log(params.n)))
        for seed in range(5):
            _, g = trial_stream(seed, 0, 0)
            rec = run_trial(params, g)
            assert rec.second <= threshold < rec.largest  # supercritical regime
            assert rec.small_fraction == (rec.n - rec.largest) / rec.n

    def test_timing_convention(self):
        params = derive_params(50, 1.0, 1.0)
        rec = run_trial(params, np.random.default_rng(0))
        assert rec.elapsed_ms is None
        rec = run_trial(params, np.random.default_rng(0), live_timing=True)
        assert rec.elapsed_ms > 0.0


# Values captured from the light/heavy sampler with its per-auxiliary loop:
# sha256 of offsets and members (little-endian int64), the next
# rng.integers(0, 2**62) draw after sampling, and the run_trial record, all on
# trial_stream(7, 0, 0).  Any change to them is a change of the random stream.
GOLDEN_SEED = 16920295385781661272
GOLDEN = [
    # dirty light segments: 4 bulk draws held a duplicate
    ((100_000, 1.0, 2.0, 1.0),
     "171636835106b80803b1533d79ce4383707e1af70baacf5f39efb4543bf18355",
     2804425362917302470, dict(largest=79556, second=12, small_fraction=0.20444,
                               eta=7, degree_mean=3.9835)),
    # heavy segments only
    ((10, 40.0, 9.0, 1.0),
     "8db16c7ce197ec3b0a518031d437aeb6c13fe80f0b103c0e2bb4c90ae817c129",
     4272945185510488661, dict(largest=10, second=0, small_fraction=0.0,
                               eta=14636, degree_mean=9.0)),
    # dirty light segments repaired before heavy ones
    ((10, 3.0, 5.0, 1.0),
     "387e5315998f4c59b907b27d5678145d2bfe4692db93bd53d8f33feefb82d5fd",
     2847315815747494274, dict(largest=10, second=0, small_fraction=0.0,
                               eta=290, degree_mean=9.0)),
    # alpha != 1
    ((1000, 0.5, 1.0, 0.5),
     "a3a198dce3445f5693298f17a6fb1e6a3ae54b1a5f3f48bb4af6a75dc7208d64",
     2161530487585014579, dict(largest=946, second=1, small_fraction=0.054,
                               eta=66, degree_mean=15.314)),
    # p = 0
    ((100, 1.0, 0.0, 1.0),
     "33e15ec51f02d31aedb153489237b7938676d30e5a211a4498ae4910930e1a86",
     2162039049788940267, dict(largest=1, second=1, small_fraction=1.0,
                               eta=0, degree_mean=0.0)),
]


class TestGoldenStream:
    @pytest.mark.parametrize("point,digest,next_draw,observed", GOLDEN,
                             ids=[str(g[0]) for g in GOLDEN])
    def test_pinned_stream(self, point, digest, next_draw, observed):
        params = derive_params(*point)
        _, rng = trial_stream(7, 0, 0)
        b = sample_bipartite(params, rng)
        got = hashlib.sha256(b.offsets.astype("<i8").tobytes()
                             + b.members.astype("<i8").tobytes()).hexdigest()
        assert got == digest
        assert int(rng.integers(0, 2 ** 62)) == next_draw
        seed_id, rng = trial_stream(7, 0, 0)
        assert seed_id == GOLDEN_SEED
        rec = run_trial(params, rng, replicate=0, seed=seed_id)
        assert rec == ExperimentRecord(n=params.n, beta=params.beta,
                                       gamma=params.gamma, mu=params.mu,
                                       replicate=0, seed=GOLDEN_SEED,
                                       elapsed_ms=None, **observed)


class TestPairBudget:
    def test_trial_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled despite the pair budget")

        monkeypatch.setattr(experiments, "sample_bipartite", no_sampling)
        # E[pair keys] = m*C(n,2)*p^2 ~ 5e9
        params = derive_params(100_000, 1.0, 1.0, alpha=0.0)
        with pytest.raises(ValueError, match="pair keys"):
            run_trial(params, np.random.default_rng(0))

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -5.0])
    def test_bad_coefficient_refused_before_sampling(self, monkeypatch, coeff):
        def no_sampling(*args):
            raise AssertionError("sampled despite a bad coefficient")

        monkeypatch.setattr(experiments, "sample_bipartite", no_sampling)
        with pytest.raises(ValueError, match="small_threshold_coeff"):
            run_trial(derive_params(100, 1.0, 1.0), np.random.default_rng(0),
                      small_threshold_coeff=coeff)

    def test_estimate_is_m_choose2_p2(self, monkeypatch):
        # m=100, C(100,2)=4950, p=0.02: 198 expected pair keys, counted with
        # the n=100 vertices
        params = derive_params(100, 1.0, 2.0)
        monkeypatch.setattr(model, "PAIR_KEY_BUDGET", 297)
        with pytest.raises(ValueError, match="pair keys"):
            run_trial(params, np.random.default_rng(0))
        monkeypatch.setattr(model, "PAIR_KEY_BUDGET", 299)
        run_trial(params, np.random.default_rng(0))

    # n = 10^10 and m = 1: half a pair key is expected, and the bipartite
    # graph is 3 entries, but the census would allocate n-sized arrays
    HUGE_N = (10_000_000_000, 1e-10, 1.0)

    def test_vertices_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled despite the vertex count")

        monkeypatch.setattr(experiments, "sample_bipartite", no_sampling)
        monkeypatch.setattr(experiments, "sample_aux_lists", no_sampling)
        params = derive_params(*self.HUGE_N)
        with pytest.raises(ValueError, match="n=10000000000 vertices"):
            run_trial(params, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n=10000000000 vertices"):
            experiments.empirical_degree_pmf(params.m, params.n, params.p,
                                             np.random.default_rng(0), samples=1)
        with pytest.raises(ValueError, match="n=10000000000 vertices"):
            SweepConfig(grid=(self.HUGE_N,), replicates=1, master_seed=1)

    def test_sweep_config_refused(self):
        # alpha = 1: E[pair keys] = mu*n/2 = 6.05e7
        with pytest.raises(ValueError, match="pair keys"):
            SweepConfig(grid=((1_000_000, 1.0, 11.0),), replicates=1, master_seed=1)


class TestRunSweep:
    def test_record_count_and_seeds(self):
        config = SweepConfig(grid=((100, 1.0, 1.0),), replicates=3, master_seed=1)
        result = run_sweep(config)
        assert len(result.records) == 3 and not result.failures
        assert len({r.seed for r in result.records}) == 3
        assert {(r.n, r.beta, r.gamma) for r in result.records} == {(100, 1.0, 1.0)}
        assert [r.replicate for r in result.records] == [0, 1, 2]

    def test_rerun_identical_bytes(self):
        config = small_config()
        assert sweep_csv(config) == sweep_csv(config)

    def test_worker_count_invariance(self):
        config = small_config()
        assert sweep_csv(config, workers=1) == sweep_csv(config, workers=2)

    def test_seed_changes_output(self):
        a = sweep_csv(small_config(master_seed=1))
        b = sweep_csv(small_config(master_seed=2))
        assert a != b

    def test_failure_isolation(self, monkeypatch):
        calls = {"count": 0}
        real = experiments.run_trial

        def flaky(params, rng, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("injected")
            return real(params, rng, **kwargs)

        monkeypatch.setattr(experiments, "run_trial", flaky)
        result = run_sweep(SweepConfig(grid=((50, 1.0, 1.0),), replicates=4,
                                       master_seed=3))
        assert len(result.records) == 3
        assert len(result.failures) == 1
        assert result.failures[0]["replicate"] == 1
        assert "injected" in result.failures[0]["error"]

    def test_failure_identical_across_workers(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_trial", _failing_run_trial)
        config = small_config()  # 2 grid points x 3 replicates
        runs = []
        for workers in (1, 2):
            buf = io.StringIO()
            runs.append((run_sweep(config, workers=workers, sink=buf), buf.getvalue()))
        (serial, serial_csv), (pooled, pooled_csv) = runs
        assert [(f["grid_index"], f["replicate"]) for f in serial.failures] == [(0, 1), (1, 1)]
        assert all(f["error"] == "RuntimeError: injected" for f in serial.failures)
        assert [r.replicate for r in serial.records] == [0, 2, 0, 2]
        assert pooled == serial
        assert pooled_csv == serial_csv

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(small_config(), workers=workers)

    @pytest.mark.parametrize("workers,expected", [(64, 6), (3, 3)])
    def test_workers_clamped_to_tasks(self, monkeypatch, workers, expected):
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
        config = small_config()  # 2 grid points x 3 replicates
        assert sweep_csv(config, workers=workers) == sweep_csv(config)
        assert _RecordingPool.max_workers == [expected]

    def test_worker_crash_accounted(self, monkeypatch):
        monkeypatch.setattr(experiments, "_trial_task", _dying_task)
        config = SweepConfig(grid=((50, 1.0, 1.0),), replicates=4, master_seed=3)
        buf = io.StringIO()
        result = run_sweep(config, workers=2, sink=buf)
        done = [r.replicate for r in result.records]
        lost = [f["replicate"] for f in result.failures]
        assert sorted(done + lost) == [0, 1, 2, 3]
        assert 1 in lost
        assert all(f["grid_index"] == 0 for f in result.failures)
        assert all(f["error"] == "worker process died" for f in result.failures)
        assert done == sorted(done)
        direct = io.StringIO()
        records_to_csv(result.records, direct)
        assert buf.getvalue() == direct.getvalue()

    def test_sink_matches_records(self):
        config = small_config(replicates=2)
        buf = io.StringIO()
        result = run_sweep(config, sink=buf)
        direct = io.StringIO()
        records_to_csv(result.records, direct)
        assert buf.getvalue() == direct.getvalue()


class TestPhaseTransitionShape:
    def test_giant_fraction_tracks_prediction(self):
        # subcritical fraction is negligible; above the transition the mean
        # largest/n rises with mu and tracks 1 - rho
        from riglab.theory import solve_extinction
        n = 100_000
        means = {}
        for gamma in (0.9, 1.2, 1.5, 2.0):
            params = derive_params(n, 1.0, gamma)
            fracs = []
            for rep in range(6):
                _, g = trial_stream(515, int(gamma * 100), rep)
                fracs.append(run_trial(params, g).largest / n)
            means[gamma] = float(np.mean(fracs))
        assert means[0.9] < 0.01
        assert means[0.9] < means[1.2] < means[1.5] < means[2.0]
        for gamma in (1.2, 1.5, 2.0):
            predicted = 1.0 - solve_extinction(1.0, gamma).rho
            assert abs(means[gamma] - predicted) <= 0.015


class TestCriticalWindow:
    # at mu = 1 the largest component lives on the scale n^(2/3) (Aldous,
    # Ann. Probab. 25, 1997), so mean L1/n^(2/3) should not move between
    # n = 1e4 and 1e5; seeds and the z bound were fixed before the first run
    MASTER_SEED = 20261020
    MAX_Z = 3.0

    @pytest.mark.parametrize("index, beta, gamma", [(0, 1.0, 1.0), (1, 0.25, 2.0)])
    def test_largest_scales_as_n_to_two_thirds(self, index, beta, gamma):
        stats = []
        for j, (n, reps) in enumerate(((10_000, 400), (100_000, 100))):
            params = derive_params(n, beta, gamma)
            assert params.mu == 1.0
            scaled = [run_trial(params, trial_stream(self.MASTER_SEED, 2 * index + j, rep)[1])
                      .largest / n ** (2 / 3) for rep in range(reps)]
            stats.append((np.mean(scaled), np.var(scaled, ddof=1) / reps))
        (mean_a, var_a), (mean_b, var_b) = stats
        z = (mean_b - mean_a) / math.sqrt(var_a + var_b)
        assert abs(z) <= self.MAX_Z, f"{mean_a:.3f} vs {mean_b:.3f}, z = {z:.2f}"


class TestSerialization:
    def test_csv_round_trip(self):
        result = run_sweep(small_config(replicates=2))
        buf = io.StringIO()
        records_to_csv(result.records, buf)
        back = records_from_csv(io.StringIO(buf.getvalue()))
        assert tuple(back) == result.records

    def test_csv_header(self):
        out = sweep_csv(small_config(replicates=1))
        assert out.splitlines()[0] == ("n,beta,gamma,mu,replicate,seed,largest,"
                                       "second,small_fraction,eta,degree_mean,"
                                       "elapsed_ms")
        assert "\r" not in out

    def test_elapsed_blank_by_default(self):
        out = sweep_csv(small_config(replicates=1))
        assert all(line.endswith(",") for line in out.splitlines()[1:])

    @pytest.mark.parametrize("row,line", [
        ("1000,1.0", 2),
        ("100,1.0,2.0,4.0,0,7,60,5,0.35,1,3.9,\n100,1.0,2.0,4.0,1,8,sixty,5,0.35,1,3.9,", 3),
    ])
    def test_malformed_row_names_line(self, row, line):
        text = ",".join(experiments.RECORD_FIELDS) + "\n" + row + "\n"
        with pytest.raises(ValueError, match=f"line {line}"):
            records_from_csv(io.StringIO(text))

    # each value, put into an otherwise valid record after a valid row, is
    # refused on line 3
    @pytest.mark.parametrize("field,values", [
        ("n", ["0", "-5"]),
        ("largest", ["0", "101", "500"]),
        ("second", ["-1", "61"]),
        ("eta", ["-1"]),
        ("small_fraction", ["-0.1", "1.5", "nan", "inf"]),
        ("mu", ["0.5", "4.000000000000001", "nan", "inf"]),
        ("degree_mean", ["-3.9", "99.5", "nan"]),
        ("replicate", ["-3"]),
        ("seed", ["-1", str(2 ** 64)]),
        ("elapsed_ms", ["-5", "nan"])])
    def test_impossible_record_names_line(self, field, values):
        good = dict(n="100", beta="1.0", gamma="2.0", mu="4.0", replicate="0", seed="7",
                    largest="60", second="5", small_fraction="0.35", eta="1",
                    degree_mean="3.9", elapsed_ms="")
        header = ",".join(experiments.RECORD_FIELDS) + "\n"
        row = lambda **kw: ",".join({**good, **kw}[f] for f in experiments.RECORD_FIELDS) + "\n"
        assert len(records_from_csv(io.StringIO(header + row()))) == 1
        for value in values:
            with pytest.raises(ValueError, match=f"line 3: {field} must be"):
                records_from_csv(io.StringIO(header + row() + row(**{field: value})))

    def test_record_edges_accepted(self):
        # the extremes a trial can produce: a single vertex, a giant that is
        # the whole graph, second == largest, and small_fraction 0 and 1;
        # gamma > n is a trial at alpha > 1, so it is not refused
        header = ",".join(experiments.RECORD_FIELDS) + "\n"
        rows = ["1,1.0,1.0,1.0,0,7,1,0,1.0,0,0.0,\n",
                "100,1.0,2.0,4.0,0,7,100,0,0.0,0,3.9,\n",
                "100,1.0,2.0,4.0,0,7,3,3,1.0,0,1.0,\n",
                "10,1.0,50.0,2500.0,0,7,10,0,0.0,3,9.0,\n"]
        assert len(records_from_csv(io.StringIO(header + "".join(rows)))) == 4

    def test_json_records(self):
        result = run_sweep(small_config(replicates=1))
        buf = io.StringIO()
        rows_to_json(result.records, buf)
        docs = json.loads(buf.getvalue())
        assert len(docs) == 2
        assert docs[0]["n"] == 200
        assert docs[0]["elapsed_ms"] is None

    def test_config_round_trip(self):
        config = small_config(output="x.csv", format="json")
        doc = json.dumps(dataclasses.asdict(config))
        back = SweepConfig.from_json(io.StringIO(doc))
        assert back == config

    def test_config_integral_float_n(self):
        # JSON readers give 1e5 or 100.0 as a float; an integral one is an n
        doc = {"grid": [[100.0, 1.0, 1.0], [1e5, 1, 2]], "replicates": 1, "master_seed": 1}
        config = SweepConfig.from_json(io.StringIO(json.dumps(doc)))
        assert config.grid == ((100, 1.0, 1.0), (100_000, 1.0, 2.0))
        assert all(type(n) is int for n, _, _ in config.grid)

    def test_config_from_python_normalised_like_json(self):
        doc = {"grid": [[100, 1, 2]], "replicates": 1, "master_seed": 1}
        config = SweepConfig(**doc)
        assert config.grid == ((100, 1.0, 2.0),)
        assert [type(x) for x in config.grid[0]] == [int, float, float]
        assert config == SweepConfig.from_json(io.StringIO(json.dumps(doc)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(grid=((10, 1.0, 1.0),), replicates=0, master_seed=1)
        with pytest.raises(ValueError):
            SweepConfig(grid=((4, 1.0, 9.0),), replicates=1, master_seed=1)
        with pytest.raises(ValueError):
            small_config(format="xml")
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(grid=((10, 1.0, math.nan),), replicates=1, master_seed=1)
        for coeff in (math.nan, math.inf, -5.0, 0.0):
            with pytest.raises(ValueError, match="small_threshold_coeff"):
                small_config(small_threshold_coeff=coeff)


class TestSummarize:
    def test_single_record(self):
        rec = ExperimentRecord(n=100, beta=1.0, gamma=2.0, mu=4.0, replicate=0,
                               seed=1, largest=60, second=5,
                               small_fraction=0.35, eta=1, degree_mean=3.9,
                               elapsed_ms=None)
        row, = summarize([rec])
        assert row.largest_frac_mean == 0.6
        assert row.largest_frac_sd == 0.0
        assert row.replicates == 1
        assert row.rho == pytest.approx(0.20318786997997, abs=1e-9)
        assert row.predicted_giant_frac == pytest.approx(0.79681213002, abs=1e-9)

    def test_subcritical_prediction_zero(self):
        result = run_sweep(SweepConfig(grid=((100, 1.0, 0.5),), replicates=2,
                                       master_seed=9))
        row, = summarize(result.records)
        assert row.predicted_giant_frac == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_groups_by_grid_point(self):
        result = run_sweep(small_config())
        rows = summarize(result.records)
        assert len(rows) == 2
        assert all(r.replicates == 3 for r in rows)

    def test_writers(self):
        rows = summarize(run_sweep(small_config(replicates=2)).records)
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        summary_to_csv(rows, csv_buf)
        rows_to_json(rows, json_buf)
        lines = csv_buf.getvalue().splitlines()
        assert lines[0].startswith("n,beta,gamma,mu,replicates,largest_frac_mean")
        assert len(lines) == 3
        assert len(json.loads(json_buf.getvalue())) == 2
