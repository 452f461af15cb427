"""Command-line interface: every capability as a reproducible subcommand.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  Results
go to stdout or --out; diagnostics (including the resolved parameter echo)
go to stderr.  Relative --out paths resolve against $RIGLAB_OUTDIR if set.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

from .degree import CompoundPoissonSpec, cpoisson_pmf, rig_pmf
from .experiments import (DEFAULT_SMALL_THRESHOLD_COEFF, SweepConfig,
                          records_from_csv, records_to_csv, records_to_json,
                          run_sweep, run_trial, summarize, summary_to_csv,
                          summary_to_json, trial_stream)
from .model import derive_params, sample_bipartite, write_bipartite
from .theory import (DEFAULT_BRANCHING_CAP, CompoundPoissonOffspring,
                     RigDegreeOffspring, chernoff_lower, chernoff_upper,
                     extinction_mc, solve_extinction)

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (argparse defaults to 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    outdir = os.environ.get("RIGLAB_OUTDIR")
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    return p


@contextlib.contextmanager
def _out_stream(path: str | None):
    p = _resolve_out(path)
    if p is None:
        yield sys.stdout
    else:
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w") as f:
            yield f


def _echo_params(args: argparse.Namespace) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                     if k not in ("func", "command"))
    print(f"# {args.command}: {pairs}", file=sys.stderr)


def _require_alpha_one(args) -> None:
    if getattr(args, "alpha", 1.0) != 1.0:
        raise ValueError(f"{args.command} is defined for alpha=1 only "
                         f"(got alpha={args.alpha})")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    params = derive_params(args.n, args.beta, args.gamma, args.alpha)
    _, rng = trial_stream(args.seed, 0, 0)
    b = sample_bipartite(params, rng)
    print(f"# m={params.m} p={params.p!r} edges={b.edge_count}", file=sys.stderr)
    with _out_stream(args.out) as f:
        write_bipartite(b, f)
    return 0


def cmd_degree(args) -> int:
    params = derive_params(args.n, args.beta, args.gamma, args.alpha)
    if args.source == "limit":
        _require_alpha_one(args)
        mean = params.mu
        var = params.beta * args.gamma ** 2 * (1.0 + args.gamma)
        kmax = args.kmax if args.kmax is not None else \
            math.ceil(mean + 12.0 * math.sqrt(max(var, 1e-12)) + 20)
        pmf = cpoisson_pmf(CompoundPoissonSpec(args.beta * args.gamma, args.gamma), kmax)
    elif args.source == "exact":
        pmf = rig_pmf(params.m, params.n, params.p, mode="exact")
    else:
        _, rng = trial_stream(args.seed, 0, 0)
        pmf = rig_pmf(params.m, params.n, params.p, mode="empirical",
                      rng=rng, samples=args.samples)
    with _out_stream(args.out) as f:
        pmf.write_csv(f)
    return 0


def cmd_rho(args) -> int:
    _require_alpha_one(args)
    r = solve_extinction(args.beta, args.gamma)
    print(f"mu {r.mu!r}")
    print(f"rho {r.rho!r}")
    print(f"giant_fraction {1.0 - r.rho!r}")
    print(f"residual {r.residual!r}")
    print(f"iterations {r.iterations}")
    print(f"regime {r.regime}")
    return 0


def cmd_tails(args) -> int:
    _require_alpha_one(args)
    params = derive_params(args.n, args.beta, args.gamma)
    directions = ["upper", "lower"] if args.direction == "both" else [args.direction]
    for d in directions:
        fn = chernoff_upper if d == "upper" else chernoff_lower
        tb = fn(params.m, params.n, params.p, params.mu, args.k, args.delta)
        rate = -tb.log_bound / tb.k
        print(f"{d} bound {tb.bound!r} log_bound {tb.log_bound!r} "
              f"s_opt {tb.s_opt!r} rate_per_step {rate!r} vacuous {tb.vacuous}")
    return 0


def cmd_branching(args) -> int:
    _require_alpha_one(args)
    if args.offspring == "cpoisson":
        off = CompoundPoissonOffspring(
            CompoundPoissonSpec(args.beta * args.gamma, args.gamma))
    else:
        if args.n is None:
            raise ValueError("--n is required for --offspring rig")
        params = derive_params(args.n, args.beta, args.gamma)
        off = RigDegreeOffspring(params.m, params.n, params.p)
    _, rng = trial_stream(args.seed, 0, 0)
    est, se = extinction_mc(off, args.reps, args.cap, rng)
    r = solve_extinction(args.beta, args.gamma)
    print(f"extinction_estimate {est!r}")
    print(f"std_error {se!r}")
    print(f"fixed_point_rho {r.rho!r}")
    print(f"abs_difference {abs(est - r.rho)!r}")
    return 0


def cmd_trial(args) -> int:
    params = derive_params(args.n, args.beta, args.gamma, args.alpha)
    seed_id, rng = trial_stream(args.seed, 0, 0)
    rec = run_trial(params, rng, small_threshold_coeff=args.threshold_coeff,
                    replicate=0, seed=seed_id, live_timing=args.live_timing)
    with _out_stream(args.out) as f:
        records_to_csv([rec], f)
    return 0


def cmd_sweep(args) -> int:
    if args.workers < 1:  # checked before --out is opened, which truncates it
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    with open(args.config) as f:
        config = SweepConfig.from_json(f)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    out = args.out if args.out is not None else config.output
    fmt = args.format if args.format is not None else config.format
    print(f"# sweep: grid={list(config.grid)} replicates={config.replicates} "
          f"master_seed={config.master_seed} "
          f"small_threshold_coeff={config.small_threshold_coeff} "
          f"workers={args.workers} format={fmt}", file=sys.stderr)
    if fmt == "csv":
        with _out_stream(out) as f:
            result = run_sweep(config, workers=args.workers,
                               live_timing=args.live_timing, sink=f)
    else:
        result = run_sweep(config, workers=args.workers, live_timing=args.live_timing)
        with _out_stream(out) as f:
            records_to_json(result.records, f)
    print(f"# sweep finished: {len(result.records)} records, "
          f"{len(result.failures)} failures", file=sys.stderr)
    if result.failures:
        for fail in result.failures:
            print(f"# failure: {fail}", file=sys.stderr)
        return 2
    return 0


def cmd_summarize(args) -> int:
    with open(args.records) as f:
        records = records_from_csv(f)
    rows = summarize(records)
    with _out_stream(args.out) as f:
        if args.format == "json":
            summary_to_json(rows, f)
        else:
            summary_to_csv(rows, f)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_model_flags(p, with_n=True):
    if with_n:
        p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--beta", type=float, required=True,
                   help="auxiliary density: m = floor(beta*n)")
    p.add_argument("--gamma", type=float, required=True,
                   help="edge intensity: p = gamma*n^(-(1+alpha)/2)")


def build_parser() -> _Parser:
    parser = _Parser(prog="riglab",
                     description="Random intersection graph simulation and "
                                 "verification lab (alpha=1 regime)")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)

    # every subcommand shows its defaults in --help
    add_parser = functools.partial(subparsers.add_parser,
                                   formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = add_parser("generate", help="sample a bipartite graph and dump it")
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, default=1.0, help="exponent in p")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = add_parser("degree", help="degree pmf as CSV (degree,probability rows "
                                  "plus a final tail row)")
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, default=1.0, help="exponent in p")
    p.add_argument("--source", choices=["exact", "empirical", "limit"],
                   default="exact", help="exact sum, sampled graphs, or the "
                                         "compound Poisson limit")
    p.add_argument("--samples", type=int, default=100_000,
                   help="vertex samples for --source empirical")
    p.add_argument("--kmax", type=int, default=None,
                   help="truncation for --source limit (auto-sized if omitted)")
    p.add_argument("--seed", type=int, default=0, help="master seed (empirical)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_degree)

    p = add_parser("rho", help="extinction probability / giant component fraction")
    _add_model_flags(p, with_n=False)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="must be 1 for theory subcommands")
    p.set_defaults(func=cmd_rho)

    p = add_parser("tails", help="optimized exponential tail bounds for "
                                 "i.i.d. degree sums")
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="must be 1 for theory subcommands")
    p.add_argument("--k", type=int, required=True, help="number of summands")
    p.add_argument("--delta", type=float, required=True,
                   help="relative deviation from the mean mu*k")
    p.add_argument("--direction", choices=["upper", "lower", "both"], default="both")
    p.set_defaults(func=cmd_tails)

    p = add_parser("branching", help="Monte Carlo extinction frequency vs "
                                     "the fixed point")
    _add_model_flags(p, with_n=False)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="must be 1 for theory subcommands")
    p.add_argument("--offspring", choices=["cpoisson", "rig"], default="cpoisson",
                   help="limit law or finite-n degree law")
    p.add_argument("--n", type=int, default=None, help="vertex count (rig offspring)")
    p.add_argument("--reps", type=int, default=100_000, help="number of runs")
    p.add_argument("--cap", type=int, default=DEFAULT_BRANCHING_CAP,
                   help="total size beyond which a run counts as survived")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_branching)

    p = add_parser("trial", help="single trial: sample, project, census; "
                                 "emits one CSV record")
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, default=1.0, help="exponent in p")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--threshold-coeff", type=float,
                   default=DEFAULT_SMALL_THRESHOLD_COEFF,
                   help="small-component threshold = ceil(coeff*ln n)")
    p.add_argument("--live-timing", action="store_true",
                   help="record wall-clock elapsed_ms (breaks byte reproducibility)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_trial)

    p = add_parser("sweep", help="run a config-driven replicate sweep")
    p.add_argument("--config", required=True, help="JSON sweep config path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master_seed")
    p.add_argument("--out", help="output path (falls back to the config output, else stdout)")
    p.add_argument("--format", choices=["csv", "json"], default=None,
                   help="override the config's output format")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel worker processes")
    p.add_argument("--live-timing", action="store_true",
                   help="record wall-clock elapsed_ms (breaks byte reproducibility)")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("summarize", help="aggregate a records CSV per grid point")
    p.add_argument("--records", required=True, help="records CSV path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    _echo_params(args)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
