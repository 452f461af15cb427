#!/usr/bin/env python3
"""Total variation distance between the exact vertex-degree law and its
compound Poisson limit, across a ladder of n at fixed beta, gamma.  The
distance decays like 1/n, so the n*tv column settles to a constant.

    python3 scripts/degree_convergence.py --ns 100 1000 10000 100000
"""

import argparse
import sys

from riglab.degree import CompoundPoissonSpec, cpoisson_pmf, rig_pmf, tv_distance
from riglab.model import derive_params


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--ns", type=int, nargs="+", default=[100, 1000, 10_000])
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    limit = cpoisson_pmf(CompoundPoissonSpec(args.beta * args.gamma, args.gamma))

    lines = ["n,tv,n_tv"]
    for n in args.ns:
        params = derive_params(n, args.beta, args.gamma)
        tv = tv_distance(rig_pmf(params.m, n, params.p), limit)
        lines.append(f"{n},{tv!r},{n * tv!r}")
        print(f"n={n}: tv={tv:.3e} n*tv={n * tv:.5f}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
