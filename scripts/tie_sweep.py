"""How rounding precision shapes ties, intervals and outcome counts.

Draws random point clouds, clusters their distance matrices at several
rounding precisions, and tabulates per precision: how many runs hit a tie,
the mean interval width of tied merges, and how many distinct classical
outcomes the ties admit.

    python3 scripts/tie_sweep.py --trials 40 --n 12 --seed 3
"""

import argparse

import numpy as np

from multidendro import (
    ProximityMatrix,
    TooManySolutions,
    cluster_variable_group,
    enumerate_pair_group,
    round_to_precision,
)

METHOD = "unweighted_average"


def random_matrix(rng, n):
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    sq = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    labels = tuple("p%d" % (i + 1) for i in range(n))
    return ProximityMatrix(labels, sq[np.triu_indices(n, 1)])


def tie_stats(trace):
    widths = []
    for it in trace.iterations:
        for g in it.groups:
            if g.h_lower is None:
                continue
            if len(g.member_ids) > 2 or g.h_upper > g.h_lower:
                widths.append(g.h_upper - g.h_lower)
    return widths


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--precisions", type=int, nargs="+",
                    default=[0, 1, 2, 3, 4])
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    matrices = [random_matrix(rng, args.n) for _ in range(args.trials)]

    print("%9s %10s %12s %14s" % ("decimals", "tied runs", "mean width",
                                  "mean outcomes"))
    for places in args.precisions:
        tied = 0
        widths = []
        outcomes = []
        for matrix in matrices:
            rounded = round_to_precision(matrix, places)
            _, trace = cluster_variable_group(rounded, METHOD)
            w = tie_stats(trace)
            if w:
                tied += 1
                widths.extend(w)
            try:
                outcomes.append(len(enumerate_pair_group(rounded, METHOD,
                                                         limit=20000)))
            except TooManySolutions:
                outcomes.append(float("nan"))
        mean_w = float(np.mean(widths)) if widths else 0.0
        mean_o = float(np.nanmean(outcomes))
        print("%9d %10d %12.5f %14.2f" % (places, tied, mean_w, mean_o))


if __name__ == "__main__":
    main()
