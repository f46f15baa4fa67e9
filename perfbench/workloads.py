"""Seeded inputs for the four benchmark workloads.

Every workload draws points uniformly from [0, 10]^2 and writes their
Euclidean distance matrix as text, the way a user would hand it to the CLI.
The same seed always gives byte-identical files. Each workload draws from
its own stream, ``default_rng([seed, stream])``, so changing one workload's
parameters leaves the others' inputs alone.

Only ``raw`` draws fresh clouds for every seed: with no ties its work is
the same for every cloud of its size. For the other three the clouds come
from the default seed and ``--seed`` only shuffles the order of each
matrix's individuals, because their work follows the data: the cost of
enumerating tie-break outcomes is heavy-tailed (per matrix its standard
deviation is about 1.8 times its mean), and from one cloud to the next the
tied groups moved the wall time of ``ties`` by up to 18% (its records
output by 10%) and of ``coarse`` by about 10%, enough to make the seed,
not the code, decide the figures. The trees do not depend on input order,
so the work does not either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: int
    n: int
    write: str  # "raw": d as %.18e; "coarse": d + 1 as %.0f
    cli_args: tuple  # CLI flags after --input
    batch: int = 1  # matrices per invocation, one cli.main call each
    seed_permutes: bool = False  # fixed clouds, --seed shuffles individuals

    @property
    def method(self):
        return self.cli_args[self.cli_args.index("--method") + 1]

    @property
    def output(self):
        if "--enumerate" in self.cli_args:
            return "enumerate"
        return self.cli_args[self.cli_args.index("--output") + 1]

    @property
    def precision(self):
        if "--precision" in self.cli_args:
            return int(self.cli_args[self.cli_args.index("--precision") + 1])
        return None

    def generator(self):
        """The parameters that decide the input bytes, for the record."""
        return {"n": self.n, "batch": self.batch, "write": self.write,
                "stream": self.stream, "points": "uniform [0,10]^2",
                "seed_permutes": self.seed_permutes,
                "cli_args": list(self.cli_args)}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "raw",
            "no ties, so all n-1 iterations rebuild every surviving pair: "
            "the merge loop and BlockView dominate; SVG output",
            stream=0, n=200, write="raw",
            cli_args=("--method", "unweighted_average", "--output", "svg")),
        Workload(
            "ties",
            "ties appear only after rounding to 2 decimals: tied groups, "
            "Decimal comparison values on updated pairs, 3 MB records JSON; "
            "the seed shuffles one cloud",
            stream=1, n=200, write="raw", seed_permutes=True,
            cli_args=("--precision", "2", "--method", "unweighted_average",
                      "--output", "records")),
        Workload(
            "coarse",
            "whole-number input ties almost everything, so parsing and "
            "state setup dominate a run of 2 iterations; newick output; "
            "the seed shuffles one cloud",
            stream=2, n=900, write="coarse", seed_permutes=True,
            cli_args=("--method", "single", "--output", "newick")),
        Workload(
            "enumerate",
            "the only path into the classical engine: every tie-break "
            "outcome of 8 small whole-number matrices, shuffled by the seed",
            stream=3, n=14, write="coarse", batch=8, seed_permutes=True,
            cli_args=("--enumerate", "--method", "unweighted_average")),
    )
}


def tiny(workload):
    """The same workload at a size that runs in well under a second."""
    return replace(workload, n=20 if workload.batch == 1 else 8)


def points(seed, workload):
    """The point clouds of one workload, one array per matrix, each in the
    order its individuals are written."""
    if not workload.seed_permutes:
        return _draw(seed, workload)
    rng = np.random.default_rng([seed, workload.stream])
    return [p[rng.permutation(workload.n)]
            for p in _draw(DEFAULT_SEED, workload)]


def _draw(seed, workload):
    rng = np.random.default_rng([seed, workload.stream])
    return [rng.uniform(0.0, 10.0, size=(workload.n, 2))
            for _ in range(workload.batch)]


def distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def matrix_text(pts, write, order=None, header=False):
    """Square matrix text; ``order`` permutes the individuals.

    With ``header`` the first row names each individual by its position in
    the unpermuted input (x1, x2, ...), so a permuted file describes the
    same labelled data.
    """
    d = distances(pts)
    if write == "coarse":
        d = d + 1.0
        np.fill_diagonal(d, 0.0)
        fmt = "%.0f"
    else:
        fmt = "%.18e"
    n = len(pts)
    order = np.arange(n) if order is None else np.asarray(order)
    d = d[np.ix_(order, order)]
    lines = []
    if header:
        lines.append(" ".join("x%d" % (i + 1) for i in order))
    for row in d:
        lines.append(" ".join(fmt % v for v in row))
    return "\n".join(lines) + "\n"


def input_texts(seed, workload):
    return [matrix_text(p, workload.write) for p in points(seed, workload)]


def permutation(seed, n):
    return np.random.default_rng([seed, 99]).permutation(n)
