"""Command line front end.

Reads a dissimilarity (or similarity) matrix from a file, clusters it, and
writes the result to stdout; diagnostics go to stderr. Exit status: 0 on
success, 2 when the run finished but reversals were detected, 1 on errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .agglomerate import (
    POLICIES,
    POLICY_INTERVAL,
    TIEBREAKS,
    _enumerate_newick,
    cluster_pair_group,
    cluster_variable_group,
    detect_reversals,
)
from .errors import MultidendroError, ZeroDistanceWarning
from .linkage import METHOD_KINDS, MethodSpec
from .proximity import (
    FORMATS,
    parse_matrix,
    round_to_precision,
    similarity_to_dissimilarity,
)
from .render import render_svg, render_text
from .tree import records_to_json, to_newick_extended, to_records

OUTPUTS = ("newick", "records", "text", "svg")


@functools.cache  # its help formatters cost more than a small run
def build_parser():
    p = argparse.ArgumentParser(
        prog="multidendro",
        description="Agglomerative clustering that merges whole tied groups "
                    "at once and reports fusion intervals.",
    )
    p.add_argument("--input", required=True, help="path to the matrix file")
    p.add_argument("--format", choices=FORMATS, default="square",
                   help="layout of the input file")
    p.add_argument("--similarity", action="store_true",
                   help="input holds similarities in [0, 1]; mapped to 1 - s")
    p.add_argument("--precision", type=int, default=None,
                   help="decimals used to round values and detect ties "
                        "(default: inferred from the written input)")
    p.add_argument("--method", required=True, choices=METHOD_KINDS)
    p.add_argument("--policy", choices=POLICIES, default=None,
                   help="how tied groups report a height: interval only "
                        "(the default), the method's natural summary, or the "
                        "shortest distance")
    p.add_argument("--output", choices=OUTPUTS, default="newick")
    p.add_argument("--enumerate", dest="enumerate_all", action="store_true",
                   help="list every distinct classical tie-break outcome")
    p.add_argument("--tiebreak", choices=TIEBREAKS, default=None,
                   help="run the classical one-pair engine with this rule")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --tiebreak random")
    p.add_argument("--limit", type=int, default=10000,
                   help="abort enumeration past this many distinct outcomes")
    return p


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    default_format = warnings.formatwarning

    def format_warning(message, category, *where):
        # a plain diagnostic, without the source location and line of code
        # Python's default format adds
        if issubclass(category, ZeroDistanceWarning):
            return "warning: %s\n" % (message,)
        return default_format(message, category, *where)

    # only Python's own display of a warning uses this format; a caller
    # that records warnings still receives the ZeroDistanceWarning itself
    warnings.formatwarning = format_warning
    try:
        return run(ns)
    except (MultidendroError, OSError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


def run(config):
    """Run one command line parsed by ``build_parser``; returns the exit status."""
    if config.seed is not None and config.tiebreak != "random":
        raise ValueError("--seed only applies to --tiebreak random")
    if config.enumerate_all and config.tiebreak is not None:
        raise ValueError("--enumerate explores every tie-break on its own")
    if config.enumerate_all and config.output != "newick":
        raise ValueError("--enumerate writes newick lines only")
    if config.policy is not None and (config.enumerate_all
                                      or config.tiebreak is not None):
        raise ValueError("--policy only applies without --tiebreak and "
                         "--enumerate")
    method = MethodSpec(config.method)
    # utf-8-sig drops the byte-order mark some editors write
    text = Path(config.input).read_text(encoding="utf-8-sig")
    matrix = parse_matrix(text, config.format, similarity=config.similarity)
    if config.similarity:
        matrix = similarity_to_dissimilarity(matrix)
    if config.precision is not None:
        matrix = round_to_precision(matrix, config.precision)

    if config.enumerate_all:
        found = _enumerate_newick(matrix, method, config.limit)
        print("%d distinct outcome(s)" % (len(found),), file=sys.stderr)
        for text, _ in found:
            sys.stdout.write(text + "\n")
        reversed_any = any(detect_reversals(tree) for _, tree in found)
        return 2 if reversed_any else 0

    if config.tiebreak is not None:
        tree = cluster_pair_group(matrix, method, tiebreak=config.tiebreak,
                                  seed=config.seed)
        _emit(tree, None, config)
        return 2 if detect_reversals(tree) else 0

    tree, trace = cluster_variable_group(matrix, method,
                                         policy=config.policy or POLICY_INTERVAL)
    _emit(tree, trace, config)
    return 2 if detect_reversals(tree) else 0


def _emit(tree, trace, config):
    if config.output == "newick":
        sys.stdout.write(to_newick_extended(tree) + "\n")
    elif config.output == "records":
        sys.stdout.write(records_to_json(to_records(tree, trace)))
    elif config.output == "text":
        sys.stdout.write(render_text(tree))
    else:
        sys.stdout.write(render_svg(tree))


if __name__ == "__main__":
    sys.exit(main())
