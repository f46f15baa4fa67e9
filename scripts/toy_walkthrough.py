"""Walk the bundled 4-item example through every policy and renderer.

Run from the repository root:

    python3 scripts/toy_walkthrough.py
    python3 scripts/toy_walkthrough.py --svg toy.svg
"""

import argparse

from multidendro import (
    cluster_pair_group,
    cluster_variable_group,
    detect_reversals,
    enumerate_pair_group,
    parse_matrix,
    render_svg,
    render_text,
    to_newick_extended,
)

TOY = "0 2 4 7\n2 0 2 5\n4 2 0 3\n7 5 3 0\n"

METHOD = "unweighted_average"


def show_trace(trace):
    for it in trace.iterations:
        parts = ", ".join(
            "{%s} in [%g, %g]" % (
                " ".join(trace.labels[i] for i in g.leaves),
                g.h_lower, g.h_upper)
            for g in it.groups
        )
        print("  step %d at %g: %s (next %s)"
              % (it.index, it.d_lower, parts, it.d_next))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--svg", default=None, help="write the multidendrogram here")
    args = ap.parse_args()

    matrix = parse_matrix(TOY)

    # ---- group merging, interval heights ----
    print("== variable-group, %s ==" % METHOD)
    tree, trace = cluster_variable_group(matrix, METHOD)
    print(to_newick_extended(tree))
    show_trace(trace)
    print(render_text(tree))

    # ---- the same run under each single-value policy ----
    for policy in ("natural", "shortest"):
        valued, _ = cluster_variable_group(matrix, METHOD, policy=policy)
        for members, (lo, hi, fusion) in sorted(
                valued.node_heights().items(), key=lambda kv: kv[1][0]):
            if hi > lo:
                print("%s policy fuses {%s} at %g"
                      % (policy, " ".join(sorted(members)), fusion))

    # ---- every classical tie-break outcome ----
    print("\n== classical tie-break outcomes ==")
    for one in enumerate_pair_group(matrix, METHOD):
        print(to_newick_extended(one))
    first = cluster_pair_group(matrix, METHOD, tiebreak="first")
    print("tiebreak first picks: %s" % to_newick_extended(first))

    # ---- reversal demonstration with single linkage ----
    print("\n== single linkage reversal ==")
    single_tree, single_trace = cluster_variable_group(matrix, "single")
    print(to_newick_extended(single_tree))
    for rep in detect_reversals(single_trace):
        print("  %s reversal: {%s} at %g above {%s} at %g"
              % (rep.kind, " ".join(rep.child), rep.child_value,
                 " ".join(rep.parent), rep.parent_value))

    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(tree))
        print("\nwrote %s" % args.svg)


if __name__ == "__main__":
    main()
