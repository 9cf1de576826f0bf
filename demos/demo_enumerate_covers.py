"""Walk through enumerating sweep-covers on a small hand-built tree.

A sweep-cover is a collection of disjoint sibling-sets such that every node
of the tree is in the cover or is an ancestor/descendant of a covered node,
and no two covered nodes are related by ancestry.
"""

import json

from sweepcover import (
    all_sweep_covers,
    brute_force_covers,
    canonical_rows,
    find_sweep_covers,
    max_cover_size,
    parse_tree,
)

TREE_TEXT = """\
# a three-leaf tree
r a
r b
a c
a d
"""


def main():
    tree = parse_tree(TREE_TEXT)
    print(f"tree: {tree}, leaves: {tree.leaves()}")
    print(f"maximum cover size = leaf count = {max_cover_size(tree)}\n")

    for n in range(1, max_cover_size(tree) + 1):
        covers = find_sweep_covers(tree, n)
        # blocks: each distinct block once, in label order; ranked: each
        # cover as the sorted indices of its blocks, covers in that order.
        blocks, ranked = canonical_rows(covers)
        print(f"covers of size {n}:")
        for ranks in ranked:
            print("   ", json.dumps([blocks[r] for r in ranks]), "  block ranks", ranks)
        # the naive exhaustive search agrees
        assert covers == brute_force_covers(tree, n)

    total = sum(len(v) for v in all_sweep_covers(tree).values())
    print(f"\ntotal covers across all sizes: {total}")


if __name__ == "__main__":
    main()
