"""Small-tree corpora for oracle runs and randomized testing."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import combinations_with_replacement, product

from .tree import Tree


def _unordered_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Unordered partitions of n into positive parts, non-increasing."""
    stack: list[tuple[tuple[int, ...], int]] = [((), n)]
    while stack:
        prefix, left = stack.pop()
        if not left:
            yield prefix
            continue
        # Pushed smallest first, so larger first parts come out first.
        largest = min(left, prefix[-1] if prefix else n)
        stack.extend((prefix + (first,), left - first) for first in range(1, largest + 1))


def _rooted_tree_table(n_max: int) -> list[tuple[str, ...]]:
    """``table[s]``: sorted canonical codes of the rooted trees with s nodes.

    Built bottom-up: a tree of s nodes is a root over a multiset of smaller
    trees whose sizes partition s - 1.
    """
    table: list[tuple[str, ...]] = [()]
    for n in range(1, n_max + 1):
        codes: set[str] = set()
        for sizes in _unordered_partitions(n - 1):
            choice_sets = [
                list(combinations_with_replacement(table[size], mult))
                for size, mult in sorted(Counter(sizes).items())
            ]
            for pick in product(*choice_sets):
                kids = sorted(code for grp in pick for code in grp)
                codes.add("(" + "".join(kids) + ")")
        table.append(tuple(sorted(codes)))
    return table


def rooted_tree_codes(n: int) -> tuple[str, ...]:
    """Canonical codes of all rooted trees with n nodes, one per isomorphism class."""
    return _rooted_tree_table(n)[n] if n >= 1 else ()


def tree_from_code(code: str) -> Tree:
    """Materialize a canonical code as a labeled tree (labels n0, n1, ... in pre-order)."""
    children: dict[str, list[str]] = {}
    open_nodes: list[str] = []  # nodes whose ')' is still to come, outermost first
    count = 0
    for ch in code:
        if ch == "(" and (open_nodes or not count):
            label = f"n{count}"
            count += 1
            if open_nodes:
                children.setdefault(open_nodes[-1], []).append(label)
            open_nodes.append(label)
        elif ch == ")" and open_nodes:
            open_nodes.pop()
        else:
            raise ValueError(f"malformed code {code!r}")
    if open_nodes or not count:
        raise ValueError(f"malformed code {code!r}")
    return Tree("n0", children)


def all_rooted_trees(max_nodes: int) -> Iterator[Tree]:
    """One representative tree per rooted isomorphism class, sizes 1..max_nodes."""
    for codes in _rooted_tree_table(max_nodes)[1:]:
        for code in codes:
            yield tree_from_code(code)


def random_labeled_tree(rng: "random.Random", n_nodes: int) -> Tree:
    """Uniform random attachment tree with shuffled labels."""
    labels = [f"v{i}" for i in range(n_nodes)]
    rng.shuffle(labels)
    children: dict[str, list[str]] = {}
    for i in range(1, n_nodes):
        parent = labels[rng.randrange(i)]
        children.setdefault(parent, []).append(labels[i])
    return Tree(labels[0], children)
