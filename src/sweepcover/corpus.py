"""Small-tree corpora for oracle runs and randomized testing."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterator

from .tree import Tree


def _unordered_partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Unordered partitions of n into positive parts, non-increasing."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _unordered_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def rooted_tree_codes(n: int) -> tuple[str, ...]:
    """Canonical codes of all rooted trees with n nodes, one per isomorphism class."""
    if n < 1:
        return ()
    if n == 1:
        return ("()",)
    codes: set[str] = set()
    for sizes in _unordered_partitions(n - 1):
        groups: dict[int, int] = {}
        for s in sizes:
            groups[s] = groups.get(s, 0) + 1
        choice_sets = [
            list(combinations_with_replacement(rooted_tree_codes(size), mult))
            for size, mult in sorted(groups.items())
        ]
        for pick in product(*choice_sets):
            kids = sorted(code for grp in pick for code in grp)
            codes.add("(" + "".join(kids) + ")")
    return tuple(sorted(codes))


def tree_from_code(code: str, prefix: str = "n") -> Tree:
    """Materialize a canonical code as a labeled tree (labels prefix0, prefix1, ...)."""
    children: dict[str, list[str]] = {}
    open_nodes: list[str] = []  # nodes whose ')' is still to come, outermost first
    count = 0
    for ch in code:
        if ch == "(" and (open_nodes or not count):
            label = f"{prefix}{count}"
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
    return Tree(f"{prefix}0", children)


def all_rooted_trees(max_nodes: int) -> Iterator[Tree]:
    """One representative tree per rooted isomorphism class, sizes 1..max_nodes."""
    for n in range(1, max_nodes + 1):
        for code in rooted_tree_codes(n):
            yield tree_from_code(code)


def random_labeled_tree(rng: random.Random, n_nodes: int) -> Tree:
    """Uniform random attachment tree with shuffled labels."""
    labels = [f"v{i}" for i in range(n_nodes)]
    rng.shuffle(labels)
    children: dict[str, list[str]] = {}
    for i in range(1, n_nodes):
        parent = labels[rng.randrange(i)]
        children.setdefault(parent, []).append(labels[i])
    return Tree(labels[0], children)
