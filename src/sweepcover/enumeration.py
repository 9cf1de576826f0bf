"""Explicit enumeration: combinatorial generators and sweep-cover search.

`find_sweep_covers` is the decomposition search, memoized within each call;
`brute_force_covers` is a deliberately naive exponential reference kept
independent of it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .counting import InvalidParamsError
from .cover import Cover, make_cover, validate, max_cover_size
from .tree import Tree


# -- generators --------------------------------------------------------


def compositions(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All ordered lists of n positive integers summing to k, lexicographic.

    Empty when k < n or n < 1.
    """
    if 1 <= n <= k:
        yield from _capped_compositions(k, [k] * n)


def set_partitions(
    elements: Iterable[str], max_blocks: int
) -> Iterator[tuple[frozenset[str], ...]]:
    """All partitions of `elements` into at most `max_blocks` non-empty blocks.

    Enumerated via restricted-growth strings, so each partition appears
    exactly once and the order is deterministic for a fixed element order.
    """
    items = list(elements)
    if not items or max_blocks < 1:
        return
    # assign[i] is the block of items[i]; used[i] counts the blocks among
    # assign[:i], and item i may open at most one new block.
    assign = [0] * len(items)
    used = [0] + [1] * len(items)
    while True:
        blocks: list[list[str]] = [[] for _ in range(used[-1])]
        for item, b in zip(items, assign):
            blocks[b].append(item)
        yield tuple(frozenset(b) for b in blocks)
        i = len(items) - 1
        while i > 0 and assign[i] >= min(used[i], max_blocks - 1):
            i -= 1
        if i == 0:
            return
        assign[i] += 1
        assign[i + 1 :] = [0] * (len(items) - 1 - i)
        used[i + 1 :] = [max(used[i], assign[i] + 1)] * (len(items) - i)


def nonsingleton_partitions(
    elements: Iterable[str], m: int
) -> Iterator[tuple[frozenset[str], ...]]:
    """Partitions of `elements` into exactly m blocks, each of size >= 2."""
    items = list(elements)
    if m < 1 or 2 * m > len(items):
        return
    for part in set_partitions(items, m):
        if len(part) == m and all(len(b) >= 2 for b in part):
            yield part


# -- decomposition cover search ----------------------------------------


def _capped_compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Compositions of `total` with 1 <= part i <= caps[i], lexicographic.

    An odometer over one list of parts: each step raises the rightmost part
    that can still grow by one and refills the parts after it with their
    smallest values, each no smaller than what the later caps cannot make
    up.  Nothing is thrown away, and memory stays O(len(caps)).  With no
    caps, the empty composition is yielded when `total` is 0.
    """
    n = len(caps)
    if not n <= total <= sum(caps):
        return
    room = list(itertools.accumulate(reversed(caps), initial=0))[::-1]  # sum(caps[i:])
    parts = [0] * n
    i, left = 0, total  # parts[i:] are refilled to sum to left
    while True:
        for j in range(i, n):
            parts[j] = max(1, left - room[j + 1])
            left -= parts[j]
        yield tuple(parts)
        # left is sum(parts[i + 1:]); part i can grow if a later part can shrink.
        i = n - 1
        while i >= 0 and (parts[i] == caps[i] or left == n - 1 - i):
            left += parts[i]
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        left -= 1
        i += 1


def find_sweep_covers(tree: Tree, n: int) -> set[Cover]:
    """All sweep-covers of size n, found by recursive decomposition.

    Size 1: one singleton per node on the linear path from the root to its
    lowest known descendant, plus the descendant's full child set when it
    has children.  Size n >= 2: split the child set into singletons L and
    non-singleton blocks R, distribute the remaining size over the subtrees
    rooted at L via compositions, and combine subtree covers with R.

    Each (subtree root, size) pair is solved once per call, on the original
    tree's labels, and only compositions that give no subtree more than its
    leaf count (a subtree has no larger cover; `Tree.leaf_count` reads it
    off the tree's leaf index) are generated, so the cost
    follows the number of distinct subproblems and covers rather than the
    number of decomposition paths.
    """
    if n < 1:
        raise InvalidParamsError(f"cover size must be >= 1, got {n}")
    return _search(tree, [n])[n]


def _search(tree: Tree, sizes: Sequence[int]) -> dict[int, set[Cover]]:
    """Covers of the whole tree for each size, sharing one memo of subproblems.

    Iterative in the tree's depth: a first pass records, for every
    (subtree root, size) pair reachable from the requested sizes, the
    non-singleton blocks and child subproblems of each decomposition; a
    second pass solves the pairs with descendants before ancestors.
    """
    # plans[(v, s)]: (non-singleton blocks, ((child, size), ...)) per decomposition.
    plans: dict[tuple[str, int], list[tuple[Cover, tuple[tuple[str, int], ...]]]] = {}
    todo = [(tree.root, s) for s in sizes]
    while todo:
        key = todo.pop()
        if key in plans:
            continue
        v, s = key
        plan = plans[key] = []
        if s == 1 or s > tree.leaf_count(v):
            continue
        child_set = tree.children_of(tree.lowest_known_descendant(v))
        for part in set_partitions(sorted(child_set), min(s, len(child_set))):
            nonsingletons = frozenset(b for b in part if len(b) > 1)
            singles = sorted(next(iter(b)) for b in part if len(b) == 1)
            remaining = s - len(nonsingletons)
            for parts in _capped_compositions(remaining, list(map(tree.leaf_count, singles))):
                subproblems = tuple(zip(singles, parts))
                plan.append((nonsingletons, subproblems))
                todo.extend(subproblems)

    solved: dict[tuple[str, int], set[Cover]] = {}
    # Descendants come later in pre-order, so they are solved first.
    for key in sorted(plans, key=lambda k: tree.span(k[0]), reverse=True):
        v, s = key
        covers: set[Cover] = set()
        if s == 1:
            path = tree.linear_path_from(v)
            covers.update(make_cover([[u]]) for u in path)
            if tree.children_of(path[-1]):
                covers.add(make_cover([tree.children_of(path[-1])]))
        for nonsingletons, subproblems in plans[key]:
            pools = [solved[sub] for sub in subproblems]
            for combo in itertools.product(*pools):
                covers.add(nonsingletons.union(*combo))
        solved[key] = covers
    return {s: solved[(tree.root, s)] for s in sizes}


def brute_force_covers(tree: Tree, n: int) -> set[Cover]:
    """Exhaustive reference enumeration, independent of the decomposition search.

    Candidate blocks are the root singleton and every non-empty subset of
    some node's children (condition 2 makes other blocks impossible).
    Collections of n mutually compatible blocks are filtered through the
    full validator.
    """
    if n < 1:
        raise InvalidParamsError(f"cover size must be >= 1, got {n}")
    blocks: list[frozenset[str]] = [frozenset({tree.root})]
    for v in sorted(tree.nodes):
        kids = sorted(tree.children_of(v))
        for r in range(1, len(kids) + 1):
            for combo in itertools.combinations(kids, r):
                blocks.append(frozenset(combo))

    closure = {b: frozenset().union(*(tree.ancestors_of(x) for x in b)) for b in blocks}

    def compatible(a: frozenset[str], b: frozenset[str]) -> bool:
        # Disjoint and no cross ancestor-descendant relation; coverage is
        # left to the final validate call.
        return not (a & b) and not (a & closure[b]) and not (b & closure[a])

    results: set[Cover] = set()

    def extend(start: int, chosen: list[frozenset[str]]) -> None:
        if len(chosen) == n:
            cover = frozenset(chosen)
            if validate(tree, cover).valid:
                results.add(cover)
            return
        for i in range(start, len(blocks)):
            b = blocks[i]
            if all(compatible(b, c) for c in chosen):
                chosen.append(b)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return results


def all_sweep_covers(tree: Tree) -> dict[int, set[Cover]]:
    """Covers of every size from 1 to the leaf count, keyed by size.

    All sizes share one memo of (subtree root, size) subproblems.
    """
    return _search(tree, range(1, max_cover_size(tree) + 1))
