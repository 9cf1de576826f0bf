"""Explicit enumeration: combinatorial generators and sweep-cover search.

`find_sweep_covers` builds covers children first, in one pass over the
tree, from the counting equation's own step; `brute_force_covers` is a
deliberately naive exponential reference kept independent of it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .counting import InvalidParamsError
from .cover import Cover, validate, max_cover_size
from .tree import Tree


# -- generators --------------------------------------------------------


def compositions(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All ordered lists of n positive integers summing to k, lexicographic.

    Each composition is read off n - 1 cut points in 1..k-1, taken in
    lexicographic order.  Empty when k < n or n < 1.
    """
    if 1 <= n <= k:
        for cuts in itertools.combinations(range(1, k), n - 1):
            yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, k)))


def set_partitions(
    elements: Iterable[str], max_blocks: int
) -> Iterator[tuple[frozenset[str], ...]]:
    """All partitions of `elements` into at most `max_blocks` non-empty blocks, each once.

    For j = 0, 1, ... every j singletons in `itertools.combinations` order,
    then every split of the rest into r blocks of two or more
    (`nonsingleton_partitions`), r rising, with j + r <= max_blocks.  Each
    partition lists its singletons first.  Nothing is yielded for no
    elements or for max_blocks < 1.
    """
    items = list(elements)
    if not items:
        return
    for j in range(min(len(items), max_blocks) + 1):
        # r blocks for the rest: none if it is empty, else 1 up to what fits.
        rs = range(len(items) > j, min(max_blocks - j, (len(items) - j) // 2) + 1)
        if not rs:
            continue  # a rest of one item, or no block left for the rest
        for singles in itertools.combinations(items, j):
            rest = [x for x in items if x not in singles]
            head = tuple(frozenset({x}) for x in singles)
            for r in rs:
                for blocks in nonsingleton_partitions(rest, r):
                    yield head + blocks


def nonsingleton_partitions(
    elements: Iterable[str], m: int
) -> Iterator[tuple[frozenset[str], ...]]:
    """Partitions of `elements` into exactly m blocks, each of size >= 2 (the
    empty partition alone when both are empty), grown on an explicit stack."""
    items = list(elements)
    if m == 0 and not items:
        yield ()
    stack = [_open_block((), items, m - 1)] if 1 <= m <= len(items) // 2 else []
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        elif step[1]:
            stack.append(_open_block(*step, m - 1 - len(step[0])))
        else:
            yield step[0]


def _open_block(blocks: tuple, rest: list[str], after: int) -> Iterator[tuple[tuple, list[str]]]:
    """`blocks` plus each next block, rest[0] with mates that leave two elements
    for each of the `after` blocks still to open (the last takes all), and the rest."""
    for size in range(1, len(rest) - 2 * after) if after else [len(rest) - 1]:
        for mates in itertools.combinations(rest[1:], size):
            block = frozenset((rest[0], *mates))
            yield (*blocks, block), list(itertools.filterfalse(block.__contains__, rest))


# -- decomposition cover search ----------------------------------------


def find_sweep_covers(tree: Tree, n: int) -> set[Cover]:
    """All sweep-covers of size n, built children first from the recurrence.

    A leaf v has the one cover {v}.  Any other node v has {v}, plus, when it
    has one child, every cover of the child's subtree (the linear path),
    and when it has two or more, one cover per partition of its child set:
    the partition's non-singleton blocks joined with one cover of each
    singleton child's subtree.  Only the sizes a cover of size n can use
    are kept, so the cost follows the covers that can reach the root.
    """
    if n < 1:
        raise InvalidParamsError(f"cover size must be >= 1, got {n}")
    return _search(tree, n, n)[n]


def _search(tree: Tree, lo: int, hi: int) -> dict[int, set[Cover]]:
    """Covers of the whole tree of each size from lo to hi, in one pass.

    Each branching proper ancestor of v adds a block or more beside a cover
    of v's subtree, and each leaf outside it at most one, so v's window
    [bottom, top] runs from lo minus those leaves to hi minus those ancestors
    (at most v's leaf count).  Nodes are listed from the root (none when lo
    exceeds the leaf count), a child only while it has fewer than hi such
    ancestors.  A node with k >= 2 children takes the counting term sum_j
    e_j(F_c) * Q_{k-j}: each child folds in as a singleton child of some size
    (e_j) or grouped, a fold state stays while its size interval meets the
    window, and a group splits into blocks of two or more (Q) as sizes allow.
    """
    total_leaves = tree.leaf_total()
    # (v, v's branching proper ancestors): grows as it is walked, parents first.
    kept = [(tree.root, 0)] if lo <= total_leaves else []
    for v, forks in kept:
        kids = tree.children_of(v)
        below = forks + (len(kids) > 1)
        kept.extend((c, below) for c in kids if below < hi)

    # covers[v]: size -> covers of v's subtree, popped once v's parent is built.
    covers: dict[str, dict[int, set[Cover]]] = {}
    while kept:  # children first; each pair is dropped once its node is built
        v, forks = kept.pop()
        leaves = tree.leaf_count(v)
        bottom = lo - (total_leaves - leaves)
        top = min(hi - forks, leaves)
        kids = tree.children_of(v)
        here = covers.pop(kids[0]) if len(kids) == 1 else {}
        if bottom <= 1:
            here.setdefault(1, set()).add(frozenset({frozenset({v})}))
        if len(kids) > 1:
            # ways[(s, grouped)]: each way to give the singleton children folded
            # so far sizes adding up to s, as the tuple of the pools picked.
            ways = {(0, ()): [()]}
            reach = leaves  # leaves below the children not yet folded
            for c in kids:
                # c joins `grouped` (no pool), or is a singleton child of size t.
                options = [(0, None), *covers.pop(c, {}).items()]
                reach -= tree.leaf_count(c)
                grown: dict[tuple[int, tuple[str, ...]], list[tuple[set[Cover], ...]]] = {}
                for (s, grouped), picks in ways.items():
                    for t, pool in options:
                        g = grouped if pool else grouped + (c,)
                        # Kept while the sizes it can reach (a group gives 1 to len // 2
                        # blocks) form a non-empty interval that meets [bottom, top].
                        if bottom <= s + t + reach + len(g) // 2 >= s + t + bool(g) <= top:
                            more = [p + (pool,) for p in picks] if pool else picks
                            grown.setdefault((s + t, g), []).extend(more)
                ways = grown
            for (s, grouped), picks in ways.items():
                # A group splits into at least one block; the fold left no group
                # of one, so every r taken yields a cover.
                for r in range(max(bottom - s, bool(grouped)), min(top - s, len(grouped) // 2) + 1):
                    out = here.setdefault(s + r, set())
                    for part in nonsingleton_partitions(grouped, r):
                        blocks = frozenset(part)
                        for pools in picks:  # one C-level union per cover
                            out.update(itertools.starmap(blocks.union, itertools.product(*pools)))
        covers[v] = here
    found = covers.get(tree.root, {})
    return {s: found.get(s, set()) for s in range(lo, hi + 1)}


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

    closure = {b: tree.ancestors(b) for b in blocks}

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
    """Covers of every size from 1 to the leaf count, keyed by size, in one pass."""
    return _search(tree, 1, max_cover_size(tree))
