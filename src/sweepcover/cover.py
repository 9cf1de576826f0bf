"""Sweep-cover algebra: validation, child swapping, induced subtrees, embeddings.

A cover is represented as a frozenset of non-empty frozensets of node labels.
All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping

from .tree import Tree

Cover = frozenset


class CoverError(Exception):
    """Base class for cover operation failures."""


class InvalidCoverError(CoverError):
    """An operation required a valid sweep-cover but the input is not one."""


class NotASingletonMemberError(CoverError):
    pass


class NotAPartitionOfChildrenError(CoverError):
    pass


class LeafNodeError(CoverError):
    pass


class BadSelectionError(CoverError):
    pass


def make_cover(blocks: Iterable[Iterable[str]]) -> Cover:
    """Normalize an iterable of node groups into a cover value."""
    cover = frozenset(map(frozenset, blocks))
    if frozenset() in cover:
        raise CoverError("cover blocks must be non-empty")
    return cover


def canonical_blocks(cover: Cover) -> tuple[tuple[str, ...], ...]:
    """Deterministic ordering: sorted tuples of sorted labels."""
    return tuple(sorted(tuple(sorted(b)) for b in cover))


def canonical_rows(covers: Iterable[Cover]) -> tuple[list[tuple[str, ...]], list[list[int]]]:
    """(blocks, ranked): the distinct blocks and the covers, in canonical order.

    `blocks` lists each distinct block once, as its sorted label tuple, in
    sorted order; `ranked` lists each cover as the sorted list of its blocks'
    indices into `blocks`, in sorted order.  Ranks follow label order, so this
    is the order of `canonical_blocks`, never that of JSON text, whose
    escaping can order labels differently.
    """
    covers = list(covers)
    distinct = sorted(frozenset().union(*covers), key=sorted)
    rank = {b: i for i, b in enumerate(distinct)}
    # One C-level chain: no Python frame runs per cover.
    ranked = sorted(map(sorted, map(map, itertools.repeat(rank.__getitem__), covers)))
    return [tuple(sorted(b)) for b in distinct], ranked


def cover_from_json(text: str) -> Cover:
    try:
        data = json.loads(text)
    except RecursionError:
        raise CoverError("cover JSON is nested too deeply") from None
    # Each check is one C-level sweep; no Python code runs per block or label.
    if (
        isinstance(data, list)
        and all(map(isinstance, data, itertools.repeat(list)))
        and all(map(isinstance, itertools.chain.from_iterable(data), itertools.repeat(str)))
    ):
        if len(cover := make_cover(data)) == len(data):
            return cover
        raise CoverError("cover lists a block twice")
    raise CoverError("expected a JSON array of arrays of node labels")


class CoverReport(namedtuple("CoverReport", "valid violations witness", defaults=(None,))):
    """Verdict of checking a cover against the four defining conditions.

    valid: whether all four hold.
    violations: the names of the conditions that fail, in checking order.
    witness: node labels showing the first failure, or None.
    """

    __slots__ = ()


def validate(tree: Tree, cover: Cover) -> CoverReport:
    """Check all four sweep-cover conditions, reporting every violated one.

    Coverage holds iff every leaf is a member or lies below one, and a member
    is nested iff it is a descendant of one.  A cover with m members that
    passes coverage costs O(m + |descendants|), at most O(N) for N nodes, and
    reads no leaf counts; `Tree.ancestors` walks the members' ancestors only
    to name an uncovered node.  A member that is not a tree node raises
    `UnknownNodeError` naming the least unknown member, as every `Tree` set
    query does.
    """
    members = frozenset().union(*cover)
    descendants = tree.descendants(members)
    parent = tree.parents()
    # (condition, witness) for each failing condition, in checking order
    found: list[tuple[str, tuple[str, ...]]] = []

    # 1: distinct blocks are pairwise disjoint, so their sizes add up to
    # the number of members.  A block can meet others only at a repeated member.
    if sum(map(len, cover)) != len(members):
        counts = Counter(itertools.chain.from_iterable(cover))
        seen: set[str] = set()
        for b in canonical_blocks(c for c in cover if max(map(counts.__getitem__, c)) > 1):
            if not seen.isdisjoint(b):
                found.append(("disjoint", (min(seen.intersection(b)),)))
                break
            seen.update(b)

    # 2: each block contains only siblings.
    mixed = [b for b in cover if len(b) > 1 and len(set(map(parent.get, b))) > 1]
    if mixed:
        found.append(("siblings", min(tuple(sorted(b)) for b in mixed)))

    nested = members & descendants

    # 3: every leaf is a member or below one.  The covered nodes with children
    # are the descendants' parents, so the rest of them are leaves.
    covered = len(members) + len(descendants) - len(nested)
    if covered - len(set(map(parent.get, descendants))) < tree.leaf_total():
        ancestors = tree.ancestors(members)
        found.append(("coverage", (min(tree.nodes.difference(members, ancestors, descendants)),)))

    # 4: no two cover nodes are in an ancestor-descendant relation.
    if nested:
        v = min(nested)
        found.append(("no-ancestry", (min(tree.ancestors_of(v) & members), v)))

    violations = tuple(cond for cond, _ in found)
    return CoverReport(not found, violations, found[0][1] if found else None)


def swap_children(
    tree: Tree, cover: Cover, v: str, child_partition: Iterable[Iterable[str]]
) -> Cover:
    """Replace the singleton block {v} with a partition of v's children.

    The result is again a valid sweep-cover whenever the input was.
    """
    singleton = frozenset({v})
    if singleton not in cover:
        raise NotASingletonMemberError(f"{{{v}}} is not a singleton member of the cover")
    kids = tree.children_of(v)
    if not kids:
        raise LeafNodeError(f"node {v} has no children")
    parts = [frozenset(p) for p in child_partition]
    if any(not p for p in parts):
        raise NotAPartitionOfChildrenError("partition blocks must be non-empty")
    # The children are distinct, so the blocks partition them iff both sort alike.
    if sorted(itertools.chain.from_iterable(parts)) != sorted(kids):
        raise NotAPartitionOfChildrenError(
            f"blocks do not partition the children of {v}: {sorted(kids)}"
        )
    return (cover - {singleton}) | frozenset(parts)


def induced_subgraphs(tree: Tree, cover: Cover) -> list[Tree]:
    """One subtree per block: the block plus all its ancestors and descendants.

    Each returned tree keeps the original labels and is rooted at the
    original root.  Order follows the canonical block ordering.
    """
    report = validate(tree, cover)
    if not report.valid:
        raise InvalidCoverError(f"cover violates: {report.violations}")
    return [
        tree.restrict(tree.ancestors(b) | tree.descendants(b) | set(b))
        for b in canonical_blocks(cover)
    ]


def embedding_tree(tree: Tree, cover: Cover, selection: Mapping[int, str]) -> Tree:
    """Union of the root paths to one chosen representative per block.

    `selection` maps the index of each block (canonical ordering) to one of
    its members.  Any two selections from the same cover give isomorphic
    trees.
    """
    report = validate(tree, cover)
    if not report.valid:
        raise InvalidCoverError(f"cover violates: {report.violations}")
    blocks = canonical_blocks(cover)
    if set(selection) != set(range(len(blocks))):
        raise BadSelectionError(f"selection must cover block indices 0..{len(blocks) - 1}")
    chosen = []
    for i, b in enumerate(blocks):
        if selection[i] not in b:
            raise BadSelectionError(f"{selection[i]!r} is not in block {b}")
        chosen.append(selection[i])
    return tree.restrict(tree.ancestors(chosen).union(chosen))


def max_cover_size(tree: Tree) -> int:
    """Largest possible sweep-cover size: the number of leaves."""
    return tree.leaf_total()
