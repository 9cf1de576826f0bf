"""Rooted directed trees with the structural queries used by sweep-cover analysis.

Trees are immutable after construction and safe to share between threads.
Node labels are opaque strings; anything that produces deterministic output
sorts labels lexicographically.

Construction keeps the children and parents, checks that they form one
tree, and keeps the breadth-first order of that check's walk.  A leaf table,
each node's leaf count, is filled over that order on first use.  The
build is idempotent, so concurrent first calls only repeat work and the tree
stays safe to share between threads.  A query on a set of labels that holds
unknown ones raises `UnknownNodeError` naming the least of them, so the
message does not depend on the set's iteration order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import chain, filterfalse
from types import MappingProxyType

from .counting import InvalidParamsError


class TreeError(Exception):
    """Base class for tree construction and query failures."""


class EmptyDocumentError(TreeError):
    """Edge-list document contained no edges."""


class MultipleRootsError(TreeError):
    """More than one node has no parent (the edges describe a forest)."""


class CycleError(TreeError):
    """The edges contain a cycle."""


class DuplicateEdgeError(TreeError):
    """The same parent-child edge was listed twice."""


class MultipleParentsError(TreeError):
    """A node was given two distinct parents."""


class UnknownNodeError(TreeError):
    """A queried node does not belong to the tree."""


# `\s` in a str pattern matches exactly the characters for which
# `str.isspace()` is true.
_FORBIDDEN_IN_LABEL = re.compile(r"[\s#]").search


def _check_label(label: str) -> None:
    if not label:
        raise TreeError("empty node label")
    if _FORBIDDEN_IN_LABEL(label):
        raise TreeError(f"node label contains whitespace or '#': {label!r}")


def _parent_map(child_map: Mapping[str, list[str]]) -> dict[str, str]:
    """Each child's parent, walking parents in their given order and each one's children in order.

    Raises at the first bad label, repeated edge or second parent met.
    """
    parent: dict[str, str] = {}
    for p, kids in child_map.items():
        _check_label(p)
        for c in kids:
            _check_label(c)
            if (q := parent.get(c)) is not None:
                if q == p:
                    raise DuplicateEdgeError(f"duplicate edge {p} -> {c}")
                raise MultipleParentsError(f"node {c} has parents {q} and {p}")
            parent[c] = p
    return parent


class Tree:
    """Immutable rooted directed tree over string-labeled nodes.

    `children` maps a node to the ordered list of its children; nodes that
    appear only as children need no entry.  Construction copies the mapping,
    checks the root label, walks the edges once in order to check the other
    labels and build the parent map, and validates that the edges form a
    single tree rooted at `root`, keeping that walk's breadth-first order;
    `leaf_count` builds its table over that order on first use.
    """

    __slots__ = ("root", "_children", "_parent", "_order", "_leaves")

    def __init__(self, root: str, children: Mapping[str, Iterable[str]]):
        child_map = {p: list(kids) for p, kids in children.items()}
        _check_label(root)
        self._build(root, child_map, _parent_map(child_map))

    def _build(self, root: str, child_map: dict[str, list[str]], parent: dict[str, str]) -> Tree:
        """Keep the edges, and return self, if they form one tree rooted at `root`.

        `parent` maps each child to its one parent, labels and edges checked.
        Every node must be reached, and only the root may lack a parent.  The
        walk's order, root first and breadth-first, is kept as `_order`.
        """
        if root in parent:
            raise CycleError(f"root {root} has a parent")
        # With one parent each and none for the root, the walk ends.
        reached = [root]
        for v in reached:
            reached.extend(child_map.get(v, ()))
        heads = filterfalse(parent.__contains__, child_map)
        if len(reached) != len(parent) + 1 or not all(map(root.__eq__, heads)):
            stranded = sorted(set(chain(parent, child_map, (root,))).difference(reached))
            orphans = [v for v in stranded if v not in parent]
            if orphans:
                raise MultipleRootsError(f"unreachable parentless nodes: {orphans}")
            raise CycleError(f"nodes not reachable from root: {stranded}")
        self.root = root
        if not all(child_map.values()):  # a leaf keeps no child list
            child_map = {p: kids for p, kids in child_map.items() if kids}
        self._leaves = None
        self._children = child_map
        self._parent = parent
        self._order = reached
        return self

    # -- basic queries -------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(chain(self._parent, (self.root,)))

    def __len__(self) -> int:
        return len(self._parent) + 1

    def __contains__(self, label: str) -> bool:
        return label in self._parent or label == self.root

    def _require(self, v: str) -> None:
        if v not in self:
            raise UnknownNodeError(f"unknown node {v!r}")

    def _known(self, vs: frozenset[str]) -> frozenset[str]:
        """vs itself, if every label in it is a node; else name the least unknown one."""
        if unknown := vs.difference(self._parent).difference((self.root,)):
            raise UnknownNodeError(f"unknown node {min(unknown)!r}")
        return vs

    def leaf_total(self) -> int:
        """Number of leaves in the tree, read without the leaf table."""
        return len(self._parent) + 1 - len(self._children)

    def leaf_count(self, v: str) -> int:
        """Number of leaves in v's subtree (1 when v is a leaf)."""
        self._require(v)
        if (leaves := self._leaves) is None:
            # The build's walk reversed puts every child before its parent.
            children, leaves = self._children, {}
            for u in reversed(self._order):
                kids = children.get(u)
                leaves[u] = sum(map(leaves.__getitem__, kids)) if kids else 1
            self._leaves = leaves
        return leaves[v]

    def children_of(self, v: str) -> tuple[str, ...]:
        if (kids := self._children.get(v)) is None:
            self._require(v)
        return tuple(kids or ())

    def parent_of(self, v: str) -> str | None:
        if (p := self._parent.get(v)) is None:
            self._require(v)
        return p

    def parents(self) -> Mapping[str, str]:
        """Read-only view of each node's parent; the root has no entry."""
        return MappingProxyType(self._parent)

    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(v for v in self.nodes if not self._children.get(v)))

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges, parents in sorted order, children in stored order."""
        return tuple((p, c) for p in sorted(self._children) for c in self._children[p])

    # -- structural queries --------------------------------------------

    def ancestors_of(self, v: str) -> set[str]:
        """Proper ancestors of v, root included."""
        return self.ancestors((v,))

    def ancestors(self, vs: Iterable[str]) -> set[str]:
        """Proper ancestors of any member of vs, each collected once."""
        parent, ancestors = self._parent, set()
        # A walk stops at a collected node: everything above it is collected.
        for v in self._known(frozenset(vs)):
            p = parent.get(v)
            while p is not None and p not in ancestors:
                ancestors.add(p)
                p = parent.get(p)
        return ancestors

    def descendants(self, vs: Iterable[str]) -> set[str]:
        """Proper descendants of any member of vs, each collected once."""
        children, descendants = self._children, set()
        vs = self._known(frozenset(vs))
        # Only v's own walk collects v's children, so once its first child
        # is collected the rest of v's subtree is collected or queued.
        inner = list(filter(children.get, vs))
        for v in inner:
            kids = children[v]
            if kids[0] not in descendants:
                descendants.update(kids)
                inner.extend(filter(children.get, kids))
        return descendants

    def restrict(self, keep: Iterable[str]) -> "Tree":
        """The tree on the nodes in `keep`, rooted at the original root.

        `keep` must hold the root and every ancestor of its members.  The kept
        child lists go straight to the build step, their labels checked.
        """
        keep, children = self._known(frozenset(keep)), self._children
        kept = {v: [c for c in children.get(v, ()) if c in keep] for v in keep}
        return Tree.__new__(Tree)._build(self.root, kept, {c: p for p in kept for c in kept[p]})

    def __repr__(self) -> str:
        return f"Tree(root={self.root!r}, nodes={len(self)})"


# -- edge-list file format ---------------------------------------------


# A comment runs from "#" to the end of its line; removing it keeps the "\n".
_strip_comments = re.compile(r"#[^\n]*").sub


def parse_tree(text: str) -> Tree:
    """Parse a newline-delimited "parent child" edge list into a Tree.

    '#' starts a comment; blank lines are ignored.  Children keep the order
    in which their edges appear.  Lines end only at "\\n" (a "\\r" before it is
    whitespace), so other characters `str.splitlines` breaks at, such as
    form feeds, separate fields and do not shift line numbers.  Fields are
    `str.split` tokens, which are always good labels, so a document whose
    rows name each child once skips `Tree`'s edge walk: the grouped children
    and the rows' parent map go straight to its build step.
    """
    lines = _strip_comments("", text).split("\n")
    rows = list(filter(None, map(str.split, lines)))
    children: dict[str, list[str]] = {}
    try:
        for p, c in rows:
            children.setdefault(p, []).append(c)
    except ValueError:  # a line with one field or more than two
        lineno = next(i for i, line in enumerate(lines, 1) if len(line.split()) not in (0, 2))
        raw = text.split("\n")[lineno - 1]
        raise TreeError(f"line {lineno}: expected 'parent child', got {raw!r}") from None
    if not children:
        raise EmptyDocumentError("no edges in document")
    parent = {c: p for p, c in rows}
    if len(parent) != len(rows):  # a child repeats: the walk names the first fault
        _parent_map(children)
    # The root is a parent that is nobody's child.
    heads = list(filterfalse(parent.__contains__, children))
    return Tree.__new__(Tree)._build(min(heads, default=next(iter(children))), children, parent)


def serialize_tree(tree: Tree) -> str:
    """One "parent child" line per edge, parents and children both sorted."""
    return "".join(f"{p} {c}\n" for p in sorted(tree.nodes) for c in sorted(tree.children_of(p)))


# -- truncated ILD trees -----------------------------------------------


class IldSpec(namedtuple("IldSpec", "delta gamma star_levels")):
    """Parameters of a truncated tree of stars joined by constant-length paths.

    delta: out-degree of every star node (>= 2).
    gamma: number of edges on the path leading into each star (>= 0).
    star_levels: how many star generations to materialize (>= 1).
    """

    __slots__ = ()

    def __new__(cls, delta: int, gamma: int, star_levels: int) -> IldSpec:
        if delta < 2:
            raise InvalidParamsError(f"delta must be >= 2, got {delta}")
        if gamma < 0:
            raise InvalidParamsError(f"gamma must be >= 0, got {gamma}")
        if star_levels < 1:
            raise InvalidParamsError(f"star_levels must be >= 1, got {star_levels}")
        return super().__new__(cls, delta, gamma, star_levels)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> IldSpec:
        # `_replace` builds through `_make`, so it validates too.
        return cls(*iterable)


def build_ild_truncated(spec: IldSpec) -> Tree:
    """Finite truncation of the infinite star-and-path tree.

    From the root, a path of `gamma` edges reaches the first star; every star
    child heads another `gamma`-edge path to the next star, repeated
    `star_levels` times.  Labels encode the root path: "s", path steps as
    "<head>p<i>", star children as "<star>.<j>".
    """
    children: dict[str, list[str]] = {}
    heads = ["s"]  # the path heads of one star generation
    for _ in range(spec.star_levels):
        ends = heads  # the far end of each head's path so far
        for step in range(1, spec.gamma + 1):
            steps = [f"{head}p{step}" for head in heads]
            children.update(zip(ends, ([v] for v in steps)))
            ends = steps
        heads = []
        for star in ends:
            children[star] = [f"{star}.{j}" for j in range(1, spec.delta + 1)]
            heads += children[star]
    return Tree("s", children)


# -- canonical form ----------------------------------------------------


def canonical_code(tree: Tree) -> str:
    """Canonical encoding of the rooted tree shape.

    Two trees get equal codes iff they are isomorphic as rooted unlabeled
    trees (child codes are sorted, so the code ignores labels and child
    order).  Child codes fold over the build's walk reversed, children first.
    """
    children, code = tree._children, {}
    for v in reversed(tree._order):
        code[v] = "(" + "".join(sorted(code.pop(c) for c in children.get(v, ()))) + ")"
    return code[tree.root]
