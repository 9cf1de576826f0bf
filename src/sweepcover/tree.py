"""Rooted directed trees with the structural queries used by sweep-cover analysis.

Trees are immutable after construction and safe to share between threads.
Node labels are opaque strings; anything that produces deterministic output
sorts labels lexicographically.

Construction keeps the children and parents and checks that they form one
tree.  A leaf table, each node's leaf count, is built on the first
`leaf_count` call.  The build is idempotent, so concurrent first calls only
repeat work and the tree stays safe to share between threads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import chain

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
    single tree rooted at `root`; `leaf_count`'s table is built on first call.
    """

    __slots__ = ("root", "nodes", "_children", "_parent", "_leaves")

    def __init__(self, root: str, children: Mapping[str, Iterable[str]]):
        child_map = {p: list(kids) for p, kids in children.items()}
        _check_label(root)
        self._build(root, child_map, _parent_map(child_map))

    def _build(self, root: str, child_map: dict[str, list[str]], parent: dict[str, str]) -> None:
        """Keep the edges if they form one tree rooted at `root`.

        `parent` maps each child to its one parent, labels and edges checked.
        """
        if root in parent:
            raise CycleError(f"root {root} has a parent")
        nodes = frozenset(chain(parent, child_map, (root,)))
        # Every node must be reached; with one parent each and none for the root, it ends.
        reached = [root]
        for v in reached:
            reached.extend(child_map.get(v, ()))
        if len(reached) != len(nodes):
            stranded = sorted(nodes.difference(reached))
            orphans = [v for v in stranded if v not in parent]
            if orphans:
                raise MultipleRootsError(f"unreachable parentless nodes: {orphans}")
            raise CycleError(f"nodes not reachable from root: {stranded}")
        self.root = root
        self.nodes = nodes
        self._children = child_map
        self._parent = parent
        self._leaves = None

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, label: str) -> bool:
        return label in self.nodes

    def _require(self, v: str) -> None:
        if v not in self.nodes:
            raise UnknownNodeError(f"unknown node {v!r}")

    def leaf_count(self, v: str) -> int:
        """Number of leaves in v's subtree (1 when v is a leaf)."""
        self._require(v)
        if (leaves := self._leaves) is None:
            # Walk breadth-first from the root, then fill the table children first.
            children = self._children
            order = [self.root]
            for u in order:
                order.extend(children.get(u, ()))
            leaves = {}
            for u in reversed(order):
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

    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(v for v in self.nodes if not self._children.get(v)))

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges, parents in sorted order, children in stored order."""
        return tuple((p, c) for p in sorted(self._children) for c in self._children[p])

    # -- structural queries --------------------------------------------

    def ancestors_of(self, v: str) -> set[str]:
        """Proper ancestors of v, root included."""
        self._require(v)
        out = set()
        while (p := self._parent.get(v)) is not None:
            out.add(p)
            v = p
        return out

    def relatives(self, vs: Iterable[str]) -> tuple[set[str], set[str]]:
        """(proper ancestors, proper descendants) of any member of vs.

        Each node is collected once: a parent walk stops at the first
        ancestor already collected, and a subtree walk starts only at a
        member with children and skips a node whose children are collected.
        """
        vs = vs if isinstance(vs, (set, frozenset)) else list(vs)
        if not self.nodes.issuperset(vs):
            self._require(next(v for v in vs if v not in self.nodes))
        parent, children = self._parent, self._children
        ancestors: set[str] = set()
        descendants: set[str] = set()
        for v in vs:
            p = parent.get(v)
            while p is not None and p not in ancestors:
                ancestors.add(p)
                p = parent.get(p)
        # Only v's own walk collects v's children, so once its first child
        # is collected the rest of v's subtree is collected or queued.
        inner = list(filter(children.get, vs))
        for v in inner:
            kids = children[v]
            if kids[0] not in descendants:
                descendants.update(kids)
                inner.extend(filter(children.get, kids))
        return ancestors, descendants

    def restrict(self, keep: Iterable[str]) -> "Tree":
        """The tree on the nodes in `keep`, rooted at the original root.

        `keep` must hold the root and every ancestor of its members.
        """
        keep = set(keep)
        return Tree(self.root, {v: [c for c in self.children_of(v) if c in keep] for v in keep})

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
    heads = children.keys() - parent.keys()
    tree = Tree.__new__(Tree)
    tree._build(min(heads, default=next(iter(children))), children, parent)
    return tree


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

    def grow(head: str, levels_left: int) -> None:
        if levels_left == 0:
            return
        star = head
        for step in range(1, spec.gamma + 1):
            nxt = f"{head}p{step}"
            children.setdefault(star, []).append(nxt)
            star = nxt
        for j in range(1, spec.delta + 1):
            child = f"{star}.{j}"
            children.setdefault(star, []).append(child)
            grow(child, levels_left - 1)

    grow("s", spec.star_levels)
    return Tree("s", children)


# -- canonical form ----------------------------------------------------


def canonical_code(tree: Tree) -> str:
    """Canonical encoding of the rooted tree shape.

    Two trees get equal codes iff they are isomorphic as rooted unlabeled
    trees (child codes are sorted, so the code ignores labels and child
    order).
    """

    order = [tree.root]
    for v in order:
        order.extend(tree.children_of(v))
    code: dict[str, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code.pop(c) for c in tree.children_of(v))) + ")"
    return code[tree.root]
