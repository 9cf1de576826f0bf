import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sweepcover
from sweepcover.counting import InvalidParamsError
from sweepcover.tree import (
    CycleError,
    DuplicateEdgeError,
    EmptyDocumentError,
    IldSpec,
    MultipleParentsError,
    MultipleRootsError,
    Tree,
    TreeError,
    UnknownNodeError,
    build_ild_truncated,
    canonical_code,
    parse_tree,
    serialize_tree,
)


def chain(*labels):
    return Tree(labels[0], {a: [b] for a, b in zip(labels, labels[1:])})


class TestParse:
    def test_two_edge_star(self):
        t = parse_tree("r a\nr b")
        assert t.root == "r"
        assert t.children_of("r") == ("a", "b")

    def test_chain(self):
        t = parse_tree("a b\nb c")
        assert t.root == "a"
        assert len(t.ancestors_of("c")) == 2

    def test_comments_and_blanks(self):
        t = parse_tree("# a tree\nr a  # edge\n\nr b\n")
        assert t.nodes == {"r", "a", "b"}

    def test_two_parents(self):
        with pytest.raises(MultipleParentsError):
            parse_tree("r a\ns a")

    def test_forest(self):
        with pytest.raises(MultipleRootsError):
            parse_tree("r a\ns b")

    def test_cycle(self):
        with pytest.raises(CycleError):
            parse_tree("a b\nb a")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_tree("r a\nr a")

    def test_empty_document(self):
        with pytest.raises(EmptyDocumentError):
            parse_tree("# nothing here\n")

    def test_malformed_line(self):
        cases = [
            ("r a b", "line 1: expected 'parent child', got 'r a b'"),
            # After comment-only, blank and "\r"-ended lines.
            (
                "# only a comment\n\nr a\r\n   # x\r\n\r\nr b c\r\nr d\n",
                "line 6: expected 'parent child', got 'r b c\\r'",
            ),
            # One field on a last line with no trailing newline.
            ("r a\nr b\nr", "line 3: expected 'parent child', got 'r'"),
            ("\n\n\nr\n", "line 4: expected 'parent child', got 'r'"),
            ("r a\nr b x y\n", "line 2: expected 'parent child', got 'r b x y'"),
            ("r a\nb  # note\n", "line 2: expected 'parent child', got 'b  # note'"),
        ]
        for text, message in cases:
            with pytest.raises(TreeError) as info:
                parse_tree(text)
            assert type(info.value) is TreeError
            assert str(info.value) == message

    def test_lines_end_only_at_newline(self):
        # str.splitlines would also break at the form feed, read two edges
        # and blame line 3.
        with pytest.raises(TreeError, match=r"^line 1: "):
            parse_tree("r a\x0cr b\nr c d\n")
        for sep in ("\x1c", "\x85", "\u2028"):
            with pytest.raises(TreeError, match=r"^line 2: "):
                parse_tree(f"r a\nr b{sep}r c\n")

    def test_crlf_parses_as_before(self):
        text = "# a tree\nr a  # edge\n\nr b\na c\na d\n"
        lf, crlf = parse_tree(text), parse_tree(text.replace("\n", "\r\n"))
        assert (crlf.root, crlf.edges()) == (lf.root, lf.edges())
        assert crlf.edges() == (("a", "c"), ("a", "d"), ("r", "a"), ("r", "b"))
        with pytest.raises(TreeError, match=r"^line 2: "):
            parse_tree("r a\r\nr b c\r\n")

    def test_valid_document_skips_the_edge_walk(self, monkeypatch):
        # Rows that name each child once build without a per-label check.
        text = "# a tree\r\nr a  # edge\r\n\r\nr b\r\na c\r\na d\r\n"
        want = parse_tree(text)

        def refuse(label):
            raise AssertionError(f"label {label!r} checked")

        monkeypatch.setattr("sweepcover.tree._check_label", refuse)
        got = parse_tree(text)
        assert (got.root, got.edges()) == (want.root, want.edges())
        assert got.edges() == (("a", "c"), ("a", "d"), ("r", "a"), ("r", "b"))

    def test_label_characters(self):
        every = [chr(i) for i in range(sys.maxunicode + 1)]
        for bad in [ch for ch in every if ch.isspace()] + ["#"]:
            for label in (bad, f"a{bad}b"):
                with pytest.raises(TreeError) as info:
                    Tree("r", {"r": ["x", label]})
                assert str(info.value) == f"node label contains whitespace or '#': {label!r}"
        for root, children in (("", {"": ["a"]}), ("r", {"r": [""]})):
            with pytest.raises(TreeError, match="^empty node label$"):
                Tree(root, children)
        # Every other character is allowed: long labels hold them all.
        rest = "".join(ch for ch in every if not ch.isspace() and ch != "#")
        labels = [rest[i : i + 4096] for i in range(0, len(rest), 4096)]
        assert len(Tree("r", {"r": labels})) == len(labels) + 1

    # Documents with several faults report the first one met walking the
    # edges parent by parent, children in order; a root with a parent and
    # unreachable nodes are reported only after every edge passes.
    @pytest.mark.parametrize(
        "make,error,message",
        [
            (
                lambda: Tree("r", {"r": ["a", "a", "b c"]}),
                DuplicateEdgeError,
                "duplicate edge r -> a",
            ),
            (
                lambda: Tree("r", {"r": ["b c", "a", "a"]}),
                TreeError,
                "node label contains whitespace or '#': 'b c'",
            ),
            (
                lambda: Tree("r", {"r": ["a", "b"], "b": ["a", "c#"]}),
                MultipleParentsError,
                "node a has parents r and b",
            ),
            (
                lambda: Tree("r", {"r": ["a"], "b": ["a", ""]}),
                MultipleParentsError,
                "node a has parents r and b",
            ),
            (
                lambda: Tree("r", {"r": ["a"], "a": ["r", "x\ty"]}),
                TreeError,
                "node label contains whitespace or '#': 'x\\ty'",
            ),
            (
                lambda: Tree("r", {"r": ["a"], "a": ["r", "b", "b"]}),
                DuplicateEdgeError,
                "duplicate edge a -> b",
            ),
            (
                lambda: Tree("r", {"a": ["r"], "b": ["r"]}),
                MultipleParentsError,
                "node r has parents a and b",
            ),
            (
                lambda: Tree("r s", {"r s": ["a", "a"]}),
                TreeError,
                "node label contains whitespace or '#': 'r s'",
            ),
            (lambda: Tree("", {"r": ["a b"]}), TreeError, "empty node label"),
            (lambda: Tree("r", {"r": ["a", "a", 5]}), DuplicateEdgeError, "duplicate edge r -> a"),
            (
                lambda: Tree("r", {"r": ["a"], "x": ["y"], "b": ["c"], "c": ["b"]}),
                MultipleRootsError,
                "unreachable parentless nodes: ['x']",
            ),
            (
                lambda: Tree("r", {"r": ["a"], "b": ["c"], "c": ["b"]}),
                CycleError,
                "nodes not reachable from root: ['b', 'c']",
            ),
            (lambda: parse_tree("r a\ns a\nr a"), DuplicateEdgeError, "duplicate edge r -> a"),
            (
                lambda: parse_tree("a b\nb a\nc d"),
                CycleError,
                "nodes not reachable from root: ['a', 'b']",
            ),
            (
                lambda: parse_tree("r a\na r\ns a"),
                MultipleParentsError,
                "node a has parents r and s",
            ),
        ],
    )
    def test_first_fault_wins(self, make, error, message):
        with pytest.raises(TreeError) as info:
            make()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_serialize_round_trip(self):
        t = parse_tree("r b\nr a\na c\na d")
        again = parse_tree(serialize_tree(t))
        assert again.nodes == t.nodes
        assert set(again.edges()) == set(t.edges())
        # Leaves listed with empty child lists add no line; children are sorted.
        for kids in (["a", "b"], ["b", "a"]):
            assert serialize_tree(Tree("r", {"r": kids, "a": [], "b": []})) == "r a\nr b\n"


class TestQueries:
    def test_tree_keeps_no_reference_to_its_input(self):
        children = {"r": ["a", "b"], "a": ["c", "d"]}
        t = Tree("r", children)
        children["r"].append("x")
        children["a"].clear()
        children["b"] = ["y", "z"]
        del children["r"]
        assert t.edges() == (("a", "c"), ("a", "d"), ("r", "a"), ("r", "b"))
        assert {v: t.children_of(v) for v in t.nodes} == {
            "r": ("a", "b"), "a": ("c", "d"), "b": (), "c": (), "d": ()
        }
        assert len(t) == 5
        # The first `leaf_count` call comes after the caller's edits.
        assert {v: t.leaf_count(v) for v in t.nodes} == {"r": 3, "a": 2, "b": 1, "c": 1, "d": 1}

    def test_restrict_without_an_ancestor_raises(self):
        t = parse_tree("r a\nr b\na c\na d\nc e")
        assert t.restrict({"r", "a", "c", "e"}).edges() == (("a", "c"), ("c", "e"), ("r", "a"))
        # "c" is kept without its parent "a": it is a second parentless node.
        with pytest.raises(MultipleRootsError, match=r"^unreachable parentless nodes: \['c'\]$"):
            t.restrict({"r", "c", "e"})
        with pytest.raises(MultipleRootsError, match=r"^unreachable parentless nodes: \['e'\]$"):
            t.restrict({"r", "b", "e"})
        with pytest.raises(UnknownNodeError, match="^unknown node 'zz'$"):
            t.restrict({"r", "zz"})
        # The empty keep lacks the root as much as a non-empty one does.
        for keep in ((), {"c", "e"}):
            with pytest.raises(TreeError, match=r"^restrict keeps no root: 'r' is missing$"):
                t.restrict(keep)

    def test_depth_root_is_zero(self):
        t = parse_tree("r a\nr b")
        assert len(t.ancestors_of("r")) == 0
        assert len(t.ancestors_of("b")) == 1

    def test_depth_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            parse_tree("r a").ancestors_of("z")

    def test_relatives_star(self):
        t = parse_tree("r a\nr b")
        assert (t.ancestors({"a"}), t.descendants({"a"})) == ({"r"}, set())
        assert (t.ancestors({"a", "b"}), t.descendants({"a", "b"})) == ({"r"}, set())

    def test_relatives_chain(self):
        t = chain("a", "b", "c")
        assert (t.ancestors({"b"}), t.descendants({"b"})) == ({"a"}, {"c"})

    def test_relatives_fork(self):
        t = parse_tree("r a\nr b\na c\na d")
        assert (t.ancestors({"c", "d", "b"}), t.descendants({"c", "d", "b"})) == ({"r", "a"}, set())
        assert (t.ancestors({"a", "c"}), t.descendants({"a", "c"})) == ({"r", "a"}, {"c", "d"})

    def test_subtree(self):
        t = parse_tree("r a\nr b\na c\na d")
        assert t.descendants({"a"}) == {"c", "d"}
        assert [t.leaf_count(v) for v in ("r", "a", "b", "c")] == [3, 2, 1, 1]

    def test_leaf_count_unknown_label(self):
        t = parse_tree("r a\nr b")
        with pytest.raises(UnknownNodeError, match="'zz'"):
            t.leaf_count("zz")
        assert [t.leaf_count(v) for v in ("r", "a", "b")] == [2, 1, 1]

    def test_children_of_unknown_label(self):
        t = parse_tree("r a\nr b")
        for query in (t.children_of, t.leaf_count):
            with pytest.raises(UnknownNodeError, match="^unknown node 'zz'$"):
                query("zz")
        assert [t.children_of(v) for v in ("r", "a")] == [("a", "b"), ()]

    def test_depth_parent_invariant(self):
        t = parse_tree("r a\nr b\na c\nc d")
        for v in t.nodes:
            p = t.parents().get(v)
            if p is not None:
                assert len(t.ancestors_of(p)) + 1 == len(t.ancestors_of(v))


class TestIld:
    def test_minimal_star(self):
        t = build_ild_truncated(IldSpec(delta=2, gamma=0, star_levels=1))
        assert len(t) == 3
        assert len(t.children_of(t.root)) == 2

    def test_gamma_one(self):
        t = build_ild_truncated(IldSpec(delta=2, gamma=1, star_levels=1))
        assert len(t) == 4
        assert len(t.children_of(t.root)) == 1

    def test_two_levels_node_count(self):
        t = build_ild_truncated(IldSpec(delta=3, gamma=0, star_levels=2))
        assert len(t) == 1 + 3 + 9

    def test_gamma_paths_between_stars(self):
        t = build_ild_truncated(IldSpec(delta=2, gamma=2, star_levels=2))
        # root path: gamma edges to the first star, then per child again.
        order = [t.root]  # breadth-first, so the first star comes first
        for v in order:
            order.extend(t.children_of(v))
        star, *next_stars = [v for v in order if len(t.children_of(v)) > 1]
        assert len(t.ancestors_of(star)) == 2
        assert len(next_stars) == 2
        parent = t.parents()
        for nxt in next_stars:
            head = parent[parent[nxt]]
            assert parent[head] == star
            assert len(t.children_of(head)) == len(t.children_of(parent[nxt])) == 1
            assert len(t.ancestors_of(nxt)) == len(t.ancestors_of(star)) + 3

    def test_deterministic_labels(self):
        spec = IldSpec(delta=3, gamma=1, star_levels=2)
        assert serialize_tree(build_ild_truncated(spec)) == serialize_tree(
            build_ild_truncated(spec)
        )

    @pytest.mark.parametrize("delta,gamma,levels", [(1, 0, 1), (2, -1, 1), (2, 0, 0)])
    def test_spec_validation(self, delta, gamma, levels):
        with pytest.raises(InvalidParamsError):
            IldSpec(delta, gamma, levels)


class TestCanonicalCode:
    def test_relabeling_invariance(self):
        assert canonical_code(parse_tree("r a\nr b")) == canonical_code(parse_tree("x y\nx z"))

    def test_heteromorphic_trees_differ(self):
        assert canonical_code(chain("a", "b", "c")) != canonical_code(parse_tree("r a\nr b"))

    def test_child_order_invariance(self):
        t1 = parse_tree("r a\nr b\na c")
        t2 = parse_tree("r a\nr b\nb c")
        assert canonical_code(t1) == canonical_code(t2)

    def test_deep_chain_round_trips(self):
        deep = chain(*(f"c{i}" for i in range(5000)))
        code = canonical_code(deep)
        assert code == "(" * 5000 + ")" * 5000
        assert canonical_code(parse_tree(serialize_tree(deep))) == code


EDGE_LISTS = st.lists(
    st.tuples(st.sampled_from(["r", "a", "b", "c", "#"]), st.sampled_from(["a", "b", "c", "r"])),
    max_size=6,
).map(lambda edges: "".join(f"{p} {c}\n" for p, c in edges))


@given(st.one_of(st.text(), EDGE_LISTS))
def test_parse_tree_returns_tree_or_raises_tree_error(text):
    try:
        tree = parse_tree(text)
    except TreeError:
        return
    assert isinstance(tree, Tree)
    again = parse_tree(serialize_tree(tree))
    assert (again.root, set(again.edges())) == (tree.root, set(tree.edges()))


def shape(t, v):
    """canonical_code's fold, written as the recursion it replaces."""
    return "(" + "".join(sorted(shape(t, c) for c in t.children_of(v))) + ")"


def check_walk_tables(t):
    """The build kept its breadth-first walk, and both tables read over it agree with the edges."""
    order = [t.root]
    for v in order:
        order.extend(t.children_of(v))
    assert t._order == order
    for v in t.nodes:
        below = t.descendants([v])
        assert t.leaf_count(v) == sum(1 for u in [v, *below] if not t.children_of(u))
    assert t.leaf_count(t.root) == len(t.leaves())
    assert canonical_code(t) == shape(t, t.root)


@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=15),
    st.integers(min_value=1, max_value=16),
)
def test_random_attachment_tree_invariants(parent_picks, kept):
    children = {}
    labels = [f"n{i}" for i in range(len(parent_picks) + 1)]
    for i, pick in enumerate(parent_picks, start=1):
        children.setdefault(labels[pick % i], []).append(labels[i])
    t = Tree(labels[0], children)
    parent = t.parents()
    for v in t.nodes:
        assert all(parent[c] == v for c in t.children_of(v))
        p = parent.get(v)
        assert t.ancestors_of(v) == (set() if p is None else {p} | t.ancestors_of(p))
        below = t.descendants([v])
        assert below == {u for u in t.nodes if v in t.ancestors_of(u)}
    check_walk_tables(t)
    again = parse_tree(serialize_tree(t))
    assert again.nodes == t.nodes and set(again.edges()) == set(t.edges())
    assert again.root == t.root
    check_walk_tables(again)
    assert canonical_code(again) == canonical_code(t)
    # Each label's parent comes earlier in `labels`, so every prefix holds its ancestors.
    part = t.restrict(labels[:kept])
    assert part.nodes == set(labels[:kept])
    check_walk_tables(part)
    if len(part) > 1:  # a lone root has no edge to write
        again = parse_tree(serialize_tree(part))
        assert (again.root, set(again.edges())) == (part.root, set(part.edges()))


# Each set query names the least unknown label, whatever order the set iterates in.
HASH_SEED_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
from sweepcover.tree import UnknownNodeError, parse_tree
t = parse_tree("r a\\nr b")
for query in (t.restrict, t.ancestors, t.descendants):
    try:
        query({"zz", "yy", "xx"})
    except UnknownNodeError as exc:
        print(exc)
"""


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_unknown_labels_give_the_same_error_under_any_hash_seed(seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweepcover.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", HASH_SEED_SNIPPET, src],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "unknown node 'xx'\n" * 3


def first_fault(root, children):
    """(class name, message) of the fault a Tree build must report, or None.

    Edges are checked one by one in their given order, parent by parent,
    then the root and reachability, with no whole-input shortcut.
    """

    def bad_label(label):
        if not label:
            return ("TreeError", "empty node label")
        if any(ch.isspace() or ch == "#" for ch in label):
            return ("TreeError", f"node label contains whitespace or '#': {label!r}")
        return None

    if fault := bad_label(root):
        return fault
    parent = {}
    for p, kids in children.items():
        if fault := bad_label(p):
            return fault
        for i, c in enumerate(kids):
            if fault := bad_label(c):
                return fault
            if c in kids[:i]:
                return ("DuplicateEdgeError", f"duplicate edge {p} -> {c}")
            if c in parent:
                return ("MultipleParentsError", f"node {c} has parents {parent[c]} and {p}")
            parent[c] = p
    if root in parent:
        return ("CycleError", f"root {root} has a parent")
    reached, todo = set(), [root]
    while todo:
        reached.add(v := todo.pop())
        todo.extend(children.get(v, ()))
    stranded = sorted({root, *children, *parent} - reached)
    orphans = [v for v in stranded if v not in parent]
    if orphans:
        return ("MultipleRootsError", f"unreachable parentless nodes: {orphans}")
    if stranded:
        return ("CycleError", f"nodes not reachable from root: {stranded}")
    return None


FAULTY_LABELS = st.sampled_from(["r", "a", "b", "c", "", "a b", "#", "x\ty"])


@settings(max_examples=300)
@given(
    FAULTY_LABELS,
    st.dictionaries(FAULTY_LABELS, st.lists(FAULTY_LABELS, max_size=4), max_size=5),
)
def test_tree_reports_first_fault(root, children):
    try:
        Tree(root, children)
        got = None
    except TreeError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == first_fault(root, children)


@st.composite
def edge_documents(draw):
    """Edges of a random tree, maybe with one fault injected, in a random order.

    A fault is a repeated edge, a second parent, a cycle (two new nodes, or
    an edge into the root) or a second root.
    """
    size = draw(st.integers(min_value=2, max_value=12))
    labels = [f"n{i}" for i in draw(st.permutations(range(size)))]
    edges = [(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, size)]
    nodes = st.sampled_from(labels)
    fault = draw(st.sampled_from([None, "duplicate", "second parent", "cycle", "root", "forest"]))
    if fault == "duplicate":
        edges.append(draw(st.sampled_from(edges)))
    elif fault == "second parent":
        edges.append((draw(nodes), draw(st.sampled_from(labels[1:]))))
    elif fault == "cycle":
        edges += [("x0", "x1"), ("x1", "x0")]
    elif fault == "root":
        edges.append((draw(nodes), labels[0]))
    elif fault == "forest":  # the extra root sorts before or after the tree's
        edges.append((draw(st.sampled_from(["a0", "x0"])), "x1"))
    return draw(st.permutations(edges))


@settings(max_examples=300)
@given(edge_documents(), st.sampled_from(["\n", "\r\n"]))
def test_parse_tree_matches_tree(edges, newline):
    children: dict[str, list[str]] = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    heads = set(children) - {c for _, c in edges}
    root = min(heads, default=edges[0][0])

    def outcome(build):
        try:
            t = build()
        except TreeError as exc:
            return type(exc), str(exc)
        return (
            t.root,
            t.edges(),
            t.nodes,
            {v: (t.children_of(v), t.parents().get(v), t.leaf_count(v)) for v in t.nodes},
        )

    text = "".join(f"{p} {c}{newline}" for p, c in edges)
    assert outcome(lambda: parse_tree(text)) == outcome(lambda: Tree(root, children))
