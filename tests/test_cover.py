import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sweepcover.cover import (
    BadSelectionError,
    CoverError,
    CoverReport,
    InvalidCoverError,
    LeafNodeError,
    NotAPartitionOfChildrenError,
    NotASingletonMemberError,
    canonical_blocks,
    canonical_rows,
    cover_from_json,
    embedding_tree,
    induced_subgraphs,
    make_cover,
    max_cover_size,
    swap_children,
    validate,
)
from sweepcover.corpus import random_labeled_tree
from sweepcover.tree import Tree, UnknownNodeError, canonical_code, parse_tree

STAR = parse_tree("r a\nr b")
FORK = parse_tree("r a\nr b\na c\na d")
# The least uncovered node is internal ("a" above the leaves "b" and "c").
UNCOVERED_INNER = (parse_tree("r a\nr z\na b\na c"), make_cover([["z"]]))
# Nested members that hold every leaf: coverage holds, no-ancestry fails.
NESTED_COVERING = (parse_tree("r a\nr b\na c"), make_cover([["a"], ["b"], ["c"]]))
# Four unnested members that miss one node: the count falls one short.
ONE_SHORT = (parse_tree("r a\nr b\nr c\nr d\nr e"), make_cover([["a"], ["b"], ["c"], ["d"]]))


class TestValidate:
    def test_root_singleton_is_valid(self):
        assert validate(STAR, make_cover([["r"]])).valid

    def test_leaf_singletons_are_valid(self):
        assert validate(STAR, make_cover([["a"], ["b"]])).valid

    def test_ancestry_violation(self):
        report = validate(STAR, make_cover([["r"], ["a"]]))
        assert not report.valid
        assert report.violations == ("no-ancestry",)
        assert report.witness == ("r", "a")
        assert validate(*NESTED_COVERING) == CoverReport(False, ("no-ancestry",), ("a", "c"))

    def test_coverage_violation(self):
        tree = parse_tree("r a\nr b\na c")
        report = validate(tree, make_cover([["a"]]))
        assert report.violations == ("coverage",)
        assert report.witness == ("b",)
        assert validate(*UNCOVERED_INNER) == CoverReport(False, ("coverage",), ("a",))

    def test_leaf_listed_with_no_children_counts_as_a_leaf(self):
        # "b" is a key of the mapping with an empty child list; it is still a
        # leaf, so the cover {a} misses it.
        tree = Tree("r", {"r": ["a", "b"], "b": []})
        assert tree.leaves() == ("a", "b") and max_cover_size(tree) == 2
        assert validate(tree, make_cover([["a"]])) == CoverReport(False, ("coverage",), ("b",))
        assert validate(tree, make_cover([["a"], ["b"]])).valid

    def test_sibling_violation(self):
        report = validate(FORK, make_cover([["b", "c"]]))
        assert "siblings" in report.violations

    def test_disjoint_violation(self):
        report = validate(FORK, make_cover([["c", "d"], ["c"], ["b"]]))
        assert "disjoint" in report.violations

    def test_single_node_tree_root_cover(self):
        # coverage holds vacuously for the one-node tree.
        tree = Tree("a", {})
        assert validate(tree, make_cover([["a"]])).valid

    def test_least_unknown_member_raises(self):
        # "z" comes first in canonical block order, but "y" is the least label.
        with pytest.raises(UnknownNodeError, match="^unknown node 'y'$"):
            validate(FORK, make_cover([["b", "y"], ["a", "z"]]))

    def test_all_violations_reported(self):
        tree = parse_tree("r a\nr b\na c\nb d")
        report = validate(tree, make_cover([["a"], ["c", "d"]]))
        assert set(report.violations) >= {"siblings", "no-ancestry"}


class TestSwapChildren:
    def test_swap_root_for_child_set(self):
        out = swap_children(STAR, make_cover([["r"]]), "r", [["a", "b"]])
        assert out == make_cover([["a", "b"]])

    def test_swap_root_for_singletons(self):
        out = swap_children(STAR, make_cover([["r"]]), "r", [["a"], ["b"]])
        assert out == make_cover([["a"], ["b"]])
        assert validate(STAR, out).valid

    def test_swap_single_child(self):
        chain = parse_tree("a b\nb c")
        assert swap_children(chain, make_cover([["a"]]), "a", [["b"]]) == make_cover([["b"]])

    def test_requires_singleton_member(self):
        with pytest.raises(NotASingletonMemberError):
            swap_children(STAR, make_cover([["a", "b"]]), "a", [["a"]])

    def test_requires_children(self):
        with pytest.raises(LeafNodeError):
            swap_children(STAR, make_cover([["a"], ["b"]]), "a", [])

    def test_rejects_non_partition(self):
        with pytest.raises(NotAPartitionOfChildrenError):
            swap_children(STAR, make_cover([["r"]]), "r", [["a"]])
        with pytest.raises(NotAPartitionOfChildrenError):
            swap_children(STAR, make_cover([["r"]]), "r", [["a", "b"], ["a"]])
        with pytest.raises(NotAPartitionOfChildrenError):
            swap_children(STAR, make_cover([["r"]]), "r", [["a", "b"], ["x"]])
        with pytest.raises(NotAPartitionOfChildrenError):
            swap_children(STAR, make_cover([["r"]]), "r", [["a", "b"], ["a", "b"]])
        with pytest.raises(NotAPartitionOfChildrenError, match="must be non-empty"):
            swap_children(STAR, make_cover([["r"]]), "r", [["a", "b"], []])


class TestInducedSubgraphs:
    def test_leaf_cover_splits_star(self):
        subs = induced_subgraphs(STAR, make_cover([["a"], ["b"]]))
        assert sorted(sub.nodes for sub in subs) == [{"a", "r"}, {"b", "r"}]

    def test_root_cover_is_whole_tree(self):
        (sub,) = induced_subgraphs(FORK, make_cover([["r"]]))
        assert sub.nodes == FORK.nodes

    def test_union_reconstitutes_tree(self):
        cover = make_cover([["c", "d"], ["b"]])
        subs = induced_subgraphs(FORK, cover)
        nodes = set().union(*(s.nodes for s in subs))
        edges = set().union(*(set(s.edges()) for s in subs))
        assert nodes == FORK.nodes and edges == set(FORK.edges())

    def test_block_parent_on_root_linear_path(self):
        # The block's parent closes the linear path from the root: every
        # node above it has one child.  For blocks of size >= 2 it is where
        # that path ends (a singleton block lets the path continue through
        # its member).
        cover = make_cover([["c", "d"], ["b"]])
        for block, sub in zip(canonical_blocks(cover), induced_subgraphs(FORK, cover)):
            parents = {sub.parent_of(v) for v in block}
            assert len(parents) == 1
            (vp,) = parents
            assert all(len(sub.children_of(u)) == 1 for u in sub.ancestors_of(vp))
            if len(block) >= 2:
                assert len(sub.children_of(vp)) != 1

    def test_block_is_size_one_cover_of_its_subgraph(self):
        cover = make_cover([["c", "d"], ["b"]])
        for block, sub in zip(canonical_blocks(cover), induced_subgraphs(FORK, cover)):
            assert validate(sub, make_cover([block])).valid

    def test_rejects_invalid_cover(self):
        with pytest.raises(InvalidCoverError):
            induced_subgraphs(STAR, make_cover([["r"], ["a"]]))


class TestEmbeddingTree:
    def test_root_cover_gives_single_node(self):
        t = embedding_tree(FORK, make_cover([["r"]]), {0: "r"})
        assert t.nodes == {"r"}

    def test_union_of_selected_paths(self):
        cover = make_cover([["c", "d"], ["b"]])
        t = embedding_tree(FORK, cover, {0: "b", 1: "d"})
        assert t.nodes == {"r", "b", "a", "d"}

    def test_selections_are_isomorphic(self):
        cover = make_cover([["c", "d"], ["b"]])
        t1 = embedding_tree(FORK, cover, {0: "b", 1: "c"})
        t2 = embedding_tree(FORK, cover, {0: "b", 1: "d"})
        assert canonical_code(t1) == canonical_code(t2)

    def test_leaf_count_equals_cover_size(self):
        cover = make_cover([["c", "d"], ["b"]])
        t = embedding_tree(FORK, cover, {0: "b", 1: "c"})
        assert len(t.leaves()) == len(cover)

    def test_bad_selection(self):
        with pytest.raises(BadSelectionError):
            embedding_tree(FORK, make_cover([["r"]]), {0: "a"})
        with pytest.raises(BadSelectionError):
            embedding_tree(FORK, make_cover([["r"]]), {1: "r"})

    def test_rejects_invalid_cover(self):
        with pytest.raises(InvalidCoverError, match="no-ancestry"):
            embedding_tree(STAR, make_cover([["r"], ["a"]]), {0: "a", 1: "r"})

    def test_swapped_nonsingleton_blocks_share_embedding(self):
        # Two different covers built by trading one node between two
        # non-singleton sibling blocks give isomorphic embeddings.
        tree = parse_tree("r a\nr b\nr c\nr d")
        c1 = make_cover([["a", "b"], ["c", "d"]])
        c2 = make_cover([["a", "c"], ["b", "d"]])
        assert c1 != c2
        e1 = embedding_tree(tree, c1, {0: "a", 1: "d"})
        e2 = embedding_tree(tree, c2, {0: "a", 1: "d"})
        assert canonical_code(e1) == canonical_code(e2)


def test_max_cover_size():
    assert max_cover_size(STAR) == 2
    assert max_cover_size(parse_tree("a b\nb c\nc d")) == 1
    assert max_cover_size(FORK) == 3


def test_cover_json_round_trip():
    cover = make_cover([["c", "d"], ["b"]])
    blocks, (ranks,) = canonical_rows([cover])
    text = json.dumps([blocks[r] for r in ranks])
    assert cover_from_json(text) == cover
    assert text == '[["b"], ["c", "d"]]'


def test_cover_json_rejects_a_repeated_block():
    # A collection that lists a block twice is not disjoint, whatever order
    # the labels come in; a label repeated inside one block is read as a set.
    for text in ('[["a"], ["a"], ["b"]]', '[["a", "b"], ["b", "a"]]'):
        with pytest.raises(CoverError, match="twice"):
            cover_from_json(text)
    assert cover_from_json('[["a", "a", "b"]]') == make_cover([["a", "b"]])
    assert make_cover([["a"], ["a"], ["b"]]) == make_cover([["a"], ["b"]])


def test_cover_json_rejects_an_empty_block():
    with pytest.raises(CoverError, match="^cover blocks must be non-empty$"):
        cover_from_json('[["a"], []]')


def random_valid_cover(rng, tree):
    """Random walk of child swaps starting from the root cover (stays valid)."""
    cover = make_cover([[tree.root]])
    for _ in range(rng.randrange(6)):
        singles = [next(iter(b)) for b in cover if len(b) == 1]
        candidates = [v for v in singles if tree.children_of(v)]
        if not candidates:
            break
        v = rng.choice(sorted(candidates))
        kids = list(tree.children_of(v))
        rng.shuffle(kids)
        blocks, i = [], 0
        while i < len(kids):
            j = rng.randint(i + 1, len(kids))
            blocks.append(kids[i:j])
            i = j
        cover = swap_children(tree, cover, v, blocks)
    return cover


def test_random_swap_walk_preserves_validity():
    rng = random.Random(7)
    for _ in range(200):
        tree = random_labeled_tree(rng, rng.randint(2, 25))
        cover = random_valid_cover(rng, tree)
        assert validate(tree, cover).valid
        assert len(cover) <= max_cover_size(tree)


def reference_report(tree, cover):
    """The four conditions read straight off their definitions.

    Ancestry comes from parent walks alone and every condition from set
    algebra; witnesses are the ones `validate` reports (the first offender
    in canonical block order, otherwise the least label).
    """

    def ancestors(v):
        out = set()
        while (v := tree.parent_of(v)) is not None:
            out.add(v)
        return out

    blocks = canonical_blocks(cover)
    members = set().union(*blocks)
    found = []
    shared = [v for i, b in enumerate(blocks) for v in b if any(v in a for a in blocks[:i])]
    if shared:
        found.append(("disjoint", (shared[0],)))
    mixed = [b for b in blocks if len({tree.parent_of(v) for v in b}) > 1]
    if mixed:
        found.append(("siblings", mixed[0]))
    uncovered = {v for v in tree.nodes if not ({v} | ancestors(v)) & members} - {
        a for m in members for a in ancestors(m)
    }
    if uncovered:
        found.append(("coverage", (min(uncovered),)))
    nested = [(min(ancestors(v) & members), v) for v in sorted(members) if ancestors(v) & members]
    if nested:
        found.append(("no-ancestry", nested[0]))
    return CoverReport(
        valid=not found,
        violations=tuple(cond for cond, _ in found),
        witness=found[0][1] if found else None,
    )


@st.composite
def trees_with_covers(draw, max_nodes=30):
    """A random tree of up to max_nodes nodes and an arbitrary cover of it.

    The cover mixes part of a valid cover reached by child swaps with
    arbitrary node sets and sibling sets, so a few covers are valid and most
    are not.  A tree with edges is built either by `Tree`, whose mapping may
    list some leaves with empty child lists, or by `parse_tree` from its
    edge text.
    """
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = [f"v{i}" for i in draw(st.permutations(range(size)))]
    children: dict[str, list[str]] = {}
    for i in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        children.setdefault(labels[parent], []).append(labels[i])
    listed = draw(st.sets(st.sampled_from(labels)))
    tree = Tree(labels[0], {**{v: [] for v in listed}, **children})
    if children and draw(st.booleans()):
        parsed = parse_tree("".join(f"{p} {c}\n" for p, kids in children.items() for c in kids))
        assert (parsed.root, parsed.edges()) == (tree.root, tree.edges())
        tree = parsed
    nodes = st.sampled_from(sorted(tree.nodes))
    swapped = [list(b) for b in random_valid_cover(draw(st.randoms()), tree)]
    blocks = swapped[: draw(st.integers(min_value=0, max_value=len(swapped)))]
    blocks += draw(st.lists(st.sets(nodes, min_size=1), max_size=3))
    for v in draw(st.lists(nodes, max_size=3)):
        if tree.children_of(v):
            blocks.append(draw(st.sets(st.sampled_from(tree.children_of(v)), min_size=1)))
    return tree, make_cover(blocks or swapped)


@settings(max_examples=300, deadline=None)
@given(trees_with_covers(), st.booleans())
@example(UNCOVERED_INNER, False)
@example(NESTED_COVERING, False)
@example(ONE_SHORT, False)
def test_validate_matches_definitions(case, foreign):
    tree, cover = case
    if foreign:
        with pytest.raises(UnknownNodeError):
            validate(tree, cover | {frozenset({"not-a-node"})})
        return
    assert validate(tree, cover) == reference_report(tree, cover)


@settings(max_examples=300, deadline=None)
@given(trees_with_covers(), st.data())
def test_relatives_match_parent_walks(case, data):
    tree, _ = case
    labels = st.sampled_from([*sorted(tree.nodes), "unknown0", "unknown1"])
    vs = data.draw(st.lists(labels, max_size=8))
    form = data.draw(st.sampled_from([list, iter, set]))

    def ancestors(v):
        out = set()
        while (v := tree.parent_of(v)) is not None:
            out.add(v)
        return out

    unknown = {v for v in vs if v not in tree}
    if unknown:
        for query in (tree.ancestors, tree.descendants):
            with pytest.raises(UnknownNodeError, match=f"^unknown node {min(unknown)!r}$"):
                query(form(vs))
        return
    up = set().union(*map(ancestors, vs))
    down = {u for u in tree.nodes if ancestors(u) & set(vs)}
    assert (tree.ancestors(form(vs)), tree.descendants(form(vs))) == (up, down)


def test_validate_reads_no_leaf_counts(monkeypatch):
    leaf_count = Tree.leaf_count

    def refused(self, v):
        raise AssertionError(f"leaf_count({v!r}) called")

    monkeypatch.setattr(Tree, "leaf_count", refused)
    spine = [f"s{i}" for i in range(4001)]
    caterpillar = Tree(spine[0], {s: [f"l{i}", spine[i + 1]] for i, s in enumerate(spine[:-1])})
    tree = random_labeled_tree(random.Random(23), 40)
    leaf = tree.leaves()[0]
    cases = [
        (caterpillar, make_cover([[v] for v in caterpillar.leaves()]), ()),
        (tree, make_cover([[tree.root], [leaf]]), ("no-ancestry",)),
        (tree, make_cover([[leaf]]), ("coverage",)),
    ]
    for t, cover, violations in cases:
        assert validate(t, cover).violations == violations
        assert t.ancestors(t.nodes) == t.nodes - set(t.leaves())
        assert t.descendants(t.nodes) == t.nodes - {t.root}
        assert len(t) == len(t.nodes) and t.root in t and "not-a-node" not in t
        for v in t.nodes:
            t.children_of(v), t.parent_of(v), t.ancestors_of(v)
    assert leaf_count(caterpillar, "s0") == leaf_count(caterpillar, "s1") + 1 == 4001



def test_deep_caterpillar_all_leaves_cover_is_valid():
    # Spine s0..s4000, each inner spine node with one leaf: 4,001 leaves.
    spine = [f"s{i}" for i in range(4001)]
    tree = Tree(spine[0], {s: [f"l{i}", spine[i + 1]] for i, s in enumerate(spine[:-1])})
    cover = make_cover([[v] for v in tree.leaves()])
    assert len(cover) == 4001
    assert validate(tree, cover) == CoverReport(valid=True, violations=())
