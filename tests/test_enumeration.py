import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sweepcover import enumeration
from sweepcover.corpus import all_rooted_trees, random_labeled_tree
from sweepcover.counting import InvalidParamsError, count_nonsingleton
from sweepcover.cover import make_cover, max_cover_size, validate
from sweepcover.enumeration import (
    all_sweep_covers,
    brute_force_covers,
    compositions,
    find_sweep_covers,
    nonsingleton_partitions,
    set_partitions,
)
from sweepcover.tree import IldSpec, Tree, build_ild_truncated, canonical_code, parse_tree

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestCompositions:
    def test_three_into_two(self):
        assert list(compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_too_many_parts(self):
        assert list(compositions(2, 3)) == []
        assert list(compositions(0, 0)) == list(compositions(3, 0)) == []
        assert list(compositions(-1, 1)) == list(compositions(0, 1)) == []

    def test_many_parts(self):
        # No recursion and no stored prefixes: 1,100 parts cost one list.
        assert next(compositions(1200, 1100)) == (1,) * 1099 + (101,)

    def test_five_into_three(self):
        got = list(compositions(5, 3))
        assert len(got) == comb(4, 2)
        assert all(sum(c) == 5 and all(p >= 1 for p in c) for c in got)

    def test_capped_is_filtered_compositions(self):
        for caps in [(1,), (3,), (1, 4), (2, 1, 3), (5, 1, 1, 2)]:
            for k in range(0, sum(caps) + 2):
                boxes = itertools.product(*(range(1, cap + 1) for cap in caps))
                want = [c for c in boxes if sum(c) == k]
                capped = [
                    c for c in compositions(k, len(caps)) if all(p <= q for p, q in zip(c, caps))
                ]
                assert capped == want, (caps, k)

    def test_lexicographic_and_counts(self):
        for k in range(1, 13):
            for n in range(1, k + 1):
                got = list(compositions(k, n))
                assert all(sum(c) == k and len(c) == n and min(c) >= 1 for c in got)
                assert got == sorted(got)
                assert len(got) == comb(k - 1, n - 1)
                assert len(set(got)) == len(got)


class TestSetPartitions:
    def test_pair(self):
        got = list(set_partitions(["a", "b"], 2))
        assert got == [(frozenset({"a", "b"}),), (frozenset({"a"}), frozenset({"b"}))]

    def test_bell_numbers(self):
        for n in range(1, 9):
            items = [str(i) for i in range(n)]
            got = list(set_partitions(items, n))
            assert len(got) == BELL[n]
            assert len({frozenset(p) for p in got}) == len(got)

    def test_single_block(self):
        assert list(set_partitions(["a", "b", "c"], 1)) == [(frozenset("abc"),)]

    def test_block_cap(self):
        got = list(set_partitions(list("abcd"), 2))
        assert all(len(p) <= 2 for p in got)

    def test_singletons_then_blocks_order(self):
        got = list(set_partitions(list("abc"), 2))
        assert got == [
            (frozenset("abc"),),
            (frozenset("a"), frozenset("bc")),
            (frozenset("b"), frozenset("ac")),
            (frozenset("c"), frozenset("ab")),
        ]

    def test_counts_are_stirling_sums(self):
        # stirling[k][b]: partitions of k items into exactly b blocks.
        stirling = [[1]]
        for k in range(1, 10):
            row = stirling[-1] + [0]
            stirling.append([0] + [b * row[b] + row[b - 1] for b in range(1, k + 1)])
        for k in range(1, 10):
            items = [str(i) for i in range(k)]
            for max_blocks in range(-1, k + 2):
                got = list(set_partitions(items, max_blocks))
                assert len({frozenset(p) for p in got}) == len(got), (k, max_blocks)
                for p in got:
                    assert 1 <= len(p) <= max_blocks and all(p), (k, max_blocks)
                    assert sorted(x for b in p for x in b) == items, (k, max_blocks)
                assert len(got) == sum(stirling[k][: max(max_blocks + 1, 0)]), (k, max_blocks)
        for max_blocks in range(-1, 3):
            assert list(set_partitions([], max_blocks)) == []

    def test_many_elements(self):
        items = [str(i) for i in range(5000)]
        assert next(iter(set_partitions(items, 2))) == (frozenset(items),)


class TestNonsingletonPartitions:
    def test_four_into_two(self):
        got = list(nonsingleton_partitions(list("abcd"), 2))
        assert len(got) == 3
        assert {frozenset(p) for p in got} == {
            frozenset({frozenset("ab"), frozenset("cd")}),
            frozenset({frozenset("ac"), frozenset("bd")}),
            frozenset({frozenset("ad"), frozenset("bc")}),
        }

    def test_pigeonhole_empty(self):
        assert list(nonsingleton_partitions(list("abc"), 2)) == []

    def test_pair_single_block(self):
        # One block is the whole group, from a pair up; below that there is none.
        for n in range(7):
            items = [f"x{i}" for i in range(n)]
            got = list(nonsingleton_partitions(items, 1))
            assert got == ([(frozenset(items),)] if n >= 2 else []), n
            assert len(got) == count_nonsingleton(n, 1), n

    def test_counts_match_formula(self):
        for n in range(11):
            items = [str(i) for i in range(n)]
            for m in range(6):
                assert sum(1 for _ in nonsingleton_partitions(items, m)) == count_nonsingleton(
                    n, m
                ), (n, m)

    def test_empty_partition_only_of_no_elements(self):
        assert list(nonsingleton_partitions([], 0)) == [()]
        assert list(nonsingleton_partitions(["a", "b"], 0)) == []

    def test_matches_filtered_set_partitions(self):
        # The reference: every partition into at most m blocks, kept when it
        # has exactly m blocks of two or more.  The generator's order is its
        # own, so compare as sets.
        for n in range(1, 10):
            items = [str(i) for i in range(n)]
            for m in range(5):
                want = {
                    frozenset(p)
                    for p in set_partitions(items, m)
                    if len(p) == m and all(len(b) >= 2 for b in p)
                }
                got = list(nonsingleton_partitions(items, m))
                assert all(len(p) == m for p in got), (n, m)
                assert len({frozenset(p) for p in got}) == len(got), (n, m)
                assert {frozenset(p) for p in got} == want, (n, m)

    def test_twelve_into_six_pairs(self):
        # 11!! = 10,395 perfect matchings, generated directly rather than
        # filtered out of Bell(12) = 4,213,597 set partitions.
        items = [str(i) for i in range(12)]
        start = time.perf_counter()
        got = list(nonsingleton_partitions(items, 6))
        assert time.perf_counter() - start < 1.0
        assert len(got) == len({frozenset(p) for p in got}) == 10395
        assert all(len(b) == 2 for p in got for b in p)


class TestFindSweepCovers:
    def test_star_size_one(self):
        t = parse_tree("r a\nr b")
        assert find_sweep_covers(t, 1) == {make_cover([["r"]]), make_cover([["a", "b"]])}

    def test_star_size_two(self):
        t = parse_tree("r a\nr b")
        assert find_sweep_covers(t, 2) == {make_cover([["a"], ["b"]])}

    def test_beyond_max_size_is_empty(self):
        t = parse_tree("r a\nr b")
        assert find_sweep_covers(t, 3) == set()

    def test_wide_stars_cost_follows_covers(self):
        # A k-leaf star's child set has Bell(k) partitions (4.2e6 at k = 12,
        # 5.2e13 at k = 20), but few covers of size near k.
        def star(k):
            return Tree("r", {"r": [f"c{i:02d}" for i in range(k)]})

        twelve = star(12)
        for n, want in [(12, 1), (11, 66)]:
            start = time.perf_counter()
            got = find_sweep_covers(twelve, n)
            assert time.perf_counter() - start < 0.05, n
            assert len(got) == want and all(validate(twelve, c).valid for c in got)
        assert find_sweep_covers(twelve, 12) == {make_cover([[f"c{i:02d}"] for i in range(12)])}
        assert len(find_sweep_covers(star(20), 20)) == 1
        assert len(find_sweep_covers(star(20), 19)) == comb(20, 2)
        assert find_sweep_covers(star(25), 26) == set()

    def test_path_trees_have_one_cover_per_node(self):
        for m in range(1, 11):
            labels = [f"p{i}" for i in range(m)]
            t = Tree(labels[0], {a: [b] for a, b in zip(labels, labels[1:])})
            per_size = all_sweep_covers(t)
            assert set(per_size) == {1}
            assert len(per_size[1]) == m

    def test_invalid_size(self):
        for search in (find_sweep_covers, brute_force_covers):
            with pytest.raises(InvalidParamsError):
                search(parse_tree("r a"), 0)

    def test_every_result_validates(self):
        t = parse_tree("r a\nr b\na c\na d\nb e")
        for n in range(1, max_cover_size(t) + 1):
            for cover in find_sweep_covers(t, n):
                assert len(cover) == n
                assert validate(t, cover).valid

    def test_deep_caterpillar_has_only_the_all_leaves_cover(self, monkeypatch):
        calls = []  # one entry per Tree.children_of call
        leaf_counts = []  # one entry per Tree.leaf_count call
        children_of, leaf_count = Tree.children_of, Tree.leaf_count

        def counted(tree, v):
            calls.append(v)
            return children_of(tree, v)

        def counted_leaves(tree, v):
            leaf_counts.append(v)
            return leaf_count(tree, v)

        def above_leaf_count(t, n):
            # A size above the leaf count has no cover, walks no node and reads no leaf count.
            calls.clear()
            leaf_counts.clear()
            assert find_sweep_covers(t, n) == set()
            assert calls == [] and leaf_counts == []

        monkeypatch.setattr(Tree, "children_of", counted)
        monkeypatch.setattr(Tree, "leaf_count", counted_leaves)
        above_leaf_count(Tree("r", {"r": [f"c{i}" for i in range(1200)]}), 1201)
        for length in (40, 3000):
            # Spine s0..s{length-1}, each inner spine node with one leaf; the last is a leaf.
            spine = [f"s{i}" for i in range(length)]
            t = Tree(spine[0], {s: [f"l{i}", spine[i + 1]] for i, s in enumerate(spine[:-1])})
            leaves = t.leaves()
            assert len(leaves) == length
            assert find_sweep_covers(t, length) == {make_cover([[v] for v in leaves])}
            # n = 2 keeps only the top of the spine; no cover is larger than the leaf count.
            assert find_sweep_covers(t, 2) == {
                make_cover([["l0"], ["s1"]]), make_cover([["l0"], ["l1", "s2"]])
            }
            above_leaf_count(t, length + 1)

    def test_ild_truncation_count(self):
        t = build_ild_truncated(IldSpec(4, 0, 6))
        assert len(find_sweep_covers(t, 5)) == 4918

    def test_every_group_split_yields_a_partition(self, monkeypatch):
        # The join asks for a group's splits into r blocks only when some exist.
        found = []  # partitions yielded, one entry per call
        split = enumeration.nonsingleton_partitions

        def counted(elements, m):
            found.append(0)
            for part in split(elements, m):
                found[-1] += 1
                yield part

        def search(t, n):
            found.clear()
            covers = find_sweep_covers(t, n)
            assert 0 not in found, (canonical_code(t), n)
            return len(covers), bool(found)

        monkeypatch.setattr(enumeration, "nonsingleton_partitions", counted)
        assert search(build_ild_truncated(IldSpec(3, 0, 3)), 8) == (22977, True)
        assert search(build_ild_truncated(IldSpec(4, 0, 6)), 5) == (4918, True)
        rng = random.Random(19)
        for _ in range(300):
            t = random_labeled_tree(rng, rng.randint(1, 9))
            for n in range(1, max_cover_size(t) + 1):
                search(t, n)


@st.composite
def small_trees(draw, max_nodes=9, reach=None):
    """Random rooted trees: node i > 0 hangs below an earlier node, labels shuffled.

    With `reach`, node i hangs below one of the `reach` nodes before it, so
    no node has more than `reach` children.
    """
    size = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = [f"v{i}" for i in draw(st.permutations(range(size)))]
    children: dict[str, list[str]] = {}
    for i in range(1, size):
        low = 0 if reach is None else max(0, i - reach)
        parent = draw(st.integers(min_value=low, max_value=i - 1))
        children.setdefault(labels[parent], []).append(labels[i])
    return Tree(labels[0], children)


@settings(max_examples=40, deadline=None)
@given(small_trees())
def test_search_matches_brute_force_on_random_trees(t):
    per_size = all_sweep_covers(t)
    assert set(per_size) == set(range(1, max_cover_size(t) + 1))
    for n, covers in per_size.items():
        assert find_sweep_covers(t, n) == brute_force_covers(t, n) == covers, n


@settings(max_examples=40, deadline=None)
@given(small_trees(max_nodes=25, reach=6))
def test_single_size_search_matches_all_sizes_pass(t):
    # Each size's bounds prune differently from the all-sizes pass, on
    # trees too large for brute force.  No node has more than six children:
    # a 24-leaf star would have some 4·10^17 covers, one per partition.
    per_size = all_sweep_covers(t)
    for n in range(1, max_cover_size(t) + 2):
        assert find_sweep_covers(t, n) == per_size.get(n, set()), n


class TestBruteForce:
    def test_star_size_one(self):
        t = parse_tree("r a\nr b")
        assert brute_force_covers(t, 1) == {make_cover([["r"]]), make_cover([["a", "b"]])}

    def test_fork_size_two(self):
        t = parse_tree("r a\nr b\na c\na d")
        assert brute_force_covers(t, 2) == {
            make_cover([["a"], ["b"]]),
            make_cover([["c", "d"], ["b"]]),
        }

    def test_no_cover_exceeds_leaf_count(self):
        for t in all_rooted_trees(5):
            assert brute_force_covers(t, max_cover_size(t) + 1) == set()

    def test_single_node_tree(self):
        t = Tree("a", {})
        assert all_sweep_covers(t) == {1: {make_cover([["a"]])}}


def test_search_matches_brute_force_on_small_corpus():
    for t in all_rooted_trees(6):
        for n in range(1, max_cover_size(t) + 2):
            assert find_sweep_covers(t, n) == brute_force_covers(t, n), (t, n)


def test_rooted_tree_class_counts():
    # number of rooted-tree isomorphism classes for n = 1..10 nodes (OEIS A000081)
    expected = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    trees = list(all_rooted_trees(10))
    sizes = [len(t) for t in trees]
    assert len(trees) == 1205
    assert sizes == sorted(sizes)
    assert [sizes.count(n) for n in range(1, 11)] == expected
    assert len({canonical_code(t) for t in trees}) == 1205

    def preorder(t):
        order, stack = [], [t.root]
        while stack:
            order.append(v := stack.pop())
            stack.extend(reversed(t.children_of(v)))
        return order

    assert all(preorder(t) == [f"n{i}" for i in range(len(t))] for t in trees)
    assert list(all_rooted_trees(0)) == list(all_rooted_trees(-1)) == []


def test_rooted_tree_classes_match_parent_arrays():
    # Every tree on nodes 0..k-1 numbered so that parent(i) < i, one per
    # parent array: together they reach every rooted-tree class of size k.
    codes: dict[int, set[str]] = {}
    for t in all_rooted_trees(7):
        codes.setdefault(len(t), set()).add(canonical_code(t))
    for k in range(1, 8):
        reference = set()
        for parents in itertools.product(*(range(i) for i in range(1, k))):
            children: dict[str, list[str]] = {}
            for i, p in enumerate(parents, 1):
                children.setdefault(str(p), []).append(str(i))
            reference.add(canonical_code(Tree("0", children)))
        assert codes[k] == reference, k
