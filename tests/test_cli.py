import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import event, given, settings, strategies as st

from sweepcover import cli
from sweepcover.cli import main
from sweepcover.counting import (
    InvalidParamsError,
    growth_report,
    p_count,
    series_coefficients,
)
from sweepcover.cover import canonical_blocks, canonical_rows, make_cover, max_cover_size
from sweepcover.enumeration import find_sweep_covers
from sweepcover.tree import IldSpec, Tree, build_ild_truncated, serialize_tree

STAR = "r a\nr b\n"


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.tree"
    path.write_text(STAR)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_size_two(self, capsys, star_file):
        code, out, _ = run(capsys, "enumerate", "--tree", star_file, "--n", "2")
        assert code == 0
        assert out == '[["a"], ["b"]]\n'

    def test_empty_result_exits_zero(self, capsys, star_file):
        code, out, _ = run(capsys, "enumerate", "--tree", star_file, "--n", "5")
        assert code == 0
        assert out == ""

    def test_json_round_trip(self, capsys, star_file):
        code, out, _ = run(
            capsys, "enumerate", "--tree", star_file, "--n", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["covers"] == [[["a", "b"]], [["r"]]]

    def test_json_empty_result(self, capsys, star_file):
        # n above the leaf count: no cover, and the same bytes json.dumps gives.
        code, out, _ = run(
            capsys, "enumerate", "--tree", star_file, "--n", "3", "--format", "json"
        )
        assert code == 0
        assert out == '{\n  "n": 3,\n  "count": 0,\n  "covers": []\n}\n'
        assert out == json.dumps({"n": 3, "count": 0, "covers": []}, indent=2) + "\n"

    def test_malformed_tree_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("r a\ns a\n")
        code, _, err = run(capsys, "enumerate", "--tree", str(bad), "--n", "1")
        assert code == 2
        assert "error" in err

    def test_invalid_utf8_tree_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_bytes(b"r a\nr \xff\n")
        code, out, err = run(capsys, "enumerate", "--tree", str(bad), "--n", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_tree_file_keeps_its_line_ends(self, capsys, tmp_path):
        # Only "\n" ends a line: a lone "\r" joins two edges into one bad line,
        # and a "\r" before "\n" is whitespace that a malformed line quotes.
        for data, message in (
            (b"r a\rr b\n", "line 1: expected 'parent child', got 'r a\\rr b'"),
            (b"r a\r\nr b c\r\n", "line 2: expected 'parent child', got 'r b c\\r'"),
        ):
            bad = tmp_path / "bad.tree"
            bad.write_bytes(data)
            code, out, err = run(capsys, "enumerate", "--tree", str(bad), "--n", "1")
            assert (code, out, err) == (2, "", f"error: {message}\n")
        text = "# a tree\nr a  # edge\n\nr b\na c\na d\n"
        lf, crlf = tmp_path / "lf.tree", tmp_path / "crlf.tree"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        for n in ("1", "2", "3"):
            want = run(capsys, "enumerate", "--tree", str(lf), "--n", n)
            assert want[0] == 0 and want[1]
            assert run(capsys, "enumerate", "--tree", str(crlf), "--n", n) == want

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--tree", "/no/such/file", "--n", "1")
        assert code == 2

    def test_bad_n_exits_3(self, capsys, star_file):
        code, _, _ = run(capsys, "enumerate", "--tree", star_file, "--n", "0")
        assert code == 3

    def test_internal_error_exits_4(self, capsys, star_file, monkeypatch):
        # The shared parser holds the command functions themselves, so the
        # fault goes into a name the command looks up when it runs.
        def broken(tree, n):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "find_sweep_covers", broken)
        code, out, err = run(capsys, "enumerate", "--tree", star_file, "--n", "1")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"


# Label pairs whose JSON texts sort the other way round from the labels
# ("a" < "a!" but '"a"' > '"a!"'), or that JSON escapes ("\U0001f600" as a
# surrogate pair, "\x00" as "\\u0000").
TRICKY_LABELS = [
    "a", "a!", 'a"', '"', "$", "\\", "\x01", "\x7f", "é", "é!", "z", "A", "\U0001f600", "\x00",
]


@st.composite
def tricky_trees(draw, max_nodes=12, max_children=4):
    """Random rooted trees over TRICKY_LABELS, shuffled.

    Fan-out is capped because a star's covers number a Bell number of its
    leaves (678,570 for 11).
    """
    size = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = draw(st.permutations(TRICKY_LABELS))[:size]
    children: dict[str, list[str]] = {}
    for i in range(1, size):
        open_parents = [j for j in range(i) if len(children.get(labels[j], ())) < max_children]
        parent = draw(st.sampled_from(open_parents))
        children.setdefault(labels[parent], []).append(labels[i])
    return Tree(labels[0], children)


def formatted_by_definition(covers, n, fmt):
    """`enumerate` output built cover by cover: canonical sort, one json.dumps each."""
    listed = [[list(b) for b in c] for c in sorted(canonical_blocks(c) for c in covers)]
    if fmt == "json":
        return json.dumps({"n": n, "count": len(listed), "covers": listed}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["size", "cover"])
        for c in listed:
            writer.writerow([n, json.dumps(c)])
        return buf.getvalue()
    return "".join(json.dumps(c) + "\n" for c in listed)


def test_canonical_rows_orders_blocks_by_labels_not_json():
    # Each pair orders the other way round as JSON text.
    pairs = [("a", "a!"), ('"', "$"), ("z", "é")]
    assert all(json.dumps([hi]) < json.dumps([lo]) for lo, hi in pairs)
    covers = [make_cover([[hi], [lo]]) for lo, hi in pairs]
    covers += [make_cover([[lo, hi]]) for lo, hi in pairs]
    blocks, ranked = canonical_rows(reversed(covers))
    assert blocks == [('"',), ('"', "$"), ("$",), ("a",), ("a", "a!"), ("a!",),
                      ("z",), ("z", "é"), ("é",)]
    assert ranked == [[0, 2], [1], [3, 5], [4], [6, 8], [7]]
    assert canonical_rows([]) == ([], [])


@settings(max_examples=30, deadline=None)
@given(tricky_trees())
def test_canonical_rows_ranks_index_sorted_blocks(tree):
    for n in range(1, max_cover_size(tree) + 1):
        covers = find_sweep_covers(tree, n)
        blocks, ranked = canonical_rows(covers)
        assert blocks == sorted({b for c in covers for b in canonical_blocks(c)})
        assert all(ranks == sorted(ranks) for ranks in ranked)
        assert ranked == sorted(ranked)
        listed = [tuple(blocks[r] for r in ranks) for ranks in ranked]
        assert listed == sorted(map(canonical_blocks, covers))


@settings(max_examples=60, deadline=None)
@given(tricky_trees())
def test_enumerate_output_matches_definition(tree):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tree")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_tree(tree))
        for n in range(1, max_cover_size(tree) + 1):
            covers = find_sweep_covers(tree, n)
            for c in covers:
                blocks, (ranks,) = canonical_rows([c])
                assert tuple(blocks[r] for r in ranks) == canonical_blocks(c)
            for fmt in ("text", "json", "csv"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["enumerate", "--tree", path, "--n", str(n), "--format", fmt])
                assert code == 0
                assert out.getvalue() == formatted_by_definition(covers, n, fmt), (n, fmt)


class TestValidate:
    def test_valid_cover(self, capsys, star_file, tmp_path):
        cov = tmp_path / "cover.json"
        cov.write_text('[["a"], ["b"]]')
        code, out, _ = run(capsys, "validate", "--tree", star_file, "--cover", str(cov))
        assert code == 0
        assert "valid: True" in out

    def test_invalid_cover_reports_condition(self, capsys, star_file, tmp_path):
        cov = tmp_path / "cover.json"
        cov.write_text('[["r"], ["a"]]')
        code, out, _ = run(
            capsys, "validate", "--tree", star_file, "--cover", str(cov), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violations"] == ["no-ancestry"]

    @pytest.mark.parametrize(
        "text", ['[["a", 1]]', '[[["a"]]]', "[" * 100_000], ids=["int", "list", "deep"]
    )
    def test_malformed_cover_exits_2(self, capsys, star_file, tmp_path, text):
        cov = tmp_path / "cover.json"
        cov.write_text(text)
        code, out, err = run(capsys, "validate", "--tree", star_file, "--cover", str(cov))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "internal error" not in err

    def test_repeated_block_exits_2(self, capsys, star_file, tmp_path):
        # Three blocks on a two-leaf star: the second ["a"] is not folded away.
        cov = tmp_path / "cover.json"
        cov.write_text('[["a"], ["a"], ["b"]]')
        code, out, err = run(capsys, "validate", "--tree", star_file, "--cover", str(cov))
        assert (code, out, err) == (2, "", "error: cover lists a block twice\n")

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # A UTF-8 byte-order mark before the first byte is not part of a label.
        docs = {"tree": "# a tree\nr a\nr b\na c\n", "cover": '[["c"], ["b"]]'}
        for name, text in docs.items():
            (tmp_path / name).write_bytes(text.encode())
            (tmp_path / f"{name}-bom").write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain, bom = (
            {"tree": str(tmp_path / f"tree{s}"), "cover": str(tmp_path / f"cover{s}")}
            for s in ("", "-bom")
        )
        for n in ("1", "2"):
            want = run(capsys, "enumerate", "--tree", plain["tree"], "--n", n)
            assert want[0] == 0 and want[1]
            assert run(capsys, "enumerate", "--tree", bom["tree"], "--n", n) == want
        want = run(capsys, "validate", "--tree", plain["tree"], "--cover", plain["cover"])
        assert want == (0, "valid: True\n", "")
        for tree, cover in ((bom["tree"], plain["cover"]), (plain["tree"], bom["cover"])):
            assert run(capsys, "validate", "--tree", tree, "--cover", cover) == want


TREE_LABELS = ["r", "a", "b", "c", "é"]
LABELS = st.sampled_from(TREE_LABELS + ["#", "a b", ""])
BLOCKS = st.lists(st.sampled_from(TREE_LABELS), min_size=1, max_size=3)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | LABELS | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner),
    max_leaves=8,
)


def edge_list(edges):
    return "".join(f"{p} {c}\n" for p, c in edges)


def attachment_tree(picks):
    """Edge list of a tree on TREE_LABELS: node i hangs under node picks[i - 1] % i."""
    return edge_list((TREE_LABELS[p % i], TREE_LABELS[i]) for i, p in enumerate(picks, 1))


@settings(max_examples=300, deadline=None)
@given(
    tree_doc=st.one_of(
        st.text(),
        st.binary(),
        st.lists(st.tuples(LABELS, LABELS), max_size=6).map(edge_list),
        st.lists(st.integers(0, 3), min_size=4, max_size=4).map(attachment_tree),
    ),
    cover_doc=st.one_of(
        st.text(),
        st.lists(BLOCKS, max_size=3).map(json.dumps),
        st.lists(st.lists(JSON, max_size=3), max_size=3).map(json.dumps),
        JSON.map(json.dumps),
    ),
)
def test_validate_never_fails_internally(tree_doc, cover_doc):
    with tempfile.TemporaryDirectory() as tmp:
        tree_path, cover_path = os.path.join(tmp, "t.tree"), os.path.join(tmp, "c.json")
        with open(tree_path, "wb") as fh:
            fh.write(tree_doc if isinstance(tree_doc, bytes) else tree_doc.encode("utf-8"))
        with open(cover_path, "wb") as fh:
            fh.write(cover_doc.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--tree", tree_path, "--cover", cover_path])
    event(f"exit {code}")
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


class TestCount:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "count", "--delta", "3", "--n", "5")
        assert (code, out) == (0, "174\n")

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run(
            capsys, "count", "--delta", "9", "--n", "8", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == str(p_count(9, 0, 8))

    def test_invalid_delta_exits_3(self, capsys):
        code, _, _ = run(capsys, "count", "--delta", "1", "--n", "2")
        assert code == 3

    def test_count_past_str_digit_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "p_count", lambda delta, gamma, n: 10**5000)
        has_limit = hasattr(sys, "set_int_max_str_digits")  # Python >= 3.10.7
        saved = sys.get_int_max_str_digits() if has_limit else None
        try:
            for fmt in ("text", "json"):
                if has_limit:
                    sys.set_int_max_str_digits(4300)
                code, out, _ = run(capsys, "count", "--delta", "3", "--n", "5", "--format", fmt)
                assert code == 0
                value = out.strip() if fmt == "text" else json.loads(out)["value"]
                assert value == "1" + "0" * 5000
                # main restores the interpreter's digit limit on the way out.
                assert not has_limit or sys.get_int_max_str_digits() == 4300
        finally:
            if has_limit:
                sys.set_int_max_str_digits(saved)

    def test_large_n(self, capsys):
        code, out, _ = run(capsys, "count", "--delta", "3", "--n", "600")
        assert (code, out) == (0, f"{series_coefficients(3, 0, 600)[-1]}\n")


class TestTable:
    def test_csv_round_trips_exact_integers(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--delta-range", "2..9", "--n-max", "8", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["delta"] + [str(n) for n in range(1, 9)]
        for row in rows[1:]:
            d = int(row[0])
            assert [int(v) for v in row[1:]] == [p_count(d, 0, n) for n in range(1, 9)]

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--delta-range", "3..3", "--n-max", "5", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["rows"]["3"] == ["1", "3", "10", "39", "174"]

    def test_single_cell_gamma(self, capsys):
        code, out, _ = run(
            capsys, "table", "--delta-range", "2", "--n-max", "1", "--gamma", "7"
        )
        assert code == 0
        assert "8" in out

    def test_deterministic_output(self, capsys):
        args = ("table", "--delta-range", "2..4", "--n-max", "4")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_bad_range_exits_3(self, capsys):
        code, _, _ = run(capsys, "table", "--delta-range", "9..2", "--n-max", "3")
        assert code == 3

    def test_non_integer_range_exits_3(self, capsys):
        code, out, err = run(capsys, "table", "--delta-range", "x..3", "--n-max", "3")
        assert (code, out) == (3, "")
        assert err == "error: invalid literal for int() with base 10: 'x'\n"

    # stdout of `table --delta-range 2..9 --n-max 8`, frozen byte for byte
    PAPER_TABLE_TEXT = """\
delta\\n              1              2              3              4              5              6              7              8
      2              1              1              2              5             14             42            132            429
      3              1              3             10             39            174            846           4332          22959
      4              1              7             34            221           1614          12394          99556         827045
      5              1             15            100           1035          11376         132930        1630860       20606355
      6              1             31            276           4511          70986        1232752       22295588      415630689
      7              1             63            742          19215         418698       10810254      281669004     7653274335
      8              1            127           1982          81565        2409926       93612646     3448017644   136772884789
      9              1            255           5320         347115       13769616      815989410    41827149480  2446230617955
"""
    PAPER_TABLE_SHA256 = {
        "text": "eed90ade7d332f224b0624bb0099c71a0ab954cd7eee6909fd13c9ad25927c5a",
        "csv": "a30e1be003dd45789fd6ac53f674c757be88918e6dd2f037958ec4a6509f201a",
        "json": "1b7fe16755cb4ae75b324533ded948dd0848d268df495c0f2da0c94c302d2f9b",
    }

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_paper_table_bytes(self, capsys, fmt):
        code, out, _ = run(
            capsys, "table", "--delta-range", "2..9", "--n-max", "8", "--format", fmt
        )
        assert code == 0
        if fmt == "text":
            assert out == self.PAPER_TABLE_TEXT
        assert hashlib.sha256(out.encode()).hexdigest() == self.PAPER_TABLE_SHA256[fmt]


class TestReports:
    def test_bound_report_columns(self, capsys):
        code, out, _ = run(capsys, "bound-report", "--delta", "2", "--n-max", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "p", "raney", "inequality_holds"]
        assert rows[1] == ["1", "1", "2", "False"]

    def test_bound_report_json_matches_csv(self, capsys):
        args = ["bound-report", "--delta", "3", "--gamma", "1", "--n-max", "6"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        code, text, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        rows = [[str(r["n"]), r["p"], r["raney"], str(r["inequality_holds"])]
                for r in json.loads(text)]
        assert rows == list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 6

    def test_growth_report(self, capsys):
        code, out, _ = run(capsys, "growth-report", "--delta", "2", "--n-max", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[1] for r in rows[1:]] == ["1", "1", "2", "5", "14"]
        assert [r[2] for r in rows[2:]] == ["1", "2", "2.5", "2.8"]

    def test_growth_report_past_float_range(self, capsys):
        code, out, _ = run(capsys, "growth-report", "--delta", "3", "--n-max", "400")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 401 and float(rows[-1][3]) > 1
        for delta in range(2, 10):
            for r in growth_report(delta, 1, 30):
                assert r.nth_root == pytest.approx(r.p_value ** (1 / r.n), rel=1e-12)

    @pytest.mark.parametrize(
        "delta,n_max,cells",
        [
            (1100, 3, [["inf", "2.60605e+165"], ["1.67211e+193", "4.84257e+174"]]),
            (3000, 2, [["inf", "inf"]]),
        ],
    )
    def test_growth_report_prints_inf_past_float_range(self, capsys, delta, n_max, cells):
        code, out, err = run(capsys, "growth-report", "--delta", str(delta), "--n-max", str(n_max))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        counts = series_coefficients(delta, 0, n_max)
        assert [int(r[1]) for r in rows] == counts
        # Floats stop below 2**1024, and no cell here is near that edge: a
        # cell is inf iff its exact value needs more than 1024 bits.
        for (n, _, ratio, root), prev, p in zip(rows[1:], counts, counts[1:]):
            assert (ratio == "inf") == (p.bit_length() - prev.bit_length() > 1024), (n, ratio)
            assert (root == "inf") == (p.bit_length() > 1024 * int(n)), (n, root)
        assert [r[2:] for r in rows[1:]] == cells

    # The message names only what the user gave: these commands take no n.
    @pytest.mark.parametrize("command", ["bound-report", "growth-report"])
    @pytest.mark.parametrize(
        "args,message",
        [
            (["--delta", "1"], "bad parameters delta=1, gamma=0"),
            (["--delta", "3", "--gamma", "-2"], "bad parameters delta=3, gamma=-2"),
        ],
    )
    def test_bad_parameters_exit_3(self, capsys, command, args, message):
        code, out, err = run(capsys, command, *args, "--n-max", "3")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_count_names_its_n(self, capsys):
        code, out, err = run(capsys, "count", "--delta", "3", "--gamma", "-2", "--n", "4")
        assert (code, out, err) == (3, "", "error: bad parameters delta=3, gamma=-2, n=4\n")


class TestDiscrepancy:
    HEADER = ["n", "recurrence_count", "truncated_search_count"]

    @pytest.mark.parametrize("delta,gamma,n_max", [(2, 0, 4), (3, 1, 4), (4, 0, 3)])
    def test_identity_at_default_depth(self, capsys, delta, gamma, n_max):
        code, out, err = run(
            capsys,
            "discrepancy", "--delta", str(delta), "--gamma", str(gamma), "--n-max", str(n_max),
        )
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == self.HEADER
        assert [int(r[0]) for r in rows[1:]] == list(range(1, n_max + 1))
        # IldSpec.gamma counts path edges, the recurrence counts path nodes.
        assert [int(r[1]) for r in rows[1:]] == series_coefficients(delta, gamma + 1, n_max)
        assert all(r[1] == r[2] for r in rows[1:])

    @pytest.mark.parametrize(
        "delta,gamma,n_max", [(2, 0, 6), (3, 0, 5), (2, 1, 5), (3, 1, 4), (4, 0, 4), (2, 2, 4)]
    )
    def test_n_max_star_levels_suffice_and_one_fewer_does_not(self, delta, gamma, n_max):
        want = series_coefficients(delta, gamma + 1, n_max)

        def counts(levels):
            tree = build_ild_truncated(IldSpec(delta, gamma, levels))
            return [len(find_sweep_covers(tree, n)) for n in range(1, n_max + 1)]

        assert counts(n_max) == want
        assert counts(n_max - 1) != want

    def test_mismatch_exits_1_and_prints_table(self, capsys, monkeypatch):
        real = cli.series_coefficients
        monkeypatch.setattr(
            cli, "series_coefficients", lambda d, g, n: real(d, g, n)[:-1] + [0]
        )
        code, out, err = run(capsys, "discrepancy", "--delta", "2", "--n-max", "4")
        assert (code, err) == (1, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [self.HEADER, ["1", "2", "2"], ["2", "4", "4"], ["3", "16", "16"],
                        ["4", "0", "80"]]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--n-max", "0"], "n_max must be >= 1, got 0"),
            (["--n-max", "-1"], "n_max must be >= 1, got -1"),
            (["--n-max", "-2"], "n_max must be >= 1, got -2"),
            # The user's own delta and gamma, not the recurrence's gamma + 1.
            (["--delta", "1", "--n-max", "3"], "delta must be >= 2, got 1"),
            (["--gamma", "-1", "--n-max", "3"], "gamma must be >= 0, got -1"),
        ],
    )
    def test_bad_n_max_exits_3(self, capsys, args, message):
        code, out, err = run(capsys, "discrepancy", "--delta", "2", *args)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_refuses_past_cover_cap_at_once(self, capsys, monkeypatch):
        # 281,026,470 covers at n <= 12; refused before the tree is built.
        monkeypatch.setattr(cli, "build_ild_truncated", None)
        start = time.perf_counter()
        code, out, err = run(capsys, "discrepancy", "--delta", "2", "--n-max", "12")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err == (
            "error: discrepancy would search 281026470 covers, above the cap of 1000000\n"
        )

    def test_refuses_a_large_n_max_after_a_short_solve(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_ild_truncated", None)
        start = time.perf_counter()
        code, out, err = run(capsys, "discrepancy", "--delta", "2", "--n-max", "2000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        # Sizes 1..16 alone, a lower bound on what n_max 2000 would search.
        prefix = sum(series_coefficients(2, 1, 16))
        assert prefix == 737_154_146_214
        assert err == (
            f"error: discrepancy would search at least {prefix} covers, "
            "above the cap of 1000000\n"
        )

    @pytest.mark.parametrize("delta,gamma", [(2, 0), (3, 0), (2, 5), (9, 29)])
    def test_refusal_past_16_is_a_true_lower_bound(self, capsys, delta, gamma):
        code, out, err = run(
            capsys, "discrepancy", "--delta", str(delta), "--gamma", str(gamma), "--n-max", "17"
        )
        assert (code, out) == (3, "")
        prefix = sum(series_coefficients(delta, gamma + 1, 16))
        assert prefix < sum(series_coefficients(delta, gamma + 1, 17))
        assert f"at least {prefix} covers" in err

    def test_cap_admits_its_own_sum(self, capsys, monkeypatch):
        # delta 2, n_max 4 searches 2 + 4 + 16 + 80 = 102 covers.
        monkeypatch.setattr(cli, "DISCREPANCY_MAX_COVERS", 102)
        assert run(capsys, "discrepancy", "--delta", "2", "--n-max", "4")[0] == 0
        monkeypatch.setattr(cli, "DISCREPANCY_MAX_COVERS", 101)
        code, out, err = run(capsys, "discrepancy", "--delta", "2", "--n-max", "4")
        assert (code, out) == (3, "")
        assert err == "error: discrepancy would search 102 covers, above the cap of 101\n"

    def test_star_levels_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discrepancy", "--delta", "2", "--n-max", "2", "--star-levels", "3"])
        capsys.readouterr()
        assert exc.value.code == 2


class TestOracleCheck:
    def test_small_run_matches(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-nodes", "4", "--n-max", "3")
        assert code == 0
        assert "pairs match" in out

    def test_single_node(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-nodes", "1", "--n-max", "1")
        assert code == 0

    def test_bad_params(self, capsys):
        code, _, _ = run(capsys, "oracle-check", "--max-nodes", "0", "--n-max", "1")
        assert code == 3
        with pytest.raises(InvalidParamsError):
            cli.run_oracle_check(2, 0)

    def test_mismatch_exits_1_and_writes_report(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "brute_force_covers", lambda tree, n: set())
        code, out, err = run(capsys, "oracle-check", "--max-nodes", "1", "--n-max", "1")
        assert (code, err) == (1, "")
        assert out == "MISMATCH: tree () n=1: search found 1, brute force found 0\n"
        out_path = tmp_path / "report.txt"
        again = run(
            capsys, "oracle-check", "--max-nodes", "1", "--n-max", "1", "--out", str(out_path)
        )
        assert again == (1, "", "")
        assert out_path.read_text() == out


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code = main(
        ["table", "--delta-range", "2..2", "--n-max", "3", "--format", "csv",
         "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert "1,1,2" in out_path.read_text()


# One small command per subcommand; "{tree}" and "{cover}" name files the
# test writes.
OUT_ARGVS = {
    "enumerate": ["enumerate", "--tree", "{tree}", "--n", "2", "--format", "json"],
    "validate": ["validate", "--tree", "{tree}", "--cover", "{cover}"],
    "count": ["count", "--delta", "3", "--n", "5"],
    "table": ["table", "--delta-range", "2..4", "--n-max", "5", "--format", "csv"],
    "bound-report": ["bound-report", "--delta", "3", "--n-max", "5"],
    "growth-report": ["growth-report", "--delta", "3", "--n-max", "5"],
    "discrepancy": ["discrepancy", "--delta", "2", "--n-max", "3"],
    "oracle-check": ["oracle-check", "--max-nodes", "3", "--n-max", "2"],
}


def test_out_argvs_name_every_subcommand():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(OUT_ARGVS) == set(sub.choices)


def _argv(name, tmp_path):
    (tmp_path / "t.tree").write_text("r a\nr b\na c\na d\n")
    (tmp_path / "c.json").write_text('[["r"], ["c"]]')
    files = {"{tree}": str(tmp_path / "t.tree"), "{cover}": str(tmp_path / "c.json")}
    return [files.get(arg, arg) for arg in OUT_ARGVS[name]]


@pytest.mark.parametrize("name", sorted(OUT_ARGVS))
def test_out_file_has_stdout_bytes(capsys, tmp_path, name):
    argv = _argv(name, tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    out_path = tmp_path / "out.txt"
    again = run(capsys, *argv, "--out", str(out_path))
    assert again == (0, "", "")
    assert out_path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(OUT_ARGVS))
def test_unwritable_out_exits_2(capsys, tmp_path, name):
    argv = _argv(name, tmp_path)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "no-such-dir" / "out.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "internal error" not in err


def test_main_keeps_no_state_between_commands(capsys, tmp_path):
    argvs = [_argv(name, tmp_path) for name in sorted(OUT_ARGVS)] + [
        ["count", "--delta", "1", "--n", "3"],
        ["count", "--delta", "3"],
        ["enumerate", "--help"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0] * len(OUT_ARGVS) + [
        3, "SystemExit(2)", "SystemExit(0)"
    ]
    assert first[-2][2].startswith("usage: sweepcover count ")
    assert first[-1][1].startswith("usage: sweepcover enumerate ")

    second = [outcome(argv) for argv in reversed(argvs)]
    assert second[::-1] == first


# -- plain command lines skip argparse; every other one goes to it ------

# Tokens a mutation puts into a valid argv: abbreviations, "--flag=value",
# help, "--", values that argparse reads as flags or that int() accepts in
# odd spellings, and choices valid for some commands only.
ODD_TOKENS = [
    "--del", "--delta", "--delta=3", "--n=3", "--n-m", "--n-max", "--n", "--gamma", "--g",
    "--format", "--fo", "--out", "--tree", "--cover", "--max-nodes", "--delta-range",
    "-h", "--help", "--", "-", "", "-3", "+4", " 5", "3_0", "\u0663", "a b", "3", "2..4",
    "xml", "text", "json", "csv", "count", "table",
]


@st.composite
def mutated_argvs(draw):
    argv = [arg.strip("{}") for arg in OUT_ARGVS[draw(st.sampled_from(sorted(OUT_ARGVS)))]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["insert", "replace", "delete", "pair", "swap"]))
        token = draw(st.sampled_from(ODD_TOKENS))
        if kind == "insert":
            argv.insert(i, token)
        elif kind == "pair":  # a flag given twice, or a flag and an odd value
            argv[i:i] = [draw(st.sampled_from(argv[1::2] or ["--n"])), token]
        elif i < len(argv):
            if kind == "replace":
                argv[i] = token
            elif kind == "delete":
                del argv[i]
            elif i + 3 < len(argv):  # swap two flag-value pairs
                argv[i : i + 4] = argv[i + 2 : i + 4] + argv[i : i + 2]
    return argv


def _argparse_vars(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_valid_argvs_take_the_plain_path():
    for name in OUT_ARGVS:
        argv = [arg.strip("{}") for arg in OUT_ARGVS[name]]
        plain = cli._plain_args(argv)
        assert plain is not None and vars(plain) == _argparse_vars(argv), argv


@settings(max_examples=1000, deadline=None)
@given(mutated_argvs())
def test_plain_path_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    event("plain path" if plain is not None else "argparse path")
    parsed = _argparse_vars(argv)
    if plain is not None:
        assert vars(plain) == parsed
    if parsed is None:
        assert plain is None


# -- every command line exits with a documented code --------------------

# Files each example writes under a fresh directory; "{missing}" names none.
ARGV_FILES = {
    "{tree}": "r a\nr b\na c\na d\n",
    "{cycle}": "r a\na b\nb a\n",
    "{empty}": "",
    "{cover}": '[["r"], ["c"]]',
    "{partial}": '[["c"]]',
    "{bad-cover}": '[["r"], ["zz"]]',
}
# Each option's (good, odd) values.  Integers stay small enough that every
# command ends at once: `enumerate` reads only the small files, and
# `oracle-check` and `discrepancy` run at 4 or less.
SMALL_INTS = (["1", "2", "3", "4"], ["-2", "-1", "0", "x", "2.5", "", "3..", " 2", "1e1"])
ARGV_VALUES = {
    "--tree": (["{tree}"], ["{cycle}", "{empty}", "{cover}", "{missing}"]),
    "--cover": (["{cover}", "{partial}"], ["{bad-cover}", "{tree}", "{missing}"]),
    "--out": (["{out}"], ["{missing}/out.txt"]),
    "--format": (["text", "json", "csv"], ["xml"]),
    "--delta-range": (["2..4", "3"], ["3..", "..3", "4..2", "-1..2", "2..x", "x"]),
}


@st.composite
def odd_argvs(draw):
    """An argv for one command whose options may be missing, repeated,
    abbreviated, joined to their values with "=", left without a value, or
    given an odd value."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, *options = cli.COMMANDS[name]
    given = []
    for flag, _, _, _ in options:
        good, odd = ARGV_VALUES.get(flag, SMALL_INTS)
        for _ in range(draw(st.sampled_from([1] * 6 + [0, 2]))):
            value = draw(st.sampled_from(odd if draw(st.integers(0, 4)) == 0 else good))
            spelling = draw(st.sampled_from(["plain"] * 5 + ["abbreviated", "joined", "bare"]))
            if spelling == "abbreviated" and len(flag) > 3:
                given.append([flag[: draw(st.integers(3, len(flag) - 1))], value])
            elif spelling == "joined":
                given.append([f"{flag}={value}"])
            else:
                given.append([flag] if spelling == "bare" else [flag, value])
    return [name, *itertools.chain.from_iterable(draw(st.permutations(given)))]


@settings(max_examples=400, deadline=None)
@given(odd_argvs())
def test_every_argv_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, key.strip("{}")) for key in ARGV_FILES}
        for key, text in ARGV_FILES.items():
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        paths["{missing}"] = os.path.join(tmp, "missing")
        paths["{out}"] = os.path.join(tmp, "out.txt")
        for key, path in paths.items():
            argv = [arg.replace(key, path) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error
                code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())


IMPORT_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
from sweepcover.cli import main
main(["count", "--delta", "3", "--n", "5"])
main(["validate", "--tree", sys.argv[2], "--cover", sys.argv[3]])
print("argparse loaded:", "argparse" in sys.modules)
try:
    main(["count", "--delta", "3"])
except SystemExit as exc:
    print("usage error exits", exc.code)
main(["count", "--del", "3", "--n", "5"])
"""


def test_plain_commands_never_import_argparse(tmp_path, star_file):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cover = tmp_path / "cover.json"
    cover.write_text('[["a"], ["b"]]')
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_SNIPPET, src, star_file, str(cover)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == (
        "174\nvalid: True\nargparse loaded: False\nusage error exits 2\n174\n"
    )
    assert proc.stderr.startswith("usage: sweepcover count ")


# -- the cyclic collector is paused for a command, then restored -------


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _mismatch(monkeypatch, tmp_path):
    real = cli.series_coefficients
    monkeypatch.setattr(cli, "series_coefficients", lambda d, g, n: real(d, g, n)[:-1] + [0])
    return ["discrepancy", "--delta", "2", "--n-max", "3"]


def _bad_tree(monkeypatch, tmp_path):
    (tmp_path / "bad.tree").write_text("r a\ns a\n")
    return ["enumerate", "--tree", str(tmp_path / "bad.tree"), "--n", "1"]


def _unwritable_out(monkeypatch, tmp_path):
    return _argv("count", tmp_path) + ["--out", str(tmp_path / "no-such-dir" / "out.txt")]


def _broken_command(monkeypatch, tmp_path):
    def broken(tree, n):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "find_sweep_covers", broken)
    return _argv("enumerate", tmp_path)


EXIT_PATHS = {
    "ok": (0, lambda monkeypatch, tmp_path: _argv("count", tmp_path)),
    "mismatch": (1, _mismatch),
    "bad-tree": (2, _bad_tree),
    "unwritable-out": (2, _unwritable_out),
    "bad-params": (3, lambda monkeypatch, tmp_path: ["count", "--delta", "1", "--n", "3"]),
    "internal": (4, _broken_command),
    "usage": ("SystemExit(2)", lambda monkeypatch, tmp_path: ["count", "--delta", "3"]),
}


@pytest.mark.parametrize("path", sorted(EXIT_PATHS))
def test_every_exit_path_restores_the_collector(capsys, monkeypatch, tmp_path, gc_state, path):
    want, make_argv = EXIT_PATHS[path]
    argv = make_argv(monkeypatch, tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    capsys.readouterr()
    assert code == want
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize("gc_state", [True], ids=["gc-enabled"], indirect=True)
def test_no_collection_runs_during_a_command(capsys, tmp_path, gc_state):
    tree = build_ild_truncated(IldSpec(3, 0, 3))
    path = tmp_path / "ild.tree"
    path.write_text(serialize_tree(tree))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        code = main(["enumerate", "--tree", str(path), "--n", "8"])
        during = len(starts)
        blocks, ranked = canonical_rows(find_sweep_covers(tree, 8))
    finally:
        gc.callbacks.remove(hook)
    out = capsys.readouterr().out
    assert (code, during) == (0, 0)
    # The same search with the collector running does start collections,
    # so the hook would have seen them, and gives the same covers.
    assert len(starts) > 0
    assert len(ranked) == 22_977
    assert out == "".join(json.dumps([blocks[r] for r in ranks]) + "\n" for ranks in ranked)
