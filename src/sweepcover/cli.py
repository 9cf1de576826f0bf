"""Command-line surface for enumeration, validation, counting, and reports.

Every command maps its parsed arguments to its output text; `main` alone
writes that text (to --out or stdout) and picks the exit code: 0 success
(including empty result sets), 1 oracle or identity mismatch (the output
is still written), 2 input parse failure (unreadable, undecodable or malformed
files, or an unwritable --out) or a malformed command line (argparse exits
with the usage on stderr), 3 parameter validation failure, 4 internal
error (any other exception).  Output is deterministic; JSON carries big
integers as decimal strings.

`COMMANDS` declares each command once: its help line, function and options.
`main` reads a plain `command --flag value ...` line from that table alone;
any other argv goes to the argparse parser `build_parser` makes from it.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import sys
from collections.abc import Iterable, Sequence
from json.encoder import encode_basestring_ascii as _json_str  # the C encoder json.dumps uses
from types import SimpleNamespace

from .counting import (
    InvalidParamsError,
    growth_report,
    p_count,
    p_table,
    raney_bound_report,
    series_coefficients,
)
from .cover import (
    CoverError,
    canonical_rows,
    cover_from_json,
    validate,
)
from .enumeration import brute_force_covers, find_sweep_covers
from .tree import IldSpec, TreeError, build_ild_truncated, canonical_code, parse_tree

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_INTERNAL = 4

# `discrepancy` searches one size at a time and keeps only its count; it refuses
# a run whose recurrence counts, the covers it would build across all sizes, sum
# above this (the 4,978,688 covers at delta 2, n 10 took about a minute).
DISCREPANCY_MAX_COVERS = 10**6


def _read_tree(path: str):
    with open(path, encoding="utf-8-sig", newline="") as fh:  # no BOM; only "\n" ends a line
        return parse_tree(fh.read())


class _Mismatch(Exception):
    """A checked identity failed; `args[0]` is the output text to write."""


def _csv(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from None


# -- command implementations -------------------------------------------


def _enumerate_json(n: int, blocks: list[tuple[str, ...]], ranked: list[list[int]]) -> str:
    """`json.dumps({"n": ..., "count": ..., "covers": ...}, indent=2) + "\\n"`, byte for byte.

    The indenting encoder is pure Python and encodes every label of every
    cover; here each block is laid out once, by rank, and a cover is one
    join of those texts.
    """
    laid_out = [
        "      [\n        " + ",\n        ".join(map(_json_str, b)) + "\n      ]" for b in blocks
    ]
    covers = ",\n".join(
        "    [\n" + ",\n".join(map(laid_out.__getitem__, ranks)) + "\n    ]" for ranks in ranked
    )
    body = "[\n" + covers + "\n  ]" if ranked else "[]"
    return f'{{\n  "n": {n},\n  "count": {len(ranked)},\n  "covers": {body}\n}}\n'


def _cmd_enumerate(args: SimpleNamespace) -> str:
    tree = _read_tree(args.tree)
    blocks, ranked = canonical_rows(find_sweep_covers(tree, args.n))
    if args.format == "json":
        return _enumerate_json(args.n, blocks, ranked)
    texts = ["[" + ", ".join(map(_json_str, b)) + "]" for b in blocks]  # json.dumps(b)
    covers = map(", ".join, map(map, itertools.repeat(texts.__getitem__), ranked))
    if args.format == "csv":
        return _csv(["size", "cover"], zip(itertools.repeat(args.n), map("[{}]".format, covers)))
    return "[" + "]\n[".join(covers) + "]\n" if ranked else ""


def _cmd_validate(args: SimpleNamespace) -> str:
    tree = _read_tree(args.tree)
    with open(args.cover, encoding="utf-8-sig") as fh:
        cover = cover_from_json(fh.read())
    report = validate(tree, cover)
    payload = {
        "valid": report.valid,
        "violations": list(report.violations),
        "witness": list(report.witness) if report.witness else None,
    }
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    text = f"valid: {report.valid}\n"
    if report.violations:
        text += f"violations: {', '.join(report.violations)}\n"
        text += f"witness: {' '.join(report.witness or ())}\n"
    return text


def _cmd_count(args: SimpleNamespace) -> str:
    value = p_count(args.delta, args.gamma, args.n)
    if args.format == "json":
        payload = {"delta": args.delta, "gamma": args.gamma, "n": args.n, "value": str(value)}
        return json.dumps(payload) + "\n"
    return f"{value}\n"


def _cmd_table(args: SimpleNamespace) -> str:
    table = p_table(_parse_range(args.delta_range), (1, args.n_max), args.gamma)
    ns = list(range(1, args.n_max + 1))
    if args.format == "json":
        payload = {
            "gamma": args.gamma,
            "n": ns,
            "rows": {str(d): [str(v) for v in row] for d, row in table.items()},
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        return _csv(["delta", *ns], ([d, *table[d]] for d in sorted(table)))
    width = max(len(str(v)) for row in table.values() for v in row)
    lines = ["delta\\n  " + "  ".join(str(n).rjust(width) for n in ns)]
    for d in sorted(table):
        lines.append(f"{d:>7}  " + "  ".join(str(v).rjust(width) for v in table[d]))
    return "\n".join(lines) + "\n"


def _cmd_bound_report(args: SimpleNamespace) -> str:
    rows = raney_bound_report(args.delta, args.gamma, (1, args.n_max))
    if args.format == "json":
        payload = [
            {
                "n": r.n,
                "p": str(r.p_value),
                "raney": str(r.raney_value),
                "inequality_holds": r.inequality_holds,
            }
            for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    return _csv(
        ["n", "p", "raney", "inequality_holds"],
        ([r.n, r.p_value, r.raney_value, r.inequality_holds] for r in rows),
    )


def _cmd_growth_report(args: SimpleNamespace) -> str:
    rows = [
        [r.n, r.p_value, "" if r.ratio is None else f"{r.ratio:.6g}", f"{r.nth_root:.6g}"]
        for r in growth_report(args.delta, args.gamma, args.n_max)
    ]
    return _csv(["n", "p", "ratio", "nth_root"], rows)


def _cmd_discrepancy(args: SimpleNamespace) -> str:
    """The recurrence beside the search on a finite truncation, row by row.

    The recurrence counts gamma in path nodes and `IldSpec.gamma` in path
    edges, so the tree with gamma-edge paths is counted by gamma + 1.  A cover
    that reaches below a child of the k-th star also needs a block for another
    child of each star on the way, so it has k + 1 blocks or more, and n_max
    star levels hold every cover of size n_max or less.
    """
    spec = IldSpec(args.delta, args.gamma, max(args.n_max, 1))
    # Counts grow with delta and gamma, and at delta 2, gamma 0 sizes 1..16
    # alone sum to 737,154,146,214, so one short solve refuses a larger n_max.
    counts = series_coefficients(args.delta, args.gamma + 1, min(args.n_max, 16))
    total = sum(counts)
    if total > DISCREPANCY_MAX_COVERS:
        least = "at least " if args.n_max > 16 else ""
        raise InvalidParamsError(
            f"discrepancy would search {least}{total} covers, "
            f"above the cap of {DISCREPANCY_MAX_COVERS}"
        )
    tree = build_ild_truncated(spec)
    rows = [(n, want, len(find_sweep_covers(tree, n))) for n, want in enumerate(counts, 1)]
    text = _csv(["n", "recurrence_count", "truncated_search_count"], rows)
    if any(want != got for _, want, got in rows):
        raise _Mismatch(text)
    return text


def run_oracle_check(
    max_nodes: int, n_max: int, random_trees: int = 100
) -> tuple[int, list[str]]:
    """Compare the decomposition search with the brute-force reference.

    Covers every rooted-tree isomorphism class up to max_nodes plus
    `random_trees` randomly labeled random trees.  Returns the number of
    (tree, size) pairs checked and descriptions of any mismatches.
    """
    if max_nodes < 1 or n_max < 1:
        raise InvalidParamsError("--max-nodes and --n-max must be >= 1")
    import random  # only this command needs these; every other one starts without them

    from .corpus import all_rooted_trees, random_labeled_tree

    trees = list(all_rooted_trees(max_nodes))
    rng = random.Random(20201130)  # a fixed seed, so every run checks the same trees
    if max_nodes >= 2:
        for _ in range(random_trees):
            trees.append(random_labeled_tree(rng, rng.randint(2, max_nodes)))
    mismatches: list[str] = []
    for tree in trees:
        for n in range(1, n_max + 1):
            found = find_sweep_covers(tree, n)
            reference = brute_force_covers(tree, n)
            if found != reference:
                mismatches.append(
                    f"tree {canonical_code(tree)} n={n}: "
                    f"search found {len(found)}, brute force found {len(reference)}"
                )
    return len(trees) * n_max, mismatches


def _cmd_oracle_check(args: SimpleNamespace) -> str:
    checked, mismatches = run_oracle_check(args.max_nodes, args.n_max)
    if mismatches:
        raise _Mismatch(f"MISMATCH: {mismatches[0]}\n")
    return f"all {checked} tree/size pairs match\n"


# -- command table and parsers -----------------------------------------

REQUIRED = ...  # the default of an option that every command line must give

_TREE, _N = ("--tree", str, REQUIRED, None), ("--n", int, REQUIRED, None)
_DELTA, _GAMMA = ("--delta", int, REQUIRED, None), ("--gamma", int, 0, None)
_N_MAX = ("--n-max", int, REQUIRED, None)
_COVER = ("--cover", str, REQUIRED, "JSON array of arrays of node labels")
_DELTA_RANGE = ("--delta-range", str, REQUIRED, "A..B (or a single value)")
_MAX_NODES = ("--max-nodes", int, REQUIRED, None)
_OUT = ("--out", str, None, "output path (default stdout)")


def _io(*formats: str) -> tuple:
    return ("--format", formats, formats[0], None), _OUT


# name -> (help, function, *options in help order); an option is (flag, kind,
# default, help), where kind is int, str or a tuple of choices.
COMMANDS = {
    "enumerate": ("list all sweep-covers of a given size",
                  _cmd_enumerate, _TREE, _N, *_io("text", "json", "csv")),
    "validate": ("check a cover against the four conditions",
                 _cmd_validate, _TREE, _COVER, *_io("text", "json")),
    "count": ("exact count for one (delta, gamma, n)",
              _cmd_count, _DELTA, _GAMMA, _N, *_io("text", "json")),
    "table": ("grid of exact counts over delta and n",
              _cmd_table, _DELTA_RANGE, _N_MAX, _GAMMA, *_io("text", "json", "csv")),
    "bound-report": ("counts vs Raney lower-bound values",
                     _cmd_bound_report, _DELTA, _GAMMA, _N_MAX, *_io("csv", "json")),
    "growth-report": ("growth-ratio diagnostics for the counts",
                      _cmd_growth_report, _DELTA, _GAMMA, _N_MAX, _OUT),
    "discrepancy": ("recurrence counts beside the search on a finite truncation",
                    _cmd_discrepancy, _DELTA, _GAMMA, _N_MAX, _OUT),
    "oracle-check": ("recursive search vs brute force on small trees",
                     _cmd_oracle_check, _MAX_NODES, _N_MAX, _OUT),
}


def build_parser():
    """A new argparse parser built from `COMMANDS`."""
    import argparse  # only for help, usage errors and argvs that `_plain_args` declines

    parser = argparse.ArgumentParser(
        prog="sweepcover",
        description="Enumerate, validate, and count sweep-covers on rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, *options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kind, default, help_text in options:
            choices, required = (kind if isinstance(kind, tuple) else None), default is REQUIRED
            p.add_argument(flag, type=None if choices else kind, choices=choices, help=help_text,
                           required=required, default=None if required else default)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns, for `command --flag value ...` only:
    exact flags, no value starting with "-", and values and required flags as argparse
    checks them.  Any other argv ("--del 3", "--n=3", "--", "-3", "-h") gives None."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, *options = COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag: default for flag, _, default, _ in options}
    try:
        for flag, value in zip(argv[1::2], argv[2::2]):
            kind = kinds[flag]
            if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
                return None
            values[flag] = value if isinstance(kind, tuple) else kind(value)
    except (KeyError, ValueError):
        return None
    if REQUIRED in values.values():
        return None
    dests = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], func=func, **dests)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    # Exact counts can outgrow the interpreter's int-to-str digit limit
    # (Python >= 3.10.7); lift it while the command runs.  The cyclic
    # collector is paused as well: a command's trees, covers and counts
    # are tuples, frozensets, dicts and ints that hold no reference cycle,
    # so reference counting frees all of them, and the collector's passes
    # over the covers being built only cost time.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            text, code = args.func(args), EXIT_OK
        except _Mismatch as exc:
            text, code = exc.args[0], EXIT_MISMATCH
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (TreeError, CoverError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except Exception as exc:
        # Anything else is a fault of the program, not of its input; exit 1
        # stays reserved for an oracle or identity mismatch.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
