"""Command-line surface for enumeration, validation, counting, and reports.

Exit codes: 0 success (including empty result sets), 1 oracle mismatch,
2 input parse failure (unreadable, undecodable or malformed files), 3
parameter validation failure, 4 internal error (any other exception).
Output is deterministic; JSON carries big integers as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys
from typing import Sequence

from .corpus import all_rooted_trees, random_labeled_tree
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
from .enumeration import InvalidSizeError, brute_force_covers, find_sweep_covers
from .tree import IldSpec, TreeError, build_ild_truncated, canonical_code, parse_tree

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_INTERNAL = 4


def _read_tree(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_tree(fh.read())


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from None


# -- command implementations -------------------------------------------


def _enumerate_json(n: int, rows: list[tuple[tuple[tuple[str, ...], ...], str]]) -> str:
    """`json.dumps({"n": ..., "count": ..., "covers": ...}, indent=2) + "\\n"`, byte for byte.

    The indenting encoder is pure Python and encodes every label of every
    cover; here each distinct block is laid out once, and a cover is one
    join of those texts.
    """
    distinct = set(itertools.chain.from_iterable(blocks for blocks, _ in rows))
    laid_out = {
        b: "      [\n" + ",\n".join("        " + json.dumps(v) for v in b) + "\n      ]"
        for b in distinct
    }
    covers = ",\n".join(
        "    [\n" + ",\n".join(map(laid_out.__getitem__, blocks)) + "\n    ]" for blocks, _ in rows
    )
    body = "[\n" + covers + "\n  ]" if rows else "[]"
    return f'{{\n  "n": {n},\n  "count": {len(rows)},\n  "covers": {body}\n}}\n'


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return EXIT_PARAMS
    tree = _read_tree(args.tree)
    rows = canonical_rows(find_sweep_covers(tree, args.n))
    if args.format == "json":
        text = _enumerate_json(args.n, rows)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["size", "cover"])
        writer.writerows([args.n, cover] for _, cover in rows)
        text = buf.getvalue()
    else:
        text = "".join(cover + "\n" for _, cover in rows)
    _write(args.out, text)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    tree = _read_tree(args.tree)
    with open(args.cover, encoding="utf-8") as fh:
        cover = cover_from_json(fh.read())
    report = validate(tree, cover)
    payload = {
        "valid": report.valid,
        "violations": list(report.violations),
        "witness": list(report.witness) if report.witness else None,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = f"valid: {report.valid}\n"
        if report.violations:
            text += f"violations: {', '.join(report.violations)}\n"
            text += f"witness: {' '.join(report.witness or ())}\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    value = p_count(args.delta, args.gamma, args.n)
    if args.format == "json":
        payload = {"delta": args.delta, "gamma": args.gamma, "n": args.n, "value": str(value)}
        text = json.dumps(payload) + "\n"
    else:
        text = f"{value}\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    delta_range = _parse_range(args.delta_range)
    n_range = (1, args.n_max)
    table = p_table(delta_range, n_range, args.gamma)
    ns = list(range(n_range[0], n_range[1] + 1))
    if args.format == "json":
        payload = {
            "gamma": args.gamma,
            "n": ns,
            "rows": {str(d): [str(v) for v in row] for d, row in table.items()},
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["delta"] + [str(n) for n in ns])
        for d in sorted(table):
            writer.writerow([d] + [str(v) for v in table[d]])
        text = buf.getvalue()
    else:
        width = max(len(str(v)) for row in table.values() for v in row)
        lines = ["delta\\n  " + "  ".join(str(n).rjust(width) for n in ns)]
        for d in sorted(table):
            lines.append(f"{d:>7}  " + "  ".join(str(v).rjust(width) for v in table[d]))
        text = "\n".join(lines) + "\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_bound_report(args: argparse.Namespace) -> int:
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
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "p", "raney", "inequality_holds"])
        for r in rows:
            writer.writerow([r.n, r.p_value, r.raney_value, r.inequality_holds])
        text = buf.getvalue()
    _write(args.out, text)
    return EXIT_OK


def _cmd_growth_report(args: argparse.Namespace) -> int:
    rows = growth_report(args.delta, args.gamma, args.n_max)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "p", "ratio", "nth_root"])
    for r in rows:
        ratio = "" if r.ratio is None else f"{float(r.ratio):.6g}"
        writer.writerow([r.n, r.p_value, ratio, f"{r.nth_root:.6g}"])
    _write(args.out, buf.getvalue())
    return EXIT_OK


def _cmd_discrepancy(args: argparse.Namespace) -> int:
    star_levels = args.star_levels if args.star_levels is not None else args.n_max + 1
    try:
        spec = IldSpec(args.delta, args.gamma, star_levels)
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from None
    tree = build_ild_truncated(spec)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "recurrence_count", "truncated_brute_force_count"])
    counts = series_coefficients(args.delta, args.gamma, args.n_max) if args.n_max >= 1 else []
    for n, recurrence in enumerate(counts, 1):
        writer.writerow([n, recurrence, len(brute_force_covers(tree, n))])
    _write(args.out, buf.getvalue())
    return EXIT_OK


def run_oracle_check(
    max_nodes: int, n_max: int, random_trees: int = 100, seed: int = 20201130
) -> tuple[int, list[str]]:
    """Compare the decomposition search with the brute-force reference.

    Covers every rooted-tree isomorphism class up to max_nodes plus
    `random_trees` randomly labeled random trees.  Returns the number of
    (tree, size) pairs checked and descriptions of any mismatches.
    """
    trees = list(all_rooted_trees(max_nodes))
    rng = random.Random(seed)
    if max_nodes >= 2:
        for _ in range(random_trees):
            trees.append(random_labeled_tree(rng, rng.randint(2, max_nodes)))
    checked = 0
    mismatches: list[str] = []
    for tree in trees:
        for n in range(1, n_max + 1):
            found = find_sweep_covers(tree, n)
            reference = brute_force_covers(tree, n)
            checked += 1
            if found != reference:
                mismatches.append(
                    f"tree {canonical_code(tree)} n={n}: "
                    f"search found {len(found)}, brute force found {len(reference)}"
                )
    return checked, mismatches


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.max_nodes < 1 or args.n_max < 1:
        print("error: --max-nodes and --n-max must be >= 1", file=sys.stderr)
        return EXIT_PARAMS
    checked, mismatches = run_oracle_check(args.max_nodes, args.n_max)
    if mismatches:
        _write(args.out, f"MISMATCH: {mismatches[0]}\n")
        return EXIT_MISMATCH
    _write(args.out, f"all {checked} tree/size pairs match\n")
    return EXIT_OK


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepcover",
        description="Enumerate, validate, and count sweep-covers on rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("enumerate", help="list all sweep-covers of a given size")
    p.add_argument("--tree", required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("validate", help="check a cover against the four conditions")
    p.add_argument("--tree", required=True)
    p.add_argument("--cover", required=True, help="JSON array of arrays of node labels")
    add_common(p, formats=("text", "json"))
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("count", help="exact count for one (delta, gamma, n)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    add_common(p, formats=("text", "json"))
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="grid of exact counts over delta and n")
    p.add_argument("--delta-range", required=True, help="A..B (or a single value)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bound-report", help="counts vs Raney lower-bound values")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_bound_report)

    p = sub.add_parser("growth-report", help="growth-ratio diagnostics for the counts")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p, formats=("csv",))
    p.set_defaults(func=_cmd_growth_report)

    p = sub.add_parser(
        "discrepancy",
        help="recurrence counts beside brute force on a finite truncation",
    )
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--star-levels", type=int, default=None)
    add_common(p, formats=("csv",))
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("oracle-check", help="recursive search vs brute force on small trees")
    p.add_argument("--max-nodes", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p, formats=("text",))
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact counts can outgrow the interpreter's int-to-str digit limit
    # (Python >= 3.10.7); lift it while the command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (TreeError, CoverError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidParamsError, InvalidSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except Exception as exc:
        # Anything else is a fault of the program, not of its input; exit 1
        # stays reserved for an oracle mismatch.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
