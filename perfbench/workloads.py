"""Seeded inputs, expected answers and answer checks for each workload.

``generate(name, seed, workdir)`` writes the input files of one workload
into ``workdir`` and returns its commands, each a CLI argv (paths relative
to ``workdir``) with the answer expected for it.  The same seed gives the
same files and argv.  Sizes come in fixed strata and the seed picks labels,
shapes and order within them, so that the total work of a run changes
little from seed to seed while the inputs do change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

from reference import (
    PAPER_EXACT,
    PAPER_SCIENTIFIC,
    catalan_row,
    cover_polynomial,
    enumerate_covers,
    enumerate_text,
    star_counts,
)

WORKLOADS = ("count-table", "enumerate-trees", "validate-bulk")


@dataclass
class Command:
    argv: list[str]
    expect: dict


def generate(name: str, seed: int, workdir: str) -> list[Command]:
    rng = random.Random(f"{name}:{seed}")
    if name == "count-table":
        return _count_table(rng)
    if name == "enumerate-trees":
        return _enumerate_trees(rng, workdir)
    if name == "validate-bulk":
        return _validate_bulk(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


# -- count-table -------------------------------------------------------

# n per delta at which one cold `count` takes some tens of milliseconds;
# each delta's 13 commands use n-1, n and n+1 in fixed proportions.
COUNT_N = {3: 36, 4: 25, 5: 19, 6: 16, 7: 14, 8: 13, 9: 12}
COUNT_GAMMAS = range(13)
# Deltas of the table/growth-report walks; their gammas lie above
# COUNT_GAMMAS so that every (delta, gamma) pair of a run starts cold.
WALK_DELTAS = (3, 4, 5, 6, 7, 8, 9, 5, 7)
WALK_GAMMAS = range(13, 25)


def _count_table(rng: random.Random) -> list[Command]:
    commands = [
        Command(
            ["table", "--delta-range", "2..9", "--n-max", "8", "--format", "csv"],
            {"kind": "paper-table"},
        )
    ]
    for delta, n0 in COUNT_N.items():
        sizes = [n0 - 1] * 4 + [n0] * 5 + [n0 + 1] * 4
        rng.shuffle(sizes)
        for gamma, n in zip(COUNT_GAMMAS, sizes):
            argv = ["count", "--delta", str(delta), "--gamma", str(gamma), "--n", str(n)]
            commands.append(Command(argv, {"kind": "count", "value": star_counts(delta, gamma, n)[-1]}))
    gammas = {d: rng.sample(WALK_GAMMAS, WALK_DELTAS.count(d)) for d in set(WALK_DELTAS)}
    for delta in WALK_DELTAS:
        gamma, n_max = gammas[delta].pop(), COUNT_N[delta]
        values = star_counts(delta, gamma, n_max)
        common = ["--gamma", str(gamma), "--n-max", str(n_max)]
        if rng.random() < 0.5:
            argv = ["table", "--delta-range", f"{delta}..{delta}"] + common + ["--format", "csv"]
            commands.append(Command(argv, {"kind": "table", "rows": {delta: values}}))
        else:
            argv = ["growth-report", "--delta", str(delta)] + common
            commands.append(Command(argv, {"kind": "growth", "values": values}))
    rng.shuffle(commands)
    return commands


# -- trees and their files ---------------------------------------------


def _labels(rng: random.Random, count: int) -> list[str]:
    """Distinct labels in a seeded order, so sorted output differs by seed."""
    width = len(str(4 * count))
    numbers = rng.sample(range(4 * count), count)
    prefix = rng.choice("abcdefghkmpqrstuvwxyz")
    return [f"{prefix}{k:0{width}d}" for k in numbers]


def _random_tree(rng: random.Random, count: int) -> tuple[str, dict[str, list[str]]]:
    """Random recursive tree: node i hangs below a uniform earlier node."""
    labels = _labels(rng, count)
    children: dict[str, list[str]] = {}
    for i in range(1, count):
        children.setdefault(labels[rng.randrange(i)], []).append(labels[i])
    return labels[0], children


def _caterpillar(rng: random.Random, spine: int) -> tuple[str, dict[str, list[str]]]:
    """Spine of `spine` nodes, one leaf on each and a second on the last."""
    labels = _labels(rng, 2 * spine + 1)
    children: dict[str, list[str]] = {}
    for i in range(spine):
        below = labels[i + 1] if i + 1 < spine else labels[2 * spine]
        pair = [labels[spine + i], below]
        rng.shuffle(pair)
        children[labels[i]] = pair
    return labels[0], children


def _chain(rng: random.Random, count: int) -> tuple[str, dict[str, list[str]]]:
    labels = _labels(rng, count)
    return labels[0], {a: [b] for a, b in zip(labels, labels[1:])}


def _ild(rng: random.Random, delta: int, gamma: int, levels: int) -> tuple[str, dict[str, list[str]]]:
    """Truncated tree of delta-stars joined by gamma-edge paths, relabelled."""
    edges: list[tuple[int, int]] = []
    count, heads = 1, [0]
    for _ in range(levels):
        next_heads = []
        for star in heads:
            for _ in range(gamma):
                edges.append((star, count))
                star, count = count, count + 1
            for _ in range(delta):
                edges.append((star, count))
                next_heads.append(count)
                count += 1
        heads = next_heads
    labels = _labels(rng, count)
    children: dict[str, list[str]] = {}
    for p, c in edges:
        children.setdefault(labels[p], []).append(labels[c])
    return labels[0], children


def _write_tree(rng: random.Random, workdir: str, name: str, children: dict[str, list[str]]) -> str:
    """Write the edges in a seeded order (which also sets the child order)."""
    lines = [f"{p} {c}\n" for p, kids in children.items() for c in kids]
    rng.shuffle(lines)
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write("# parent child\n" + "".join(lines))
    return name


# -- enumerate-trees ---------------------------------------------------

DENSE_RANDOM = 78
DENSE_MIN_COVERS, DENSE_MAX_COVERS = 100, 1875
# (delta, gamma, star levels, n): finite truncations with 10^2..10^3 covers,
# and one with 22,977 covers whose output sets the peak memory of a round
# (random trees would leave it to how their sizes happen to fall).
ILD_CASES = ((2, 0, 5, 5), (2, 1, 3, 4), (3, 0, 3, 8), (3, 1, 2, 5), (4, 0, 2, 4), (2, 0, 4, 6))
# Caterpillar spines; the search costs about twice as much per spine node,
# so the slowest tenth of the commands are caterpillars.
SPARSE_SPINES = (10,) * 6 + (11,) * 5 + (12,) * 6


def _enumerate_trees(rng: random.Random, workdir: str) -> list[Command]:
    cases: list[tuple[tuple[str, dict], int]] = []
    # Dense: one random tree per cover-count target, log-spaced over
    # 100..1875, accepted when its count lies within 25% above the target.
    targets = [
        DENSE_MIN_COVERS * (DENSE_MAX_COVERS / DENSE_MIN_COVERS / 1.25) ** (i / (DENSE_RANDOM - 1))
        for i in range(DENSE_RANDOM)
    ]
    open_targets = sorted(targets)
    while open_targets:
        root, children = _random_tree(rng, rng.randint(30, 60))
        counts = cover_polynomial(root, children, 5)
        for n in rng.sample(range(2, 6), 4):
            hit = next((t for t in open_targets if t <= counts[n] <= 1.25 * t), None)
            if hit is not None:
                open_targets.remove(hit)
                cases.append(((root, children), n))
                break
    for delta, gamma, levels, n in ILD_CASES:
        cases.append((_ild(rng, delta, gamma, levels), n))
    for spine in SPARSE_SPINES:
        tree = _caterpillar(rng, spine)
        cases.append((tree, spine + 1))
    rng.shuffle(cases)
    commands = []
    for i, ((root, children), n) in enumerate(cases):
        path = _write_tree(rng, workdir, f"e{i:03d}.tree", children)
        text = enumerate_text(enumerate_covers(root, children, n))
        expect = {
            "kind": "enumerate",
            "count": text.count("\n"),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        commands.append(Command(["enumerate", "--tree", path, "--n", str(n)], expect))
    return commands


# -- validate-bulk -----------------------------------------------------

# 84 shallow trees (random ones with log-spaced node counts, and ILD
# truncations) and 16 deep ones (caterpillars and a chain).
SHALLOW_SIZES = tuple(round(2000 * 3 ** (i / 39)) for i in range(40)) * 2
ILD_TREES = ((3, 0, 7), (4, 1, 5), (2, 2, 10), (5, 0, 5))
DEEP_SPINES = tuple(range(600, 1201, 50)) + (800, 1000)
CHAIN_NODES = 5000
VIOLATIONS = ("disjoint", "siblings", "coverage", "no-ancestry")


def _antichain(rng: random.Random, root: str, children: dict[str, list[str]], stop: float) -> list[str]:
    """A random maximal antichain below the root: walk down, stopping at a
    node with probability `stop` and always at a leaf."""
    members, stack = [], list(children[root])
    while stack:
        v = stack.pop()
        kids = children.get(v)
        if not kids or rng.random() < stop:
            members.append(v)
        else:
            stack.extend(kids)
    return members


def _blocks(rng: random.Random, members: list[str], parent: dict[str, str], style: str) -> list[list[str]]:
    """Group members into sibling blocks: singletons, whole child sets or random."""
    groups: dict[str, list[str]] = {}
    for v in members:
        groups.setdefault(parent[v], []).append(v)
    blocks = []
    for group in groups.values():
        if style == "singletons":
            blocks.extend([v] for v in group)
        elif style == "child-sets":
            blocks.append(group)
        else:
            parts: list[list[str]] = []
            for v in group:
                k = rng.randrange(len(parts) + 1)
                if k == len(parts):
                    parts.append([v])
                else:
                    parts[k].append(v)
            blocks.extend(parts)
    return blocks


def _inject(rng: random.Random, blocks: list[list[str]], parent: dict[str, str], kind: str) -> list[list[str]]:
    """Break exactly the condition `kind` of a valid cover."""
    blocks = [list(b) for b in blocks]
    if kind == "disjoint":
        # Repeat one member of a multi-member block in a block of its own.
        blocks.append([rng.choice(rng.choice([b for b in blocks if len(b) > 1]))])
    elif kind == "siblings":
        i, j = rng.sample(range(len(blocks)), 2)
        while parent[blocks[i][0]] == parent[blocks[j][0]]:
            i, j = rng.sample(range(len(blocks)), 2)
        merged = blocks[i] + blocks[j]
        blocks = [b for k, b in enumerate(blocks) if k not in (i, j)] + [merged]
    elif kind == "coverage":
        blocks.pop(rng.randrange(len(blocks)))
    elif kind == "no-ancestry":
        blocks.append([parent[rng.choice(rng.choice(blocks))]])
    return blocks


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def _validate_bulk(rng: random.Random, workdir: str) -> list[Command]:
    # Fixed mixes of cover kinds, member sets and block styles, so that the
    # cost of a run changes little with the seed.  Caterpillars always cover
    # all their leaves and never get a no-ancestry cover: validate stops its
    # ancestry scan at the first hit, so where that hit falls would set
    # their cost, and they set p90.
    shallow = [_random_tree(rng, n) for n in SHALLOW_SIZES] + [_ild(rng, *spec) for spec in ILD_TREES]
    shallow_kinds = [None] * 33 + [v for v in VIOLATIONS for _ in range(12)] + ["no-ancestry"] * 3
    members = ["leaves"] * 42 + [0.05] * 21 + [0.2] * 21  # antichain stop odds
    styles = ["singletons", "child-sets", "random"] * 28
    cases = list(zip(shallow, _shuffled(rng, shallow_kinds), _shuffled(rng, members), _shuffled(rng, styles)))
    deep_kinds = [None] * 6 + ["disjoint", "siblings", "coverage"] * 3
    deep_styles = ["singletons", "child-sets", "random"] * 5
    cases += zip(
        [_caterpillar(rng, spine) for spine in DEEP_SPINES],
        _shuffled(rng, deep_kinds),
        ["leaves"] * len(DEEP_SPINES),
        _shuffled(rng, deep_styles),
    )
    # A chain's covers are single nodes: no block to split or merge.
    cases.append((_chain(rng, CHAIN_NODES), rng.choice((None, "coverage", "no-ancestry")), "chain", None))
    rng.shuffle(cases)
    commands = []
    for i, ((root, children), kind, rule, style) in enumerate(cases):
        parent = {c: p for p, kids in children.items() for c in kids}
        if rule == "chain":
            blocks = [[rng.choice(sorted(parent))]]
        else:
            if rule == "leaves":
                chosen = sorted(v for v in parent if v not in children)
            else:
                chosen = _antichain(rng, root, children, rule)
            blocks = _blocks(rng, chosen, parent, style)
            if kind == "disjoint" and all(len(b) == 1 for b in blocks):
                blocks = _blocks(rng, chosen, parent, "child-sets")
                if all(len(b) == 1 for b in blocks):
                    kind = "coverage"
            if kind == "siblings" and len({parent[m] for m in chosen}) < 2:
                kind = "coverage"
            if kind == "coverage" and len(blocks) < 2:
                kind = "no-ancestry"
        if kind is not None:
            blocks = _inject(rng, blocks, parent, kind)
        rng.shuffle(blocks)
        tree_path = _write_tree(rng, workdir, f"v{i:03d}.tree", children)
        cover_path = f"v{i:03d}.cover.json"
        with open(os.path.join(workdir, cover_path), "w", encoding="utf-8") as fh:
            json.dump(blocks, fh)
        expect = {"kind": "validate", "valid": kind is None, "violations": [kind] if kind else []}
        argv = ["validate", "--tree", tree_path, "--cover", cover_path, "--format", "json"]
        commands.append(Command(argv, expect))
    return commands


# -- answer checks -----------------------------------------------------


def check(expect: dict, record: dict) -> str | None:
    """Why a command's result is wrong, or None when it is right."""
    if record.get("error") and record.get("code") is None:
        return record["error"]
    if record["code"] != 0:
        return f"exit code {record['code']}: {record.get('error')}"
    kind = expect["kind"]
    if kind == "enumerate":
        if record["sha256"] != expect["sha256"]:
            return f"stdout digest differs from the {expect['count']} expected covers"
        return None
    text = record.get("text")
    if text is None:
        return "output too large for its kind"
    try:
        return _CHECKS[kind](expect, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_count(expect: dict, text: str) -> str | None:
    if text != f"{expect['value']}\n":
        return f"count {text.strip()!r} != {expect['value']}"
    return None


def _csv_rows(text: str) -> dict[int, list[int]]:
    rows = list(csv.reader(io.StringIO(text)))
    return {int(r[0]): [int(v) for v in r[1:]] for r in rows[1:]}


def _check_table(expect: dict, text: str) -> str | None:
    grid = _csv_rows(text)
    rows = {int(d): v for d, v in expect["rows"].items()}
    if grid != rows:
        return f"table rows differ for delta {sorted(rows)}"
    return None


def _check_paper_table(expect: dict, text: str) -> str | None:
    grid = _csv_rows(text)
    if sorted(grid) != list(range(2, 10)):
        return f"table has deltas {sorted(grid)}"
    for delta, cells in PAPER_EXACT.items():
        if grid[delta][: len(cells)] != cells:
            return f"delta {delta} differs from the paper's printed cells"
    for (delta, n), value in PAPER_SCIENTIFIC.items():
        if float(f"{grid[delta][n - 1]:.3g}") != value:
            return f"cell ({delta}, {n}) differs from the paper's {value:.3g}"
    if grid[2] != catalan_row(8):
        return "delta 2 row is not the Catalan numbers"
    for delta in grid:
        if grid[delta] != star_counts(delta, 0, 8):
            return f"delta {delta} row differs from the reference"
    return None


def _check_growth(expect: dict, text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0][:2] != ["n", "p"]:
        return f"growth-report header {rows[0]}"
    got = [(int(r[0]), int(r[1])) for r in rows[1:]]
    if got != list(enumerate(expect["values"], start=1)):
        return "growth-report counts differ from the reference"
    return None


def _check_validate(expect: dict, text: str) -> str | None:
    payload = json.loads(text)
    if payload["valid"] is not expect["valid"] or payload["violations"] != expect["violations"]:
        return f"verdict {payload['valid']} {payload['violations']} != {expect['valid']} {expect['violations']}"
    return None


_CHECKS = {
    "count": _check_count,
    "paper-table": _check_paper_table,
    "table": _check_table,
    "growth": _check_growth,
    "validate": _check_validate,
}
