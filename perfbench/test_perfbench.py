"""Tests of the benchmark itself: inputs, references, checks and tracing.

Run from the repository root:  python3 -m unittest discover -s perfbench -v
(or: python3 -m pytest perfbench/test_perfbench.py)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from reference import (  # noqa: E402
    PAPER_EXACT,
    catalan_row,
    cover_polynomial,
    enumerate_covers,
    enumerate_text,
    star_counts,
)
from sweepcover.cover import canonical_blocks  # noqa: E402
from sweepcover.counting import p_count  # noqa: E402
from sweepcover.enumeration import brute_force_covers, find_sweep_covers  # noqa: E402
from sweepcover.tree import IldSpec, Tree, build_ild_truncated  # noqa: E402

# A few commands of each workload, cheap enough to run twice per test.
SMALL_JOB = 8


def _workdir() -> str:
    os.makedirs(run.WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix="test-", dir=run.WORK)


def _snapshot(workdir: str, commands) -> tuple:
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return [c.argv for c in commands], [c.expect for c in commands], files


def _run_child(workdir: str, commands, mode: str) -> dict:
    job = os.path.join(workdir, "job.json")
    out = os.path.join(workdir, f"result-{mode}.json")
    with open(job, "w", encoding="utf-8") as fh:
        json.dump({"commands": [c.argv for c in commands], "timeout_s": 60}, fh)
    assert run.spawn(mode, workdir, time.monotonic() + 170, job, out) is not None, "child timed out"
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


class SmallJobs(unittest.TestCase):
    """Plain and traced runs of the first commands of every workload."""

    @classmethod
    def setUpClass(cls):
        cls.dirs, cls.commands, cls.results = {}, {}, {}
        for name in workloads.WORKLOADS:
            workdir = _workdir()
            commands = workloads.generate(name, 7, workdir)[:SMALL_JOB]
            cls.dirs[name], cls.commands[name] = workdir, commands
            cls.results[name] = {
                "plain": _run_child(workdir, commands, "plain"),
                "traced": _run_child(workdir, commands, "traced"),
                "traced-again": _run_child(workdir, commands, "traced"),
            }

    @classmethod
    def tearDownClass(cls):
        for workdir in cls.dirs.values():
            shutil.rmtree(workdir, ignore_errors=True)

    def test_answers_are_right(self):
        for name, commands in self.commands.items():
            for mode, result in self.results[name].items():
                for cmd, record in zip(commands, result["commands"], strict=True):
                    self.assertIsNone(workloads.check(cmd.expect, record), (name, mode, cmd.argv))

    def test_counters_repeat_across_traced_runs(self):
        for name in self.commands:
            first = self.results[name]["traced"]["trace"]["counts"]
            again = self.results[name]["traced-again"]["trace"]["counts"]
            self.assertEqual(first, again, name)
            self.assertGreater(sum(first.values()), 0, name)

    def test_stdout_is_identical_with_tracing_on_and_off(self):
        for name in self.commands:
            plain = [c["sha256"] for c in self.results[name]["plain"]["commands"]]
            traced = [c["sha256"] for c in self.results[name]["traced"]["commands"]]
            self.assertEqual(plain, traced, name)

    def test_each_workload_exercises_its_layer_only(self):
        counts = {name: self.results[name]["traced"]["trace"]["counts"] for name in self.commands}
        self.assertGreater(counts["count-table"]["counting.p_count_calls"], 0)
        self.assertGreater(counts["enumerate-trees"]["enumeration.search_calls"], 0)
        self.assertGreater(counts["validate-bulk"]["tree.ancestor_steps"], 0)
        for name in ("enumerate-trees", "validate-bulk"):
            self.assertEqual(counts[name]["counting.p_count_calls"], 0, name)
        for name in ("count-table", "validate-bulk"):
            self.assertEqual(counts[name]["enumeration.search_calls"], 0, name)

    def test_checker_flags_corrupted_output(self):
        for name, commands in self.commands.items():
            for cmd, record in zip(commands, self.results[name]["plain"]["commands"], strict=True):
                broken = dict(record)
                if record["text"] is not None:
                    text = record["text"]
                    # Change one digit, or flip the verdict of a validate.
                    if '"valid": true' in text or '"valid": false' in text:
                        flipped = text.replace("true", "TMP").replace("false", "true").replace("TMP", "false")
                        broken["text"] = flipped
                    else:
                        i = max(k for k, ch in enumerate(text) if ch.isdigit())
                        broken["text"] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]
                broken["sha256"] = "0" * 64
                self.assertIsNotNone(workloads.check(cmd.expect, broken), (name, cmd.argv))
                self.assertIsNotNone(workloads.check(cmd.expect, dict(record, code=1)), cmd.argv)
                timeout = dict(record, code=None, error="timeout after 30 s")
                self.assertIsNotNone(workloads.check(cmd.expect, timeout), cmd.argv)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            dirs = [_workdir() for _ in range(3)]
            try:
                first, again, other = (
                    _snapshot(d, workloads.generate(name, seed, d)) for d, seed in zip(dirs, (3, 3, 4))
                )
            finally:
                for d in dirs:
                    shutil.rmtree(d, ignore_errors=True)
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_workloads_have_a_hundred_commands(self):
        for name in workloads.WORKLOADS:
            workdir = _workdir()
            try:
                self.assertGreaterEqual(len(workloads.generate(name, 1, workdir)), 100, name)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


class References(unittest.TestCase):
    """The benchmark's reference answers, checked by a second path."""

    def test_star_counts_match_the_paper_and_catalan(self):
        for delta, cells in PAPER_EXACT.items():
            self.assertEqual(star_counts(delta, 0, len(cells)), cells)
        self.assertEqual(star_counts(2, 0, 12), catalan_row(12))

    def test_star_counts_match_p_count(self):
        for delta in range(2, 10):
            for gamma in (0, 1, 7, 12):
                self.assertEqual(
                    star_counts(delta, gamma, 9), [p_count(delta, gamma, n) for n in range(1, 10)]
                )

    def test_star_counts_match_covers_of_truncated_trees(self):
        # gamma counts path nodes in the recurrence, path edges in IldSpec.
        for delta in (2, 3):
            for gamma in (0, 1, 2):
                counts = star_counts(delta, gamma + 1, 4)
                for n in range(1, 5):
                    tree = build_ild_truncated(IldSpec(delta, gamma, n + 1))
                    self.assertEqual(counts[n - 1], len(find_sweep_covers(tree, n)), (delta, gamma, n))
                    self.assertEqual(counts[n - 1], p_count(delta, gamma + 1, n))

    def test_enumeration_matches_brute_force_on_the_smallest_inputs(self):
        rng = workloads.random.Random(5)
        cases = [(workloads._ild(rng, 3, 1, 2), 5), (workloads._ild(rng, 2, 1, 3), 4)]
        cases += [(workloads._caterpillar(rng, 10), 11)]
        for (root, children), n in cases:
            tree = Tree(root, children)
            expected = sorted(canonical_blocks(c) for c in brute_force_covers(tree, n))
            self.assertEqual(enumerate_covers(root, children, n), expected)
            self.assertEqual(cover_polynomial(root, children, n)[n], len(expected))

    def test_enumeration_matches_the_search_on_random_trees(self):
        rng = workloads.random.Random(11)
        for _ in range(40):
            root, children = workloads._random_tree(rng, rng.randint(2, 25))
            tree = Tree(root, children)
            poly = cover_polynomial(root, children, 5)
            for n in range(1, 6):
                expected = sorted(canonical_blocks(c) for c in find_sweep_covers(tree, n))
                covers = enumerate_covers(root, children, n)
                self.assertEqual(covers, expected)
                self.assertEqual(poly[n], len(covers))
                self.assertEqual(enumerate_text(covers).count("\n"), len(covers))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "out"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "count-table", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
