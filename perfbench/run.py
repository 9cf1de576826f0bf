"""Benchmark of the sweepcover CLI: one closed-loop client, answers checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload count-table --seed 1 --seconds 30 --trace 0

A run generates the workload's inputs from the seed, then repeats rounds
until --seconds have passed.  A round is one fresh interpreter that imports
sweepcover from ./src and sends the workload's ~100 commands to
``sweepcover.cli.main`` one after another; every answer is checked.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import COUNTERS  # noqa: E402
from workloads import WORKLOADS, check, generate  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

SETUP_SPAWNS = 5  # set-up-only interpreters per run, besides one per round
COMMAND_TIMEOUT_S = 30.0
RUN_LIMIT_S = 170.0  # a run stops its rounds and reports failure past this
CALIBRATION_LOOPS = 2_000_000

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The benchmark could not run at all (no result is printed)."""


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a host-speed diagnostic, never a divisor."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Fixed hash seed: set iteration order, and so the trace counters, repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workdir: str, deadline: float, job: str | None = None, result: str | None = None):
    """Run one child to its end; return its set-up seconds, or None if it passed the deadline."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), SRC, mode]
    if job is not None:
        argv += [job, result]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    if line != b"ready\n" or proc.returncode != 0:
        raise RunError(f"child ({mode}) exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return setup


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by tens) by statistics.quantiles, inclusive method."""
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "sweepcover", "cli.py")):
        raise RunError(f"no sweepcover sources under {SRC}")
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        commands = generate(workload, seed, workdir)
        with open(os.path.join(workdir, "job.json"), "w", encoding="utf-8") as fh:
            json.dump({"commands": [c.argv for c in commands], "timeout_s": COMMAND_TIMEOUT_S}, fh)
        spawn("setup", workdir, deadline)  # fills the bytecode cache; not timed
        setups = [spawn("setup", workdir, deadline) for _ in range(SETUP_SPAWNS)]
        if None in setups:
            raise RunError("importing sweepcover did not finish within the run limit")
        rounds = rounds_until(seconds, trace, workdir, deadline, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, seed, trace, commands, rounds, setups, began)


def rounds_until(seconds: int, trace: bool, workdir: str, deadline: float, setups: list) -> list[dict]:
    """Run rounds until `seconds` have passed; with tracing, alternate modes."""
    rounds: list[dict] = []
    start = time.monotonic()
    modes = ("plain", "traced") if trace else ("plain",)
    while time.monotonic() - start < seconds or len(rounds) < len(modes):
        mode = modes[len(rounds) % len(modes)]
        job = os.path.join(workdir, "job.json")
        out = os.path.join(workdir, f"result-{len(rounds)}.json")
        setup = spawn(mode, workdir, deadline, job, out)
        if setup is None:
            rounds.append({"mode": mode, "timed_out": True})
            break
        setups.append(setup)
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["mode"] = mode
        rounds.append(result)
    return rounds


def summarize(workload: str, seed: int, trace: bool, commands, rounds, setups, began) -> dict:
    attempted = failed = 0
    problems: list[str] = []
    for r in rounds:
        if r.get("timed_out"):
            attempted += len(commands)
            failed += len(commands)
            problems.append(f"{r['mode']} round passed the {RUN_LIMIT_S:.0f} s run limit")
            continue
        for cmd, record in zip(commands, r["commands"], strict=True):
            attempted += 1
            why = check(cmd.expect, record)
            if why is not None:
                failed += 1
                problems.append(f"{' '.join(cmd.argv)}: {why}")
    done = [r for r in rounds if not r.get("timed_out")]
    plain = [r for r in done if r["mode"] == "plain"]
    traced = [r for r in done if r["mode"] == "traced"]
    latencies = best_latencies_ms(plain)
    metrics: dict[str, float] = {}
    if plain:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(latencies) / 1000,
            "query_p50_ms": percentile(latencies, 50),
            "query_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": statistics.median(r["max_rss_kb"] / 1024 for r in plain),
        }
    layer: dict[str, float] = {}
    if traced:
        counters = [r["trace"]["counts"] for r in traced]
        if any(c != counters[0] for c in counters):
            problems.append("trace counters differ between traced rounds")
        layer = layer_metrics(traced, counters[0])
        layer["cli.stdout_bytes"] = sum(c["bytes"] for c in traced[0]["commands"])
        layer["trace.overhead_frac"] = sum(best_latencies_ms(traced)) / sum(latencies) - 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": commit(),
            "calibration_s": calibration_s(),
        },
        "rounds": {"plain": len(plain), "traced": len(traced), "commands": len(commands)},
        "samples": {"latency": len(latencies), "setup": len(setups)},
        "round_wall_s": {
            mode: [sum(c["s"] for c in r["commands"]) for r in done if r["mode"] == mode]
            for mode in ("plain", "traced")
        },
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "metrics": metrics,
        "layer_metrics": layer,
        "spans": traced[0]["trace"]["spans"] if traced else [],
        "absent": traced[0]["trace"]["absent"] if traced else [],
        "elapsed_s": time.monotonic() - began,
    }


def best_latencies_ms(rounds: list[dict]) -> list[float]:
    """Each command's fastest latency over the rounds, in command order.

    Every round runs the same commands from the same cold start, and other
    tenants of a shared host can only add time to a command, never remove
    it; the fastest of a command's runs is the one least disturbed.
    """
    if not rounds:
        return []
    return [min(r["commands"][i]["s"] for r in rounds) * 1000 for i in range(len(rounds[0]["commands"]))]


def layer_metrics(traced: list[dict], counts: dict) -> dict[str, float]:
    def repeat_frac(distinct: str, calls: str) -> float:
        return 1 - counts[distinct] / counts[calls] if counts[calls] else 0.0

    out: dict[str, float] = {name: counts[name] for name in COUNTERS if name != "enumeration.search_empty"}
    for name in traced[0]["trace"]["times"]:
        out[name] = statistics.median(r["trace"]["times"][name] for r in traced)
    searches = counts["enumeration.search_calls"]
    out["enumeration.search_repeat_frac"] = repeat_frac("enumeration.search_distinct", "enumeration.search_calls")
    out["enumeration.search_empty_frac"] = counts["enumeration.search_empty"] / searches if searches else 0.0
    out["counting.memo_hit_frac"] = repeat_frac("counting.p_count_distinct", "counting.p_count_calls")
    return out


LAYER_UNITS = {"_s": "s", "_frac": "frac"}


def unit_of(name: str) -> str:
    if name == "cli.stdout_bytes":
        return "bytes"
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    env = report["env"]
    print(
        f"# {args.workload} seed {args.seed}: python {env['python']}, nproc {env['nproc']}, "
        f"commit {env['commit'][:12]}, calibration {env['calibration_s']:.3f} s, "
        f"rounds {report['rounds']}, samples {report['samples']}"
    )
    for problem in report["problems"][:20]:
        print(f"# FAILED {problem}")
    if args.trace:
        shown = {k: {"value": v, "unit": unit_of(k)} for k, v in report["layer_metrics"].items()}
        if report["absent"]:
            print(f"# absent from the program: {', '.join(report['absent'])}")
    else:
        shown = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in report["metrics"].items()}
    for k, m in shown.items():
        print(f"{k:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':36s} {report['fail_frac']:>16.6g} frac ({report['failed']}/{report['attempted']})")
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": shown,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
