"""One closed-loop client in a fresh interpreter.

Usage: python3 child.py SRC_DIR MODE [JOB_JSON RESULT_JSON]

MODE is ``setup`` (import and exit), ``plain`` or ``traced``.  The child
imports ``sweepcover`` from SRC_DIR, prints ``ready`` on standard output
(the parent times interpreter start to this line as set-up), then sends the
job's commands one at a time to ``sweepcover.cli.main`` with standard output
and error captured, and writes one result record per command.  Answers are
checked by the parent, not here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter

# Outputs up to this size are returned whole for checking; larger ones
# (enumerations) are checked by digest only.
KEEP_TEXT_BYTES = 65536


class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI's handlers pass it on."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def run_command(main, argv: list[str], timeout_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except CommandTimeout:
        error = f"timeout after {timeout_s} s"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    data = out.getvalue().encode("utf-8")
    return {
        "code": code,
        "s": elapsed,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "text": data.decode("utf-8") if len(data) <= KEEP_TEXT_BYTES else None,
        "error": error or (err.getvalue()[-500:] if code != 0 else None),
    }


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    import sweepcover
    from sweepcover.cli import main as cli_main

    package_dir = os.path.dirname(os.path.abspath(sweepcover.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        print(f"sweepcover imported from {package_dir}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if mode == "setup":
        return 0
    job_path, result_path = sys.argv[3], sys.argv[4]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    for argv in job["commands"]:
        if tracer is not None:
            tracer.start_command()
        records.append(run_command(cli_main, argv, job["timeout_s"]))
    result = {
        "commands": records,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
