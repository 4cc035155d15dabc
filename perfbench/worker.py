"""Run a job list in one process through ahweyl.cli.main: a closed loop with
one client, each job sent after the previous one finished.

Usage: python3 perfbench/worker.py < request.json > reply.json

The request is {"jobs": [...], "cap_s": float, "budget_s": float,
"trace": bool, "spans_path": str or null}. The reply holds, per job, its
status ("ok", "error", "timeout" or "not_run"), exit code, wall seconds,
the calibration loop's seconds just before it, stdout and stderr; the peak
RSS of this process; and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from calibrate import loop_seconds

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class JobTimeout(BaseException):
    """Raised by the interval timer when a job passes its wall-clock cap.
    A BaseException, so no `except Exception` inside the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(main, job: dict, cap_s: float) -> dict:
    loop_s = loop_seconds()
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job["stdin"])
    code = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(job["argv"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok" if code == 0 else "error"
    except JobTimeout:
        status = "timeout"
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
        status = "error"
    except Exception:
        err.write(traceback.format_exc())
        status = "error"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin = saved_stdin
    return {
        "id": job["id"],
        "status": status,
        "exit_code": code,
        "seconds": elapsed,
        "loop_s": loop_s,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def run_jobs(jobs, cap_s: float, budget_s: float, tracer=None) -> dict:
    from ahweyl.cli import main

    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if time.perf_counter() - start > budget_s:
            results.append({"id": job["id"], "status": "not_run", "exit_code": None,
                            "seconds": 0.0, "loop_s": None, "stdout": "", "stderr": "run budget exhausted"})
            continue
        if tracer is not None:
            tracer.job[0] = index
        # every CLI call is a fresh process in use, so no job pays for
        # collecting the previous job's garbage
        gc.collect()
        results.append(run_job(main, job, cap_s))
    return {"results": results}


def main() -> int:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    reply = run_jobs(request["jobs"], request["cap_s"], request["budget_s"], tracer)
    # ru_maxrss is in KiB on Linux
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        reply["layers"] = layer_metrics(tracer)
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
