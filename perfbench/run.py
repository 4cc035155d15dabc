"""The ahweyl benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload charp-analyze --seed 1 --seconds 16 --trace 0

The workload's jobs (CLI calls with --output json) come from the seeded
generator in inputs.py. worker.py runs them in a fresh process through
ahweyl.cli.main, one after the other (a closed loop with one client).
checks.py checks every output. Every time is scaled to the machine's calm
speed with calibrate.py. With --trace 0 the job list runs in inputs.PASSES
passes, each in its own process, and a job's time is its lowest over the
passes, which drops most short stalls. The end-to-end metrics are printed. With --trace 1 the first round runs once untraced and once
traced, and the per-layer metrics are printed. Each run also writes a results file
to perfbench/out/ (and, when traced, the spans).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CAP_S = 30.0  # wall-clock cap per job; a job over it is recorded as timeout
RUN_LIMIT_S = 165.0  # a run ends within this; jobs past it are recorded as not_run
SETUP_RUNS = 11

# name, unit, better, bound (share of the parent's median it may worsen by)
E2E_METRICS = (
    ("jobs_per_s", "1/s", "higher", 0.2),
    ("job_p50_s", "s", "lower", 0.2),
    ("job_tail_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_ALL = "jobs_per_s on all four workloads"
_BRACKET_P50 = "job_p50_s on charp-bracket"
_BRACKET_CHAR0_P50 = "job_p50_s on charp-bracket and char0-classes"
# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("fields.coerce.calls", "count", "lower", "jobs_per_s on charp-bracket and charp-analyze; on char0-classes with the Q kernel"),
    ("fields.scalar_ops.calls", "count", "lower", "jobs_per_s on charp-bracket and charp-analyze; on char0-classes with the Q kernel"),
    ("poly.mul.calls", "count", "lower", _ALL),
    ("poly.mul.self_s", "s", "lower", _ALL),
    ("poly.mul.coeff_products", "count", "lower", _ALL),
    ("poly.mul.large_share", "ratio", "lower", "none: a workload property; charp-bracket (gain expected) against verify-suite (must not lose)"),
    ("poly.add.self_s", "s", "lower", _ALL),
    ("poly.divmod.calls", "count", "lower", _ALL),
    ("poly.divmod.self_s", "s", "lower", _ALL),
    ("poly.gcd.calls", "count", "lower", _ALL),
    ("poly.gcd.self_s", "s", "lower", _ALL),
    ("poly.pow.self_s", "s", "lower", _ALL),
    ("poly.derivative.self_s", "s", "lower", _ALL),
    ("poly.self_s", "s", "lower", _ALL),
    ("weyl.mul.calls", "count", "lower", _BRACKET_CHAR0_P50),
    ("weyl.mul.self_s", "s", "lower", _BRACKET_CHAR0_P50),
    ("weyl.mul.term_pairs", "count", "lower", _BRACKET_CHAR0_P50),
    ("weyl.commutator.calls", "count", "lower", _BRACKET_CHAR0_P50),
    ("weyl.to_text.self_s", "s", "lower", _BRACKET_CHAR0_P50),
    ("weyl.self_s", "s", "lower", _BRACKET_CHAR0_P50),
    ("centerpoly.mul.calls", "count", "lower", _BRACKET_P50),
    ("centerpoly.self_s", "s", "lower", _BRACKET_P50),
    ("linalg.nullspace.calls", "count", "lower", "jobs_per_s on the non-free cells of charp-analyze"),
    ("linalg.nullspace.cells", "count", "lower", "jobs_per_s on the non-free cells of charp-analyze"),
    ("linalg.solver_add.calls", "count", "lower", "jobs_per_s on the non-free cells of charp-analyze"),
    ("linalg.self_s", "s", "lower", "jobs_per_s on the non-free cells of charp-analyze"),
    ("context.init.calls", "count", "lower", "job_p50_s and peak_rss_mb on charp-analyze"),
    ("context.init.self_s", "s", "lower", "job_p50_s and peak_rss_mb on charp-analyze"),
    ("context.yhat_power.calls", "count", "lower", "jobs_per_s on charp-analyze; job_p50_s on charp-bracket"),
    ("context.yhat_power.hit_ratio", "ratio", "higher", "jobs_per_s on charp-analyze; job_p50_s on charp-bracket"),
    ("context.theta.self_s", "s", "lower", "jobs_per_s on charp-analyze"),
    ("context.center_basis.self_s", "s", "lower", "job_p50_s on charp-bracket, against context.yhat_collect.self_s on char0-classes"),
    ("context.yhat_collect.self_s", "s", "lower", "job_p50_s on char0-classes, against context.center_basis.self_s on charp-bracket"),
    ("context.self_s", "s", "lower", "jobs_per_s on charp-analyze; job_p50_s on charp-bracket"),
    ("derivations.make.self_s", "s", "lower", _BRACKET_CHAR0_P50),
    ("derivations.apply.calls", "count", "lower", _BRACKET_P50),
    ("derivations.apply.self_s", "s", "lower", _BRACKET_P50),
    ("derivations.image_of_zeta.calls", "count", "lower", "jobs_per_s and job_tail_s on charp-analyze; zero on char0-classes"),
    ("derivations.image_of_zeta.self_s", "s", "lower", "jobs_per_s and job_tail_s on charp-analyze; zero on char0-classes"),
    ("derivations.bracket.self_s", "s", "lower", _BRACKET_P50),
    ("derivations.decompose.self_s", "s", "lower", _BRACKET_CHAR0_P50),
    ("derivations.is_inner.calls", "count", "lower", _BRACKET_P50),
    ("derivations.is_inner.self_s", "s", "lower", _BRACKET_P50),
    ("derivations.ad.calls", "count", "lower", _BRACKET_CHAR0_P50),
    ("derivations.self_s", "s", "lower", _BRACKET_CHAR0_P50),
    ("hochschild.charp_report.self_s", "s", "lower", "jobs_per_s on charp-analyze"),
    ("hochschild.certificates", "count", "lower", "jobs_per_s on charp-analyze"),
    ("hochschild.char0_report.self_s", "s", "lower", "job_p50_s on char0-classes"),
    ("hochschild.self_s", "s", "lower", "jobs_per_s on charp-analyze and char0-classes"),
    ("verify.properties.checks", "count", "lower", "jobs_per_s on verify-suite"),
    ("verify.self_s", "s", "lower", "jobs_per_s on verify-suite"),
    ("parse.self_s", "s", "lower", _BRACKET_P50),
    ("parse.input_bytes", "bytes", "lower", _BRACKET_P50),
    ("cli.self_s", "s", "lower", _BRACKET_P50),
    ("cli.output_bytes", "bytes", "lower", _BRACKET_P50),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing, per workload"),
)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def tail_percentile(times):
    """(q, value, beyond): the highest q in TAIL_LADDER whose nearest-rank
    value has at least ten samples above it (p50 if none has)."""
    s = sorted(times)
    n = len(s)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10 or q == TAIL_LADDER[-1]:
            return q, s[rank - 1], n - rank
    raise AssertionError("unreachable")


def repeated_h_share(jobs) -> float:
    seen = set()
    repeats = 0
    for job in jobs:
        key = (job["p"], job["h"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs)


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_worker(jobs, trace: bool, deadline: float, spans_path=None, share=1.0) -> dict:
    """Run the jobs in a fresh worker process, within `share` of the time
    left before the deadline."""
    budget = (deadline - time.monotonic() - CAP_S) * share
    if budget <= 0:
        raise BenchError("no time left to run the jobs")
    request = {
        "jobs": jobs,
        "cap_s": CAP_S,
        "budget_s": budget,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "worker.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=budget + CAP_S + 5,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


SETUP_CODE = """
import sys, time
sys.path.insert(0, {bench!r})
from calibrate import loop_seconds
loop_s = loop_seconds()
sys.path.insert(0, {copy!r})
start = time.perf_counter()
import ahweyl.cli
print(time.perf_counter() - start, loop_s)
"""


def measure_setup(runs: int = SETUP_RUNS) -> list:
    """(seconds, calibration seconds) for each of `runs` fresh interpreters
    importing ahweyl.cli. The package is imported from a copy without
    __pycache__ and -B keeps it so, so every import compiles ahweyl from
    source; the standard library keeps its own bytecode cache."""
    copy = OUT / "setup-src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(SRC / "ahweyl", copy / "ahweyl", ignore=shutil.ignore_patterns("__pycache__"))
    code = SETUP_CODE.format(bench=str(BENCH), copy=str(copy))
    cmd = [sys.executable, "-B", "-E", "-s", "-c", code]
    samples = []
    for _ in range(runs):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"importing ahweyl.cli failed: {proc.stderr[-2000:]}")
        seconds, loop_s = map(float, proc.stdout.split())
        samples.append((seconds, loop_s))
    return samples


def check_results(checker, jobs, reply) -> list:
    """[(job id, reason)] for every job whose output is wrong."""
    failures = []
    for job, result in zip(jobs, reply["results"]):
        reason = checker.check(job, result)
        if reason:
            failures.append((job["id"], reason))
    return failures


def failed_share(jobs, failures) -> float:
    return len({job_id for job_id, _ in failures}) / len(jobs)


def job_times(replies, scale=True) -> list:
    """Per job, its lowest time over the passes it ran in, scaled to the
    calm speed (or raw wall seconds)."""
    times = []
    for results in zip(*(reply["results"] for reply in replies)):
        ran = [
            scaled(r["seconds"], r["loop_s"]) if scale else r["seconds"]
            for r in results
            if r["status"] != "not_run"
        ]
        if ran:
            times.append(min(ran))
    return times


def e2e_metrics(replies, setup_samples) -> tuple:
    """(metrics, details): values by name, and what each was computed from.
    A job completed if every pass completed it."""
    completed = sum(
        all(r["status"] == "ok" for r in results)
        for results in zip(*(reply["results"] for reply in replies))
    )
    times, raw = job_times(replies), job_times(replies, scale=False)
    q, tail, beyond = tail_percentile(times)
    setup = [scaled(s, loop_s) for s, loop_s in setup_samples]
    metrics = {
        "jobs_per_s": completed / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(reply["peak_rss_mb"] for reply in replies),
    }
    details = {
        "jobs_per_s": {"completed": completed, "job_seconds": sum(times), "passes": len(replies)},
        "job_p50_s": {"samples": len(times)},
        "job_tail_s": {"percentile": q, "samples": len(times), "beyond": beyond},
        "setup_s": {"samples": setup},
        "raw_wall": {
            "jobs_per_s": completed / sum(raw),
            "job_p50_s": statistics.median(raw),
            "job_tail_s": tail_percentile(raw)[1],
            "setup_s": statistics.median(s for s, _ in setup_samples),
        },
    }
    return metrics, details


def layer_values(plain, traced) -> dict:
    layers = traced["layers"]
    values = {name: layers.get(name, 0) for name, *_ in LAYER_METRICS}
    certificates = checks_count = 0
    for result in traced["results"]:
        if result["status"] != "ok":
            continue
        payload = json.loads(result["stdout"])
        if "charp_report" in payload:
            certificates += payload["charp_report"]["freeness_certificates"]
        for prop in payload.get("properties", ()):
            checks_count += prop["count"]
    values["hochschild.certificates"] = certificates
    values["verify.properties.checks"] = checks_count
    values["cli.output_bytes"] = sum(len(r["stdout"]) for r in traced["results"])
    values["trace.overhead_ratio"] = sum(job_times([traced])) / sum(job_times([plain]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the ahweyl benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "ahweyl" / "cli.py").is_file():
        print(f"error: no ahweyl sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import checks
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    rounds = 1 if args.trace else inputs.rounds_for(args.workload, args.seconds)
    jobs = inputs.make_jobs(args.workload, args.seed, rounds)
    checker = checks.Checker(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "jobs": len(jobs),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "input_digest": inputs.input_digest(jobs),
        "repeated_h_share": repeated_h_share(jobs),
    }
    try:
        if args.trace:
            plain = run_worker(jobs, False, deadline, share=1 / 3)
            spans_path = OUT / f"{stem}.spans.gz"
            traced = run_worker(jobs, True, deadline, spans_path)
            failures = [(i, f"untraced: {r}") for i, r in check_results(checker, jobs, plain)]
            failures += [(i, f"traced: {r}") for i, r in check_results(checker, jobs, traced)]
            values = layer_values(plain, traced)
            table = [(name, unit, values[name]) for name, unit, *_ in LAYER_METRICS]
            record["moves"] = {name: moves for name, _, _, moves in LAYER_METRICS}
            record["spans"] = str(spans_path.relative_to(ROOT))
        else:
            setup_samples = measure_setup()
            replies = [
                run_worker(jobs, False, deadline, share=1 / (inputs.PASSES - k))
                for k in range(inputs.PASSES)
            ]
            failures = sorted({f for reply in replies for f in check_results(checker, jobs, reply)})
            values, record["details"] = e2e_metrics(replies, setup_samples)
            table = [(name, unit, values[name]) for name, unit, *_ in E2E_METRICS]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = {job_id for job_id, _ in failures}
    record["failed_share"] = failed_share(jobs, failures)
    cells = {job["id"]: job["cell"] for job in jobs}
    record["failures"] = [{"id": i, "cell": cells[i], "reason": r} for i, r in failures]
    record["metrics"] = {name: {"value": v, "unit": unit} for name, unit, v in table}
    results_path = OUT / f"{stem}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}, seed {args.seed}: {len(jobs)} jobs in {rounds} round(s), inputs sha256 {record['input_digest'][:16]}")
    for name, unit, value in table:
        note = ""
        if name in record.get("details", {}):
            d = record["details"][name]
            if name == "job_tail_s":
                note = f"  (p{d['percentile']:g}, {d['samples']} samples, {d['beyond']} beyond)"
            elif name == "job_p50_s":
                note = f"  ({d['samples']} samples)"
            elif name == "setup_s":
                note = f"  (median of {len(d['samples'])})"
            if name in record["details"]["raw_wall"]:
                note += f"  [raw wall {record['details']['raw_wall'][name]:.6g}]"
        print(f"  {name:34s} {value:.6g} {unit}{note}")
    print(f"  {'failed_share':34s} {record['failed_share']:.6g} ratio  ({len(failed)} of {len(jobs)})")
    for job_id, reason in failures[:5]:
        print(f"  failed {job_id} ({cells[job_id]}): {reason}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
