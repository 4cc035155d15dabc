"""Record the expected outputs of the default seed.

    python3 perfbench/record_digests.py

Runs every workload at --seed 0 and the default --seconds of run.py,
requires every output to pass the checks in checks.py, and writes
expected/digests.json: per job, the digest of its input and of its output,
plus the names of the verify properties per field kind. Run it only when the
benchmark itself is defined or corrected; a change under test must
reproduce the recorded digests.
"""

from __future__ import annotations

import json
import sys
import time

import run

SEED = 0
SECONDS = 16.0


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(run.SRC))
    import checks
    import inputs

    recorded = {"seed": SEED, "seconds": SECONDS, "workloads": {}, "verify_properties": {}}
    for workload in inputs.WORKLOADS:
        jobs = inputs.make_jobs(workload, SEED, inputs.rounds_for(workload, SECONDS))
        checker = checks.Checker(workload, SEED)
        checker.recorded, checker.verify_properties = {}, {}
        reply = run.run_worker(jobs, False, time.monotonic() + run.RUN_LIMIT_S)
        failures = run.check_results(checker, jobs, reply)
        if failures:
            print(f"{workload}: outputs fail their checks: {failures[:3]}", file=sys.stderr)
            return 1
        entries = {}
        for job, result in zip(jobs, reply["results"]):
            payload = json.loads(result["stdout"])
            if job["command"] == "verify":
                kind = "char0" if job["p"] == 0 else "charp"
                names = [p["name"] for p in payload["properties"]]
                recorded["verify_properties"].setdefault(kind, names)
            entries[job["id"]] = {"input": checks.job_input_digest(job), "output": None, "payload": payload}
        checker.verify_properties = recorded["verify_properties"]
        for entry in entries.values():
            entry["output"] = checker.output_digest(entry.pop("payload"))
        recorded["workloads"][workload] = {"seed": SEED, "input_digest": inputs.input_digest(jobs), "jobs": entries}
        print(f"{workload}: {len(jobs)} jobs recorded")
    path = checks.EXPECTED / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
