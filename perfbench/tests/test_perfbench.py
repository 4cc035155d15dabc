"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _cheap_jobs(workload, seed, p, n):
    return [j for j in inputs.make_jobs(workload, seed, 1) if j["p"] == p][:n]


def test_same_seed_gives_same_input_digest():
    for workload in inputs.WORKLOADS:
        a = inputs.make_jobs(workload, 7, 1)
        b = inputs.make_jobs(workload, 7, 1)
        assert inputs.input_digest(a) == inputs.input_digest(b)
        assert inputs.input_digest(a) != inputs.input_digest(inputs.make_jobs(workload, 8, 1))
    # more rounds extend the job list and leave the earlier rounds alone
    one = inputs.make_jobs("charp-bracket", 7, 1)
    assert inputs.make_jobs("charp-bracket", 7, 2)[: len(one)] == one


def test_h_repeats_only_where_designed():
    assert run.repeated_h_share(inputs.make_jobs("charp-analyze", 3, 2)) == 0
    assert run.repeated_h_share(inputs.make_jobs("char0-classes", 3, 2)) == 0
    assert run.repeated_h_share(inputs.make_jobs("charp-bracket", 3, 2)) == 0.5


def test_mutated_output_is_counted_in_failed_share():
    jobs = _cheap_jobs("charp-analyze", 3, 3, 2)
    reply = worker.run_jobs(jobs, cap_s=30, budget_s=60)
    checker = checks.Checker("charp-analyze", 3)
    assert run.check_results(checker, jobs, reply) == []
    assert run.failed_share(jobs, []) == 0

    payload = json.loads(reply["results"][0]["stdout"])
    payload["pi_h"] = payload["h"] + " + x^9"
    reply["results"][0]["stdout"] = json.dumps(payload)
    failures = run.check_results(checker, jobs, reply)
    assert [job_id for job_id, _ in failures] == [jobs[0]["id"]]
    assert "pi_h" in failures[0][1]
    assert run.failed_share(jobs, failures) == 0.5


def test_job_over_the_cap_is_recorded_as_timeout():
    slow = [j for j in inputs.make_jobs("charp-analyze", 3, 1) if j["p"] == 13][0]
    reply = worker.run_jobs([slow], cap_s=0.02, budget_s=60)
    result = reply["results"][0]
    assert result["status"] == "timeout"
    assert result["seconds"] < 5
    reason = checks.Checker("charp-analyze", 3).check(slow, result)
    assert reason.startswith("timeout")


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    selfs, has_child = tracing.self_times(parents, starts, ends)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert has_child == [True, True, False, False]


def test_tracer_catches_imported_names_and_restores_them(tmp_path):
    import ahweyl.derivations
    import ahweyl.weyl

    original = ahweyl.weyl.commutator
    jobs = _cheap_jobs("charp-bracket", 5, 3, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ahweyl.derivations.commutator is ahweyl.weyl.commutator is not original
        reply = worker.run_jobs(jobs, cap_s=30, budget_s=60, tracer=tracer)
    finally:
        tracer.uninstall()
    assert ahweyl.weyl.commutator is original
    assert ahweyl.derivations.commutator is original
    assert run.check_results(checks.Checker("charp-bracket", 5), jobs, reply) == []
    layers = tracing.layer_metrics(tracer)
    for name in ("weyl.commutator.calls", "poly.mul.calls", "fields.coerce.calls", "derivations.apply.calls"):
        assert layers[name] > 0, name
    assert set(tracer.span_job) == {0, 1}
    tracer.write_spans(tmp_path / "spans.gz")
    names, columns = tracing.read_spans(tmp_path / "spans.gz")
    assert names == tracer.names
    assert columns["end"] == tracer.span_end and columns["parent"] == tracer.span_parent


def test_job_time_is_the_lowest_pass_at_calm_speed():
    ref = calibrate.REFERENCE_S
    first = {"results": [{"status": "ok", "seconds": 2.0, "loop_s": 2 * ref},
                         {"status": "ok", "seconds": 3.0, "loop_s": ref}]}
    second = {"results": [{"status": "ok", "seconds": 1.5, "loop_s": ref},
                          {"status": "not_run", "seconds": 0.0, "loop_s": None}]}
    assert run.job_times([first, second]) == [1.0, 3.0]
    assert run.job_times([first, second], scale=False) == [1.5, 3.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(40)))[::2] == (75.0, 10)
    assert run.tail_percentile(list(range(100)))[::2] == (90.0, 10)
    assert run.tail_percentile(list(range(5)))[0] == 50.0


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.E2E_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m[:3]) for m in run.LAYER_METRICS
    ]
