"""The property suite shared among worker processes: the same output for every
number of workers, the sequential exception on a failing property, and no
child process left behind however `run_verify` ends."""

import os
import signal
import threading
import time

import pytest

from ahweyl import verify
from ahweyl.cli import main
from ahweyl.context import AhContext
from ahweyl.fields import QQ, ExactDivisionError
from ahweyl.parse import parse_poly

CASES = [
    ("x", "2", "3"),
    ("x^2", "0", "1"),
    ("x^2+1", "3", "1"),
    ("x^3+2*x", "5", "4"),
    ("-3/2*x^3+x-1/2", "0", "1"),  # a fractional negative leading coefficient
]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_with_workers(argv, workers, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_worker_count", lambda n: workers)
    code = main(argv)
    out, err = capsys.readouterr()
    assert_no_child_left()
    return code, out, err


@pytest.mark.parametrize("h,char,seed", CASES)
def test_output_is_the_same_for_every_worker_count(h, char, seed, monkeypatch, capsys):
    argv = ["verify", f"--h={h}", "--char", char, "--seed", seed, "--output", "json"]
    one = run_with_workers(argv, 1, monkeypatch, capsys)
    assert one[0] == 0 and one[2] == ""
    for workers in (2, 4):
        assert run_with_workers(argv, workers, monkeypatch, capsys) == one


def raising(message):
    def check_raising(ctx, rng):
        raise ExactDivisionError(message)

    check_raising.__name__ = f"check_raising_{message}"
    return check_raising


def test_the_first_failing_property_raises_as_in_a_sequential_run(monkeypatch, capsys):
    # two failing properties inside the list; each worker stops at its first
    # failure and the calling process re-runs what is missing, in list order
    common = list(verify.COMMON)
    common[5] = raising("fifth")
    common[12] = raising("twelfth")
    monkeypatch.setattr(verify, "COMMON", common)
    argv = ["verify", "--h", "x^2", "--char", "0", "--seed", "1"]
    outs = [run_with_workers(argv, workers, monkeypatch, capsys) for workers in (1, 2, 4)]
    assert outs[0] == (1, "", "error (non-exact division): fifth\n")
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize("how", ["raises", "exits"])
def test_a_property_lost_in_a_child_is_run_again_by_the_caller(how, monkeypatch, capsys):
    # the property fails only in a forked worker: by an exception, or by the
    # whole child ending without sending its results
    caller = os.getpid()

    def check_only_in_the_caller(ctx, rng):
        if os.getpid() != caller:
            if how == "raises":
                raise ExactDivisionError("in a child")
            os._exit(3)
        return verify.PropertyResult("runs in the calling process", 1)

    common = [check_only_in_the_caller if i % 4 == 1 else c for i, c in enumerate(verify.COMMON)]
    monkeypatch.setattr(verify, "COMMON", common)
    argv = ["verify", "--h", "x^2+1", "--char", "3", "--seed", "2", "--output", "json"]
    one = run_with_workers(argv, 1, monkeypatch, capsys)
    assert one[0] == 0 and '"runs in the calling process"' in one[1]
    assert run_with_workers(argv, 3, monkeypatch, capsys) == one


class Interrupted(BaseException):
    pass


def test_no_child_outlives_a_signal_handler_that_raises(monkeypatch):
    # every worker is inside a property that would sleep for a minute when
    # the alarm goes off; the children must be killed, not waited for
    def check_sleeps(ctx, rng):
        time.sleep(60)

    monkeypatch.setattr(verify, "COMMON", [check_sleeps] * 4)
    monkeypatch.setattr(verify, "CHAR0_ONLY", [])
    monkeypatch.setattr(verify, "_worker_count", lambda n: 3)

    def on_alarm(signum, frame):
        raise Interrupted()

    ctx = AhContext(parse_poly("x", QQ))
    saved = signal.signal(signal.SIGALRM, on_alarm)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(Interrupted):
            verify.run_verify(ctx, seed=0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("call", ["fork", "waitpid"])
def test_a_handler_that_raises_next_to_a_fork_or_a_reap_leaves_no_child(call, monkeypatch):
    # the signal arrives as the fork or the reap returns; its handler must
    # not run before the child is in, or out of, the list of unreaped
    # children, or one is left running or a reaped pid is killed
    real = getattr(os, call)
    sent = []

    def then_signal(*args):
        got = real(*args)
        if got != 0 and not sent:  # in the calling process, once
            sent.append(got)
            os.kill(os.getpid(), signal.SIGALRM)
        return got

    def on_alarm(signum, frame):
        raise Interrupted()

    monkeypatch.setattr(os, call, then_signal)
    monkeypatch.setattr(verify, "_worker_count", lambda n: 3)
    ctx = AhContext(parse_poly("x", QQ))
    saved = signal.signal(signal.SIGALRM, on_alarm)
    try:
        with pytest.raises(Interrupted):
            verify.run_verify(ctx, seed=0)
    finally:
        signal.signal(signal.SIGALRM, saved)
    assert sent
    monkeypatch.undo()
    assert_no_child_left()
    assert not signal.pthread_sigmask(signal.SIG_BLOCK, ())


def test_worker_count_is_the_usable_cpus_capped(monkeypatch):
    for cpus, n, want in [({0}, 30, 1), ({0, 1}, 30, 2), (set(range(64)), 30, verify.MAX_WORKERS), ({0, 1}, 1, 1)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert verify._worker_count(n) == want
    # another thread: one worker, so no fork
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert verify._worker_count(30) == 1
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive() and verify._worker_count(30) == 2
    monkeypatch.delattr(os, "fork")
    assert verify._worker_count(30) == 1


@pytest.mark.parametrize("p,h", [(2, "x^3"), (3, "x^2"), (5, "x^2")])
def test_extension_check_reaches_a_normalizer_part_at_y_degree_p(p, h, monkeypatch):
    # S is nonempty for these h, so N_p/(A_h + Z(A_1)) is too, and the
    # elements the check draws reach the decomposer's test at y-degree p
    import random

    from ahweyl.fields import FieldSpec

    residues = []
    is_inner = verify.is_inner

    def spy(d):
        out = is_inner(d)
        if getattr(out, "residue", None) is not None:
            residues.append(out.residue.y_degree)
        return out

    monkeypatch.setattr(verify, "is_inner", spy)
    ctx = AhContext(parse_poly(h, FieldSpec(p)))
    for seed in range(4):
        res = verify.check_extension_faithfulness(ctx, random.Random(seed))
        assert res.passed and res.count == 6
    assert p in residues
