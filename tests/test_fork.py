"""`_fork.forked` gives the task's value whether or not a child ran it: a
child that cannot be forked, exits non-zero or is killed has its task run
in this process once the block is done."""

import os
import signal
import time

import pytest
from conftest import counted_forks, reaped

from metaplot._fork import forked


@pytest.fixture
def forks(monkeypatch):
    yield from counted_forks(monkeypatch)


def where(fail_in_the_child=None):
    """A task returning the pid that ran it and what it received; in any
    process but this one it first calls fail_in_the_child, if given."""
    here = os.getpid()

    def task(receive):
        if fail_in_the_child is not None and os.getpid() != here:
            fail_in_the_child()
        return os.getpid(), receive()

    return task


def test_a_child_runs_the_task_beside_the_block(forks):
    with forked(where()) as child:
        child.send(["sent"])
    assert len(forks) == 1 and child.value == (forks[0], ["sent"])


def test_on_one_cpu_the_task_runs_here_without_a_fork(forks, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", refuse)
    sent = {"a": 1}
    with forked(where()) as child:
        child.send(sent)
        assert not hasattr(child, "value")  # not before the block is done
    assert child.value == (os.getpid(), sent) and child.value[1] is sent


def test_a_refused_fork_runs_the_task_here(forks, monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    with forked(where()) as child:
        child.send("sent")
    assert child.value == (os.getpid(), "sent")


@pytest.mark.parametrize("fail, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    (lambda: 1 / 0, 1),
], ids=["exit-3", "sigkill", "raises"])
def test_a_failed_child_has_its_task_run_here(fail, code, forks, monkeypatch):
    codes = reaped(monkeypatch)
    with forked(where(fail)) as child:
        child.send("sent")
    assert len(forks) == 1 and codes == [code]
    assert child.value == (os.getpid(), "sent")


def test_a_child_is_killed_and_reaped_when_the_block_raises(forks):
    ran = []

    def task(receive):  # ran is this process's list: the child appends to its copy
        ran.append(os.getpid())
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyError):
        with forked(task) as child:
            child.send("sent")
            raise KeyError("block")
    assert time.monotonic() - start < 30  # not waited out
    assert len(forks) == 1 and ran == [] and not hasattr(child, "value")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
