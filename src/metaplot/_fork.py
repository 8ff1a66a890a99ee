"""A task run in a forked child beside this process when one can, else here:
for `ingest.read_sheet`'s split parse and `cli.run_audit`'s report.json."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress
from types import SimpleNamespace
from typing import Any, Callable, Iterator


def _two_cpus() -> bool:
    """Whether a forked child would run beside this process: this process
    runs one thread, so that a fork is safe, and may use a second CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


@contextmanager
def forked(task: Callable[[Callable[[], Any]], Any]) -> Iterator[SimpleNamespace]:
    """Run task(receive) beside the block, and set child.value to what it
    returned once the block is done. The block gets child, and may call
    child.send(value) once; receive() returns that value.

    task runs in a forked child if this process may use two CPUs and the
    fork succeeds. The child ends in os._exit, so it flushes none of the
    stdio it inherited and runs none of the caller's finally blocks, and
    sends back only what task returns, pickled. A child that ends before it
    receives does not fail send. If the block raises, the child is killed;
    either way it is reaped before this returns or raises. With no child,
    or one that did not exit 0, task runs here once the block is done, so
    it must be safe to run again here after a failed child."""
    import pickle  # only a run that calls forked pays for these imports
    import signal

    sent = []
    child = SimpleNamespace(send=sent.append)
    pid = payload = None  # payload: the child's pickled value, once it exited 0
    if _two_cpus():
        frame_fd, send_fd = os.pipe()  # this process's value, to the child
        read_fd, write_fd = os.pipe()  # the child's value, to this process
        try:
            pid = os.fork()
        except OSError:
            for fd in (frame_fd, send_fd, read_fd, write_fd):
                os.close(fd)
    if pid == 0:  # the child
        status = 1
        try:
            os.close(send_fd)
            os.close(read_fd)
            # closed before the payload is written, so that a send blocked
            # on a full pipe fails at once rather than wait for this child
            with open(frame_fd, "rb") as frame:
                payload = pickle.dumps(task(lambda: pickle.loads(frame.read())))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    if pid is None:
        yield child
    else:
        os.close(frame_fd)
        os.close(write_fd)
        with open(read_fd, "rb") as pipe, open(send_fd, "wb") as frame:
            def send(value: Any) -> None:
                sent.append(value)
                # a child that ended first failed, or never receives
                with suppress(BrokenPipeError), frame:
                    frame.write(pickle.dumps(value))

            child.send = send
            try:
                yield child
                frame.close()
                # read to the end before waiting: a payload larger than the
                # pipe's buffer would otherwise block the child's exit
                payload = pipe.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                    payload = None  # it may have been cut short
    child.value = task(sent.pop) if payload is None else pickle.loads(payload)
