"""A forked child that works beside this process, and when one can: for
`ingest.read_sheet`'s split parse and `cli.run_audit`'s report.json."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress
from types import SimpleNamespace
from typing import Any, Callable, Iterator


def two_cpus() -> bool:
    """Whether a forked child would run beside this process: this process
    runs one thread, so that a fork is safe, and may use a second CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


@contextmanager
def forked(task: Callable[[Callable[[], Any]], Any]) -> Iterator[SimpleNamespace | None]:
    """Run task(receive) in a forked child while the block runs in this
    process. The block gets child, and may call child.send(value) once; in
    the child, receive() waits for that value and returns it. Once the
    block is done, child.value is what task returned.

    The child always ends in os._exit: it flushes none of the stdio it
    inherited and runs none of the caller's finally blocks. What task
    returns, or an exception it raises, comes back pickled through a pipe
    (an exception as a RuntimeError holding its traceback if it does not
    pickle and load back); the exception is raised here once the block is
    done. A child killed by a signal becomes a RuntimeError naming it. A
    child that ends before it receives does not fail send. If the block
    raises, the child is killed. Either way it is reaped before this
    returns or raises. If no process can be forked, the block gets None,
    and the caller does the task's work itself."""
    import pickle  # only a run that forks pays for these imports
    import signal

    frame_fd, send_fd = os.pipe()  # this process's value, to the child
    read_fd, write_fd = os.pipe()  # the child's value or exception, to this process
    try:
        pid = os.fork()
    except OSError:
        for fd in (frame_fd, send_fd, read_fd, write_fd):
            os.close(fd)
        yield None
        return
    if pid == 0:  # the child
        status = 1
        try:
            os.close(send_fd)
            os.close(read_fd)
            # closed before the payload is written, so that a send blocked
            # on a full pipe fails at once rather than wait for this child
            with open(frame_fd, "rb") as frame:
                try:
                    payload = pickle.dumps((task(lambda: pickle.loads(frame.read())), None))
                except BaseException as exc:
                    try:
                        payload = pickle.dumps((None, exc))
                        pickle.loads(payload)  # some exceptions dump but do not load
                    except BaseException:
                        import traceback
                        payload = pickle.dumps(
                            (None, RuntimeError("".join(traceback.format_exception(exc)))))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(frame_fd)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe, open(send_fd, "wb") as frame:
        def send(value: Any) -> None:
            # a child that ended first has its end raised below
            with suppress(BrokenPipeError), frame:
                frame.write(pickle.dumps(value))

        child = SimpleNamespace(send=send)
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
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:  # its payload may have been cut short
        raise RuntimeError("the forked child " + (
            f"was killed by {signal.Signals(-code).name}" if code < 0
            else f"exited with status {code}"))
    child.value, exc = pickle.loads(payload)
    if exc is not None:
        raise exc
