"""Worker pool: the usable CPU count, tasks run in forked processes, and the
shared memory they write their results into.

The Monte Carlo engine's blocks, a study's blocks and a CSV file's row
ranges all run through ``run_forked``, in processes: a study replicate
spends most of its time in Python and numpy call overhead under the GIL,
and numpy's loader holds it too.  ``run_forked`` takes one worker per
usable CPU, as many as one memory budget holds, and has no option to
set.  Every task writes its results in place, into arrays from ``shared``
that the caller allocates before the fork, so a worker sends back only
the index of each task it finishes, in a ``multiprocessing.connection``
message; only a pool that forks imports that module.

``run_forked`` is a pool of its own rather than ``multiprocessing.Pool`` or
``ProcessPoolExecutor``: with those the calling process only waits, which
cost a study on two cores 7-11% more wall time and about 6% more CPU time,
and a ``multiprocessing.Pool`` waits forever for a worker that dies.
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
import signal
import threading
import warnings

import numpy as np

# bytes of one claim record (a task index)
_RECORD = 4
# Bytes that all workers of a pool may take together, so that it does not
# grow with the CPUs: each takes _WORKER_BYTES of pages of its own (6.0 MB
# a study child at n = 1000 with 2 to 16 workers, on a 2-vCPU host) plus
# the scratch its caller names.
_MEMORY_BYTES = 1 << 27
_WORKER_BYTES = 6 << 20


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def shared(shape, dtype=np.float64):
    """A zeroed array of ``shape`` in anonymous shared memory: what a
    process forked after this call writes into it, every process sees."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    memory = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(memory, dtype, count).reshape(shape)


def _feed(fd, start, stop) -> int:
    """Write the claim records ``start`` to ``stop`` into the claims pipe
    while whole chunks fit; return the first index not written.

    Each chunk is at most ``PIPE_BUF`` bytes, so a write to the
    non-blocking pipe is all or nothing and the pipe only ever holds whole
    records.
    """
    per_chunk = select.PIPE_BUF // _RECORD
    while start < stop:
        end = min(start + per_chunk, stop)
        try:
            os.write(fd, b"".join(i.to_bytes(_RECORD, "little")
                                  for i in range(start, end)))
        except BlockingIOError:  # the pipe is full
            break
        start = end
    return start


def _claim(fd):
    """The next task index from the claims pipe, or None at its end."""
    record = os.read(fd, _RECORD)
    return int.from_bytes(record, "little") if record else None


def _portable(exc):
    """``exc`` if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child(task, claims, results, inherited):
    """A forked worker's whole life: run claimed tasks, send the index of
    each finished one (or the first exception and its traceback) to the
    parent over the ``Connection`` ``results``, and leave through
    ``os._exit``, which runs no atexit handler and flushes no stdio buffer.

    An index takes at most 21 bytes of the pipe, a 4-byte length and its
    pickle, so a send waits for a parent busy with a task of its own only
    after thousands of them.
    """
    code = 1
    try:
        # the parent handles ^C and kills its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for fd in inherited:
            os.close(fd)
        try:
            while (index := _claim(claims)) is not None:
                task(index)
                results.send(index)
        except BaseException as exc:
            import traceback  # only a failing worker needs it

            results.send((_portable(exc), traceback.format_exc()))
        else:
            code = 0
    finally:
        os._exit(code)


def _can_fork() -> bool:
    return hasattr(os, "fork") and threading.active_count() == 1


def _workers(count, scratch_bytes):
    """Workers for ``count`` tasks that hold ``scratch_bytes`` each."""
    return min(_usable_cpus(), count,
               max(1, _MEMORY_BYTES // (_WORKER_BYTES + scratch_bytes)))


def run_forked(task, count, scratch_bytes=0, done=None):
    """Run ``task(i)`` for each i in ``range(count)``, and call ``done(i)``,
    if given, in this process as each task finishes.

    A task writes its results into ``shared`` arrays; what it returns is
    dropped.  The tasks run on one worker per usable CPU, at most ``count``
    and at most what ``_MEMORY_BYTES`` holds at ``_WORKER_BYTES`` plus
    ``scratch_bytes``, a task's own memory, each.  This process is one
    worker, and children made with ``os.fork`` are the others; with one
    worker, or where ``os.fork`` is missing or another Python thread runs,
    this process runs every task in order.  Where ``os.fork`` fails, such as
    under a process limit, the workers already started run every task.
    Workers claim the next index from one pipe as they finish a task.  The
    pipe is filled before the fork; if ``count`` is more than it holds,
    this process tops it up between its own tasks and takes the next index
    not yet written itself.  A child sends the index of each task it
    finishes as a ``Connection`` message over a pipe of its own, which this
    process reads between its own tasks.

    An exception in a child is raised here with its type and message, and
    its traceback as the cause.  On any exception here, KeyboardInterrupt
    included, every child is killed.  Every child is reaped before this
    returns or raises.
    """
    done = done or (lambda index: None)
    workers = _workers(count, scratch_bytes)
    if workers < 2 or not _can_fork():
        for index in range(count):
            task(index)
            done(index)
        return

    finished = 0

    def deliver(message):
        nonlocal finished
        if isinstance(message, tuple):
            exc, text = message
            raise exc from RuntimeError(f"in a worker process:\n{text}")
        done(message)
        finished += 1

    claims, feeder = os.pipe()
    os.set_blocking(feeder, False)
    fed = _feed(feeder, 0, count)
    if fed == count:
        os.close(feeder)
        feeder = None
    pids, pipes = [], []
    try:
        for _ in range(workers - 1):
            try:
                _fork(task, claims, feeder, pids, pipes)
            except OSError:  # such as EAGAIN: the others claim its tasks
                break
        while True:
            if feeder is not None:
                fed = _feed(feeder, fed, count)
            if fed < count:
                index, fed = fed, fed + 1
            else:
                if feeder is not None:
                    os.close(feeder)
                    feeder = None
                index = _claim(claims)
                if index is None:
                    break
            task(index)
            deliver(index)
            _receive(pipes, 0, deliver)
        # every child closes its pipe when it exits
        _receive(pipes, None, deliver)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    for pid in pids]
        for fd in [claims, feeder]:
            if fd is not None:
                os.close(fd)
        for pipe in pipes:
            pipe.close()
    if any(statuses) or finished < count:
        raise RuntimeError(
            f"worker processes exited with statuses {statuses}; "
            f"{count - finished} of {count} tasks did not finish")


def _fork(task, claims, feeder, pids, pipes):
    """Start one child on the claims pipe.  Its pid goes into ``pids`` and
    the read end of its results pipe, a ``Connection``, into ``pipes``; the
    child closes the parent's other pipe ends."""
    from multiprocessing.connection import Connection

    inherited = [fd for fd in [feeder, *(pipe.fileno() for pipe in pipes)]
                 if fd is not None]
    results, end = os.pipe()
    # SIGINT stays blocked until the child ignores it and the parent has
    # recorded the pid, so ^C can neither raise in the child on the
    # parent's stack nor leave a child that the parent does not kill
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of any other OS thread, such as a BLAS
            # pool; no other Python thread runs here (_can_fork)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(results)
        raise
    else:
        if pid == 0:
            _child(task, claims, Connection(end, readable=False),
                   [results, *inherited])
        pids.append(pid)
        pipes.append(Connection(results, writable=False))
    finally:
        os.close(end)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _receive(pipes, timeout, deliver):
    """Receive the messages the children have sent and ``deliver`` each.

    With ``timeout`` 0, return when no pipe has a message ready; with None,
    return when every child has closed its pipe.  A pipe its child has
    closed is closed here too and leaves ``pipes``.
    """
    from multiprocessing.connection import wait

    while pipes and (ready := wait(pipes, timeout)):
        for pipe in ready:
            try:
                message = pipe.recv()
            except EOFError:
                pipe.close()
                pipes.remove(pipe)
            else:
                deliver(message)
