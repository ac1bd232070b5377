"""The one way a command spreads its work over the CPUs: shares computed in
forked workers, each sending its result back through a pipe.  Only
``ptstack.commands.sweep`` and ``ptstack.commands.oracle_check`` import it,
so the other commands never compile it."""

from __future__ import annotations

import marshal
import os


def cpu_count() -> int:
    """The number of CPUs this process may run on; 1 on a platform without
    affinity masks."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _work(i: int, share, compute, send, write_end: int):
    """A forked worker's whole life: compute share ``i``, then write
    ``marshal.dumps(send(i, result))`` into the pipe ``write_end``.

    It leaves only through ``os._exit``, so it flushes no stream it
    inherited and runs no exit handler.  The exit code says what happened:
    0 the result is sent, 2 the computation raised, 1 anything else.
    """
    code = 1
    try:
        try:
            result = compute(share)
        except Exception:
            code = 2
        else:
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(send(i, result)))
            code = 0
    finally:
        os._exit(code)


def forked(shares: list, compute, send, retry, name) -> list:
    """``send(i, compute(shares[i]))`` of every share, in share order.

    The first share is computed here, after a forked worker has started on
    each later one; a worker's ``send`` runs in the worker, and what it
    returns comes back through a pipe as marshal data.  This returns once
    this process has read every pipe to its end and reaped every worker.

    If a computation raises, here or in a worker (which then exits with
    code 2), every worker is killed and reaped and ``retry(i)`` runs here, i
    the failing share's index.  A worker is not asked why it failed: it is
    up to ``retry`` to compute again, serially, and raise the error to
    report.  If ``retry`` returns, the error here is raised as it was, and a
    worker's as ``ChildProcessError``, which a worker that ended any other
    way raises too, with ``name(share)`` in its message.
    """
    results, workers, pipes = [None] * len(shares), {}, []  # workers: pid -> (share index, read end)
    failed = None
    try:
        for i in range(1, len(shares)):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                # This process starts no thread, so the forked worker can
                # inherit no lock that another thread holds.
                pid = os.fork()
                if pid == 0:
                    _work(i, shares[i], compute, send, write_end)
            finally:
                os.close(write_end)  # the worker's copy is left, so the pipe ends when the worker does
            workers[pid] = i, read_end
        try:
            result = compute(shares[0])
        except Exception:
            failed = 0
            raise
        results[0] = send(0, result)
        for pid, (i, read_end) in list(workers.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if code == 2:
                failed = i
            if code != 0:
                raise ChildProcessError(f"{name(shares[i])} failed (exit code {code})")
            results[i] = marshal.loads(data)
    except BaseException:
        import signal

        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if failed is not None:
            retry(failed)
        raise
    finally:
        for read_end in pipes:
            os.close(read_end)
    return results
