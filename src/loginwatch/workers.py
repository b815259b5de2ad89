"""Forked workers over anonymous shared memory.

``train`` and ``score`` split a call's work into parts, one per CPU this
process may run on. ``run`` does part 0 in this process and each other part
in a forked worker; the parts hand their results back in anonymous shared
memory (``shared``, ``shared_zeros``) that the parent allocated before the
fork. A worker never returns into its caller: it ends in ``os._exit`` on
every path, so it cannot run the parent's code after the call or flush the
parent's buffered output.
"""

from __future__ import annotations

import mmap
import os
import signal
from typing import Callable, NoReturn, Sequence

import numpy as np

# A worker's exception, as "Type: message", cut to this many bytes.
ERROR_BYTES = 512


def cpu_count() -> int:
    """How many CPUs this process may run on: the size of its affinity mask,
    or 1 where the platform has no ``sched_getaffinity``."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def shared_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory, which forked workers share.

    Pages are allocated as they are first written, so a generous size costs
    address space, not memory.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def shared(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` in anonymous shared memory."""
    copy = shared_zeros(array.shape, array.dtype)
    copy[...] = array
    return copy


def release(view: np.ndarray) -> None:
    """Unmap from this process the pages under ``view``, a slice of a
    ``shared_zeros`` array, but the page that holds its end.

    The pages' contents stay in the shared memory, and a later read maps
    them again, so releasing a slice in use costs time, never data. A
    process that reads shared slices in order and releases each one after
    use holds about one page of them at a time.
    """
    owner = view  # numpy arrays, then the memoryview that np.frombuffer took
    while not isinstance(owner, mmap.mmap):
        owner = owner.obj if isinstance(owner, memoryview) else owner.base
    start = view.ctypes.data - np.frombuffer(owner, np.uint8).ctypes.data
    first = start // mmap.PAGESIZE * mmap.PAGESIZE
    last = (start + view.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if last > first:
        owner.madvise(mmap.MADV_DONTNEED, first, last - first)


def _work(part: Callable[[], None], error: mmap.mmap) -> NoReturn:
    """A forked worker: run ``part`` and exit, with status 1 and its
    exception's type and message in ``error`` if it raises."""
    status = 1
    try:
        part()
        status = 0
    except BaseException as exc:
        text = f"{type(exc).__name__}: {exc}".encode(errors="replace")[:ERROR_BYTES]
        error[: len(text)] = text
    finally:
        os._exit(status)


def run(parts: Sequence[Callable[[], None]], role: str) -> None:
    """Run ``parts[0]`` in this process and each other part in a forked worker.

    Each part writes its results into shared memory allocated before this
    call. If this process fails first (its part raises, a fork fails, an
    interrupt), it kills every worker it started before reaping them.

    Raises:
        RuntimeError: a worker raised, exited with a non-zero status or was
            killed by a signal; the message starts with ``role``, e.g.
            "training worker 1234 exited with status 1: ValueError: boom".
    """
    errors = [mmap.mmap(-1, ERROR_BYTES) for _ in parts[1:]]
    pids: list[int] = []
    try:
        for part, error in zip(parts[1:], errors):
            pid = os.fork()
            if pid == 0:
                _work(part, error)
            pids.append(pid)
        parts[0]()
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, error in zip(pids, statuses, errors):
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            continue
        # code is -N for signal N; most real-time signals have no name
        killed = {-sig.value: f"was killed by {sig.name}" for sig in signal.Signals}
        why = killed.get(code, f"exited with status {code}")
        text = error[:].rstrip(b"\0").decode(errors="replace")
        raise RuntimeError(f"{role} worker {pid} {why}" + (f": {text}" if text else ""))
