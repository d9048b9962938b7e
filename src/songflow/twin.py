"""Two processes over one shared mapping: the caller and one forked worker.

A Twin is an anonymous shared mmap carved into float64 arrays, made before
the fork, and a forked worker that runs a serve function once per byte the
caller sends. No data passes through a pipe: a side tells the other that its
part is written with one byte on its pipe (a system call, which orders the
writes before it on any CPU) and waits for the other's byte by polling its
own non-blocking pipe, not by sleeping in a blocking read. Linux wakes a
sleeping reader on the writer's CPU, so with blocking reads two processes
share one CPU (a two-process split of the sampler's loop measured 1.05x of
the one-process time that way, against 0.71x with polling, T=256). Between
polls a side yields the CPU: that returns at once when nothing else wants
the CPU, and when the scheduler has put both sides on one CPU it runs the
other side instead of spinning out a time slice.

The worker runs nothing outside its os._exit guard, so it never returns
into the caller's stack, flushes no buffer it inherited and writes no file
its serve function does not; a worker that dies is seen as the end of its
pipe, and the caller's wait raises RuntimeError. fork copies only the
calling thread, and no user starts another, so no lock the worker needs is
held at the fork. Build every checked Tensor over the mapping before the
fork: one built in the worker afterwards checks whatever the other side has
written by then, such as an overflowed caller's inf.

The mapping is not closed explicitly: mmap.close raises BufferError while an
array over it lives, and training's parameters stay views of it after the
twin is closed. It is unmapped when its last array is dropped.

`start` owns the choice to run a twin at all: only when this process may use
two CPUs and can fork, and not when no mapping, pipe or process can be made
(OSError). The caller then runs the worker's part itself, to the same bytes.
"""

from __future__ import annotations

import math
import mmap
import os
from typing import Callable, TypeVar

import numpy as np

__all__ = ["Twin", "start"]

_Split = TypeVar("_Split")


def start(make: Callable[[], _Split]) -> _Split | None:
    """make(), which builds a Twin and forks it, when this process may use a
    second CPU and can fork; None otherwise, and None when make raises
    OSError."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    try:
        return make()
    except OSError:
        return None


class Twin:
    """The shared arrays, then (after `fork`) the two pipes and the worker.

    `arrays` holds one zeroed float64 array per shape, over one mapping.
    `signal` and `wait` are both sides'; `fork` and `close` are the caller's.
    """

    def __init__(self, shapes: list[tuple[int, ...]]):
        sizes = [math.prod(shape) for shape in shapes]
        self._map = mmap.mmap(-1, 8 * sum(sizes))
        offsets = np.cumsum([0] + sizes)
        self.arrays = [np.ndarray(shape, np.float64, self._map, 8 * int(offset))
                       for shape, offset in zip(shapes, offsets)]

    def fork(self, serve: Callable[[], None]) -> None:
        """Start the worker, which runs serve() for each of the caller's
        bytes and answers each with its own, until the caller closes. Only
        the caller returns; OSError, with no pipe left open, when no pipe or
        process can be made."""
        fds: list[int] = []  # to-worker read, write end; to-caller read, write end
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if pid == 0:
            # An exception too ends the worker here, and with it its pipe.
            try:
                os.close(fds[1])
                os.close(fds[2])
                self._open(fds[0], fds[3])
                while self._poll():
                    serve()
                    self.signal()
                os._exit(0)
            finally:
                os._exit(1)
        os.close(fds[0])
        os.close(fds[3])
        self._open(fds[2], fds[1])
        self.pid = pid

    def signal(self) -> None:
        """Tell the other side that this side's part is written."""
        try:
            os.write(self._send, b"\0")
        except BrokenPipeError:
            raise RuntimeError("the worker process exited mid-exchange") from None

    def wait(self) -> None:
        """Wait for the other side's byte; RuntimeError if its pipe ends first."""
        if not self._poll():
            raise RuntimeError("the worker process exited mid-exchange")

    def close(self) -> None:
        """End the worker's pipe, which it reads as its signal to exit, and
        reap it."""
        os.close(self._send)
        os.close(self._recv)
        os.waitpid(self.pid, 0)

    def _open(self, recv: int, send: int) -> None:
        self._recv, self._send = recv, send
        os.set_blocking(recv, False)

    def _poll(self) -> bool:
        """Poll, yielding the CPU between reads, until the other side's byte
        arrives; False if its pipe ends first."""
        while True:
            try:
                return os.read(self._recv, 1) != b""
            except BlockingIOError:
                os.sched_yield()
