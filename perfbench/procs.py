"""CPU time and peak RSS of a process and its children, from ``/proc``."""

from __future__ import annotations

import ctypes
import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def tree_pids(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for t in tasks:
            try:
                with open(f"/proc/{p}/task/{t}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return out


def _ended(pid: int) -> bool:
    """Exited: gone from ``/proc``, or a zombie left for its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except OSError:
        return True


def wait_ended(pids, timeout: float = 30.0) -> None:
    """Wait until every pid has exited; SIGKILL any left at ``timeout``.

    For processes that are not this one's children (a daemon's pool
    workers and resource tracker), which ``wait`` cannot reach.
    """
    deadline = time.monotonic() + timeout
    live = [p for p in pids if not _ended(p)]
    while live and time.monotonic() < deadline:
        time.sleep(0.01)
        live = [p for p in live if not _ended(p)]
    for p in live:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    while live:
        time.sleep(0.01)
        live = [p for p in live if not _ended(p)]


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a daemon's pool workers and resource
    tracker, which outlive the daemon for a moment, become this
    process's children, so :func:`reap_children` waits for them."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def reap_children() -> None:
    """Wait until every child, adopted ones included, has ended."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def cpu_seconds(pids) -> dict[int, float]:
    """user+sys CPU seconds of each live pid."""
    out = {}
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[p] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (VmHWM) of the live pids."""
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024


class CpuMeter:
    """CPU consumed by a process tree between :meth:`start` and
    :meth:`stop`; processes that appear in between count from zero."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._base: dict[int, float] = {}

    def start(self) -> None:
        self._base = cpu_seconds(tree_pids(self.pid))

    def stop(self) -> tuple[float, list[int]]:
        """CPU seconds used since :meth:`start`, and the pids measured."""
        pids = tree_pids(self.pid)
        now = cpu_seconds(pids)
        used = sum(t - self._base.get(p, 0.0) for p, t in now.items())
        return used, pids
