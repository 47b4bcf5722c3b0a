"""The benchmark's own client for a ``repro serve --stdio`` daemon.

One process, one pipe: a reader thread timestamps every response line
as it arrives, the calling thread writes requests and waits for their
answers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

from procs import tree_pids, wait_ended

#: The daemon's CLI defaults, stated explicitly.
DAEMON_FLAGS = ["--processes", "2", "--max-pending", "64",
                "--fsync-interval", "32"]

WARMUP = {"id": "warmup", "coeffs": [-6, -1, 1]}


class Daemon:
    """A ``repro serve --stdio`` subprocess with journal, access log and
    disk cache under ``workdir``."""

    def __init__(self, root: str, workdir: str) -> None:
        os.makedirs(workdir)
        self.workdir = workdir
        self.journal = os.path.join(workdir, "journal.jsonl")
        self.access_log = os.path.join(workdir, "access.jsonl")
        self.cache_dir = os.path.join(workdir, "cache")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("REPRO_CACHE_DIR", None)
        self._stderr = open(os.path.join(workdir, "stderr.txt"), "w")
        self._cond = threading.Condition()
        self._responses: dict = {}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             *DAEMON_FLAGS, "--journal", self.journal,
             "--access-log", self.access_log, "--cache-dir", self.cache_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, cwd=root, env=env, text=True, bufsize=1,
            start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.send(WARMUP)
            _, resp = self.wait("warmup", timeout=120)
            if resp.get("status") != "ok":
                raise RuntimeError(f"warm-up request failed: {resp}")
        except BaseException:
            self.close()
            raise
        #: spawn to warm-up answer: imports, daemon and pool start-up.
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> None:
        for line in self.proc.stdout:
            t = time.perf_counter()
            resp = json.loads(line)
            with self._cond:
                self._responses[resp.get("id")] = (t, resp)
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def send(self, obj: dict) -> float:
        """Write one request line; returns the time just before the write."""
        t = time.perf_counter()
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return t

    def wait(self, rid, timeout: float = 600) -> tuple[float, dict]:
        """The ``(arrival time, response)`` for request id ``rid``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while rid not in self._responses:
                left = deadline - time.monotonic()
                if left <= 0 or self.proc.poll() is not None:
                    raise RuntimeError(f"no response for request {rid!r}")
                self._cond.wait(min(left, 1.0))
            return self._responses.pop(rid)

    def metrics(self) -> dict:
        """The daemon's ``metrics`` barrier snapshot."""
        self.send({"op": "metrics", "id": "__metrics__"})
        return self.wait("__metrics__")[1]

    def close(self) -> None:
        """Shut down cleanly (drain, then exit); kill if that stalls.
        Returns once the daemon and every process it started have ended."""
        family = tree_pids(self.proc.pid)[1:]
        try:
            if self.proc.poll() is None:
                self.send({"op": "shutdown", "id": "__shutdown__"})
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            # The daemon leads its own process group: take the pool
            # workers down with it.
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        finally:
            wait_ended(family)
            self._reader.join(timeout=10)
            self.proc.stdout.close()
            self._stderr.close()
