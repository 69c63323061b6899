"""Start, crash and restart the real ``repro serve`` process.

The server runs as its own process, started the way a user starts it
(``python -m repro.cli serve ...``) from the checkout's ``src``.  Its
peak resident set and CPU time are read from ``/proc/<pid>``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

#: Seconds a server may take to print its ready line.
READY_TIMEOUT = 120.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerFailed(RuntimeError):
    pass


class ServerProcess:
    """One ``repro serve transitive-closure`` process.

    ``started`` is the ``perf_counter`` time just before the spawn and
    ``ready`` the time its ``repro: serving ... on HOST:PORT`` line was
    read.
    """

    def __init__(self, root: str, graph: str, state_dir: str,
                 checkpoint_every: int, fsync: str, resume: bool = False,
                 stats_json: str | None = None) -> None:
        self.checkpoint = os.path.join(state_dir, "view.ckpt")
        self.wal = os.path.join(state_dir, "view.wal")
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "transitive-closure", graph,
            "--checkpoint", self.checkpoint,
            "--wal", self.wal,
            "--fsync", fsync,
            "--checkpoint-every", str(checkpoint_every),
        ]
        if resume:
            argv.append("--resume")
        if stats_json:
            argv += ["--stats-json", stats_json]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self._stderr = open(os.path.join(state_dir, "serve.stderr"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, bufsize=0,
        )
        self.banner: list[str] = []
        self.host, self.port = self._await_ready()
        self.ready = time.perf_counter()

    def _await_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        pending = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            readable, __, __ = select.select([fd], [], [], 0.5)
            if not readable:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                self.banner.append(text)
                if text.startswith("repro: serving "):
                    host, port = text.rsplit(" ", 1)[1].rsplit(":", 1)
                    return host, int(port)
        self.kill()
        raise ServerFailed(
            "repro serve did not become ready; output: "
            + " | ".join(self.banner)
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set so far."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerFailed("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the process has used."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def kill(self) -> None:
        """SIGKILL (a crash: nothing is flushed) and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.wait()

    def wait(self, timeout: float = 60.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
