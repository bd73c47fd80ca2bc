"""Child processes of the benchmark and the raw wire client.

Every child runs from the checkout's own ``src`` tree: the benchmark
refuses to run (:class:`MissingProgram`) when it is absent rather than
measure some other installed copy.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: Seconds a child may take to announce itself or to exit.
START_TIMEOUT = 60.0
EXIT_TIMEOUT = 60.0


def split_cpus() -> tuple[Optional[set], Optional[set]]:
    """CPUs for the program under test and for the benchmark itself.

    With two or more CPUs the program gets the first one to itself and
    the load generator the rest, so the two never share a CPU and the
    placement is the same from run to run.  With one CPU nothing is
    pinned (``None, None``)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


#: Fixed at import, from the CPUs this process may run on.
PROGRAM_CPUS, HARNESS_CPUS = split_cpus()


#: Children not reaped yet, so that :func:`stop_all` can stop them
#: when a run ends early.
_LIVE: set = set()


def stop_all() -> None:
    """Kill and reap every child still running."""
    for child in list(_LIVE):
        child.kill()


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


class ChildFailed(RuntimeError):
    """A child exited early or did not answer in time."""


def require_program(src: Optional[Path] = None) -> None:
    """Put the checkout's ``src`` (or ``src``, when given) first on
    ``sys.path``, or raise.  Then move this process (and the threads it
    starts) onto the benchmark's own CPUs."""
    global SRC
    if src is not None:
        SRC = Path(src).resolve()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if HARNESS_CPUS is not None:
        os.sched_setaffinity(0, HARNESS_CPUS)


def repro_argv(args: list, spans: Optional[Path] = None) -> list:
    """The command line for ``python -m repro ARGS``, or for the traced
    launcher when ``spans`` names its output file."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACER), str(spans),
            str(time.perf_counter_ns()), "--", *args]


@dataclass(eq=False)
class Child:
    """A running ``repro`` process whose output is read line by line,
    each line stamped with ``time.perf_counter()`` on arrival."""

    proc: subprocess.Popen
    spawned: float
    lines: list = field(default_factory=list)
    _cond: threading.Condition = field(default_factory=threading.Condition)
    _reader: Optional[threading.Thread] = None
    rusage: Optional[object] = None

    @classmethod
    def spawn(cls, args: list, spans: Optional[Path] = None) -> "Child":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        # The same string hashes, hence dict layouts, in every child.
        env["PYTHONHASHSEED"] = "0"
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            repro_argv(args, spans), cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        if PROGRAM_CPUS is not None:
            os.sched_setaffinity(proc.pid, PROGRAM_CPUS)
        child = cls(proc=proc, spawned=spawned)
        _LIVE.add(child)
        child._reader = threading.Thread(target=child._pump, daemon=True)
        child._reader.start()
        return child

    def _pump(self) -> None:
        for raw in self.proc.stdout:
            stamp = time.perf_counter()
            with self._cond:
                self.lines.append((stamp, raw.decode("utf-8", "replace").rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self.lines.append((time.perf_counter(), None))
            self._cond.notify_all()

    def wait_line(self, pattern: str, start: int = 0,
                  timeout: float = START_TIMEOUT) -> tuple[int, float, re.Match]:
        """The first output line at index >= ``start`` matching
        ``pattern``: ``(index, arrival time, match)``."""
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout
        index = start
        with self._cond:
            while True:
                while index < len(self.lines):
                    stamp, text = self.lines[index]
                    if text is None:
                        raise ChildFailed(self._describe(f"exited before {pattern!r}"))
                    match = regex.search(text)
                    if match:
                        return index, stamp, match
                    index += 1
                left = deadline - time.monotonic()
                if left <= 0:
                    raise ChildFailed(self._describe(f"no {pattern!r} in {timeout} s"))
                self._cond.wait(left)

    def _describe(self, what: str) -> str:
        tail = [text for _, text in self.lines[-20:] if text is not None]
        return f"{' '.join(self.proc.args[1:4])}: {what}\n" + "\n".join(tail)

    def wait(self, timeout: float = EXIT_TIMEOUT) -> int:
        """Reap the child, keeping its resource usage; kill it if it
        outlives ``timeout``."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.005)
        _LIVE.discard(self)
        if self._reader is not None:
            self._reader.join(timeout=EXIT_TIMEOUT)
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        """Stop the child if it is still running and reap it."""
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
            self.wait()

    def thread_cpu_s(self) -> dict:
        """CPU seconds each live thread of the child has used so far,
        by thread id; the main thread's id is the child's pid.

        Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds).  On a
        shared host the guest loses wall time to other tenants in
        phases lasting minutes; CPU time does not count that loss."""
        used = {}
        tasks = Path(f"/proc/{self.proc.pid}/task")
        for task in tasks.iterdir():
            try:
                used[int(task.name)] = int(
                    (task / "schedstat").read_text().split()[0]) / 1e9
            except (FileNotFoundError, ProcessLookupError):
                continue  # thread exited between listing and reading
        return used

    def cpu_s(self) -> float:
        """CPU seconds the running child has used so far, all threads."""
        return sum(self.thread_cpu_s().values())

    @property
    def peak_rss_mb(self) -> float:
        """``ru_maxrss`` of the reaped child (KiB on Linux), in MiB."""
        return self.rusage.ru_maxrss / 1024.0


class Conn:
    """One blocking newline-JSON connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=START_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        reply = self.rfile.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def start_server(spans: Optional[Path] = None) -> tuple[Child, str, int]:
    """Spawn ``repro serve --port 0`` and wait for ``serving on``."""
    child = Child.spawn(["serve", "--port", "0"], spans)
    try:
        _, _, match = child.wait_line(r"serving on (\S+):(\d+)")
    except BaseException:
        child.kill()
        raise
    return child, match.group(1), int(match.group(2))
