"""Measurement plumbing shared by the workloads.

Everything here observes the program from outside: spans are recorded
around the benchmark's own calls into the program, peak RSS is read from
``/proc`` for the program's process tree, and the daemon is a separate
process spoken to over keep-alive HTTP.
"""

from __future__ import annotations

import contextlib
import ctypes
import http.client
import itertools
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``+inf`` entries sort last).

    Nearest rank keeps a failed operation, recorded as ``+inf``, inside
    the tail it belongs to instead of interpolating it away.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def band_quantile(values: Sequence[float], q: float, half_width: float) -> float:
    """Mean of the sample ranked within ``q +- half_width`` (at least the
    nearest-rank value).

    A plain order statistic jumps between the clusters that a mix of
    techniques leaves in a latency sample whenever ``q`` sits near a
    cluster's edge; the band mean moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    low = min(n - 1, max(0, int((q - half_width) * n)))
    high = max(low + 1, min(n, math.ceil((q + half_width) * n)))
    band = ordered[low:high]
    return math.fsum(band) / len(band)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: one span per call into a layer.

    A span is ``(id, parent, request, name, start, end)`` with times from
    ``time.perf_counter``.  Spans stay in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[str] = None):
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(
                (span_id, parent, request, name, start, time.perf_counter())
            )

    def dump(self, path: Path) -> None:
        fields = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def span_cost_s(batches: int = 5, spans: int = 20_000) -> float:
    """Seconds one :class:`Tracer` span costs: the median over
    ``batches`` of ``spans`` empty spans, less the same loop untraced."""
    samples = []
    for _ in range(batches):
        tracer, plain = Tracer(), NoTracer()
        started = time.perf_counter()
        for _ in range(spans):
            with tracer.span("cost"):
                pass
        traced = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(spans):
            with plain.span("cost"):
                pass
        samples.append((traced - (time.perf_counter() - started)) / spans)
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


class NoTracer:
    """The tracing-off sink: spans cost one no-op context manager."""

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[str] = None):
        yield None


# ---------------------------------------------------------------------------
# peak RSS of a process tree, read from /proc
# ---------------------------------------------------------------------------
def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces: fields restart after ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def tree_rss_bytes(root: int) -> int:
    """Summed resident set of ``root`` and all of its descendants."""
    children = _children_map()
    total = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * PAGE_BYTES
        except (OSError, IndexError, ValueError):
            continue
        stack.extend(children.get(pid, ()))
    return total


class PeakRss:
    """Samples a process tree's summed RSS on a thread; keeps the peak."""

    def __init__(self, pid: int, interval: float = 0.1) -> None:
        self.pid = pid
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.pid))
            self._stop.wait(self.interval)

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._stop.set()
        self._thread.join()
        return self.peak / 1e6


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
#: prctl option making this process the parent of its orphaned descendants
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of every descendant whose parent exits first.

    The program's processes start their own (a sweep's workers, the
    multiprocessing resource tracker, a daemon's workers); when one of
    them outlives its parent it is reparented here, so
    :func:`reap_descendants` can wait for it instead of leaving it to
    run on after the benchmark has exited.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_descendants(grace: float = 10.0) -> List[str]:
    """Wait until this process has no children left, adopted orphans
    included: ``grace`` seconds, then SIGTERM, then SIGKILL.

    Returns the command lines of the children that had to be signalled.
    """
    from multiprocessing import resource_tracker

    # the tracker of the benchmark's own pools exits only once this
    # process closes its pipe to it
    resource_tracker._resource_tracker._stop()
    signalled: Dict[int, str] = {}
    escalation = [(grace, signal.SIGTERM), (2 * grace, signal.SIGKILL)]
    started = time.monotonic()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            return list(signalled.values())
        if escalation and time.monotonic() - started > escalation[0][0]:
            _, sig = escalation.pop(0)
            for pid in _children_map().get(os.getpid(), ()):
                try:
                    if pid not in signalled:
                        with open(f"/proc/{pid}/cmdline", "rb") as handle:
                            signalled[pid] = handle.read().replace(
                                b"\0", b" ").decode().strip()
                    os.kill(pid, sig)
                except OSError:
                    continue
        time.sleep(0.02)


def stop_process(process: subprocess.Popen,
                 first: signal.Signals = signal.SIGTERM,
                 grace: float = 30.0) -> None:
    """``first`` (SIGTERM), wait, then SIGKILL; always reaps."""
    if process.poll() is None:
        process.send_signal(first)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class LineReader:
    """Drains a child's stdout on a thread so the pipe never fills."""

    def __init__(self, stream) -> None:
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.seen: List[str] = []
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self.lines.put(line)
        self.lines.put(None)

    def wait_for(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line within {timeout}s")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise TimeoutError(f"no {prefix!r} line within {timeout}s")
            if line is None:
                raise RuntimeError(
                    "process exited before printing "
                    f"{prefix!r}:\n{''.join(self.seen[-20:])}"
                )
            self.seen.append(line)
            if line.startswith(prefix):
                return line

    def join(self) -> None:
        self._thread.join(timeout=10)


# ---------------------------------------------------------------------------
# the daemon, as its own process
# ---------------------------------------------------------------------------
class Daemon:
    """``python -m repro.bench.cli serve <graph file>`` on an ephemeral port."""

    def __init__(self, graph_file: Path, techniques: Sequence[str],
                 workers: int, seed: int, cache_entries: int) -> None:
        self.argv = [
            sys.executable, "-m", "repro.bench.cli", "serve", str(graph_file),
            "--techniques", ",".join(techniques),
            "--workers", str(workers),
            "--seed", str(seed),
            "--cache-entries", str(cache_entries),
            "--port", "0",
        ]
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self._reader: Optional[LineReader] = None
        self._rss: Optional[PeakRss] = None

    def start(self, timeout: float = 120.0, sample_rss: bool = False) -> "Daemon":
        """Spawn and wait for the ready line; ``sample_rss`` tracks the
        peak RSS of the daemon's process tree from the spawn on."""
        self.process = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        if sample_rss:
            self._rss = PeakRss(self.process.pid)
        self._reader = LineReader(self.process.stdout)
        try:
            line = self._reader.wait_for("serving ", timeout)
        except BaseException:
            self.stop()
            raise
        url = line.rsplit(" at ", 1)[1].strip()
        host, port = url.split("://", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))
        return self

    def client(self) -> "Client":
        return Client(*self.address)

    def stop(self) -> Optional[float]:
        """Stop and reap the daemon; returns its peak RSS in MB when
        sampled."""
        peak = self._rss.stop() if self._rss is not None else None
        self._rss = None
        if self.process is not None:
            stop_process(self.process)
            self._reader.join()
            self.process.stdout.close()
            self.process = None
        return peak


class Client:
    """One persistent ``http.client`` connection to the daemon."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post(self, path: str, payload: dict) -> Tuple[int, dict]:
        body = json.dumps(payload).encode()
        self.conn.request(
            "POST", path, body, {"Content-Type": "application/json"}
        )
        reply = self.conn.getresponse()
        return reply.status, json.loads(reply.read())

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        reply = self.conn.getresponse()
        return json.loads(reply.read())

    def close(self) -> None:
        self.conn.close()


def start_daemon_timed(daemon: Daemon, first_request: dict, tracer, name: str,
                       sample_rss: bool = False) -> Tuple[float, dict]:
    """Cold start: spawn until the first ``/estimate`` answer is back.

    Returns ``(seconds, reply)``; the reply is checked by the caller.
    """
    with tracer.span(name):
        started = time.perf_counter()
        daemon.start(sample_rss=sample_rss)
        client = daemon.client()
        try:
            status, reply = client.post("/estimate", first_request)
        finally:
            client.close()
        elapsed = time.perf_counter() - started
    if status != 200:
        raise RuntimeError(f"first request after start failed: {reply}")
    return elapsed, reply
