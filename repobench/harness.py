"""Run isolation, the cluster under test, the closed-loop client and
the span recorder.

One benchmark process hosts a :class:`~repro.cluster.WorkerPool` with a
single worker behind a :class:`~repro.cluster.ClusterHTTPServer`; one
closed-loop client in the main thread drives it through
:class:`~repro.cluster.ClusterClient`.  So at most two processes are
busy at once, which is what a 2-vCPU host can actually give.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster import (
    ClusterClient, ClusterConfig, ClusterError, ClusterHTTPServer,
    ClusterJobRequest, ClusterRejected, WorkerPool,
)

#: the program's tuning variables and its native kill switch; left unset
#: so that the defaults are what is measured
TUNING_VARS = (
    "REPRO_NATIVE_BATCH_SHARDS", "REPRO_BATCH_CACHE_CAP",
    "REPRO_NATIVE_CACHE_MAX_MB", "REPRO_NATIVE_DISABLE",
)

#: server-side wait for one job's result before it counts as failed
RESULT_TIMEOUT_S = 60.0


def isolate(base: Path) -> Tuple[Path, Path, Path]:
    """Point this process (and every worker spawned after it) at a fresh
    store, native cache and ``TMPDIR`` under ``base``."""
    store, native, tmp = base / "store", base / "native", base / "tmp"
    for path in (store, native, tmp):
        path.mkdir(parents=True, exist_ok=True)
    for name in TUNING_VARS:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_NATIVE_CACHE"] = str(native)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    return store, native, tmp


def _children(pid: int) -> List[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name is parenthesised and may contain spaces
        fields = stat.rpartition(")")[2].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def reap_children(timeout: float = 5.0) -> int:
    """Stop and wait for every process this one started (workers, the
    multiprocessing resource tracker, compiler children).  Returns how
    many were still running."""
    from multiprocessing import resource_tracker

    # queues finalise asynchronously: their feeder threads hold the
    # semaphores until they exit, and the tracker must outlive those
    gc.collect()
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout)
    gc.collect()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    leftover = _children(os.getpid())
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in leftover:
        while True:
            try:
                done, __ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    return len(leftover)


class Cluster:
    """The system under test: one worker, HTTP in front, a client."""

    def __init__(self, base: Path) -> None:
        store, self.native_dir, __ = isolate(base)
        self.pool = WorkerPool(store, ClusterConfig(workers=1))
        self.server = ClusterHTTPServer(self.pool).start()
        self.client = ClusterClient(self.server.url)

    def worker_hwm_mib(self) -> float:
        """The worker's peak resident set (``VmHWM``) in MiB."""
        pid = self.pool.status()["workers"][0]["pid"]
        text = Path(f"/proc/{pid}/status").read_text()
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in worker status")

    def close(self) -> None:
        self.server.stop()
        self.pool.shutdown()


@dataclass
class Job:
    """One closed-loop job as the client saw it (``time.monotonic()``
    stamps, the clock the pool's job handles use)."""

    key: Any
    ok: bool
    start: float
    end: float
    submitted: Optional[float] = None
    job_id: Optional[str] = None
    rejected: bool = False
    detail: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def run_job(
    client: ClusterClient,
    request: ClusterJobRequest,
    key: Any,
    verify: Callable[[Any, Dict[str, Any]], bool],
) -> Job:
    """Submit, wait for the result, then verify it outside the timing."""
    start = time.monotonic()
    try:
        job_id = client.submit(request)
        submitted = time.monotonic()
        status = client.result(job_id, timeout=RESULT_TIMEOUT_S)
    except ClusterRejected as exc:
        return Job(key, False, start, time.monotonic(), rejected=True,
                   detail=str(exc))
    except (ClusterError, OSError) as exc:
        return Job(key, False, start, time.monotonic(), detail=str(exc))
    end = time.monotonic()
    ok = verify(key, status.get("result") or {})
    return Job(key, ok, start, end, submitted, job_id,
               detail="" if ok else "output differs from the reference")


def closed_loop(
    client: ClusterClient,
    requests: Iterator[Tuple[ClusterJobRequest, Any]],
    verify: Callable[[Any, Dict[str, Any]], bool],
    seconds: float,
    after_job: Optional[Callable[[Job], None]] = None,
) -> Tuple[List[Job], float]:
    """One client, next request only after the previous result.  Jobs
    started before the deadline run to completion.  Returns the jobs and
    the window start."""
    jobs: List[Job] = []
    started = time.monotonic()
    while time.monotonic() - started < seconds:
        request, key = next(requests)
        job = run_job(client, request, key, verify)
        jobs.append(job)
        if after_job is not None:
            after_job(job)
    return jobs, started


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
TAIL_LEVELS = (99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def percentile(values: List[float], level: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * level / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: List[float], group: int) -> Tuple[float, float, int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it in
    a group of ``group`` consecutive jobs, taken as the median over the
    run's whole groups, so one slow spell of a shared host does not set
    it.  Returns ``(value, level, groups)``; with fewer jobs than one
    group the whole run is one group."""
    level = next(
        (lvl for lvl in TAIL_LEVELS
         if group * (100.0 - lvl) / 100.0 >= TAIL_MIN_BEYOND - 1e-9),
        TAIL_LEVELS[-1],
    )
    groups = [
        values[i:i + group]
        for i in range(0, len(values) - group + 1, group)
    ] or [values]
    return (
        statistics.median(percentile(g, level) for g in groups),
        level, len(groups),
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Tracer:
    """Spans kept in memory and written out when the run ends.  Times
    are ``time.monotonic()``, the clock the pool's job handles use."""

    spans: List[Dict[str, Any]] = field(default_factory=list)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        job: Optional[str] = None,
    ) -> int:
        self.spans.append({
            "id": len(self.spans), "name": name, "start": start,
            "end": end, "parent": parent, "job": job,
        })
        return len(self.spans) - 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
