"""The host block stamped on every result record.

A drift in a measured rate is traced to the host rather than the code
only if the record says what the host could give: its CPU, the CPUs the
process may run on, the cgroup quota, a measured two-process parallel
capacity, and the toolchain versions.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: a fixed amount of pure-Python work for the capacity probe
_PROBE_CODE = "s = 0\nfor i in range(1_500_000):\n    s += i * i\n"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cgroup_cpu_max() -> str:
    """``cpu.max`` (cgroup v2) or ``quota period`` (cgroup v1)."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.exists():
        return v2.read_text().strip()
    v1 = Path("/sys/fs/cgroup/cpu")
    try:
        quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
        period = (v1 / "cpu.cfs_period_us").read_text().strip()
    except OSError:
        return "unavailable"
    return f"{'max' if quota == '-1' else quota} {period}"


def _gcc_version() -> Optional[str]:
    try:
        out = subprocess.run(
            ["gcc", "-dumpfullversion"], capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _timed_probe(copies: int) -> float:
    """Wall seconds for ``copies`` concurrent probe processes."""
    started = time.perf_counter()
    procs = [
        subprocess.Popen([sys.executable, "-c", _PROBE_CODE])
        for __ in range(copies)
    ]
    for proc in procs:
        proc.wait()
    return time.perf_counter() - started


def parallel_capacity() -> float:
    """How many CPU-bound processes the host really runs at once: two
    copies of a fixed job against one copy, best of two rounds each."""
    one = min(_timed_probe(1) for __ in range(2))
    two = min(_timed_probe(2) for __ in range(2))
    return 2.0 * one / two


def cpu_ticks() -> Dict[str, int]:
    """Host-wide busy, idle and steal ticks from ``/proc/stat``."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return {
        "busy": user + nice + system + irq + softirq,
        "idle": idle + iowait,
        "steal": steal,
    }


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    """The share of CPU time the hypervisor gave to other guests."""
    delta = {key: after[key] - before[key] for key in before}
    total = sum(delta.values())
    return delta["steal"] / total if total else 0.0


def host_block() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "parallel_capacity": round(parallel_capacity(), 3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": _gcc_version(),
    }
