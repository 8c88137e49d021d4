"""The repository benchmark: one workload, one seed, one result line.

    python3 repobench/run.py --workload warm_jobs --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  The line before it is the run's record: the host block,
every set-up time, the tail latency with its percentile and each
failure.

A run sets the cluster up three times, each on an empty store and an
empty native cache; ``setup_s`` is the median time from pool and HTTP
start to the verified result of the last warm-up job.  The third
cluster then serves the measuring window.  References are computed
before the first set-up, and every result is checked after its latency
is taken.  A traced run measures the first half of its window untraced
and the second half traced (the difference is ``trace.overhead_pct``),
then replays each layer's public call on the run's own inputs.

``--repeat K`` is the steadiness report instead: it runs the workload K
times on seeds ``seed .. seed+K-1`` and prints, for each end-to-end
metric, the median, the quartiles and the spread against its bound.

Every run works in its own directory under ``.bench_work/`` (store,
native cache and ``TMPDIR``), stops every process it started and removes
the directory again; a traced run writes its spans to ``.bench_out/``.
The benchmark's own tests: ``python3 -m pytest repobench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


def _ensure_source() -> bool:
    if not (ROOT / "src" / "repro").is_dir():
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3


def _native_artifacts(native_dir: Path) -> Dict[str, int]:
    return {p.name: p.stat().st_mtime_ns for p in native_dir.glob("*.so")}


class _TracedHalf:
    """Spans and counts for the traced half of a ``--trace 1`` window:
    the client's calls, the pool's job-handle stamps, and native-cache
    hits seen as artifacts touched (hit) or created (miss) by each
    job."""

    def __init__(self, cluster, tracer) -> None:
        self.cluster = cluster
        self.tracer = tracer
        self.submit_s: List[float] = []
        self.queue_s: List[float] = []
        self.exec_s: List[float] = []
        self.outside_s: List[float] = []
        self.attempts: List[int] = []
        self.hits = 0
        self.misses = 0
        self._artifacts = _native_artifacts(cluster.native_dir)

    def __call__(self, job) -> None:
        add = self.tracer.add
        root = add("job", job.start, job.end, job=job.job_id)
        after = _native_artifacts(self.cluster.native_dir)
        for name, mtime in after.items():
            if name not in self._artifacts:
                self.misses += 1
            elif mtime != self._artifacts[name]:
                self.hits += 1
        self._artifacts = after
        if job.job_id is None:
            return
        add("http.submit", job.start, job.submitted, root, job.job_id)
        add("http.result", job.submitted, job.end, root, job.job_id)
        self.submit_s.append(job.submitted - job.start)
        # the pool stamps a job when it is admitted, when it is handed
        # to the worker and when the worker's result is back
        handle = self.cluster.pool.job(job.job_id)
        self.attempts.append(handle.attempts)
        add("pool.queue", handle.submitted_at, handle.started_at, root,
            job.job_id)
        self.queue_s.append(handle.started_at - handle.submitted_at)
        add("worker.exec", handle.started_at, handle.finished_at, root,
            job.job_id)
        wall = handle.finished_at - handle.started_at
        self.exec_s.append(wall)
        self.outside_s.append(job.latency_s - wall)

    def metrics(self) -> Dict[str, float]:
        looked_up = self.hits + self.misses
        return {
            "http.submit_ms": _median_ms(self.submit_s),
            "job.outside_worker_ms": _median_ms(self.outside_s),
            "pool.queue_wait_ms": _median_ms(self.queue_s),
            "worker.exec_ms": _median_ms(self.exec_s),
            "worker.attempts": statistics.mean(self.attempts),
            "native.cache_hit_ratio": (
                self.hits / looked_up if looked_up else 0.0
            ),
        }


def run_once(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One benchmark run; returns the result line plus the record."""
    from repobench.harness import (
        Cluster, Tracer, closed_loop, run_job, tail,
    )
    from repobench.host import cpu_ticks, host_block, steal_share
    from repobench.metrics import END_TO_END, FAMILIES, PER_LAYER
    from repobench.workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
    }
    jobs_seen: List[Any] = []
    cluster: Optional[Any] = None
    ticks = cpu_ticks()
    try:
        record["host"] = host_block()
        workload = WORKLOADS[name](seed)
        workload.prepare()

        setup_s = []
        for index in range(SETUPS):
            if cluster is not None:
                cluster.close()
            started = time.monotonic()
            cluster = Cluster(work / f"setup{index}")
            warm = [
                run_job(cluster.client, request, key, workload.verify)
                for request, key in workload.warmup()
            ]
            setup_s.append(time.monotonic() - started)
            jobs_seen.extend(warm)
        record["setup_s"] = setup_s

        stream = workload.stream()
        client, verify = cluster.client, workload.verify
        if trace:
            plain, __ = closed_loop(client, stream, verify, seconds / 2)
            tracer = Tracer()
            half = _TracedHalf(cluster, tracer)
            jobs, window_start = closed_loop(
                client, stream, verify, seconds / 2, after_job=half,
            )
            jobs_seen.extend(plain)
        else:
            jobs, window_start = closed_loop(client, stream, verify, seconds)
        jobs_seen.extend(jobs)
        rss_mib = cluster.worker_hwm_mib()

        latencies = [job.latency_s for job in jobs if job.ok]
        if not latencies:
            raise RuntimeError("no job in the window was verified")
        p50 = statistics.median(latencies)
        if trace:
            plain_p50 = statistics.median(
                job.latency_s for job in plain if job.ok
            )
            values = half.metrics()
            values["pool.rejected"] = float(
                sum(job.rejected for job in jobs_seen)
            )
            values["trace.overhead_pct"] = (p50 / plain_p50 - 1.0) * 100.0
            cluster.close()
            cluster = None
            from repobench.replay import replay

            replayed, divergences = replay(workload, work / "replay", p50)
            replayed_scenarios = len(FAMILIES)
            values.update(replayed)
            record["replay_divergences"] = divergences
            tracer.write(ROOT / ".bench_out" / f"trace-{name}-{seed}.jsonl")
            units = {key: spec[0] for key, spec in PER_LAYER.items()}
        else:
            tail_value, level, groups = tail(latencies, workload.tail_group)
            record["job_tail_ms"] = {
                "value": tail_value * 1e3, "percentile": level,
                "groups": groups, "samples": len(latencies),
            }
            values = {
                "setup_s": statistics.median(setup_s),
                "job_p50_ms": p50 * 1e3,
                "jobs_per_s": len(latencies) / (jobs[-1].end - window_start),
                "worker_rss_mb": rss_mib,
            }
            divergences, replayed_scenarios = [], 0
            units = {key: spec[0] for key, spec in END_TO_END.items()}
    finally:
        if cluster is not None:
            cluster.close()
        shutil.rmtree(work, ignore_errors=True)
    record.setdefault("host", {})["steal_share"] = round(
        steal_share(ticks, cpu_ticks()), 4,
    )

    failures = [job.detail for job in jobs_seen if not job.ok] + divergences
    record["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": len(jobs_seen) + replayed_scenarios,
        "failed": len(failures),
        "metrics": {
            key: {"value": values[key], "unit": unit}
            for key, unit in units.items()
        },
    }
    return {"result": result, "record": record}


def steadiness(args) -> int:
    """Run one workload ``--repeat`` times and report each end-to-end
    metric's median, quartiles and relative spread against its bound."""
    from repobench.metrics import END_TO_END

    values: Dict[str, List[float]] = {key: [] for key in END_TO_END}
    failed = 0
    for k in range(args.repeat):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + k),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        host = record["host"]
        failed += result["failed"]
        for key in END_TO_END:
            values[key].append(result["metrics"][key]["value"])
        print(json.dumps({
            "seed": args.seed + k,
            **{key: round(v[-1], 4) for key, v in values.items()},
            "tail": record["job_tail_ms"],
            "capacity": host["parallel_capacity"],
            "steal": host["steal_share"],
        }), flush=True)
    report = {}
    for key, (unit, __, bound) in END_TO_END.items():
        q1, median, q3 = statistics.quantiles(values[key], n=4)
        spread = (q3 - q1) / median
        report[key] = {
            "unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound,
            "spread_over_bound": spread / bound,
        }
        print(f"{key:>14} {unit:>4}  median {median:10.4f}  "
              f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}  "
              f"bound {bound:5.2f}  spread/bound {spread / bound:5.2f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed": failed, "report": report}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _ensure_source():
        print(f"no program source under {ROOT / 'src' / 'repro'}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    from repobench.harness import reap_children
    from repobench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.repeat:
        return steadiness(args)
    try:
        out = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace),
        )
    finally:
        stray = reap_children()
    out["record"]["stray_processes"] = stray
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
