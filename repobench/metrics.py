"""The benchmark's metric tables.

``BENCHMARK.json`` lists the same names, units, directions and bounds;
the tests hold the two in step.  The third field of each per-layer
entry says which end-to-end metric it should move and on which
workload.  It was written down before any optimisation was measured, so
a later change can be judged against a prediction made in advance.
Every traced run reports every per-layer metric, replayed on that
workload's own inputs; the workload named there is where to read it.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: end-to-end metrics: name -> (unit, better, bound).  Every run prints
#: every one of them, so each must mean something on every workload:
#: ``jobs_per_s`` is verified jobs per second of window, which at a
#: workload's fixed job shape is its instance-step rate (param_sweep)
#: or its scenario rate (cold_campaign).  The tail percentile is in each
#: run's record, not here: on a shared 2-vCPU host it moves with other
#: tenants' load more than any bound could absorb.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "job_p50_ms": ("ms", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "worker_rss_mb": ("MiB", "lower", 0.1),
}

FAMILIES: Tuple[str, ...] = (
    "dag", "dag_sampled", "feedback", "plant", "batch", "solver", "fault",
    "multirate", "defect",
)

_WARM = "warm_jobs"
_SWEEP = "param_sweep"
_COLD = "cold_campaign"

#: per-layer metrics: name -> (unit, better, moves)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    # cluster.http / cluster.pool
    "http.submit_ms": ("ms", "lower", f"job_p50_ms @ {_WARM}"),
    "job.outside_worker_ms": ("ms", "lower", f"job_p50_ms @ {_WARM}"),
    "pool.queue_wait_ms": (
        "ms", "lower", "health check: about 0 with one client",
    ),
    "pool.rejected": ("count", "lower", "health check: 0"),
    # cluster.worker: hand-off to the worker until its result is back,
    # as the pool's job handle stamps them
    "worker.exec_ms": (
        "ms", "lower", f"job_p50_ms @ {_WARM}; jobs_per_s @ {_COLD}",
    ),
    "worker.attempts": ("count", "lower", "health check: 1 per job"),
    # service.cache / core.backend
    "backend.warm_compile_ms": ("ms", "lower", f"job_p50_ms @ {_WARM}"),
    "backend.cold_compile_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; setup_s @ all",
    ),
    "native.cache_hit_ratio": (
        "ratio", "higher",
        f"health check: about 1 @ {_WARM}, {_SWEEP}; about 0 @ {_COLD}",
    ),
    # core.network / core.plan / core.opt
    "network.flatten_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; job_p50_ms @ {_WARM}",
    ),
    "plan.build_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; job_p50_ms @ {_WARM}",
    ),
    "opt.dce_ms": ("ms", "lower", f"jobs_per_s @ {_COLD}"),
    "opt.fold_ms": ("ms", "lower", f"jobs_per_s @ {_COLD}"),
    "opt.cse_ms": ("ms", "lower", f"jobs_per_s @ {_COLD}"),
    "opt.fuse_ms": ("ms", "lower", f"jobs_per_s @ {_COLD}"),
    "opt.nodes_out": ("count", "lower", f"jobs_per_s @ {_COLD}"),
    # codegen
    "codegen.lower_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; setup_s @ all",
    ),
    "codegen.render_c_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; setup_s @ all",
    ),
    "codegen.render_batch_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; setup_s @ {_SWEEP}",
    ),
    "codegen.c_source_bytes": (
        "bytes", "lower", f"jobs_per_s @ {_COLD}; setup_s @ all",
    ),
    # core.backend.native
    "native.cc_ms": ("ms", "lower", f"jobs_per_s @ {_COLD}; setup_s @ all"),
    "native.dlopen_ms": (
        "ms", "lower", f"jobs_per_s @ {_COLD}; setup_s @ all",
    ),
    "native.call_fixed_us": ("us", "lower", f"job_p50_ms @ {_WARM}"),
    "native.steady_steps_per_s": (
        "steps/s", "higher", "health check: kernel steady state",
    ),
    # core.hybrid
    "hybrid.major_step_us": ("us", "lower", f"job_p50_ms @ {_WARM}"),
    "hybrid.rhs_call_us": ("us", "lower", f"job_p50_ms @ {_WARM}"),
    # resilience
    "checkpoint.save_ms": ("ms", "lower", f"job_p50_ms @ {_WARM}"),
    "checkpoint.bytes": ("bytes", "lower", f"job_p50_ms @ {_WARM}"),
    # core.backend.nativebatch
    "nativebatch.kernel_inst_steps_per_s": (
        "inst-steps/s", "higher", f"jobs_per_s, job_p50_ms @ {_SWEEP}",
    ),
    "nativebatch.kernel_inst_steps_per_s_1shard": (
        "inst-steps/s", "higher", f"jobs_per_s, job_p50_ms @ {_SWEEP}",
    ),
    "nativebatch.shard_speedup": (
        "x", "higher", f"jobs_per_s, job_p50_ms @ {_SWEEP}",
    ),
    "nativebatch.job_share": (
        "ratio", "higher", f"health check: at least 0.9 @ {_SWEEP}",
    ),
    # core.batch
    "batch.numpy_inst_steps_per_s": (
        "inst-steps/s", "higher", f"jobs_per_s @ {_COLD} (batch family)",
    ),
    "batch.result_summary_ms": (
        "ms", "lower", f"jobs_per_s, job_p50_ms @ {_SWEEP}",
    ),
    # scenarios
    **{
        f"scenarios.exec_ms.{family}": (
            "ms", "lower", f"jobs_per_s @ {_COLD}",
        )
        for family in FAMILIES
    },
    # the harness itself
    "trace.overhead_pct": ("%", "lower", "none: a health check"),
}
