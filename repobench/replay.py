"""The traced run's per-layer replay.

After the window, each layer's public call is replayed from outside the
program on the run's own seeded inputs and timed on its own: flatten,
plan, each optimizer pass, lowering, both C renderers, ``cc`` apart from
``dlopen``, a cold and a warm ``compile_program``, the hybrid loop, a
checkpoint save, the batch kernel at one and at the default shard
count, the NumPy batch program and one scenario per family.
"""

from __future__ import annotations

import ctypes
import shutil
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repobench.workloads import Subject, Workload

#: repeats per timed call; the median is reported
REPEATS = 5


def _timed(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _median_ms(fn: Callable[[], Any], repeats: int = REPEATS) -> float:
    return statistics.median(_timed(fn) for __ in range(repeats)) * 1e3


def _fresh(subject: Subject):
    diagram = subject.diagram()
    diagram.finalise()
    return diagram


def compile_side(subject: Subject, work: Path) -> Dict[str, float]:
    """Flatten -> plan -> passes -> lower -> render -> cc -> dlopen, and
    ``compile_program`` cold and warm."""
    from repro.codegen.common import CLang, lower_network
    from repro.core.backend import CompileRequest, compile_program
    from repro.core.backend.native import CFLAGS, render_c_kernel
    from repro.core.network import FlatNetwork
    from repro.core.opt import OptConfig, PlanOptimizer
    from repro.core.opt.config import PASS_ORDER

    out: Dict[str, float] = {}
    out["network.flatten_ms"] = statistics.median(
        _timed(lambda d=_fresh(subject): FlatNetwork([d]))
        for __ in range(REPEATS)
    ) * 1e3
    out["plan.build_ms"] = statistics.median(
        _timed(FlatNetwork([_fresh(subject)]).plan)
        for __ in range(REPEATS)
    ) * 1e3

    # pass k costs the pipeline through k minus the pipeline before it;
    # the fastest of many repeats keeps the differences above noise
    prefix_ms: List[float] = []
    nodes_out = 0
    for k in range(1, len(PASS_ORDER) + 1):
        config = OptConfig(level=2, **{
            name: i < k for i, name in enumerate(PASS_ORDER)
        })
        samples = []
        for __ in range(3 * REPEATS):
            plan = FlatNetwork([_fresh(subject)]).plan()
            started = time.perf_counter()
            optimized = PlanOptimizer(config).run(plan)
            samples.append(time.perf_counter() - started)
        prefix_ms.append(min(samples) * 1e3)
        nodes_out = optimized.opt_report.output_nodes
    for k, name in enumerate(PASS_ORDER):
        before = prefix_ms[k - 1] if k else 0.0
        out[f"opt.{name}_ms"] = prefix_ms[k] - before
    out["opt.nodes_out"] = float(nodes_out)

    def lower():
        diagram = _fresh(subject)
        return lower_network(
            FlatNetwork([diagram]), CLang(), records=subject.records,
            name=diagram.name, port_at=diagram.port_at,
        )

    out["codegen.lower_ms"] = _median_ms(lower)
    model = lower()
    source = render_c_kernel(model, "rk4")
    out["codegen.render_c_ms"] = _median_ms(
        lambda: render_c_kernel(model, "rk4")
    )
    out["codegen.c_source_bytes"] = float(len(source.encode()))

    build = work / "cc"
    build.mkdir(parents=True, exist_ok=True)
    c_path = build / "kernel.c"
    c_path.write_text(source)
    cc = shutil.which("cc") or shutil.which("gcc")
    cc_s, dlopen_s = [], []
    for i in range(3):
        so_path = build / f"kernel{i}.so"
        cmd = [cc, *CFLAGS, "-o", str(so_path), str(c_path), "-lm"]
        cc_s.append(_timed(
            lambda: subprocess.run(cmd, check=True, capture_output=True)
        ))
        # a path never loaded before, or dlopen returns the cached handle
        dlopen_s.append(_timed(lambda: ctypes.CDLL(str(so_path))))
    out["native.cc_ms"] = statistics.median(cc_s) * 1e3
    out["native.dlopen_ms"] = statistics.median(dlopen_s) * 1e3

    def request(cache_dir: Path) -> CompileRequest:
        return CompileRequest(
            diagram=_fresh(subject), records=subject.records,
            solver="rk4", h=subject.h, cache_dir=cache_dir,
        )

    cold = []
    for i in range(3):
        cache = work / f"compile-cache{i}"
        cold.append(_timed(
            lambda: compile_program(request(cache), "native-c")
        ))
    out["backend.cold_compile_ms"] = statistics.median(cold) * 1e3
    out["backend.warm_compile_ms"] = _median_ms(
        lambda: compile_program(request(work / "compile-cache0"),
                                "native-c")
    )
    return out


def run_side(subject: Subject, work: Path) -> Dict[str, float]:
    """Scalar kernel call cost, the hybrid loop, a checkpoint save."""
    from repro.core.backend import CompileRequest, compile_program
    from repro.resilience import CheckpointManager

    out: Dict[str, float] = {}
    program = compile_program(CompileRequest(
        diagram=_fresh(subject), records=subject.records, solver="rk4",
        h=subject.h, cache_dir=work / "compile-cache0",
    ), "native-c")
    long_steps = 20000

    def run(steps: int) -> float:
        program.reset()
        return _timed(lambda: program.run(steps * subject.h))

    steady = statistics.median(run(long_steps) for __ in range(3))
    per_step = steady / long_steps
    short = statistics.median(run(subject.job_steps) for __ in range(25))
    out["native.steady_steps_per_s"] = 1.0 / per_step
    out["native.call_fixed_us"] = (
        short - subject.job_steps * per_step
    ) * 1e6

    program.reset()
    x = np.array(program.x, dtype=float)
    calls = 2000
    out["hybrid.rhs_call_us"] = statistics.median(
        _timed(lambda: [program.rhs(0.0, x) for __ in range(calls)])
        for __ in range(3)
    ) / calls * 1e6

    model = subject.hybrid()
    scheduler = model.scheduler(backend="native-c")
    scheduler.run(subject.h * 10)  # binds and warms the kernel
    steps_before = scheduler.major_steps
    elapsed = _timed(lambda: scheduler.run(subject.t_end))
    out["hybrid.major_step_us"] = (
        elapsed / max(1, scheduler.major_steps - steps_before) * 1e6
    )
    manager = CheckpointManager(work / "spool", every_steps=100, keep=3)
    saves = [_timed(lambda: manager.save(scheduler)) for __ in range(10)]
    out["checkpoint.save_ms"] = statistics.median(saves) * 1e3
    out["checkpoint.bytes"] = float(manager.last_path.stat().st_size)
    return out


def batch_side(
    subject: Subject, work: Path, job_latency_s: float
) -> Dict[str, float]:
    """The N-instance kernel at one and at the default shard count, the
    NumPy batch program and the result summary."""
    from repro.cluster import summarise_result
    from repro.codegen.cgen import render_batch_kernel
    from repro.core.backend.nativebatch import NativeBatchKernel
    from repro.core.batch import BatchSimulator, compile_batch_program

    out: Dict[str, float] = {}
    sweep_paths = [subject.sweep_path] if subject.sweep_path else []
    program = compile_batch_program(
        _fresh(subject), records=subject.records, sweep_paths=sweep_paths,
        native=True,
    )
    out["codegen.render_batch_ms"] = _median_ms(
        lambda: render_batch_kernel(
            program.native_model, "rk4", len(sweep_paths),
        )
    )

    def sweeps(n: int) -> Dict[str, List[float]]:
        if not subject.sweep_path:
            return {}
        gains = subject.gains or [1.0]
        return {subject.sweep_path: [gains[i % len(gains)]
                                     for i in range(n)]}

    n = subject.rate_n
    numpy_sim = BatchSimulator(
        n=n, solver="rk4", h=subject.h, sweeps=sweeps(n), program=program,
    )
    P = np.asarray(list(sweeps(n).values()), dtype=float).reshape(
        len(sweep_paths), n,
    )
    kernels = {
        shards: NativeBatchKernel(
            program, "rk4", n, P, shards=shards, cache_dir=work / "batch",
        )
        for shards in (1, None)
    }
    t_end = subject.rate_steps * subject.h
    # in the chunks a batch job runs it in (eight per run by default)
    chunk = max(1, subject.rate_steps // 8)

    def run(kernel) -> None:
        x = numpy_sim.x0.copy()
        t, step, done, cold = 0.0, 0, False, True
        while not done:
            t, step, done, *__ = kernel.run_segment(
                t, t_end, subject.h, subject.record_every, step, chunk,
                cold, x,
            )
            cold = False

    rates: Dict[Any, List[float]] = {1: [], None: []}
    for __ in range(3):  # alternate, so host drift hits both alike
        for shards, kernel in kernels.items():
            seconds = _timed(lambda: run(kernel))
            rates[shards].append(n * subject.rate_steps / seconds)
    one = statistics.median(rates[1])
    default = statistics.median(rates[None])
    out["nativebatch.kernel_inst_steps_per_s_1shard"] = one
    out["nativebatch.kernel_inst_steps_per_s"] = default
    out["nativebatch.shard_speedup"] = default / one
    kernel_s = subject.job_n * subject.job_steps / default
    out["nativebatch.job_share"] = kernel_s / job_latency_s

    numpy_n, numpy_steps = 256, 200
    small = BatchSimulator(
        n=numpy_n, solver="rk4", h=subject.h, sweeps=sweeps(numpy_n),
        program=program,
    )
    seconds = statistics.median(
        _timed(lambda: small.run(numpy_steps * subject.h)) for __ in range(3)
    )
    out["batch.numpy_inst_steps_per_s"] = numpy_n * numpy_steps / seconds

    job_n = subject.job_n
    job_sim = BatchSimulator(
        n=job_n, solver="rk4", h=subject.h, sweeps=sweeps(job_n),
        program=program, backend="native-batch",
    )
    result = job_sim.run(
        subject.job_steps * subject.h, record_every=subject.record_every,
    )
    out["batch.result_summary_ms"] = _median_ms(
        lambda: summarise_result(result)
    )
    return out


def scenario_side(
    workload: Workload, work: Path
) -> Tuple[Dict[str, float], List[str]]:
    """One never-seen scenario per family through its oracle, cold.
    Returns the timings and the divergences found."""
    import os

    from repro.scenarios import CampaignConfig, ScenarioSpec, execute_scenario

    os.environ["REPRO_NATIVE_CACHE"] = str(work / "scenario-cache")
    out: Dict[str, float] = {}
    failures: List[str] = []
    for family, seed in sorted(workload.scenario_seeds().items()):
        spec = ScenarioSpec.from_seed(seed)
        started = time.perf_counter()
        outcome = execute_scenario(spec, CampaignConfig())
        out[f"scenarios.exec_ms.{family}"] = (
            time.perf_counter() - started
        ) * 1e3
        if not outcome.ok:
            failures.append(f"scenario {seed} ({family}): {outcome.detail}")
    return out, failures


def replay(
    workload: Workload, work: Path, job_latency_s: float
) -> Tuple[Dict[str, float], List[str]]:
    """Every replayed layer metric, and the scenario divergences."""
    subject = workload.subject()
    out: Dict[str, float] = {}
    # the kernel first, nearest in time to the jobs it is compared with
    out.update(batch_side(subject, work, job_latency_s))
    out.update(compile_side(subject, work))
    out.update(run_side(subject, work))
    scenarios, failures = scenario_side(workload, work)
    out.update(scenarios)
    return out, failures
