"""The three workloads: inputs from the seed, warm-up, references and
the check of every result.

Each workload makes all its inputs from ``--seed``; the program only
ever sees the generated requests.  References are computed in-process
on an independent path before any timing starts, and each result is
checked against them after its latency is taken.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterJobRequest, summarise_result
from repro.cluster.requests import build_spec
from repro.service.jobs import JobContext, JobHandle

from repobench.loop import MODEL_PATH, pid_loop
from repobench.metrics import FAMILIES

CLIENT = "bench"


def run_in_process(request: ClusterJobRequest) -> Dict[str, Any]:
    """The request's result summary, executed in this process without
    the cluster (no store, no checkpoints, no plan cache)."""
    spec = build_spec(request, "reference")
    return summarise_result(
        spec.execute(JobContext(JobHandle("reference", spec)))
    )


@dataclass
class Subject:
    """What the traced replay exercises layer by layer: the workload's
    own model, at its own job shape."""

    diagram: Callable[[], Any]
    hybrid: Callable[[], Any]
    t_end: float
    h: float
    sweep_path: Optional[str]
    #: instances and minor steps of one job of the workload
    job_n: int
    job_steps: int
    #: instances and minor steps for the kernel-rate replay
    rate_n: int
    rate_steps: int
    record_every: int = 1
    records: Optional[List[str]] = None
    gains: Optional[List[float]] = None


class Workload:
    """Seeded inputs plus the reference check of each result."""

    #: consecutive jobs per tail-percentile group
    tail_group = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        """Compute references (outside every timed window)."""

    def warmup(self) -> List[Tuple[ClusterJobRequest, Any]]:
        raise NotImplementedError

    def stream(self) -> Iterator[Tuple[ClusterJobRequest, Any]]:
        raise NotImplementedError

    def verify(self, key: Any, summary: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def subject(self) -> Subject:
        raise NotImplementedError

    def scenario_seeds(self) -> Dict[str, int]:
        """One scenario seed per family, drawn from this run's seed."""
        stream = scenario_stream(random.Random(self.seed ^ 0x5CE7), set())
        return {
            family: seed
            for seed, family in itertools.islice(stream, len(FAMILIES))
        }


# ----------------------------------------------------------------------
# warm_jobs
# ----------------------------------------------------------------------
class WarmJobs(Workload):
    """Short native-c single runs over ~8 catalogue variants, every
    artifact compiled during set-up, so every job is a warm hit."""

    tail_group = 200
    T_END = 2.5  # 250 major steps at the catalogue's h = 0.01
    DEADLINE_S = 30.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.variants: List[Tuple[str, Dict[str, float]]] = [
            ("cruise", {"setpoint": round(self.rng.uniform(15, 35), 3)})
            for __ in range(5)
        ] + [
            ("lag", {"tau": round(self.rng.uniform(0.2, 1.0), 4)})
            for __ in range(3)
        ]
        self.references: Dict[int, Dict[str, Any]] = {}

    def request(self, index: int, backend: str = "native-c",
                checkpoint: bool = True) -> ClusterJobRequest:
        model, args = self.variants[index]
        return ClusterJobRequest(
            kind="single_run", model=model, model_args=dict(args),
            params={"t_end": self.T_END, "backend": backend},
            client=CLIENT, deadline=self.DEADLINE_S, checkpoint=checkpoint,
            name=f"{model}-{index}",
        )

    def prepare(self) -> None:
        for index in range(len(self.variants)):
            summary = run_in_process(
                self.request(index, "interpreter", checkpoint=False)
            )
            self.references[index] = summary["probes"]

    def warmup(self):
        return [(self.request(i), i) for i in range(len(self.variants))]

    def stream(self):
        indices = range(len(self.variants))
        while True:
            index = self.rng.choice(indices)
            yield self.request(index), index

    def verify(self, key, summary) -> bool:
        backend = (summary.get("stats") or {}).get("backend") or {}
        return (
            summary.get("probes") == self.references[key]
            and backend.get("effective") == "native-c"
        )

    def subject(self) -> Subject:
        from repro.cluster.models import cruise

        setpoint = next(
            args["setpoint"] for model, args in self.variants
            if model == "cruise"
        )
        factory = lambda: cruise(setpoint=setpoint)  # noqa: E731
        return Subject(
            diagram=lambda: factory().streamers[0],
            hybrid=factory, t_end=self.T_END, h=0.01,
            sweep_path="pid.kp", job_n=1, job_steps=250,
            rate_n=256, rate_steps=2000,
            gains=list(np.linspace(400.0, 900.0, 256)),
        )


# ----------------------------------------------------------------------
# param_sweep
# ----------------------------------------------------------------------
class ParamSweep(Workload):
    """Repeated N-instance native-batch sweeps of the 204-block loop:
    the kernel is nearly the whole job."""

    #: instances per sweep and minor steps per instance: the job path
    #: around the kernel costs ~0.1 s at this N on a 2-vCPU Xeon, so the
    #: kernel passes 90% of a job, with room for host drift, only from
    #: this much work
    N = 8192
    STEPS = 8000
    H = 1e-3
    RECORD_EVERY = 2000
    #: the warm-up sweep: same model, records and swept path, so it
    #: compiles the plan and the kernel every later sweep hits
    WARMUP_STEPS = 200
    #: distinct gain values; each instance takes one, seeded
    GRID = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        low = self.rng.uniform(1.0, 3.0)
        high = low + self.rng.uniform(1.0, 3.0)
        self.grid = [float(g) for g in np.linspace(low, high, self.GRID)]
        self.index = [self.rng.randrange(self.GRID) for __ in range(self.N)]
        self.gains = [self.grid[i] for i in self.index]
        self.references: Dict[int, Dict[str, Any]] = {}

    def request(self, steps: int, gains: Optional[List[float]] = None,
                backend: str = "native-batch") -> ClusterJobRequest:
        gains = self.gains if gains is None else gains
        # no checkpoint spool: a per-chunk snapshot of every recorded
        # row so far would be a fifth of the job, not the kernel
        return ClusterJobRequest(
            kind="batch", model=MODEL_PATH,
            params={
                "n": len(gains), "t_end": steps * self.H, "h": self.H,
                "solver": "rk4", "opt_level": 0, "backend": backend,
                "sweeps": {"pid.kp": gains},
                "records": ["plant.out"], "record_every": self.RECORD_EVERY,
            },
            client=CLIENT, checkpoint=False, name=f"sweep-{steps}",
        )

    def prepare(self) -> None:
        """The NumPy batch program, bitwise equal to the kernel at O0,
        run once per distinct gain; instances are independent, so the
        full sweep's expected output is those columns, gathered."""
        from repro.core.batch import BatchResult

        index = np.asarray(self.index)
        for steps in (self.WARMUP_STEPS, self.STEPS):
            request = self.request(steps, self.grid, "batch")
            spec = build_spec(request, "reference")
            grid = spec.execute(JobContext(JobHandle("reference", spec)))
            self.references[steps] = summarise_result(BatchResult(
                t=grid.t,
                series={k: v[:, index] for k, v in grid.series.items()},
                final_states=grid.final_states[index],
                n=self.N,
            ))

    def warmup(self):
        return [(self.request(self.WARMUP_STEPS), self.WARMUP_STEPS)]

    def stream(self):
        request = self.request(self.STEPS)
        while True:
            yield request, self.STEPS

    def verify(self, key, summary) -> bool:
        return summary == self.references[key]

    def subject(self) -> Subject:
        def hybrid():
            from repro.core.model import HybridModel

            diagram = pid_loop(kp=self.gains[0])
            diagram.finalise()
            model = HybridModel("loop")
            model.default_thread.h = self.H
            model.add_streamer(diagram)
            model.add_probe("y", diagram.port_at("plant.out"))
            return model

        return Subject(
            diagram=lambda: pid_loop(kp=self.gains[0]), hybrid=hybrid,
            t_end=0.25, h=self.H, sweep_path="pid.kp",
            job_n=self.N, job_steps=self.STEPS,
            rate_n=self.N, rate_steps=self.STEPS,
            record_every=self.RECORD_EVERY, records=["plant.out"],
            gains=self.gains,
        )


# ----------------------------------------------------------------------
# cold_campaign
# ----------------------------------------------------------------------
#: one stratified round: every family at the campaign's own draw
#: weights, in a fixed interleaved order, so a time-bounded window sees
#: the same mix whatever the seed
def _round_order() -> Tuple[str, ...]:
    from repro.scenarios.spec import FAMILIES

    left = {name: weight for name, weight in FAMILIES}
    order: List[str] = []
    while any(left.values()):
        for name, __ in FAMILIES:
            if left[name]:
                order.append(name)
                left[name] -= 1
    return tuple(order)


def scenario_stream(
    rng: random.Random, used: set
) -> Iterator[Tuple[int, str]]:
    """Fresh scenario seeds, round after stratified round."""
    from repro.scenarios.spec import ScenarioSpec

    order = _round_order()
    for family in itertools.cycle(order):
        while True:
            seed = rng.randrange(1, 2 ** 31)
            if seed in used:
                continue
            if ScenarioSpec.from_seed(seed).family == family:
                used.add(seed)
                yield seed, family
                break


class ColdCampaign(Workload):
    """Scenario jobs on never-seen seeds from an empty store and native
    cache: every compile misses."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.used: set = set()
        # the same plant scenario whatever the seed, so set-up time does
        # not vary with the scenario drawn; never reused in the window
        self.warmup_seed = next(
            seed for seed, family in
            scenario_stream(random.Random(0), self.used)
            if family == "plant"
        )

    @staticmethod
    def request(seed: int) -> ClusterJobRequest:
        return ClusterJobRequest(
            kind="scenario", params={"seed": seed}, client=CLIENT,
            name=f"scenario-{seed}",
        )

    def warmup(self):
        seed = self.warmup_seed
        return [(self.request(seed), (seed, "plant"))]

    def stream(self):
        for seed, family in scenario_stream(self.rng, self.used):
            yield self.request(seed), (seed, family)

    def verify(self, key, summary) -> bool:
        # the family's differential oracle ran inside the job
        seed, family = key
        return (
            summary.get("ok") is True
            and summary.get("seed") == seed
            and summary.get("family") == family
        )

    def subject(self) -> Subject:
        from repro.core.model import HybridModel
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec.from_seed(self.scenario_seeds()["dag"])

        def hybrid():
            diagram = spec.build()
            diagram.finalise()
            model = HybridModel("dag")
            model.default_thread.h = 1.0 / 512.0
            model.add_streamer(diagram)
            return model

        return Subject(
            diagram=spec.build, hybrid=hybrid, t_end=0.25, h=1.0 / 512.0,
            sweep_path=None, job_n=4, job_steps=128,
            rate_n=256, rate_steps=2000,
        )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "warm_jobs": WarmJobs,
    "param_sweep": ParamSweep,
    "cold_campaign": ColdCampaign,
}
