"""The 204-block PID loop the ``param_sweep`` workload submits.

Workers import it by path (``repobench.loop:pid_loop``), the way a
remote user ships a model the cluster's catalogue does not have.
"""

from repro.dataflow import Diagram, FirstOrderLag, Gain, PID, Step, Sum

MODEL_PATH = "repobench.loop:pid_loop"


def pid_loop(kp: float = 3.0, pads: int = 200) -> Diagram:
    """Step -> error -> PID -> ``pads`` unity gains -> lag, closed."""
    d = Diagram(f"loop{pads}")
    d.add(Step("ref", amplitude=1.0))
    d.add(Sum("err", signs="+-"))
    d.add(PID("pid", kp=kp, ki=1.5, tf=0.5))
    d.add(FirstOrderLag("plant", tau=0.4))
    d.connect("ref.out", "err.in1")
    d.connect("err.out", "pid.in")
    previous = "pid.out"
    for index in range(pads):
        d.add(Gain(f"pad{index}", k=1.0))
        d.connect(previous, f"pad{index}.in")
        previous = f"pad{index}.out"
    d.connect(previous, "plant.in")
    d.connect("plant.out", "err.in2")
    return d
