"""Run one workload's CLI steps in a closed loop and time them.

    python3 perfbench/worker.py SPEC.json RESULT.json

run.py starts this in a process of its own, so the peak RSS it reports
covers the steps and not the benchmark's input generator.  Each step is
`mtprep.cli.main(argv)` called in-process with standard output and error
sent to the step's files, and timed in wall seconds together with the
speed probe's factor for it (see speed.py).  Iterations repeat the whole
chain, one step at a time, until the time budget is spent; the last one
finishes.

With "trace" set, a traced phase follows the untraced one: the tracer
wraps the library calls, and after every iteration the splitter, marker
and join calls are replayed layer by layer.  Layer times are reported in
reference seconds, scaled by the speed probe's factor for the iteration.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, SpeedProbe
from tracing import Tracer, replay_preprocess

# Per-layer durations end so; the speed factor applies to them only.
DURATION_SUFFIXES = ("_s", "_ms")


def run_phase(cli, steps: list[dict], seconds: float,
              tracer: Tracer | None = None) -> tuple[list, list, bool]:
    """Repeat the chain.

    Returns the step records and (traced only) the layer metrics of every
    iteration, and whether every replay reproduced its step's output.
    """
    iterations: list[list[dict]] = []
    layers: list[dict] = []
    replays_match = True
    start = perf_counter()
    while True:
        record, samples = [], []
        for step in steps:
            if tracer is not None:
                tracer.step = step["name"]
            with open(step["stdout"], "w", encoding="utf-8") as out, \
                    open(step["stderr"], "w", encoding="utf-8") as err, \
                    redirect_stdout(out), redirect_stderr(err), SpeedProbe() as probe:
                begin = perf_counter()
                try:
                    rc = cli.main(step["argv"])
                except Exception:  # a crash is a failed invocation, not a crashed run
                    traceback.print_exc()
                    rc = -1
                wall = perf_counter() - begin
            samples += probe.samples
            record.append({"name": step["name"], "kind": step["kind"], "wall_s": wall,
                           "factor": probe.factor, "rc": rc})
        iterations.append(record)
        if any(r["rc"] != 0 for r in record):
            break
        if tracer is not None:
            with SpeedProbe() as probe:
                replays = [replay_preprocess(s["replay"]) for s in steps if s.get("replay")]
            samples += probe.samples
            metrics = tracer.iteration_metrics(record, replays)
            factor = REFERENCE_S * len(samples) / sum(samples)
            layers.append({k: v * factor if k.endswith(DURATION_SUFFIXES) else v
                           for k, v in metrics.items()})
            replays_match = replays_match and all(r["matches"] for r in replays)
        if perf_counter() - start >= seconds:
            break
    return iterations, layers, replays_match


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import mtprep.cli as cli

    steps = spec["steps"]
    untraced, _, _ = run_phase(cli, steps, spec["seconds"])
    result = {
        "untraced": untraced,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec["trace"] and all(r["rc"] == 0 for r in untraced[-1]):
        tracer = Tracer()
        tracer.install()
        traced, layers, replays_match = run_phase(cli, steps, spec["seconds"], tracer)
        tracer.write_spans(spec["spans"])
        result["traced"] = traced
        result["missing"] = tracer.missing
        result["replays_match"] = replays_match
        if layers:
            result["layers"] = {
                key: statistics.median(m[key] for m in layers) for key in layers[0]
            }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
