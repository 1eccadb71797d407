"""Benchmark of the mtprep command line on four seeded workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
src/ directory.  For each workload the benchmark generates input files
from the seed, runs the workload's chain of `mtprep.cli.main(argv)` calls
in a worker process of its own for about S seconds (closed loop, one step
at a time, every option at its default), checks the outputs, and prints
one line per metric and per check.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The exit code is 0 only when every CLI invocation and
every output check passed.

See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

WORKER_TIMEOUT_S = 150
SETUP_RUNS = 15
SETUP_TIMEOUT_S = 30
STEP_KINDS = ("induce", "preprocess", "align", "evaluate")
# Measured processes get a fixed string-hash seed, so that dict and set
# layouts, and with them the timings, do not change from run to run.
MEASURED_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

# Runs in a fresh interpreter: the fixed cost of one CLI invocation before
# its first input line, bracketed by speed-probe samples.  argv: perfbench
# directory, src directory, then the files to load.  Prints the wall
# seconds and the mean probe sample.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import kernel_seconds
samples = [kernel_seconds() for _ in range(4)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import mtprep.cli as cli
loaders = (cli.load_suffix_list, cli.load_compound_suffixes)
for load, path in zip(loaders, sys.argv[3:]):
    load(path)
wall = time.perf_counter() - start
samples += [kernel_seconds() for _ in range(4)]
print(repr(wall), repr(sum(samples) / len(samples)))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here: nothing is measured or printed."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def locate_program():
    """Import mtprep and the test oracles from this checkout, or refuse."""
    if not (SRC / "mtprep" / "cli.py").is_file():
        raise BenchmarkError(f"no mtprep sources under {SRC}")
    if not (TESTS / "oracles.py").is_file():
        raise BenchmarkError(f"no test oracles at {TESTS / 'oracles.py'}")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import mtprep

    if Path(mtprep.__file__).resolve().parent != (SRC / "mtprep").resolve():
        raise BenchmarkError(f"imported mtprep from {mtprep.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    """What a result must be recorded with so that numbers from different
    machines or sources are never compared."""
    git_sha = "none"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "mtprep").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def measure_setup(files: list[str]) -> tuple[dict[str, float], int, int]:
    """Median set-up time over fresh interpreters, in reference and in wall
    seconds, after one warm-up run that leaves the bytecode cache as an
    installed package would have it."""
    wall, reference, attempted, failed = [], [], 0, 0
    for k in range(SETUP_RUNS + 1):
        attempted += 1
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), *files],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, env=MEASURED_ENV)
            seconds, probe = map(float, done.stdout.split()) if done.returncode == 0 else (0, 0)
        except (subprocess.TimeoutExpired, ValueError):
            seconds = probe = 0
        if not seconds:
            failed += 1
        elif k > 0:
            wall.append(seconds)
            reference.append(seconds * REFERENCE_S / probe)
    if not wall:
        return {}, attempted, failed
    return ({"setup_s": statistics.median(reference), "wall_setup_s": statistics.median(wall)},
            attempted, failed)


def run_worker(steps: list[dict], work: Path, seconds: float, trace: bool,
               spans: Path) -> dict:
    spec_path, result_path = work / "worker-spec.json", work / "worker-result.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "steps": steps, "seconds": seconds,
                                     "trace": trace, "spans": str(spans)}), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(result_path)], timeout=WORKER_TIMEOUT_S, env=MEASURED_ENV)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    if done.returncode != 0 or not result_path.exists():
        return {"error": f"worker exited with {done.returncode}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def step_medians(iterations: list[list[dict]], wall: bool = False) -> dict[str, float]:
    """Median over iterations of each step kind's seconds and the chain's,
    in reference seconds or, with `wall`, in wall seconds."""
    per_kind: dict[str, list[float]] = {}
    for record in iterations:
        totals: dict[str, float] = {"chain": 0.0}
        for step in record:
            seconds = step["wall_s"] if wall else step["wall_s"] * step["factor"]
            totals[step["kind"]] = totals.get(step["kind"], 0.0) + seconds
            totals["chain"] += seconds
        for kind, value in totals.items():
            per_kind.setdefault(kind, []).append(value)
    return {kind: statistics.median(values) for kind, values in per_kind.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 corrupt: str | None) -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    spans = WORK / "traces" / f"{name}-seed{seed}.jsonl"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        prepared = WORKLOADS[name](seed, size, work)
        steps = [{"name": s.name, "kind": s.kind, "argv": s.argv, "replay": s.replay,
                  "stdout": str(work / f"{s.name}.stdout"),
                  "stderr": str(work / f"{s.name}.stderr")} for s in prepared.steps]
        result = run_worker(steps, work, seconds, trace, spans)
        phases = [result[k] for k in ("untraced", "traced") if k in result]
        records = [r for phase in phases for iteration in phase for r in iteration]
        attempted = len(records)
        failed = sum(r["rc"] != 0 for r in records)
        checks = []
        if "error" in result:
            checks.append(("worker", False, result["error"]))
        elif failed == 0:
            if corrupt is not None:
                prepared.corrupt[corrupt]()
            checks += prepared.check()
            if trace and any(s.replay for s in prepared.steps):
                checks.append(("replay", result.get("replays_match", False),
                               "layer-by-layer replay reproduces the preprocess output"))
        metrics: dict[str, float] = {}
        shown: dict[str, float] = {}
        if "untraced" in result and failed == 0:
            medians = step_medians(result["untraced"])
            wall = step_medians(result["untraced"], wall=True)
            metrics["items_per_s"] = prepared.items / medians["chain"]
            shown["wall_items_per_s"] = prepared.items / wall["chain"]
            shown.update({f"{k}_s": medians[k] for k in STEP_KINDS if k in medians})
            shown.update({f"wall_{k}_s": wall[k] for k in STEP_KINDS if k in wall})
            shown["speed_factor"] = statistics.median(
                r["factor"] for iteration in result["untraced"] for r in iteration)
            if name == "align-synth":
                prepared.properties["preprocess_share"] = (
                    (medians["induce"] + medians["preprocess"]) / medians["chain"])
            if not trace:
                setup, probes, probe_failures = measure_setup(prepared.setup_files)
                attempted += probes
                failed += probe_failures
                if setup:
                    metrics["setup_s"] = setup.pop("setup_s")
                    shown.update(setup)
                metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
            elif "layers" in result:
                metrics = layer_metrics(result, prepared.items, medians)
        attempted += len(checks)
        failed += sum(not ok for _, ok, _ in checks)
        return {"workload": name, "attempted": attempted, "failed": failed, "checks": checks,
                "metrics": metrics, "shown": shown, "properties": prepared.properties,
                "missing": result.get("missing", [])}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(result: dict, items: int, untraced: dict[str, float]) -> dict[str, float]:
    metrics = dict(result["layers"])
    for kind in STEP_KINDS:
        metrics[f"cli.{kind}_s"] = untraced.get(kind, 0.0)
    traced = step_medians(result["traced"])
    metrics["trace.overhead_items_per_s"] = items / traced["chain"] - items / untraced["chain"]
    return metrics


def report(run: dict, env: dict, trace: bool, units: dict[str, str]) -> None:
    name = run["workload"]
    print(f"env workload={name} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in run["properties"].items():
        print(f"property {name} {key}={value:.6g}")
    for missing in run["missing"]:
        print(f"note {name} not traced (absent): {missing}")
    for check, ok, detail in run["checks"]:
        print(f"check {name} {check} {'ok' if ok else 'FAIL'}: {detail}")
    shown = {**run["metrics"], **run["shown"]}
    if not trace:
        shown["failed_frac"] = run["failed"] / run["attempted"]
    for key, value in shown.items():
        unit = units.get(key.removeprefix("wall_"), "s" if key.endswith("_s") else "ratio")
        print(f"metric {name} {key} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--corrupt", choices=("split", "score"),
                        help="damage the output before checking (self-test)")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        locate_program()
        spec = load_spec()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    expected = spec["per_layer" if trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, trace, args.size, args.corrupt)
        report(run, env, trace, {**spec["end_to_end"], **spec["per_layer"]})
        if run["failed"] == 0 and set(run["metrics"]) != set(expected):
            print(f"error: {name} measured {sorted(run['metrics'])}, "
                  f"BENCHMARK.json names {sorted(expected)}", file=sys.stderr)
            return 2
        runs.append(run)

    def entry(key: str, value: float) -> dict:
        return {"value": value, "unit": expected[key]}

    if len(runs) == 1:
        metrics = {k: entry(k, v) for k, v in runs[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": entry(k, v) for r in runs for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
