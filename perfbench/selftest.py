"""Self-test of the benchmark: tiny smoke runs and deliberately wrong outputs.

    python3 perfbench/selftest.py

For every workload, at the tiny input size and a one-second budget:
  * an untraced run must exit 0, pass every check and print every
    end-to-end metric of BENCHMARK.json by name with its unit, both in
    its metric lines and in the final JSON object;
  * a traced run must print every per-layer metric of BENCHMARK.json;
  * a run whose output is damaged before the checks (a shifted split or a
    changed score) must report failed_frac > 0 and exit nonzero.
Prints one line per expectation and exits 0 only when all of them hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORRUPTION = {"prep-zipf": "split", "prep-types": "split", "eval-mixed": "score",
              "align-synth": "split"}
TIMEOUT_S = 170


def bench(workload: str, *extra: str) -> tuple[int, list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT)
    lines = done.stdout.splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else {}


def metric_lines(lines: list[str]) -> dict[str, tuple[float, str]]:
    """metric <workload> <name> <value> <unit> -> {name: (value, unit)}"""
    out = {}
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) == 5:
            out[parts[2]] = (float(parts[3]), parts[4])
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    for workload in [w["name"] for w in spec["workloads"]]:
        rc, lines, last = bench(workload, "--trace", "0")
        shown = metric_lines(lines)
        expect(f"{workload}: smoke run exits 0 with every check passed",
               rc == 0 and last.get("correct") is True and last.get("failed") == 0)
        expect(f"{workload}: every end-to-end metric printed with its unit",
               all(shown.get(n, (0, ""))[1] == u for n, u in end_to_end.items())
               and {n: m["unit"] for n, m in last.get("metrics", {}).items()} == end_to_end)
        expect(f"{workload}: failed_frac printed and 0",
               shown.get("failed_frac", (1, ""))[0] == 0)

        rc, lines, last = bench(workload, "--trace", "1")
        expect(f"{workload}: traced run prints every per-layer metric",
               rc == 0 and set(last.get("metrics", {})) == per_layer)

        rc, lines, last = bench(workload, "--trace", "0", "--corrupt", CORRUPTION[workload])
        frac = metric_lines(lines).get("failed_frac", (0, ""))[0]
        expect(f"{workload}: damaged {CORRUPTION[workload]} gives failed_frac {frac:.3g} > 0 "
               f"and exit {rc} != 0",
               rc != 0 and frac > 0 and last.get("correct") is False)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
