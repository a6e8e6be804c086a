"""Smoke test of the benchmark harness itself, at reduced sizes.

    python3 bench/smoke.py

Checks that
- every workload, traced and untraced, ends with a result line that names
  exactly the metrics of BENCHMARK.json, each with its unit, and passes;
- every correctness gate (each ``expect_*`` size entry) fails when given a
  wrong expected count;
- the harness exits non-zero without a result when the checkout holds
  only BENCHMARK.json and the benchmark directory.
Exits 1 and names each failed check.  Not collected by pytest on purpose:
it starts benchmark processes and takes about 15 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402  (puts the checkout's src on sys.path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(problems: list[str]):
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{label}: not correct: {result}")
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = {k: v for k, v in want.items() if got.get(k) != v}
                extra = {k: v for k, v in got.items() if want.get(k) != v}
                problems.append(f"{label}: metrics differ; expected {missing}, emitted {extra}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")


def _wrong(value):
    """The expected count off by one, in its first entry for a sequence or table."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: value[key] + 1}
    if isinstance(value, tuple):
        return (value[0] + 1, *value[1:])
    return value + 1


def check_gates(problems: list[str]):
    workdir = ROOT / ".bench_work" / "smoke"
    for workload, sizes in rep.SIZES.items():
        for key in [k for k in sizes["smoke"] if k.startswith("expect_")]:
            wrong = {**sizes["smoke"], key: _wrong(sizes["smoke"][key])}
            workdir.mkdir(parents=True)
            try:
                clock = rep.HostClock()
                result = rep.repetition(workload, 0, wrong, None, workdir, clock, clock.now())
            finally:
                shutil.rmtree(workdir)
            if not any(f.startswith(f"gate {key}:") for f in result["failures"]):
                problems.append(f"{workload}: gate {key} passed a wrong expected count")


def check_missing_sources(problems: list[str]):
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")


def main() -> int:
    problems: list[str] = []
    check_metrics(problems)
    check_gates(problems)
    check_missing_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
