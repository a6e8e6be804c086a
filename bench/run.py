"""finlat benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one caller: repetitions of the workload run one after another,
each in a fresh interpreter (``bench/rep.py``), until the next one would
end after ``--seconds``; at least one always runs.  Every metric is the
median over the repetitions; ``setup_s`` is the median of at least three
set-ups, topped up by set-up-only repetitions.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones (see
``bench/tracer.py``) with ``--trace 1``.  The lines before it give the
provenance of the run, each repetition, and every failure by name.
Exits 1 when a check fails and 2 when the checkout holds no finlat sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("retract-sweep", "certify-search", "enumerate", "cli-corpus")
END_TO_END = {"wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# A run must end within 180 s; a repetition still running at this point is killed.
HARD_LIMIT_S = 170
# Set-up is measured at least this often per run, by set-up-only repetitions
# when fewer full ones fit in the run.
MIN_SETUPS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def run_repetition(args, timeout: float, setup_only: bool = False) -> dict | None:
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--size", args.size, "--spawned-at", repr(time.monotonic()),
    ] + ["--setup-only"] * setup_only
    # A fixed hash seed keeps set iteration order, and so the search order
    # inside the library, the same in every repetition.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def aggregate(reps: list[dict], setups: list[float], trace: bool) -> dict:
    median = statistics.median
    if not trace:
        metrics = {name: {"value": median(r[name] for r in reps), "unit": unit} for name, unit in END_TO_END.items()}
        metrics["setup_s"]["value"] = median(setups)
        return metrics
    from tracer import layer_metrics

    def layer_value(rep: dict, name: str) -> float:
        layer, _, field = name.rpartition(".")
        value = rep["layers"].get(layer, {}).get(field, 0)
        # Self times get the repetition's host-speed scaling, like wall_s.
        return value * rep["wall_s"] / rep["raw_wall_s"] if field == "self_s" else value

    metrics = {}
    for name, unit in layer_metrics():
        metrics[name] = {"value": median(layer_value(r, name) for r in reps), "unit": unit}
    metrics["traced.wall_s"] = {"value": median(r["wall_s"] for r in reps), "unit": "s"}
    metrics["cli.probes.crashed"] = {
        "value": median(sum(outcome != "ok" for outcome in r["probes"].values()) for r in reps),
        "unit": "count",
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the harness's own test")
    args = parser.parse_args()

    if not (ROOT / "src" / "finlat" / "__init__.py").is_file():
        print(f"no finlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance(args.seed), "workload": args.workload, "trace": args.trace}))
    start = time.monotonic()
    reps: list[dict] = []
    longest = 0.0
    crashed = False
    while True:
        rep_start = time.monotonic()
        rep = run_repetition(args, HARD_LIMIT_S - (rep_start - start))
        if rep is None:
            crashed = True
            break
        reps.append(rep)
        longest = max(longest, time.monotonic() - rep_start)
        print(json.dumps({"repetition": len(reps), **{k: v for k, v in rep.items() if k != "layers"}}))
        if time.monotonic() + longest > start + args.seconds:
            break

    setups = [rep["setup_s"] for rep in reps]
    while not crashed and not args.trace and len(setups) < MIN_SETUPS:
        extra = run_repetition(args, HARD_LIMIT_S - (time.monotonic() - start), setup_only=True)
        if extra is None:
            crashed = True
        else:
            print(json.dumps({"setup_only": True, **extra}))
            setups.append(extra["setup_s"])

    failures = [f for rep in reps for f in rep["failures"]]
    for failure in failures[:50]:
        print(f"FAIL {failure}")
    for probe, outcome in (reps[-1]["probes"] if reps else {}).items():
        print(f"probe {probe}: {outcome}")
    attempted = sum(rep["items"] for rep in reps) + crashed
    correct = bool(reps) and not crashed and not failures
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": min(len(failures) + crashed, max(attempted, 1)),
        "metrics": aggregate(reps, setups, bool(args.trace)) if reps else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
