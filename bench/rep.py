"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so that no cache the
library keeps in module state (``oracle._canon_cache`` today) carries from
one repetition into the next; a CLI or certification user pays for a cold
process on every run too.  It prints one JSON line with the figures of
the repetition.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1 --size full|smoke --spawned-at T [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
start, so set-up time covers interpreter start, ``import finlat`` and
input generation up to the first timed item.  With ``--setup-only`` the
repetition stops there and reports only its set-up time.

Times are scaled to a reference host speed; see ``hostclock.py``.  The
unscaled figures are reported alongside, as ``raw_*``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import finlat  # noqa: E402
import cli_corpus  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {**workloads.WORKLOADS, "cli-corpus": cli_corpus.cli_corpus}
SIZES = {**workloads.SIZES, "cli-corpus": cli_corpus.SIZES}


def repetition(name: str, seed: int, sizes: dict, tracer: Tracer | None, workdir: Path,
               clock: HostClock, spawned: tuple[float, float], setup_only: bool = False) -> dict:
    """Set up and run one workload; ``spawned`` is the clock mark of the start."""
    build = WORKLOADS[name]
    with clock:
        workload = build(seed, sizes, workdir) if name == "cli-corpus" else build(seed, sizes)
        spans = [clock.now()]
        results, failures = [], []
        for item in [] if setup_only else workload.items:
            try:
                value = item.call()
            except Exception as exc:  # a crash is a failed item; name its input
                failures.append(f"{item.name} raised {type(exc).__name__}: {exc}")
            else:
                results.append((item, value))
            spans.append(clock.now())
    setup = {"setup_s": clock.scaled(spawned, spans[0]), "raw_setup_s": clock.raw(spawned, spans[0])}
    if setup_only:
        return setup
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = tracer.snapshot()
        tracer.uninstall()

    probes = {}
    for probe in workload.probes:
        try:
            code, _ = probe.call()
        except Exception as exc:  # the probe's purpose: report the crash by type
            probes[probe.name] = type(exc).__name__
        else:
            probes[probe.name] = "ok" if code in (0, 1, 2) else f"exit code {code}"

    failures += workload.check(results)
    latencies = [clock.scaled(a, b) for a, b in zip(spans, spans[1:])]
    return {
        **setup,
        "wall_s": sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1000,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": spans[-1][0] - spans[0][0],
        "calibration_units": clock.units,
        "items": len(latencies),
        "failures": failures,
        "probes": probes,
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(finlat.__file__).resolve().parent != ROOT / "src" / "finlat":
        print(f"imported finlat from {finlat.__file__}, not from this checkout", file=sys.stderr)
        return 2
    clock = HostClock()
    # Set-up starts at the parent's mark; the units taken during set-up
    # scale the interpreter start and imports that precede them too.
    spawned = (clock.now()[0] - (time.monotonic() - args.spawned_at), 0.0)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = ROOT / ".bench_work" / f"rep-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sizes = SIZES[args.workload][args.size]
        result = repetition(args.workload, args.seed, sizes, tracer, workdir, clock, spawned, args.setup_only)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
