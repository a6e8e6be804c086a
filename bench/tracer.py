"""Per-layer tracing from the harness side.

Wraps the public entry points of each finlat module, records a span per
call (per ``next()`` for generators) and accumulates call counts and self
time: a span's duration minus the time its child spans cover.  Nothing
inside ``src/`` is changed; the wrappers are installed by rebinding names
and removed again by :meth:`Tracer.uninstall`.

The ``FiniteLattice`` accessors (``join``, ``meet``, ``leq``, ...) are left
unwrapped on purpose: the workloads make tens of millions of such calls,
and a span around each would swamp what it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (stat name, module, attribute) for every wrapped entry point.  Several
# attributes may share a stat name; classes are wrapped at __init__, and
# a "Class.method" attribute wraps a classmethod.  cli.json_dump is the
# harness's own serialisation step, done the way ``finlat.cli.main`` does it.
ENTRY_POINTS = [
    ("core.FiniteLattice", "finlat.core", "FiniteLattice"),
    *(
        ("core.predicates", "finlat.core", name)
        for name in (
            "is_distributive",
            "is_semimodular",
            "is_boolean",
            "is_slim",
            "classify_properties",
            "grid_factor_sizes",
            "join_irreducibles",
            "lattice_length",
            "four_cells",
        )
    ),
    ("core.induced_lattice", "finlat.core", "induced_lattice"),
    ("core.check_sublattice", "finlat.core", "check_sublattice"),
    ("chains.grid_embed", "finlat.chains", "grid_embed"),
    ("chains.order_dimension", "finlat.chains", "order_dimension"),
    ("chains.min_chain_cover", "finlat.chains", "min_chain_cover"),
    ("grids.Grid", "finlat.grids", "Grid"),
    ("grids.recover_subgrid_chains", "finlat.grids", "recover_subgrid_chains"),
    ("grids.dimension_bump", "finlat.grids", "dimension_bump"),
    ("retractions.Homomorphism", "finlat.retractions", "Homomorphism"),
    ("retractions.Congruence", "finlat.retractions", "Congruence"),
    ("retractions.retract_onto", "finlat.retractions", "retract_onto"),
    ("retractions.classify_absolute_retract", "finlat.retractions", "classify_absolute_retract"),
    ("retractions.check_cover01", "finlat.retractions", "check_cover01"),
    ("oracle.search_retraction", "finlat.oracle", "search_retraction"),
    ("oracle.build_equation_system", "finlat.oracle", "build_equation_system"),
    ("oracle.solve_equation_system", "finlat.oracle", "solve_equation_system"),
    ("oracle.congruence_generated_by", "finlat.oracle", "congruence_generated_by"),
    ("oracle.find_embedding", "finlat.oracle", "find_embedding"),
    ("oracle.all_sublattices", "finlat.oracle", "all_sublattices"),
    ("oracle.enumerate_distributive_lattices", "finlat.oracle", "enumerate_distributive_lattices"),
    ("oracle.enumerate_small_lattices", "finlat.oracle", "enumerate_small_lattices"),
    ("oracle.is_isomorphic", "finlat.oracle", "is_isomorphic"),
    ("oracle.canonical_key", "finlat.oracle", "canonical_key"),
    ("slim.OrientedLattice", "finlat.slim", "OrientedLattice"),
    ("slim.add_fork", "finlat.slim", "add_fork"),
    ("slim.find_rectangular_extension", "finlat.slim", "find_rectangular_extension"),
    ("slim.build_witness", "finlat.slim", "build_witness"),
    ("slim.s7_family", "finlat.slim", "s7_family"),
    ("cli.run", "finlat.cli", "run"),
    ("cli.LatticeFile.parse", "finlat.cli", "LatticeFile.parse"),
    ("cli.json_dump", "cli_corpus", "json_dump"),
]

# Generators report self time and items yielded instead of calls.
GENERATORS = {
    "oracle.all_sublattices",
    "oracle.enumerate_distributive_lattices",
    "oracle.enumerate_small_lattices",
}


def _count_elements(stats, args, result):
    stats["elements"] += len(args[0].elements)


def _count_nodes(stats, args, result):
    stats["nodes"] += result[1]


def _distinct_inputs(stats, args, result):
    stats.setdefault("_inputs", set()).add(args[0])
    stats["distinct_inputs"] = len(stats["_inputs"])


def _count_bytes(stats, args, result):
    stats["bytes"] += len(result)


# Extra counters recorded at a boundary, from its arguments and result.
COUNTERS = {
    "core.FiniteLattice": ("elements", _count_elements),
    "oracle.search_retraction": ("nodes", _count_nodes),
    "chains.grid_embed": ("distinct_inputs", _distinct_inputs),
    "cli.json_dump": ("bytes", _count_bytes),
}

UNITS = {"self_s": "s", "bytes": "bytes"}


def layer_metrics() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer figure a traced run reports."""
    metrics = []
    for name in dict.fromkeys(name for name, _, _ in ENTRY_POINTS):
        fields = ["self_s", "yielded"] if name in GENERATORS else ["calls", "self_s"]
        if name in COUNTERS:
            fields.append(COUNTERS[name][0])
        metrics += [(f"{name}.{field}", UNITS.get(field, "count")) for field in fields]
    return metrics


class Tracer:
    """Span stack plus per-name accumulators; one instance per process."""

    def __init__(self):
        self.stats: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self._children: list[float] = []  # child time covered, per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self):
        self._children.append(0.0)
        return perf_counter()

    def _close(self, name: str, start: float) -> dict:
        elapsed = perf_counter() - start
        covered = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        stats = self.stats[name]
        stats["self_s"] += elapsed - covered
        return stats

    def wrap(self, name: str, fn, counter=None):
        """A traced version of ``fn``; generators get one span per next()."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.stats[name]["calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    start = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stats = self._close(name, start)
                    stats["yielded"] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = self._close(name, start)
                stats["calls"] += 1
            if counter is not None:
                counter(stats, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every entry point, rebinding it in each namespace that binds it."""
        finlat_modules = [m for n, m in sys.modules.items() if n == "finlat" or n.startswith("finlat.")]
        for name, module, attr in ENTRY_POINTS:
            owner = sys.modules[module]
            counter = COUNTERS.get(name, (None, None))[1]
            head, _, method = attr.partition(".")
            target = getattr(owner, head)
            if method:
                fn = target.__dict__[method].__func__
                self._set(target, method, classmethod(self.wrap(name, fn, counter)))
            elif inspect.isclass(target):
                self._set(target, "__init__", self.wrap(name, target.__init__, counter))
            else:
                wrapped = self.wrap(name, target, counter)
                for ns in dict.fromkeys([owner, *finlat_modules]):
                    for key, value in list(vars(ns).items()):
                        if value is target:
                            self._set(ns, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            name: {k: v for k, v in stats.items() if not k.startswith("_")}
            for name, stats in self.stats.items()
        }
