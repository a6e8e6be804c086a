"""The cli-corpus workload: a seeded corpus of lattice files run through
``finlat.cli.run`` in-process, each report serialised as ``finlat.cli.main``
does.

Every report is checked for meaning (see ``_check_report``).  For the
default seed at full size each report is also compared with a stored
SHA-256 digest, taken after dropping ``search_nodes``, a count a faster
search may legitimately change.  Five robustness probes, inputs that the
seed commit answers with a traceback instead of a JSON report, run after
the timed items so their time stays out of the latency figures.

``python3 bench/cli_corpus.py`` rewrites the stored digests from the
library as it is; do so only for a change meant to alter the reports.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import finlat  # noqa: E402
from finlat import cli  # noqa: E402
from reference import Presentation  # noqa: E402
from workloads import Item, Workload, gate  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("cli_digests.json")


def json_dump(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _invoke(argv: list[str]) -> tuple[int, str]:
    report, code = cli.run(argv)
    return code, json_dump(report)


def _strip_nodes(value):
    if isinstance(value, dict):
        return {k: _strip_nodes(v) for k, v in value.items() if k != "search_nodes"}
    if isinstance(value, list):
        return [_strip_nodes(v) for v in value]
    return value


def report_digest(text: str) -> str:
    return hashlib.sha256(json_dump(_strip_nodes(json.loads(text))).encode()).hexdigest()


def _chain(n: int):
    ids = [f"c{i:04d}" for i in range(n)]
    return finlat.build_lattice(ids, list(zip(ids, ids[1:])))


def _s7():
    square = finlat.oriented_grid(1, 1)
    return finlat.add_fork(square, square.cells()[0]).lattice


def _grid_properties(sizes: tuple[int, ...]) -> dict:
    """What ``analyze`` must say about a product of chains of these sizes."""
    length = sum(s - 1 for s in sizes)
    return {
        "distributive": True,
        "semimodular": True,
        "boolean": all(s == 2 for s in sizes),
        "slim": len(sizes) <= 2,
        "length": length,
        "join_irreducible_count": length,
    }


# Eighteen-element grids make the retract calls slower than most calls on
# small lattices, so where the seed's choices land moves the median less.
RETRACT_GRIDS = ((3, 6), (2, 9), (2, 3, 3))


def _generated(lattice, generators) -> frozenset:
    """The sublattice generated by some elements."""
    sub = frozenset(generators)
    while True:
        grown = sub | {op(x, y) for x in sub for y in sub for op in (lattice.join, lattice.meet)}
        if grown == sub:
            return sub
        sub = grown


def _fork_script(rng: random.Random, m: int, n: int) -> dict:
    ol = finlat.oriented_grid(m, n)
    steps = []
    for _ in range(rng.randint(1, 3)):
        cells = ol.cells()
        cell = cells[rng.randrange(len(cells))]
        steps.append([cell.top, cell.left])
        ol = finlat.add_fork(ol, cell)
    return {"base_sizes": [m + 1, n + 1], "steps": steps}


def cli_corpus(seed: int, sizes: dict, workdir: Path) -> Workload:
    rng = random.Random(seed)
    items: list[Item] = []

    def write(name: str, lattice, sub=None) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cli.lattice_to_jsonable(name, lattice, sub)))
        return str(path)

    def add(kind: str, argv: list[str], expect=None):
        name = " ".join(Path(a).stem if a.endswith(".json") else a for a in argv)
        items.append(Item(kind, name, partial(_invoke, argv), expect))

    small = list(finlat.enumerate_small_lattices(sizes["small_max"]))
    for i, lattice in enumerate(small):
        path = write(f"L{i}", lattice)
        add("analyze", ["analyze", path], Presentation(lattice.elements, sorted(lattice.covers)))
        if finlat.is_distributive(lattice):
            add("dim", ["dim", path], lattice)
            add("embed-grid", ["embed-grid", path], lattice)

    for n in sizes["chains"]:
        chain = _chain(n)
        path = write(f"C{n}", chain)
        add("analyze", ["analyze", path], _grid_properties((n,)))
        add("dim", ["dim", path], chain)
        add("embed-grid", ["embed-grid", path], chain)
        add("classify", ["classify", path, "--class", "dfin:omega"], (chain, False))

    for factors in sizes["grids"]:
        grid = finlat.make_grid(factors).lattice
        path = write("G" + "x".join(map(str, factors)), grid)
        boolean = all(s == 2 for s in factors)
        add("analyze", ["analyze", path], _grid_properties(factors))
        add("embed-grid", ["embed-grid", path], grid)
        add("classify", ["classify", path, "--class", f"dfin:{len(factors)}"], (grid, True))
        add("classify", ["classify", path, "--class", "dfin:omega"], (grid, boolean))

    for k in range(sizes["fork_scripts"]):
        script = _fork_script(rng, 3, 3)
        path = workdir / f"forks{k}.json"
        path.write_text(json.dumps(script))
        add("gen-slim", ["gen-slim", "--grid", "3x3", "--forks", str(path)], 6 + len(script["steps"]))

    witnesses = {
        "C2": lambda: _chain(2),
        "C3": lambda: _chain(3),
        "B2": lambda: finlat.make_grid((2, 2)).lattice,
        "S7": _s7,
    }
    for name in sizes["witness"]:
        add("witness-sps", ["witness-sps", write(name, witnesses[name]())])

    for k in range(sizes["retracts"]):
        ambient = finlat.make_grid(RETRACT_GRIDS[rng.randrange(len(RETRACT_GRIDS))]).lattice
        sub = frozenset()
        while not 1 < len(sub) < len(ambient):
            sub = _generated(ambient, rng.sample(ambient.elements, rng.randint(2, 3)))
        add("retract", ["retract", write(f"R{k}", ambient, sub)], (ambient, sub))

    probes = _probes(workdir, sizes["probe_chain"])

    digests = None
    if seed == DEFAULT_SEED and sizes.get("digests"):
        digests = json.loads(DIGESTS.read_text())

    def check(results):
        failures = []
        for item, (code, text) in results:
            problem = _check_report(item, code, text)
            if problem is None and digests is not None and digests.get(item.name) != report_digest(text):
                problem = "report differs from the stored digest"
            if problem is not None:
                failures.append(f"{item.name}: {problem}")
        gate(failures, sizes, "expect_items", len(items))
        return failures

    return Workload(items, check, probes)


def _probes(workdir: Path, chain_size: int) -> list[Item]:
    """The inputs the seed commit answers with a traceback."""
    ids = [f"c{i:04d}" for i in range(chain_size)]
    big_chain = workdir / f"C{chain_size}.json"
    big_chain.write_text(json.dumps({"name": big_chain.stem, "elements": ids, "covers": list(zip(ids, ids[1:]))}))
    scripts = {
        "forks-ab": {"base_sizes": "ab", "steps": []},
        "forks-short-step-3x3": {"base_sizes": [3, 3], "steps": [[1]]},
        "forks-short-step-4x4": {"base_sizes": [4, 4], "steps": [[1]]},
    }
    paths = {}
    for name, script in scripts.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(script))
    c3 = workdir / "probe-C3.json"
    c3.write_text(json.dumps(cli.lattice_to_jsonable("C3", _chain(3))))
    argvs = {
        'witness-sps --forks {"base_sizes": "ab"}': ["witness-sps", str(c3), "--forks", str(paths["forks-ab"])],
        'witness-sps --forks {"steps": [[1]]}': ["witness-sps", str(c3), "--forks", str(paths["forks-short-step-3x3"])],
        'gen-slim --forks {"steps": [[1]]}': ["gen-slim", "--grid", "3x3", "--forks", str(paths["forks-short-step-4x4"])],
        "oracle-verify --suite congruence-bound --max-size 0": ["oracle-verify", "--suite", "congruence-bound", "--max-size", "0"],
        f"analyze {big_chain.stem}": ["analyze", str(big_chain)],
    }
    return [Item("probe", name, partial(_invoke, argv)) for name, argv in argvs.items()]


def _check_report(item: Item, code: int, text: str) -> str | None:
    """Why a report is wrong, or None when it says what the input implies."""
    if code not in (0, 1, 2):
        return f"exit code {code}"
    report = json.loads(text)
    kind, expect = item.kind, item.expect
    if kind == "analyze":
        want = expect.properties() if isinstance(expect, Presentation) else expect
        if code != 0 or report["properties"] != want:
            return f"properties {report.get('properties')} != {want}"
    elif kind in ("dim", "embed-grid"):
        if len(expect) == 1:
            if code == 1 and report["error"].startswith("TrivialLattice"):
                return None
            return "the one-element lattice was not refused as trivial"
        ref = Presentation(expect.elements, sorted(expect.covers))
        dimension = ref.width(ref.join_irreducibles())
        if code != 0:
            return f"exit code {code}: {report.get('error')}"
        if kind == "dim":
            return None if report["dimension"] == dimension else f"dimension {report['dimension']} != {dimension}"
        return _check_embedding(expect, report, dimension)
    elif kind == "classify":
        lattice, absolute = expect
        verdict = "absolute-retract" if absolute else "not-absolute-retract"
        if code != 0 or report["verdict"] != verdict:
            return f"verdict {report.get('verdict')} != {verdict}"
        if not absolute:
            witness = report["witness"]
            target = finlat.build_lattice(witness["lattice"]["elements"], witness["lattice"]["covers"])
            hom = finlat.Homomorphism(lattice, target, witness["embedding"])
            if not (hom.injective and len(target) > len(lattice)):
                return "witness is not a proper extension"
    elif kind == "retract":
        ambient, sub = expect
        if code == 0:
            hom = finlat.Homomorphism(ambient, finlat.induced_lattice(ambient, sub), report["map"])
            if not (hom.fixes(sub) and hom.is_retraction()):
                return "map is not a retraction onto the sublattice"
        elif code == 2:
            system = finlat.build_equation_system(ambient, sub)
            if finlat.solve_equation_system(system) is not None:
                return "refuted, but the equation system has a solution"
        else:
            return f"exit code {code}: {report.get('error')}"
    elif kind == "witness-sps":
        if code != 0 or report["retraction_found"] is not False:
            return f"retraction_found is {report.get('retraction_found')}"
    elif kind == "gen-slim":
        if code != 0:
            return f"exit code {code}: {report.get('error')}"
        lattice = report["lattice"]
        props = Presentation(lattice["elements"], lattice["covers"]).properties()
        if not (props["slim"] and props["semimodular"] and props["length"] == expect):
            return f"not slim semimodular of length {expect}: {props}"
    return None


def _check_embedding(lattice, report: dict, dimension: int) -> str | None:
    target_json = report["target"]
    target = finlat.build_lattice(target_json["elements"], target_json["covers"])
    factors = report["factor_sizes"]
    if len(factors) != dimension or finlat.grid_factor_sizes(target) != tuple(sorted(factors, reverse=True)):
        return f"target is not a {dimension}-dimensional grid with factors {factors}"
    hom = finlat.Homomorphism(lattice, target, report["map"])
    if not (hom.injective and finlat.check_cover01(hom).is_cover01):
        return "map is not a cover-preserving {0,1}-embedding"
    return None


SIZES = {
    "full": {
        "small_max": 7, "chains": (40, 80, 120),
        "grids": ((8, 8), (10, 10), (4, 4, 4), (3, 3, 3, 3), (2, 2, 2, 2, 2, 2)),
        "fork_scripts": 10, "witness": ("C2", "C3", "B2", "S7"), "retracts": 10,
        "probe_chain": 1200, "expect_items": 176, "digests": True,
    },
    "smoke": {
        "small_max": 4, "chains": (12,), "grids": ((3, 3),), "fork_scripts": 2,
        "witness": ("C2",), "retracts": 2, "probe_chain": 1200, "expect_items": 28, "digests": False,
    },
}


def write_digests():
    """Store the report digests of the current library at the default seed."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        workload = cli_corpus(DEFAULT_SEED, {**SIZES["full"], "digests": False}, Path(tmp))
        digests = {item.name: report_digest(item.call()[1]) for item in workload.items}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_digests()
