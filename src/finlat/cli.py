"""File-based command line front door.

Lattices travel as JSON objects {"name": str, "elements": [str, ...],
"covers": [[lower, upper], ...]}, optionally carrying {"sub": [str, ...]}
for sublattice-bearing commands.  Reports are JSON on stdout; human
progress lines go to stderr.  Exit codes: 0 success, 1 domain error,
2 refuted verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import dataclass

from . import chains, checks, core, oracle, retractions, slim

__all__ = ["ParseError", "LatticeFile", "run", "main"]


class ParseError(core.LatticeError):
    pass


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting the process
        raise _CliError(message)


def _decode_json(data: bytes, path: str | None = None):
    """Decode one JSON document; every way it can fail is a `ParseError`.

    With a path, the message is the path and the decoder's own text;
    without one, a lattice file's message names the fault and its position.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            detail = "JSON nested too deeply"
        elif path is not None:
            detail = str(exc)
        elif isinstance(exc, UnicodeDecodeError):
            detail = f"not UTF-8: {exc}"
        else:
            detail = f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        raise ParseError(detail if path is None else f"{path}: {detail}") from exc


@dataclass
class LatticeFile:
    """A named lattice presentation, optionally with a marked subset."""

    name: str
    lattice: core.FiniteLattice
    sub: tuple[str, ...] | None = None

    @classmethod
    def parse(cls, data: bytes) -> "LatticeFile":
        obj = _decode_json(data)
        if not isinstance(obj, dict):
            raise ParseError("top level must be an object")
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise ParseError("name must be a string")
        elements = obj.get("elements")
        covers = obj.get("covers")
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise ParseError("elements must be a list of strings")
        if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(isinstance(e, str) for e in c)
            for c in covers
        ):
            raise ParseError("covers must be a list of [lower, upper] string pairs")
        sub = obj.get("sub")
        if sub is not None:
            if not isinstance(sub, list) or not all(isinstance(e, str) for e in sub):
                raise ParseError("sub must be a list of strings")
            sub = tuple(sub)
        lattice = core.build_lattice(elements, [tuple(c) for c in covers])
        return cls(name=name, lattice=lattice, sub=sub)


def lattice_to_jsonable(name: str, lattice: core.FiniteLattice, sub=None) -> dict:
    out = {
        "name": name,
        "elements": list(lattice.elements),
        "covers": sorted([lo, hi] for lo, hi in lattice.covers),
    }
    if sub is not None:
        out["sub"] = sorted(sub)
    return out


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    return _decode_json(_read_file(path), path)


def _load(path: str) -> LatticeFile:
    return LatticeFile.parse(_read_file(path))


def _load_sub(args, main: LatticeFile) -> tuple[str, ...]:
    if getattr(args, "sub", None):
        obj = _read_json(args.sub)
        if isinstance(obj, dict) and isinstance(obj.get("sub"), list):
            obj = obj["sub"]
        if not isinstance(obj, list):
            raise ParseError("sub file must be a JSON list or an object with a sub field")
        if not all(isinstance(x, str) for x in obj):
            raise ParseError("sub must be a list of strings")
        return tuple(obj)
    if main.sub is not None:
        return main.sub
    raise ParseError("no sublattice given: pass --sub or embed a sub field")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> tuple[dict, int]:
    lf = _load(args.file)
    report = core.classify_properties(lf.lattice)
    return (
        {
            "command": "analyze",
            "name": lf.name,
            "properties": vars(report),  # its fields in order; asdict would deep-copy each
        },
        0,
    )


def _cmd_dim(args) -> tuple[dict, int]:
    lf = _load(args.file)
    return (
        {"command": "dim", "name": lf.name, "dimension": chains.order_dimension(lf.lattice)},
        0,
    )


def _cmd_embed_grid(args) -> tuple[dict, int]:
    lf = _load(args.file)
    emb = chains.grid_embed(lf.lattice)
    target_name = "grid-" + "x".join(str(s) for s in emb.target.factor_sizes)
    return (
        {
            "command": "embed-grid",
            "name": lf.name,
            "factor_sizes": list(emb.target.factor_sizes),
            "target": lattice_to_jsonable(target_name, emb.target.lattice),
            "map": dict(sorted(emb.mapping.items())),
            "coordinate_chains": [list(c) for c in emb.coordinate_chains],
        },
        0,
    )


def _cmd_retract(args) -> tuple[dict, int]:
    lf = _load(args.file)
    sub = _load_sub(args, lf)
    hom, nodes = oracle.search_retraction(lf.lattice, sub)
    if hom is None:
        return (
            {
                "command": "retract",
                "name": lf.name,
                "retraction_exists": False,
                "search_nodes": nodes,
            },
            2,
        )
    return (
        {
            "command": "retract",
            "name": lf.name,
            "retraction_exists": True,
            "map": dict(sorted(hom.mapping.items())),
            "search_nodes": nodes,
        },
        0,
    )


def _cmd_classify(args) -> tuple[dict, int]:
    lf = _load(args.file)
    cls = retractions.ClassId.parse(args.klass)
    verdict = retractions.classify_absolute_retract(lf.lattice, cls)
    payload: dict = {
        "command": "classify",
        "name": lf.name,
        "class": str(cls),
        "verdict": "absolute-retract" if verdict.is_absolute_retract else "not-absolute-retract",
    }
    if not verdict.is_absolute_retract:
        witness: dict = {
            "case": verdict.case,
            "lattice": lattice_to_jsonable(f"{lf.name}-witness", verdict.witness),
            "embedding": dict(sorted(verdict.embedding.items())),
        }
        cert = verdict.certificate
        if cert is not None:
            witness["certificate"] = {
                "proper": cert.proper,
                **vars(cert.cover01),
                "oracle_confirmed": cert.oracle_confirmed,
            }
        if verdict.search_nodes is not None:
            witness["search_nodes"] = verdict.search_nodes
        payload["witness"] = witness
    return payload, 0


def _cmd_witness_sps(args) -> tuple[dict, int]:
    lf = _load(args.file)
    script = None
    if args.forks:
        script = slim.ForkScript.from_jsonable(_read_json(args.forks))
    report = slim.build_witness(lf.lattice, script=script, max_size=args.max_size)
    return (
        {
            "command": "witness-sps",
            "name": lf.name,
            "m": report.m,
            "n": report.n,
            "t": report.t,
            "script": report.script.to_jsonable(),
            "rectangular": lattice_to_jsonable(f"{lf.name}-rect", report.rectangular.lattice),
            "extension": lattice_to_jsonable(f"{lf.name}-ext", report.extension.lattice),
            "embedded_copy": dict(sorted(report.embedded_copy.items())),
            "inner_coatoms": list(report.inner_coatoms),
            "coatom_meet": report.coatom_meet,
            "retraction_found": report.retraction_found,
            "search_nodes": report.search_nodes,
            "congruence_pairs_checked": len(report.congruence_trace),
        },
        0,
    )


def _cmd_gen_slim(args) -> tuple[dict, int]:
    # int() alone would also take '_', spaces and non-ASCII digits.
    shape = re.fullmatch(r"([0-9]+)[xX]([0-9]+)", args.grid)
    if shape is None:
        raise ParseError(f"bad --grid {args.grid!r}, expected MxN")
    m, n = int(shape[1]), int(shape[2])
    steps: tuple[tuple[str, str], ...] = ()
    if args.forks:
        script = slim.ForkScript.from_jsonable(_read_json(args.forks))
        if tuple(script.base_sizes) != (m + 1, n + 1):
            raise ParseError("fork script base sizes disagree with --grid")
        steps = script.steps
    script = slim.ForkScript((m + 1, n + 1), steps)
    built = slim.build_slim_rectangular(script)
    name = f"slim-{m}x{n}" + (f"+{len(steps)}forks" if steps else "")
    return (
        {
            "command": "gen-slim",
            "lattice": lattice_to_jsonable(name, built.lattice),
            "script": script.to_jsonable(),
        },
        0,
    )


# ---------------------------------------------------------------------------
# oracle-verify suites
# ---------------------------------------------------------------------------


def _cmd_oracle_verify(args) -> tuple[dict, int]:
    if args.suite != "all" and args.suite not in checks.SUITES:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(checks.SUITES))}, all"
        )
    if args.max_size < 1:
        raise ParseError(f"--max-size must be at least 1, got {args.max_size}")
    names = sorted(checks.SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    results = []
    for name in names:
        for result in checks.SUITES[name](args.max_size, rng):
            print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}", file=sys.stderr)
            results.append(result._asdict())
    passed = all(r["passed"] for r in results)
    return (
        {
            "command": "oracle-verify",
            "suite": args.suite,
            "checks": results,
            "passed": passed,
        },
        0 if passed else 2,
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _ascii_int(text: str) -> int:
    # int() alone would also take '_', spaces and non-ASCII digits.
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="finlat", description="finite lattice computations")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("analyze", help="structural predicates of a lattice file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = commands.add_parser("dim", help="order dimension of a distributive lattice")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dim)

    p = commands.add_parser("embed-grid", help="cover-preserving {0,1} grid embedding")
    p.add_argument("file")
    p.set_defaults(func=_cmd_embed_grid)

    p = commands.add_parser("retract", help="find or refute a retraction onto a sublattice")
    p.add_argument("file")
    p.add_argument("--sub", help="JSON file naming the sublattice")
    p.set_defaults(func=_cmd_retract)

    p = commands.add_parser("classify", help="absolute-retract classification")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", required=True,
                   help="dfin:<n>, dfin:omega, dcov:<n>, or sps")
    p.set_defaults(func=_cmd_classify)

    p = commands.add_parser("witness-sps", help="non-retract witness for a slim semimodular lattice")
    p.add_argument("file")
    p.add_argument("--forks", help="optional fork script for the rectangular extension")
    p.add_argument("--max-size", type=_ascii_int, default=None,
                   help="bound for the rectangular extension search")
    p.set_defaults(func=_cmd_witness_sps)

    p = commands.add_parser("gen-slim", help="replay a fork script over a grid")
    p.add_argument("--grid", required=True, help="MxN base grid")
    p.add_argument("--forks", help="JSON fork script")
    p.set_defaults(func=_cmd_gen_slim)

    p = commands.add_parser("oracle-verify", help="run the exhaustive checks of finlat.checks")
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(sorted(checks.SUITES))}, all")
    p.add_argument("--max-size", type=_ascii_int, default=5)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.set_defaults(func=_cmd_oracle_verify)

    return parser


def run(argv: list[str]) -> tuple[dict, int]:
    """Parse arguments, execute one command, and return (report, exit code)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        return {"error": str(exc)}, 1
    try:
        return args.func(args)
    except core.LatticeError as exc:
        return {
            "command": args.command,
            "error": f"{type(exc).__name__}: {exc}",
        }, 1


def main(argv=None) -> None:
    report, code = run(sys.argv[1:] if argv is None else argv)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
