import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import finlat
import finlat.core as core
import finlat.grids as grids
from finlat import (
    Homomorphism,
    build_lattice,
    induced_lattice,
    is_isomorphic,
    make_grid,
    oracle,
    s7_family,
)
from finlat.cli import LatticeFile, ParseError, lattice_to_jsonable, main, run
from tests.conftest import S7_COVERS, S7_ELEMENTS


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


C3_FILE = {"name": "C3", "elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]]}
B2_FILE = {
    "name": "B2",
    "elements": ["0", "a", "b", "1"],
    "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
}


def test_parse_lattice_file_roundtrip():
    lattice = LatticeFile.parse(json.dumps(C3_FILE).encode()).lattice
    assert lattice.elements == ("0", "1", "a")
    assert lattice.bottom == "0"


def test_parse_canonical_s7():
    payload = {
        "name": "S7",
        "elements": S7_ELEMENTS,
        "covers": [list(c) for c in S7_COVERS],
    }
    lattice = LatticeFile.parse(json.dumps(payload).encode()).lattice
    assert lattice == build_lattice(S7_ELEMENTS, S7_COVERS)


def test_parse_rejects_missing_endpoint():
    bad = {"name": "x", "elements": ["0"], "covers": [["0", "missing"]]}
    with pytest.raises(Exception):
        LatticeFile.parse(json.dumps(bad).encode())


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError) as info:
        LatticeFile.parse(b"{not json")
    assert "line" in str(info.value)


def test_serializer_sorts_covers():
    lattice = build_lattice(S7_ELEMENTS, S7_COVERS)
    out = lattice_to_jsonable("S7", lattice)
    assert out["covers"] == sorted(out["covers"])
    again = LatticeFile.parse(json.dumps(out).encode())
    assert again.lattice == lattice


def test_analyze_command(tmp_path):
    path = write(tmp_path, "s7.json", {
        "name": "S7",
        "elements": S7_ELEMENTS,
        "covers": [list(c) for c in S7_COVERS],
    })
    report, code = run(["analyze", path])
    assert code == 0
    assert report["properties"]["slim"] is True
    assert report["properties"]["semimodular"] is True
    assert report["properties"]["distributive"] is False
    # reports round-trip through the serializer losslessly
    assert json.loads(json.dumps(report)) == report


def test_dim_command(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    report, code = run(["dim", path])
    assert (report["dimension"], code) == (1, 0)


def test_embed_grid_command(tmp_path):
    d5 = {
        "name": "D5",
        "elements": ["0", "p", "q", "1", "t"],
        "covers": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"], ["1", "t"]],
    }
    path = write(tmp_path, "d5.json", d5)
    report, code = run(["embed-grid", path])
    assert code == 0
    assert report["factor_sizes"] == [3, 2]
    assert report["map"]["t"] == "2,1"
    target = LatticeFile.parse(json.dumps(report["target"]).encode())
    assert len(target.lattice) == 6


def test_embed_grid_adopts_a_parsed_grid_presentation(tmp_path, monkeypatch):
    """A file holding the 3x3 grid's own presentation is parsed into the one
    lattice the command builds: the embedding's target adopts it."""
    path = write(tmp_path, "g33.json", lattice_to_jsonable("G3x3", make_grid((3, 3)).lattice))
    expected = run(["embed-grid", path])
    built = []
    real = core.FiniteLattice.__init__
    monkeypatch.setattr(
        core.FiniteLattice, "__init__", lambda self, *args: built.append(args) or real(self, *args)
    )
    monkeypatch.setattr(grids, "_GRIDS", weakref.WeakValueDictionary())
    assert run(["embed-grid", path]) == expected
    assert len(built) == 1


def test_retract_command_positive(tmp_path):
    payload = dict(C3_FILE, sub=["0", "1"])
    path = write(tmp_path, "c3s.json", payload)
    report, code = run(["retract", path])
    assert code == 0
    assert report["retraction_exists"] is True
    assert report["map"]["a"] in ("0", "1")


def test_retract_command_refutation(tmp_path):
    payload = {
        "name": "B2",
        "elements": ["00", "01", "10", "11"],
        "covers": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]],
        "sub": ["00", "10", "11"],
    }
    path = write(tmp_path, "b2.json", payload)
    report, code = run(["retract", path])
    assert code == 2
    assert report["retraction_exists"] is False


def test_retract_command_sub_flag(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    sub_path = write(tmp_path, "sub.json", {"sub": ["0", "1"]})
    report, code = run(["retract", path, "--sub", sub_path])
    assert code == 0 and report["retraction_exists"]


@pytest.mark.parametrize("sub", [[0, None], {"sub": ["0", 1]}])
def test_retract_command_rejects_non_string_sub_file(tmp_path, sub):
    path = write(tmp_path, "c3.json", C3_FILE)
    sub_path = write(tmp_path, "sub.json", sub)
    report, code = run(["retract", path, "--sub", sub_path])
    assert code == 1
    assert report["error"] == "ParseError: sub must be a list of strings"


@pytest.mark.parametrize("sub", [["a", "b"], ["a", "a", "b"], ["0", "z"]])
def test_retract_command_names_a_non_sublattice_as_given(tmp_path, sub):
    path = write(tmp_path, "b2.json", B2_FILE)
    sub_path = write(tmp_path, "sub.json", sub)
    report, code = run(["retract", path, "--sub", sub_path])
    assert (report, code) == (
        {"command": "retract", "error": f"NotASublattice: {sub!r} is not a sublattice"},
        1,
    )


def test_retract_report_reverifies(tmp_path):
    from finlat import Homomorphism, induced_lattice

    payload = dict(C3_FILE, sub=["0", "1"])
    path = write(tmp_path, "c3s.json", payload)
    report, _ = run(["retract", path])
    lattice = build_lattice(C3_FILE["elements"], [tuple(c) for c in C3_FILE["covers"]])
    hom = Homomorphism(
        lattice, induced_lattice(lattice, {"0", "1"}), report["map"]
    )
    assert hom.is_retraction()
    # a reported refutation re-runs to the same verdict
    again, code = run(["retract", path])
    assert again == report and code == 0


def test_classify_command_positive(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    report, code = run(["classify", path, "--class", "dfin:1"])
    assert code == 0
    assert report["verdict"] == "absolute-retract"


def test_classify_command_witness_reverifies(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    report, code = run(["classify", path, "--class", "dfin:2"])
    assert code == 0
    assert report["verdict"] == "not-absolute-retract"
    witness = LatticeFile.parse(json.dumps(report["witness"]["lattice"]).encode())
    assert len(witness.lattice) == 4
    cert = report["witness"]["certificate"]
    assert cert["proper"] and cert["is_cover01"] and cert["oracle_confirmed"]
    # refutation re-runs to the same verdict through the oracle
    from finlat import search_retraction

    image = set(report["witness"]["embedding"].values())
    assert search_retraction(witness.lattice, image)[0] is None


def test_witness_sps_command(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    report, code = run(["witness-sps", path])
    assert code == 0
    assert report["retraction_found"] is False
    assert report["t"] == 4
    extension = LatticeFile.parse(json.dumps(report["extension"]).encode())
    assert is_isomorphic(extension.lattice, s7_family(4).lattice)


C2_FILE = {"name": "C2", "elements": ["0", "1"], "covers": [["0", "1"]]}
S7_FILE = {"name": "S7", "elements": S7_ELEMENTS, "covers": [list(c) for c in S7_COVERS]}


@pytest.mark.parametrize(
    "payload, expected",
    [
        (C2_FILE, (1, 1, 3, 3)),
        (C3_FILE, (1, 1, 4, 6)),
        (B2_FILE, (1, 1, 5, 10)),
        (S7_FILE, (1, 1, 8, 28)),
    ],
    ids=["C2", "C3", "B2", "S7"],
)
def test_witness_sps_report_sizes_are_pinned(tmp_path, payload, expected):
    """m, n and t of the witness, and one trace pair per inner coatom pair:
    t(t - 1)/2 of them, though fewer congruences are closed."""
    report, code = run(["witness-sps", write(tmp_path, "l.json", payload)])
    assert code == 0
    assert tuple(report[k] for k in ("m", "n", "t", "congruence_pairs_checked")) == expected


def test_witness_sps_max_size_is_bounded_by_the_element_cap(tmp_path):
    """A --max-size far above the cap gives the default report.  Listing
    bases up to that size would take time and memory without end, so the
    fresh process runs under a timeout and a 1 GiB address-space limit."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = write(tmp_path, "c2.json", C2_FILE)
    env = {**os.environ, "PYTHONPATH": str(Path(finlat.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "finlat", "witness-sps", path, "--max-size", "1000000000"],
        capture_output=True, env=env, check=False, timeout=60, preexec_fn=limit_memory,
    )
    report, code = run(["witness-sps", path])
    assert (json.loads(done.stdout), done.returncode) == (json.loads(json.dumps(report)), code)


def test_gen_slim_command(tmp_path):
    report, code = run(["gen-slim", "--grid", "1x1"])
    assert code == 0
    built = LatticeFile.parse(json.dumps(report["lattice"]).encode())
    assert len(built.lattice) == 4


def test_gen_slim_with_forks(tmp_path, s7):
    script = {"base_sizes": [2, 2], "steps": [["1,1", "1,0"]]}
    path = write(tmp_path, "script.json", script)
    report, code = run(["gen-slim", "--grid", "1x1", "--forks", path])
    assert code == 0
    built = LatticeFile.parse(json.dumps(report["lattice"]).encode())
    assert is_isomorphic(built.lattice, s7)


def test_gen_slim_rejects_mismatched_script(tmp_path):
    script = {"base_sizes": [3, 2], "steps": []}
    path = write(tmp_path, "script.json", script)
    report, code = run(["gen-slim", "--grid", "1x1", "--forks", path])
    assert code == 1
    assert "error" in report


@pytest.mark.parametrize("grid", ["1_0x1", " 2 x 3", "٣x٣"])
def test_gen_slim_takes_only_ascii_digit_sides(grid):
    """`int()` accepts these sides; the grid parser does not."""
    report, code = run(["gen-slim", "--grid", grid])
    assert code == 1
    assert report == {
        "command": "gen-slim",
        "error": f"ParseError: bad --grid {grid!r}, expected MxN",
    }
    assert run(["gen-slim", "--grid", "2X3"])[1] == 0


@pytest.mark.parametrize("value", ["1_0", " 9", "٣"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["witness-sps", "C3"], "--max-size"),
        (["oracle-verify", "--suite", "swing"], "--max-size"),
        (["oracle-verify", "--suite", "swing"], "--seed"),
    ],
)
def test_integer_options_take_only_ascii_digits(tmp_path, argv, flag, value):
    """`int()` reads these as 10, 9 and 3; the options refuse them."""
    files = {"C3": write(tmp_path, "c3.json", C3_FILE)}
    report, code = run([files.get(arg, arg) for arg in argv] + [flag, value])
    assert code == 1
    assert report == {"error": f"argument {flag}: invalid int value: {value!r}"}


def test_oracle_verify_suite(tmp_path, capsys):
    report, code = run(["oracle-verify", "--suite", "swing", "--max-size", "4"])
    assert code == 0
    assert report["passed"] is True
    err = capsys.readouterr().err
    assert "PASS" in err


def test_cli_corpus_reports_match_stored_digests(tmp_path, monkeypatch):
    """Every report of the benchmark's CLI corpus, at the default seed and
    full size, matches the digest stored in `bench/cli_digests.json`
    (search node counts dropped).  The corpus module is only loaded and
    read: its `write_digests` is never called."""
    bench = Path(__file__).parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("cli_corpus", bench / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    stored = json.loads(corpus.DIGESTS.read_text())
    sizes = {**corpus.SIZES["full"], "digests": False}
    items = corpus.cli_corpus(corpus.DEFAULT_SEED, sizes, tmp_path).items
    got = {item.name: corpus.report_digest(item.call()[1]) for item in items}
    assert len(items) == len(got) == sizes["expect_items"] == 176
    assert got == stored


def test_oracle_verify_unknown_suite():
    report, code = run(["oracle-verify", "--suite", "bogus"])
    assert code == 1


# stdout, stderr and exit code of every suite at the default size, and of
# --suite all at --max-size 1..8 with seeds 0 and 7, recorded before the
# suites moved into finlat.checks.
GOLDEN = json.loads((Path(__file__).parent / "oracle_verify_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"][1:]))
def test_oracle_verify_matches_golden(case, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out, err) == (case["exit_code"], case["stdout"], case["stderr"])


def test_oracle_verify_names_the_first_failure(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_search", lambda lattice, mask, count_all: (None, 0, 0))
    report, code = run(["oracle-verify", "--suite", "proposition", "--max-size", "3"])
    assert code == 2 and report["passed"] is False
    (check,) = report["checks"]
    assert check["passed"] is False
    assert check["detail"].endswith("first failure: sublattice ['1'] of the 2-element lattice [0<1]")
    assert f"FAIL equation-system-vs-retraction: {check['detail']}\n" in capsys.readouterr().err


def test_unknown_command_is_domain_error():
    report, code = run(["frobnicate"])
    assert code == 1
    assert "error" in report


def test_domain_error_exit_code(tmp_path):
    path = write(tmp_path, "s7.json", {
        "name": "S7",
        "elements": S7_ELEMENTS,
        "covers": [list(c) for c in S7_COVERS],
    })
    report, code = run(["dim", path])  # S7 is not distributive
    assert code == 1
    assert "NotDistributive" in report["error"]


def test_reports_are_deterministic(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    first, _ = run(["classify", path, "--class", "dfin:2"])
    second, _ = run(["classify", path, "--class", "dfin:2"])
    assert first == second


@pytest.mark.parametrize(
    "argv, script",
    [
        (["witness-sps", "C3", "--forks", "S"], {"base_sizes": "ab", "steps": []}),
        (["witness-sps", "C3", "--forks", "S"], {"base_sizes": [3, 3], "steps": [[1]]}),
        (["gen-slim", "--grid", "3x3", "--forks", "S"], {"base_sizes": [4, 4], "steps": [[1]]}),
        (["oracle-verify", "--suite", "congruence-bound", "--max-size", "0"], None),
    ],
)
def test_malformed_inputs_give_json_error(tmp_path, argv, script):
    files = {"C3": write(tmp_path, "c3.json", C3_FILE)}
    if script is not None:
        files["S"] = write(tmp_path, "script.json", script)
    report, code = run([files.get(arg, arg) for arg in argv])
    assert code == 1
    assert "error" in json.loads(json.dumps(report))


@pytest.mark.parametrize(
    "argv",
    [["analyze", "DEEP"], ["retract", "C3", "--sub", "DEEP"], ["witness-sps", "C3", "--forks", "DEEP"]],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_json_is_a_parse_error(tmp_path, argv):
    files = {"C3": write(tmp_path, "c3.json", C3_FILE), "DEEP": str(tmp_path / "deep.json")}
    (tmp_path / "deep.json").write_text("[" * 100_000)
    report, code = run([files.get(arg, arg) for arg in argv])
    assert code == 1
    assert json.loads(json.dumps(report)) == report
    assert report["error"].startswith("ParseError:")


@pytest.fixture(scope="module")
def b2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("classes") / "b2.json"
    path.write_text(json.dumps(B2_FILE))
    return str(path)


@given(st.one_of(st.text(), st.from_regex(r"(dfin|dcov|sps):?.{0,6}", fullmatch=True)))
@settings(max_examples=200, deadline=None)
def test_any_class_string_gives_a_json_report(b2_path, text):
    report, code = run(["classify", b2_path, "--class", text])
    assert code in (0, 1, 2)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("text", ["dfin:1_0", "dfin: 3", "dfin:٣", "dcov:+2"])
def test_class_dimension_takes_only_ascii_digits(b2_path, text):
    """`int()` accepts these dimensions and prints them back as other strings."""
    report, code = run(["classify", b2_path, "--class", text])
    assert code == 1
    dimension = text.partition(":")[2]
    assert report == {
        "command": "classify",
        "error": f"LatticeError: bad dimension {dimension!r} in class {text!r}",
    }
    assert run(["classify", b2_path, "--class", "dfin:3"])[1] == 0


@pytest.mark.parametrize("text", ["sps:", "sps:1"])
def test_sps_class_takes_no_colon(b2_path, text):
    """`sps:` would otherwise be read as `sps` and printed back without the colon."""
    report, code = run(["classify", b2_path, "--class", text])
    assert code == 1
    assert report == {"command": "classify", "error": "LatticeError: class 'sps' takes no argument"}
    assert run(["classify", b2_path, "--class", "sps"])[1] == 0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
_IDS = st.sampled_from(["0", "a", "b", "c", "1", ""])
_FIELDS = {
    "name": st.text(max_size=4),
    "elements": st.lists(_IDS, max_size=6),
    "covers": st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=8),
    "sub": st.lists(_IDS, max_size=5),
}
# Well-formed fields over few ids, so that many files reach `build_lattice`
# and some reach the analysis, and then any field replaced by any JSON value.
_LATTICE_LIKE = st.fixed_dictionaries(
    {key: _FIELDS[key] for key in ("elements", "covers")},
    optional={key: _FIELDS[key] for key in ("name", "sub")},
)
_ODD_FIELDS = st.fixed_dictionaries({}, optional={key: field | _JSON_VALUES for key, field in _FIELDS.items()})
_LATTICE_FILES = st.one_of(
    _LATTICE_LIKE.map(json.dumps),
    _ODD_FIELDS.map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    st.text(max_size=40),
    st.binary(max_size=40),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lattice.json"


@given(_LATTICE_FILES)
@settings(max_examples=200, deadline=None)
def test_any_lattice_file_gives_a_json_report(fuzz_path, content):
    fuzz_path.write_bytes(content if isinstance(content, bytes) else content.encode())
    report, code = run(["analyze", str(fuzz_path)])
    assert code in (0, 1, 2)
    assert json.loads(json.dumps(report, allow_nan=False)) == report


# Base sizes: a valid 1x1 to 3x3 grid, or any pair of negative, too small,
# valid and over-the-cap sizes, or any JSON value.  Valid grids stop at 3x3
# to keep the property near a second: a witness over a 20x20 grid takes
# over a minute.
_VALID_SIZE = st.integers(2, 4)
_BASE_SIZE = st.integers(-(10**18), 1) | _VALID_SIZE | st.integers(finlat.MAX_ELEMENTS + 1, 10**18)
_BASE_SIZES = st.one_of(
    st.lists(_VALID_SIZE, min_size=2, max_size=2),
    st.lists(_BASE_SIZE, min_size=2, max_size=2) | _JSON_VALUES,
)
# A valid step over a base grid names a cell by its top (i, j) and its left
# lower cover (i, j - 1); fork elements are named f0, f1, ...
_GRID_STEP = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda t: [f"{t[0]},{t[1]}", f"{t[0]},{t[1] - 1}"])
_CELL_IDS = st.sampled_from(["0,0", "1,0", "1,1", "2,1", "3,3", "f0", "f1", "f4", "x", ""])
_STEP = _GRID_STEP | st.lists(_CELL_IDS, min_size=2, max_size=2) | _JSON_VALUES
_SCRIPTS = st.fixed_dictionaries(
    {"base_sizes": _BASE_SIZES},
    optional={"steps": st.lists(_GRID_STEP, max_size=2) | st.lists(_STEP, max_size=3) | _JSON_VALUES},
)


@st.composite
def _fork_commands(draw):
    """An argv over `gen-slim --grid/--forks` or `witness-sps --forks`, and
    the bytes of its fork script: mostly a script object, else any JSON,
    text or bytes."""
    script = draw(_SCRIPTS)
    content = draw(st.one_of(
        st.just(json.dumps(script)),
        _JSON_VALUES.map(json.dumps) | st.text(max_size=20) | st.binary(max_size=20),
    ))
    if draw(st.booleans()):
        return ["witness-sps", draw(st.sampled_from(["C3", "B2"])), "--forks", "SCRIPT"], content
    base = script["base_sizes"]
    if not (isinstance(base, list) and len(base) == 2 and all(type(s) is int for s in base)):
        base = [2, 2]
    grid = draw(st.one_of(
        st.just(f"{base[0] - 1}x{base[1] - 1}"),
        st.from_regex(r"-?\d{1,20}[xX]-?\d{1,20}", fullmatch=True) | st.text(max_size=8),
    ))
    return ["gen-slim", "--grid", grid] + draw(st.sampled_from([["--forks", "SCRIPT"], []])), content


@pytest.fixture(scope="module")
def fork_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("forks")
    for name, payload in (("C3", C3_FILE), ("B2", B2_FILE), ("S7", S7_FILE)):
        (root / f"{name}.json").write_text(json.dumps(payload))
    return root


def _main_report(argv):
    """Run `main` as the console script does; its exit code, which must be
    0, 1 or 2, and its stdout, which must be one JSON object."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    return exit_info.value.code, report


@given(_fork_commands())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_any_fork_script_gives_a_json_report(fork_files, command):
    argv, content = command
    script = fork_files / "script.json"
    script.write_bytes(content if isinstance(content, bytes) else content.encode())
    files = {"C3": str(fork_files / "C3.json"), "B2": str(fork_files / "B2.json"), "SCRIPT": str(script)}
    _main_report([files.get(arg, arg) for arg in argv])


# Grid sides: valid up to 7 (so no accepted grid passes 8x8 = 64 elements),
# zero or negative, or over the element cap; written in ASCII digits or in
# another script's decimal digits, which int() also reads.
_GRID_SIDE = st.integers(1, 7) | st.integers(-(10**20), 0) | st.integers(finlat.MAX_ELEMENTS, 10**20)
_DIGITS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",
           "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f")


@st.composite
def _grid_args(draw):
    """A --grid value, MxN over `_GRID_SIDE` or any short text, passed as
    its own argument or after '=' (so that '-1x2' reaches the grid parser)."""
    digits = str.maketrans("0123456789", draw(st.sampled_from(_DIGITS)))
    m, n = draw(_GRID_SIDE), draw(_GRID_SIDE)
    shaped = f"{m}".translate(digits) + draw(st.sampled_from("xX")) + f"{n}".translate(digits)
    text = draw(st.just(shaped) | st.text(max_size=8))
    return draw(st.sampled_from([["--grid", text], [f"--grid={text}"]]))


@given(_grid_args())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_any_grid_string_gives_a_json_report(grid):
    _main_report(["gen-slim", *grid])


@given(st.sampled_from(["C3", "S7"]), st.integers(-2, 30) | st.integers())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_any_witness_max_size_gives_a_json_report(fork_files, name, max_size):
    _main_report(["witness-sps", str(fork_files / f"{name}.json"), "--max-size", str(max_size)])


_SUB_LATTICES = {
    "C3": C3_FILE,
    "B2": B2_FILE,
    "G3x3": lattice_to_jsonable("G3x3", make_grid((3, 3)).lattice),
}


@st.composite
def _sub_files(draw):
    """A lattice file name and the bytes of a `--sub` file for it: mostly a
    list of that file's ids with duplicates and unknown ids, else a list
    with non-strings or any JSON value, either bare or under a "sub" key."""
    name = draw(st.sampled_from(sorted(_SUB_LATTICES)))
    ids = st.sampled_from(_SUB_LATTICES[name]["elements"])
    unknown = st.sampled_from(["z", "", "0,0", "a", "1,1,1"])
    sub = draw(st.one_of(
        st.lists(ids | unknown, max_size=10),
        st.lists(ids, max_size=10),
        st.lists(ids | _JSON_VALUES, max_size=4),
        _JSON_VALUES,
    ))
    if draw(st.booleans()):
        sub = {"sub": sub}
    return name, json.dumps(sub)


@pytest.fixture(scope="module")
def sub_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("subs")
    for name, payload in _SUB_LATTICES.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
    return root


@given(_sub_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_any_sub_file_gives_a_json_report(sub_files, drawn):
    """On exit 0 the reported map passes the eager public route."""
    name, content = drawn
    (sub_files / "sub.json").write_text(content)
    path = sub_files / f"{name}.json"
    code, report = _main_report(["retract", str(path), "--sub", str(sub_files / "sub.json")])
    if code == 0:
        sub = json.loads(content)
        sub = sub["sub"] if isinstance(sub, dict) else sub
        lattice = LatticeFile.parse(path.read_bytes()).lattice
        assert Homomorphism(lattice, induced_lattice(lattice, sub), report["map"]).is_retraction()


@given(st.integers())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_any_seed_gives_a_passing_json_report(seed):
    """The suite's checks hold for every seed, so each run passes."""
    code, report = _main_report(
        ["oracle-verify", "--suite", "congruence-bound", "--max-size", "3", "--seed", str(seed)]
    )
    assert (code, report["passed"]) == (0, True)


def test_analyze_rejects_a_chain_over_the_element_cap(tmp_path):
    ids = [f"{i:04d}" for i in range(1200)]
    path = write(tmp_path, "c1200.json", {
        "name": "C1200", "elements": ids, "covers": [list(c) for c in zip(ids, ids[1:])],
    })
    report, code = run(["analyze", path])
    assert code == 1
    assert report == {
        "command": "analyze",
        "error": "LatticeError: 1200 elements exceed the limit of 1024",
    }


def test_shared_parser_gives_fresh_process_reports(tmp_path):
    path = write(tmp_path, "c3.json", C3_FILE)
    argvs = [["classify", path], ["classify", path, "--class", "dfin:2"]]
    in_process = [run(argv) for argv in argvs]
    env = {**os.environ, "PYTHONPATH": str(Path(finlat.__file__).parents[1])}
    fresh = []
    for argv in argvs:
        done = subprocess.run(
            [sys.executable, "-m", "finlat", *argv], capture_output=True, env=env, check=False
        )
        fresh.append((json.loads(done.stdout), done.returncode))
    assert in_process == fresh
    assert [code for _, code in fresh] == [1, 0]


def _run_on_thousand_element_chain(tmp_path, *args, sub=None):
    """Run `python -m finlat` in a fresh process on the chain 0000 < ... < 0999."""
    ids = [f"{i:04d}" for i in range(1000)]
    payload = {"name": "C1000", "elements": ids, "covers": [list(c) for c in zip(ids, ids[1:])]}
    if sub is not None:
        payload["sub"] = [ids[i] for i in sub]
    path = write(tmp_path, "c1000.json", payload)
    env = {**os.environ, "PYTHONPATH": str(Path(finlat.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "finlat", *args, path], capture_output=True, env=env, check=False
    )
    assert done.stdout, done.stderr.decode()[-500:]
    return ids, json.loads(done.stdout), done.returncode


def test_retract_on_a_thousand_element_chain(tmp_path):
    """998 nested choices: the search runs on an explicit stack, not the interpreter's."""
    ids, report, code = _run_on_thousand_element_chain(tmp_path, "retract", sub=(0, -1))
    assert code == 0, report
    assert report["retraction_exists"] is True
    assert report["search_nodes"] == 998
    assert set(report["map"].values()) <= {ids[0], ids[-1]}
    assert all(report["map"][x] == x for x in (ids[0], ids[-1]))


@pytest.mark.parametrize(
    "args",
    [("analyze",), ("dim",), ("embed-grid",), ("classify", "--class", "dfin:1")],
    ids=["analyze", "dim", "embed-grid", "classify-dfin-1"],
)
def test_invariants_on_a_thousand_element_chain(tmp_path, args):
    """O(n²) distributivity and memoised invariants keep these to seconds."""
    ids, report, code = _run_on_thousand_element_chain(tmp_path, *args)
    assert code == 0, report
    if args[0] == "analyze":
        assert report["properties"] == {
            "distributive": True,
            "semimodular": True,
            "boolean": False,
            "slim": True,
            "length": 999,
            "join_irreducible_count": 999,
        }
    elif args[0] == "dim":
        assert report["dimension"] == 1
    elif args[0] == "embed-grid":
        assert report["factor_sizes"] == [1000]
        assert report["coordinate_chains"] == [ids]
        assert report["map"] == {x: str(i) for i, x in enumerate(ids)}
        assert len(report["target"]["covers"]) == 999
    else:
        assert report["verdict"] == "absolute-retract"
        assert "witness" not in report


def test_classify_omega_on_a_thousand_element_chain_hits_the_element_cap(tmp_path):
    """The dimension-bump witness of the 1,000-chain would have 2 x 999 elements."""
    _, report, code = _run_on_thousand_element_chain(tmp_path, "classify", "--class", "dfin:omega")
    assert code == 1
    assert report == {
        "command": "classify",
        "error": "LatticeError: 1998 elements exceed the limit of 1024",
    }
