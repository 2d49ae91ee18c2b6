"""The CLI's error paths, byte for byte, and a fuzz test of its loader.

Every case runs ``main`` in-process from a scratch directory holding the
input files under short relative names, so the messages are exact.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normsys import AntipodalArrangement, HyperplaneArrangement, NormalSystem
from normsys.cli import main

INPUTS = Path(__file__).parents[1] / "bench" / "inputs"

WRITTEN = {
    "bad.json": "{not json",
    "list.json": "[1, 2]",
    "scalar.json": json.dumps({"m": 2, "vectors": [["1/x", "1"], ["1", "2"]]}),
    "mixed.json": json.dumps(
        {"m": 2, "vectors": [["1+1*sqrt(2)", "1"], ["1", "1*sqrt(3)"]]}
    ),
    # eight pairwise independent vectors in the plane: valid, one past the
    # exhaustive oracle's bound
    "ns8.json": json.dumps(
        {"m": 2, "vectors": [["0", "1"]] + [["1", str(i)] for i in range(7)]}
    ),
    # a valid system in the plane: points on a circle, which has no cycles
    "plane.json": json.dumps({"m": 2, "vectors": [["1", "0"], ["0", "1"], ["1", "1"]]}),
}

USAGE = (
    "usage: normsys [-h] [--format {json,text}] [--output PATH] [--oracle]\n"
    "               {validate,cycles,ns-iso,ha-iso,regions,signs,symbols,verify-paper}\n"
    "               ...\n"
)
BAD_JSON = (
    "parse error: bad.json: "
    "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
)

# (argv, exit code, stdout, stderr)
CASES = [
    # exit 1: usage and parse errors
    (["validate", "bad.json"], 1, "", BAD_JSON),
    (["validate", "scalar.json"], 1, "",
     "parse error: scalar.json: Invalid literal for Fraction: '1/x'\n"),
    (["validate", "mixed.json"], 1, "",
     "parse error: mixed.json: values from more than one quadratic field\n"),
    (["validate", "list.json"], 1, "",
     "parse error: list.json: expected a JSON object\n"),
    (["no-such"], 1, "", USAGE + (
        "normsys: error: argument command: invalid choice: 'no-such' (choose from "
        "'validate', 'cycles', 'ns-iso', 'ha-iso', 'regions', 'signs', 'symbols', "
        "'verify-paper')\n")),
    (["--output", "no-such-dir/out.txt", "validate", "U1.json"], 1, "",
     "error: cannot write output: [Errno 2] No such file or directory: "
     "'no-such-dir/out.txt'\n"),
    # every file is parsed before any kind is checked
    (["ns-iso", "ha_2_6.json", "bad.json"], 1, "", BAD_JSON),
    # exit 2: invalid objects, wrong kinds and tripped size guards
    (["validate", "invalid_ns.json"], 2, "",
     "invalid object: invalid_ns.json: not a normal system: dependent small subset\n"),
    (["cycles", "ha_2_6.json"], 2, "",
     "invalid object: ha_2_6.json: expected a normal system or sphere arrangement\n"),
    (["ns-iso", "U1.json", "ha_2_6.json"], 2, "",
     "invalid object: ha_2_6.json: expected a normal system\n"),
    (["ns-iso", "S4.json", "S4.json"], 2, "",
     "invalid object: S4.json: expected a normal system\n"),
    (["ha-iso", "ha_2_6.json", "U1.json"], 2, "",
     "invalid object: U1.json: expected a hyperplane arrangement\n"),
    (["regions", "U1.json"], 2, "",
     "invalid object: U1.json: expected a hyperplane arrangement\n"),
    (["signs", "S4.json"], 2, "",
     "invalid object: S4.json: expected a hyperplane arrangement\n"),
    (["symbols", "ha_2_6.json"], 2, "",
     "invalid object: ha_2_6.json: expected a normal system or sphere arrangement\n"),
    (["symbols", "U1.json"], 2, "",
     "invalid object: U1.json: need a four-pair 2-sphere arrangement\n"),
    (["cycles", "plane.json"], 2, "",
     "error: cycle invariants need sphere dimension >= 2\n"),
    (["--oracle", "ns-iso", "ns8.json", "ns8.json"], 2, "",
     "error: oracle limited to n <= 7\n"),
    (["--oracle", "ha-iso", "ha_2_6.json", "ha_2_6.json"], 2, "",
     "error: definition oracle limited to n <= 5\n"),
    # exit 3: non-isomorphic verdicts
    (["ns-iso", "U1.json", "U2.json"], 3, "non-isomorphic\n", ""),
    (["--format", "json", "ns-iso", "U1.json", "U2.json"], 3,
     '{\n "isomorphic": false,\n "witnesses": []\n}\n', ""),
    (["ha-iso", "q5_ha_a.json", "q5_ha_c.json"], 3, "non-isomorphic\n", ""),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("U1", "U2", "S4", "ha_2_6", "invalid_ns", "q5_ha_a", "q5_ha_c"):
        shutil.copy(INPUTS / f"{name}.json", tmp_path)
    for name, text in WRITTEN.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, out, err", CASES, ids=[" ".join(case[0]) for case in CASES]
)
def test_error_paths_byte_for_byte(workdir, capsys, argv, code, out, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
    assert not (workdir / "no-such-dir").exists()


# --- fuzz ---------------------------------------------------------------------

# well-formed scalars over Q and Q(sqrt 2); malformed ones, zero
# denominators, a second radicand and values that are not strings
GOOD = st.one_of(
    st.integers(-9, 9).map(str), st.sampled_from(["3/4", "-1/2", "1+1*sqrt(2)"])
)
BAD = st.one_of(
    st.sampled_from(["1/0", "1/0*sqrt(2)", "1*sqrt(3)", "x", "", "1//2"]),
    st.integers(-2, 2),
    st.none(),
)
KEYS = {"vectors": "m", "points": "k", "coeffs": "m"}


@st.composite
def object_files(draw):
    """One object file with a dimension in -1..4 and at most 5 rows, which
    keeps every size guard far away.  Three in four are well formed; the
    others may lack the kind key, have a dimension that is not an integer,
    ragged rows or rows that are not lists, and hold any scalar."""
    key = draw(st.sampled_from(sorted(KEYS)))
    dim = draw(st.integers(-1, 4))
    n = draw(st.integers(0, 5))
    width = max(dim + (key == "points"), 0)
    row = st.lists(GOOD, min_size=width, max_size=width)
    rows = st.lists(row, min_size=n, max_size=n)
    constants = st.lists(GOOD, min_size=n, max_size=n)
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(KEYS) + ["none"]))
        dim = draw(st.sampled_from([dim, "2", 1.5, True]))
        constants = st.lists(st.one_of(GOOD, BAD), max_size=5)
        rows = st.one_of(
            st.lists(constants, max_size=5), st.sampled_from([0, "rows", None])
        )
    data = {KEYS.get(key, "m"): dim}
    if key != "none":
        data[key] = draw(rows)
    if key == "coeffs":
        data["constants"] = draw(constants)
    return data


COMMANDS = ["validate", "cycles", "regions", "signs", "symbols", "ns-iso", "ha-iso"]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(COMMANDS),
    object_files(),
    st.one_of(st.none(), object_files()),
    st.booleans(),
    st.booleans(),
)
def test_fuzzed_files_end_in_an_exit_code(
    tmp_path, capsys, command, first, second, oracle, as_json
):
    """Random object files never raise out of main: every call ends in one
    of the documented exit codes.  A missing second file pairs the first
    with itself."""
    objects = [first, first if second is None else second]
    paths = []
    for i, data in enumerate(objects):
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    argv = (["--oracle"] if oracle else []) + (["--format", "json"] if as_json else [])
    argv += [command] + (paths if command.endswith("-iso") else paths[:1])
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()


# --- the readers share the loader's checks ------------------------------------

READERS = {
    "vectors": NormalSystem,
    "points": AntipodalArrangement,
    "coeffs": HyperplaneArrangement,
}
TWO_ROWS = [["1", "0"], ["0", "1"]]
MISSING = object()


def object_dict(key: str, dim=MISSING, rows=MISSING, constants=MISSING) -> dict:
    """An object of this kind in the plane (the circle for points): two
    rows of width 2 and, for hyperplanes, their constants, with any part
    replaced or left out."""
    data = {KEYS[key]: 1 if key == "points" else 2, key: TWO_ROWS}
    if key == "coeffs":
        data["constants"] = ["0", "1"]
    for name, value in ((KEYS[key], dim), (key, rows), ("constants", constants)):
        if value is not MISSING:
            data[name] = value
    return data


SHAPE = "expected an integer dimension and a list of rows"
SCALARS = "expected lists of scalar strings"
# (case, change to the valid object, the ValueError's message)
MALFORMED = [
    ("dim-string", {"dim": "2"}, SHAPE),
    ("dim-float", {"dim": 1.5}, SHAPE),
    ("dim-bool", {"dim": True}, SHAPE),
    ("dim-null", {"dim": None}, SHAPE),
    ("rows-string", {"rows": "rows"}, SHAPE),
    ("row-string", {"rows": [["1", "0"], "01"]}, SCALARS),
    ("scalar-int", {"rows": [["1", 0], ["0", "1"]]}, SCALARS),
    ("scalar-bad", {"rows": [["1/x", "0"], ["0", "1"]]}, "Invalid literal for Fraction"),
    ("scalar-zero-den", {"rows": [["1/0", "0"], ["0", "1"]]}, "zero denominator"),
    ("two-fields", {"rows": [["1*sqrt(2)", "1"], ["1", "1*sqrt(3)"]]},
     "more than one quadratic field"),
]


@pytest.mark.parametrize("key", sorted(READERS))
@pytest.mark.parametrize(
    "change, message", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_readers_refuse_what_the_loader_refuses(key, change, message):
    """``from_json_dict`` raises ValueError with the loader's message, and
    never KeyError, AttributeError or TypeError."""
    reader = READERS[key].from_json_dict
    assert reader(object_dict(key)) == reader(json.loads(json.dumps(object_dict(key))))
    with pytest.raises(ValueError, match=message):
        reader(object_dict(key, **change))


def test_readers_refuse_missing_parts():
    for key, reader in READERS.items():
        with pytest.raises(ValueError, match="expected a JSON object"):
            reader.from_json_dict([])
        with pytest.raises(ValueError, match=SHAPE):
            reader.from_json_dict({key: TWO_ROWS})
        with pytest.raises(ValueError, match=SHAPE):
            reader.from_json_dict({KEYS[key]: 2})
    data = object_dict("coeffs")
    del data["constants"]
    with pytest.raises(ValueError, match=SCALARS):
        HyperplaneArrangement.from_json_dict(data)
    with pytest.raises(ValueError, match="more than one quadratic field"):
        HyperplaneArrangement.from_json_dict(
            object_dict("coeffs", constants=["1*sqrt(2)", "1*sqrt(5)"])
        )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(object_files())
def test_readers_agree_with_validate(tmp_path, capsys, data):
    """On random object files the reader of the file's kind builds an
    object iff ``validate`` exits 0, and otherwise raises ValueError."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code = main(["validate", str(path)])
    capsys.readouterr()
    keys = [k for k in READERS if k in data] or sorted(READERS)
    for key in keys:
        try:
            READERS[key].from_json_dict(data)
            built = True
        except ValueError:
            built = False
        assert built == (code == 0)
