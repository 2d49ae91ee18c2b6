import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from normsys import (
    HyperplaneArrangement,
    find_isomorphisms,
    load_fixture,
    oracle_isomorphisms,
    predicted_counts,
)
from normsys import fixtures
from normsys.chirotope import Chirotope
from normsys.cli import main
from conftest import (
    planted_arrangement,
    random_arrangement,
    random_normal_system,
    transformed_system,
)

REPO = Path(__file__).parents[1]


@pytest.fixture
def files(tmp_path):
    paths = {}
    for fid in ("U1", "U2"):
        p = tmp_path / f"{fid}.json"
        p.write_text(json.dumps(load_fixture(fid).payload.to_json_dict()))
        paths[fid] = str(p)
    ha = HyperplaneArrangement(
        2,
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]],
        [Fraction(0), Fraction(0), Fraction(1)],
    )
    p = tmp_path / "ha.json"
    p.write_text(json.dumps(ha.to_json_dict()))
    paths["ha"] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"m": 2, "vectors": 5}))
    paths["shape"] = str(shape)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(
        json.dumps({"m": 2, "vectors": [["1+1*sqrt(2)", "1"], ["1", "1*sqrt(3)"]]})
    )
    paths["mixed"] = str(mixed)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    paths["nested"] = str(nested)
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    paths["undecodable"] = str(undecodable)
    digits = tmp_path / "digits.json"
    digits.write_text('{"m": ' + "7" * 5000 + ', "vectors": []}')
    paths["digits"] = str(digits)
    radicand = tmp_path / "radicand.json"
    radicand.write_text(
        json.dumps({"m": 1, "vectors": [["1*sqrt(100000000000000000000000000000000000003)"]]})
    )
    paths["radicand"] = str(radicand)
    exponent = tmp_path / "exponent.json"
    exponent.write_text(json.dumps({"m": 1, "vectors": [["1e1000000000"]]}))
    paths["exponent"] = str(exponent)
    for i, text in enumerate(("1/0", "1/0+1*sqrt(2)", "1/0*sqrt(2)")):
        zero = tmp_path / f"zero{i}.json"
        zero.write_text(json.dumps({"m": 2, "vectors": [[text, "1"], ["1", "2"]]}))
        paths[f"zero{i}"] = str(zero)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate(files, capsys):
    assert main(["validate", files["U1"]]) == 0
    assert "valid" in capsys.readouterr().out


def test_parse_error_exit_code(files, capsys):
    # broken JSON, JSON nested past the recursion limit, bytes that are not
    # UTF-8, an integer past the digit limit, a wrong JSON shape, two
    # radicands in one file, and zero denominators in a rational and in
    # both parts of a quadratic value
    for key in (
        "bad", "nested", "undecodable", "digits", "shape", "mixed", "zero0", "zero1", "zero2"
    ):
        assert main(["validate", files[key]]) == 1
        assert "parse error" in capsys.readouterr().err


def test_large_radicand_is_a_parse_error(files):
    # square-freeness is decided by trial division, so a radicand past the
    # bound must fail at once rather than run for years; a child process
    # with a timeout turns a hang into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "normsys.cli", "validate", files["radicand"]],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert "parse error" in proc.stderr and "below 2**32" in proc.stderr


def test_exponent_is_a_parse_error(files):
    # Fraction accepts "1e1000000000" and builds the whole power of ten;
    # the scalar grammar has no exponent, so it must fail at once
    proc = subprocess.run(
        [sys.executable, "-m", "normsys.cli", "validate", files["exponent"]],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"parse error: {files['exponent']}: malformed field value: '1e1000000000'\n"
    )


def test_unwritable_output_exit_code(files, capsys):
    path = files["dir"] + "/no-such-dir/out.txt"
    assert main(["--output", path, "validate", files["U1"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output")
    assert captured.err.count("\n") == 1


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_cycles_deterministic(files, capsys):
    assert main(["cycles", files["U1"]]) == 0
    first = capsys.readouterr().out
    assert main(["cycles", files["U1"]]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 12


def test_ns_iso_verdicts(files, capsys):
    assert main(["ns-iso", files["U1"], files["U2"]]) == 3
    assert capsys.readouterr().out.startswith("non-isomorphic")
    assert main(["ns-iso", files["U1"], files["U1"]]) == 0
    assert capsys.readouterr().out.startswith("isomorphic")
    assert main(["--oracle", "ns-iso", files["U1"], files["U2"]]) == 3


def test_regions_output(files, capsys):
    assert main(["regions", files["ha"]]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "total=7 bounded=1 unbounded=6 formula=OK"
    )


def test_regions_quadratic_field(tmp_path, capsys):
    # end to end over Q(sqrt 5): parse, enumerate and cross-check the formula
    ha = random_arrangement(random.Random(70), 2, 6, 5)
    path = tmp_path / "q5.json"
    path.write_text(json.dumps(ha.to_json_dict()))
    assert "sqrt(5)" in path.read_text()
    assert main(["regions", str(path)]) == 0
    total, bounded, unbounded = predicted_counts(6, 2)
    assert capsys.readouterr().out.strip() == (
        f"total={total} bounded={bounded} unbounded={unbounded} formula=OK"
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_regions_of_no_hyperplanes(tmp_path, capsys, m):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": m, "coeffs": [], "constants": []}))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["regions", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "total=1 bounded=0 unbounded=1 formula=OK"


def test_ns_iso_quadratic_field(tmp_path, capsys):
    # end to end over Q(sqrt 5): planted pairs list the decider's witnesses
    rng = random.Random(71)

    def write(name, ns):
        path = tmp_path / name
        path.write_text(json.dumps(ns.to_json_dict()))
        assert "sqrt(5)" in path.read_text()
        return str(path)

    for m, n in ((2, 6), (3, 6)):
        a = random_normal_system(rng, m, n, 5)
        b = transformed_system(rng, a, 5)
        args = ["--format", "json", "ns-iso", write("a.json", a), write("b.json", b)]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isomorphic"]
        assert data["witnesses"] == [
            {
                "pi": {str(i): w.perm[i] for i in w.labels},
                "mu": {str(i): w.signs[i] for i in w.labels},
            }
            for w in find_isomorphisms(a, b)
        ]
    a, c = random_normal_system(rng, 3, 6, 5), random_normal_system(rng, 3, 6, 5)
    assert oracle_isomorphisms(a, c) == []
    assert main(["ns-iso", write("a.json", a), write("c.json", c)]) == 3
    assert capsys.readouterr().out.startswith("non-isomorphic")


def test_signs_output(files, capsys):
    assert main(["signs", files["ha"]]) == 0
    out = capsys.readouterr().out.strip()
    assert out in ("1,2,3: +", "1,2,3: -")


def test_signs_output_with_two_digit_labels(tmp_path, capsys):
    """Text lines come in tuple order (1,2,10 before 1,3,4); JSON keys in
    string order, as json sorts them; each sign is det(rows (a_i | c_i))."""
    ha = random_arrangement(random.Random(17), 2, 10)
    path = tmp_path / "ha10.json"
    path.write_text(json.dumps(ha.to_json_dict()))
    hom = Chirotope(3, {i: ha.row(i) + (ha.constant(i),) for i in ha.labels})
    keys = [",".join(map(str, sub)) for sub in hom.signs]
    assert len(keys) == 120 and keys.index("1,2,10") < keys.index("1,3,4")
    assert 0 not in hom.signs.values()

    assert main(["signs", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{k}: {'+' if s > 0 else '-'}" for k, s in zip(keys, hom.signs.values())]

    assert main(["--format", "json", "signs", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == sorted(keys)
    assert data == dict(zip(keys, hom.signs.values()))


def test_json_format(files, capsys):
    assert main(["--format", "json", "regions", files["ha"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"total": 7, "bounded": 1, "unbounded": 6, "formula": "OK"}


def test_output_file(files, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["--output", str(out), "validate", files["ha"]]) == 0
    assert capsys.readouterr().out == ""
    assert "valid" in out.read_text()


def test_symbols_default(capsys):
    assert main(["symbols"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24


def test_verify_paper(capsys):
    assert main(["verify-paper"]) == 0
    assert "fixtures: 6/6 verified" in capsys.readouterr().out


def test_verify_paper_reports_a_wrong_stored_cycle(monkeypatch, capsys):
    # one stored cycle of U1 with two labels swapped: exit 2, and the diff
    # line under the failing fixture
    raw = fixtures._raw

    def tampered(fixture_id):
        data = raw(fixture_id)
        if fixture_id == "U1-cycles":
            data["cycles"]["1,+"] = [4, 2, 6, 5, 3]
        return data

    monkeypatch.setattr(fixtures, "_raw", tampered)
    assert main(["verify-paper"]) == 2
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("U1-cycles: FAIL")
    assert lines[at + 1] == "  cycle (1,+): computed (2 4 6 5 3) != stored (2 6 5 3 4)"
    assert lines[at + 2] == "U2-cycles: ok"
    assert lines[-1] == "fixtures: 5/6 verified"

    # the standard dictionary's (1, +) cycle reversed
    def tampered(fixture_id):
        data = raw(fixture_id)
        if fixture_id == "S4-cycles":
            data["cycles"]["1,+"].reverse()
        return data

    monkeypatch.setattr(fixtures, "_raw", tampered)
    assert main(["verify-paper"]) == 2
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("S4-cycles: FAIL")
    assert lines[at + 1] == "  cycle (1,+): computed (2 4 3) != stored (2 3 4)"
    assert lines[-1] == "fixtures: 5/6 verified"

    # two stored symbols and one equation's vector changed: each diff is
    # listed, the symbols sorted
    def tampered(fixture_id):
        data = raw(fixture_id)
        if fixture_id == "S4-symbols":
            data["symbols"][0] = "4->(3,1,2)"
            data["symbols"][5] = "-1->(2,4,3)"
        if fixture_id == "U2-equations":
            data["equations"][2]["vector"][0] = "7"
        return data

    monkeypatch.setattr(fixtures, "_raw", tampered)
    assert main(["verify-paper"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["U2-equations: FAIL", "  equation 3 does not hold"]
    assert lines[-3:] == [
        "S4-symbols: FAIL",
        "  symbols: missing [Symbol(-1, (2, 4, 3)), Symbol(4, (3, 1, 2))], "
        "extra [Symbol(1, (-3, -2, 4)), Symbol(4, (2, 1, 3))]",
        "fixtures: 4/6 verified",
    ]


def test_ha_iso_self(files, capsys):
    assert main(["ha-iso", files["ha"], files["ha"]]) == 0
    assert capsys.readouterr().out.startswith("isomorphic")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ha_iso_oracle_verdicts(tmp_path, capsys, fmt):
    """``ha-iso --oracle`` at n = 5: a planted copy is isomorphic (exit 0),
    another random arrangement is not (exit 3), no witness is printed, and
    the JSON names the method."""
    rng = random.Random(5)
    ha = random_arrangement(rng, 2, 5)
    inputs = {"ha": ha, "other": random_arrangement(rng, 2, 5)}
    inputs["copy"] = planted_arrangement(rng, ha)
    paths = {}
    for key, arr in inputs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(arr.to_json_dict()))
    for key, iso in (("copy", True), ("other", False)):
        argv = ["--format", fmt, "--oracle", "ha-iso", str(paths["ha"]), str(paths[key])]
        assert main(argv) == (0 if iso else 3)
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out) == {"isomorphic": iso, "method": "definition-oracle"}
        else:
            assert out == ("isomorphic\n" if iso else "non-isomorphic\n")


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["ns-iso", "U1", "U2"], 2),
        (["ha-iso", "ha", "ha"], 2),
        (["regions", "ha"], 1),
        (["signs", "ha"], 1),
        (["cycles", "U1"], 1),
    ],
)
def test_chirotope_built_once_per_input(files, monkeypatch, argv, builds):
    # one chi per normal system and one per hyperplane arrangement (its
    # lift); no command rebuilds them
    ranks = []
    init = Chirotope.__init__

    def counted(self, rank, vectors):
        ranks.append(rank)
        init(self, rank, vectors)

    monkeypatch.setattr(Chirotope, "__init__", counted)
    assert main([argv[0]] + [files[key] for key in argv[1:]]) in (0, 3)
    assert len(ranks) == builds


@pytest.mark.parametrize(
    "command, m, n",
    [("validate", 20, 21), ("ns-iso", 8, 8), ("ns-iso", 8, 9)],
)
def test_size_guards_exit_2(tmp_path, capsys, command, m, n):
    """21 vectors in F^20 need 2^21 - 2 minors; (8, 8) and (8, 9) pairs
    would enumerate more than 2^7 7! witnesses.  Each is refused at once,
    as an invalid object, on one stderr line."""
    rows = [["1" if i == j else "0" for j in range(m)] for i in range(m)] + [["1"] * m]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"m": m, "vectors": rows[:n]}))
    start = time.perf_counter()
    assert main([command] + [str(path)] * (2 if command == "ns-iso" else 1)) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert ("minors" if command == "validate" else "witnesses") in captured.err


GOLDEN_CLI = json.loads((REPO / "bench" / "golden" / "cli.json").read_text())


@pytest.mark.parametrize(
    "command", GOLDEN_CLI["commands"], ids=lambda c: " ".join(c["argv"])
)
def test_benchmark_cli_corpus(monkeypatch, capsys, command):
    """The benchmark's recorded CLI commands, run in-process from the
    repository root: stdout and exit code as recorded."""
    monkeypatch.chdir(REPO)
    assert main(command["argv"]) == command["exit"]
    assert capsys.readouterr().out == command["stdout"]
