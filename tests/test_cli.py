import json

import pytest

from braidbracket.cli import main
from braidbracket.diagram import parse_braid_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_word_pretty(capsys):
    code, out, _ = run(capsys, "bracket", "-w", "B2 1")
    assert code == 0
    assert "(()) : A" in out
    assert "-A - A^-3" in out


def test_bracket_single_circle(capsys):
    code, out, _ = run(capsys, "bracket", "-w", "B1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bracket"]["terms"] == [{"config": "()", "poly": {"0": "1"}}]


def test_bracket_bad_file_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "no_such_file.json")
    assert code == 2 and err


def test_bracket_malformed_word_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "-w", "B2 7")
    assert code == 2


def test_cap_exceeded_exit_3(capsys):
    word = "B2 " + " ".join(["1"] * 9)
    code, _, err = run(capsys, "bracket", "-w", word, "--cap", "8")
    assert code == 3


def test_unsafe_cap_gate(capsys):
    code, _, err = run(capsys, "bracket", "-w", "B2 1", "--cap", "30")
    assert code == 2
    code, out, _ = run(capsys, "bracket", "-w", "B2 1", "--cap", "30", "--unsafe-cap")
    assert code == 0


def test_homology_single_circle(capsys):
    code, out, _ = run(capsys, "homology", "-w", "B1")
    assert code == 0
    assert "H[0,0,-1] = Z" in out and "H[0,0,1] = Z" in out


def test_homology_verify_flags(capsys):
    code, out, _ = run(capsys, "homology", "-w", "B2 1 1 1", "--verify")
    assert code == 0
    assert "euler: OK" in out and "d2: OK" in out


def test_homology_dump_matrices_json(capsys):
    code, out, _ = run(capsys, "homology", "-w", "B2 1", "--format", "json",
                       "--dump-matrices")
    assert code == 0
    obj = json.loads(out)
    assert obj["matrices"][0]["entries"] == [[0, 0, 1], [0, 1, 1]]


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", "-w", "B1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,k,betti,torsion"
    assert "0,0,1,1," in lines


def test_verify_battery(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "7", "--moves", "6",
                       "-w", "B2 1 1 1")
    assert code == 0
    assert "all checks passed" in out


def test_verify_zero_moves(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "7", "--moves", "0", "-w", "B2 1")
    assert code == 0


def test_verify_negative_control_ri(capsys):
    code, out, _ = run(capsys, "verify", "--negative-control", "RI", "-w", "B1")
    assert code == 0
    assert "expected difference found" in out


def test_verify_negative_control_iib(capsys):
    code, out, _ = run(capsys, "verify", "--negative-control", "IIb",
                       "-w", "B2 1 1 1")
    assert code == 0


def test_verify_generation_error_exit_4(capsys):
    code, _, err = run(capsys, "verify", "--seed", "0", "--moves", "3", "-w", "B1")
    assert code == 4


@pytest.mark.parametrize("word", ["", "   ", "X2 1 1 1"],
                         ids=["empty", "blank", "bad-prefix"])
def test_verify_malformed_word_exit_2(capsys, word):
    code, out, err = run(capsys, "verify", "-w", word)
    assert code == 2
    assert err.startswith("input error:") and not out


def test_output_deterministic(capsys):
    args = ("homology", "-w", "B3 1 2 1", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_pd_file_input(tmp_path, capsys):
    d = parse_braid_word("B2 1 1 1")
    path = tmp_path / "trefoil.json"
    path.write_text(d.to_pd_json())
    code, out, _ = run(capsys, "bracket", "-f", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["writhe"] == 3


@pytest.mark.parametrize(
    "pd",
    [
        {"crossings": [{"id": 0}], "edges": [], "outer_face": []},
        {"crossings": "x", "edges": [], "outer_face": []},
        {"crossings": [], "edges": [{"id": 0, "from": [0, 0]}], "outer_face": []},
    ],
)
def test_pd_malformed_field_exit_2(tmp_path, capsys, pd):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(pd))
    code, _, err = run(capsys, "bracket", str(path))
    assert code == 2 and "input error" in err


def _pd_with(word, field, value):
    """PD JSON of ``word`` with the value at the key path ``field`` replaced."""
    obj = json.loads(parse_braid_word(word).to_pd_json())
    node = obj
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    return obj


@pytest.mark.parametrize(
    "word, field, value",
    [
        ("B2 1", ("crossings", 0, "sign"), 1.9),
        ("B2 1", ("crossings", 0, "sign"), True),
        ("B2 1", ("crossings", 0, "id"), 0.0),
        ("B2 1", ("edges", 0, "from"), [0.7, 0]),
        ("B2 1", ("edges", 0, "to", 1), 1.0),
        ("B2 1", ("edges", 1, "id"), True),
        ("B2 1", ("crossings", 0, "rotation", 0, 0), 0.0),
        ("B2 1", ("outer_face", 0, 0), 1.5),
        ("B2 1", ("closure_arcs", "0"), 1.0),
        ("B2 1", ("closure_arcs", "0.5"), 1),
        ("B2", ("anchors", 1, "id"), 1.0),
        ("B2", ("edges", 0, "from", 0, 1), False),
        ("B2", ("placements", 0, 0, 0), 1.0),
    ],
)
def test_pd_non_integer_field_exit_2(tmp_path, capsys, word, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_pd_with(word, field, value)))
    code, _, err = run(capsys, "bracket", str(path))
    assert code == 2 and "input error" in err
