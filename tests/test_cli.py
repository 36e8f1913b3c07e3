import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from braidbracket.chain_complex import differential_matrices
from braidbracket.cli import _build_parser, main
from braidbracket.diagram import parse_braid_word

from helpers import REJECTED_FACE_REFERENCES, pd_with


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


def _csv_of_json(obj):
    """The bracket csv lines that the json output of the same word implies."""
    def terms(section):
        return [f"{section},{t['config']},{e},{c}"
                for t in sorted(obj[section]["terms"], key=lambda t: t["config"])
                for e, c in sorted((int(e), c) for e, c in t["poly"].items())]

    lightened = [f"lightened,chi^{r['chi']},{r['a']},{r['coeff']}"
                 for r in sorted(obj["lightened"], key=lambda r: (r["a"], r["chi"]))]
    return ["section,config,exponent,coefficient",
            *terms("bracket"), *lightened, *terms("normalized")]


@pytest.mark.parametrize("word", ["B0", "B1", "B2 1 1 1", "B3 1 -2 1 -2", "B3 1 2 -1 2 2"])
def test_bracket_csv_matches_its_json(capsys, word):
    code, out, _ = run(capsys, "bracket", "-w", word, "--format", "json")
    assert code == 0
    code, csv, _ = run(capsys, "bracket", "-w", word, "--format", "csv")
    assert code == 0
    assert csv.splitlines() == _csv_of_json(json.loads(out))


def test_cap_exceeded_exit_3(capsys):
    word = "B2 " + " ".join(["1"] * 9)
    code, _, err = run(capsys, "bracket", "-w", word, "--cap", "8")
    assert code == 3


def test_free_loops_count_against_the_homology_cap(capsys):
    # 25 free loops make 2^25 labelings of one smoothing: the cap stops it
    # before any is listed
    code, out, err = run(capsys, "homology", "-w", "B25")
    assert code == 3 and not out
    assert "needs 25 crossings but the cap is 24" in err
    code, out, _ = run(capsys, "homology", "-w", "B3 1", "--cap", "2")
    assert code == 0 and out


@pytest.mark.parametrize("argv", [("bracket",), ("verify", "--negative-control", "IIb"),
                                  ("verify", "--negative-control", "RI")])
def test_a_strand_count_too_large_to_build_exits_3(capsys, argv):
    # the closure of a word on 10^27 strands cannot be allocated: the
    # command exits 3 and names the strand count, with no traceback; B30
    # has 30 free loops and no crossing, and its bracket is still printed
    strands = "9" * 27
    code, out, err = run(capsys, *argv, "-w", f"B{strands} 1")
    assert code == 3 and not out
    assert err == f"size cap exceeded: {strands} strands are too many to build\n"
    code, out, _ = run(capsys, "bracket", "-w", "B30")
    assert code == 0 and "chi^30" in out


def test_a_reducible_word_meets_the_cap_on_its_input(capsys):
    # (1 -1)^13 reduces to the empty braid, but homology reads the cap on
    # the 26 crossings given
    word = "B2 " + " ".join(["1 -1"] * 13)
    code, out, err = run(capsys, "homology", "-w", word)
    assert code == 3 and not out
    assert "needs 26 crossings but the cap is 24" in err


def test_a_word_that_descends_to_the_empty_braid_meets_the_cap_first(capsys, monkeypatch):
    # (1 2 1 -2 -1 -2)^5 is the empty braid, but BraidWord.reduced keeps
    # its 30 letters; homology reads the cap on them before it reduces or
    # rewrites the word.  Under a cap the input meets, the word descends
    # to the crossingless closure
    from braidbracket.diagram import BraidWord

    reached = []
    for name in ("reduced", "rewrites"):
        def spy(word, method=getattr(BraidWord, name), name=name):
            reached.append(name)
            return method(word)
        monkeypatch.setattr(BraidWord, name, spy)
    word = "B3 " + " ".join(["1 2 1 -2 -1 -2"] * 5)
    code, out, err = run(capsys, "homology", "-w", word)
    assert code == 3 and not out
    assert "needs 30 crossings but the cap is 24" in err
    assert reached == []
    code, out, _ = run(capsys, "homology", "-w", word, "--cap", "30", "--unsafe-cap")
    assert code == 0 and "rewrites" in reached
    assert (code, out) == run(capsys, "homology", "-w", "B3")[:2]


@pytest.mark.parametrize("argv", [
    ("homology",), ("homology", "--verify"), ("homology", "--dump-matrices"),
    ("verify", "--moves", "1"),
])
def test_the_cap_is_read_on_the_word_before_the_closure_is_built(capsys, monkeypatch, argv):
    # 99,998 strands that no letter touches: the cap refuses the word before
    # any closure exists, which would take seconds and hundreds of MB
    import braidbracket.diagram
    import braidbracket.homology
    import braidbracket.moves

    def spy(word):
        raise AssertionError(f"closure of {word.strands} strands built")

    for module in (braidbracket.diagram, braidbracket.homology, braidbracket.moves):
        monkeypatch.setattr(module, "braid_closure", spy)
    code, out, err = run(capsys, *argv[:1], "-w", "B100000 1", *argv[1:])
    assert (code, out) == (3, "")
    assert err == "size cap exceeded: diagram needs 99999 crossings but the cap is 24\n"
    if argv[0] == "verify":  # a negative move count is still refused first
        code, out, err = run(capsys, "verify", "-w", "B100000 1", "--moves", "-1")
        assert (code, out) == (4, "")
        assert err == "pair generation failed: move count must be nonnegative\n"


def test_the_word_cap_counts_what_the_closure_cap_counts(corpus):
    from braidbracket.chain_complex import _check_complex_cap, _check_word_cap
    from braidbracket.diagram import BraidWord, braid_closure
    from braidbracket.states import SizeCapError

    def needed(check, x):
        try:
            check(x, 0)
        except SizeCapError as exc:
            return exc.needed
        return 0

    # corpus closures, the empty closure, and words with untouched strands
    # between, below and above the touched ones
    words = [d.braid_word for d in corpus if d.braid_word is not None]
    words += [BraidWord(k, w)
              for k, w in ((0, ()), (1, ()), (5, (1, -4)), (6, (3, 3, -2)), (7, (6,)))]
    for word in words:
        assert needed(_check_word_cap, word) == needed(_check_complex_cap, braid_closure(word))


def test_long_word_meets_the_cap_at_once(capsys):
    # 20,000 free loops: the cap stops homology before the closure is
    # built, and the closure itself, 19,999 placements, is built in time
    # linear in its edges (renumbering each face reference by a scan of the
    # edges before it took 11 s)
    code, out, err = run(capsys, "homology", "-w", "B20000")
    assert code == 3 and not out
    assert "needs 20000 crossings but the cap is 24" in err
    assert len(parse_braid_word("B20000").placements) == 19999


@pytest.mark.parametrize("command", ["bracket", "homology", "verify"])
def test_negative_cap_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "-w", "B2 1 1 1", "--cap", "-1")
    assert code == 2 and not out
    assert "cap -1 is negative" in err


def test_unsafe_cap_gate(capsys):
    code, _, err = run(capsys, "bracket", "-w", "B2 1", "--cap", "30")
    assert code == 2
    code, out, _ = run(capsys, "bracket", "-w", "B2 1", "--cap", "30", "--unsafe-cap")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("bracket", "-w", "B1", "--seed", "1"),
    ("homology", "-w", "B1", "--moves", "3"),
    ("verify", "-w", "B1", "--dump-matrices"),
])
def test_flag_of_another_subcommand_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_homology_dump_matrices_csv(capsys):
    code, out, _ = run(capsys, "homology", "-w", "B2 1", "--format", "csv",
                       "--dump-matrices", "--verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-3:-1] == ["# euler: OK", "# d2: OK"]
    _, as_json, _ = run(capsys, "homology", "-w", "B2 1", "--format", "json",
                        "--dump-matrices")
    dumped = json.loads(as_json)["matrices"]
    assert lines[-1] == "# matrices " + json.dumps(dumped, sort_keys=True)


def _without_the_full_complex(out, fmt):
    """``homology`` output with what --verify and --dump-matrices add taken
    out again."""
    if fmt == "json":
        obj = json.loads(out)
        obj.pop("matrices", None)
        obj.pop("verify", None)
        return json.dumps(obj, sort_keys=True) + "\n"
    if fmt == "csv":
        return "".join(line for line in out.splitlines(True) if not line.startswith("# "))
    return "".join(line for line in out.splitlines(True)
                   if line not in ("euler: OK\n", "d2: OK\n") and not line.startswith("["))


def test_homology_prints_the_same_tables_with_and_without_the_full_complex(
        capsys, corpus_small, tmp_path):
    # plain homology assembles only the blocks it reduces, layer by layer;
    # --verify and --dump-matrices assemble the full complex first and the
    # walk reads it: every format prints the same bytes either way
    for n, d in enumerate(corpus_small):
        if d.braid_word is not None:
            word = d.braid_word
            source = ["-w", " ".join([f"B{word.strands}", *map(str, word.letters)])]
        else:
            path = tmp_path / f"{n}.json"
            path.write_text(d.to_pd_json())
            source = [str(path)]
        for fmt in ("json", "csv", "pretty"):
            code, plain, _ = run(capsys, "homology", *source, "--format", fmt)
            assert code == 0
            for flags in (["--verify"], ["--dump-matrices"], ["--verify", "--dump-matrices"]):
                code, out, _ = run(capsys, "homology", *source, "--format", fmt, *flags)
                assert code == 0 and "FAIL" not in out
                assert _without_the_full_complex(out, fmt) == plain, (source, fmt, flags)
                assert out != plain


# sha256 of ``homology --dump-matrices --verify`` in json, csv and pretty,
# in that order, for each word of corpus_small that BraidWord.reduced
# shortens
DUMPED_DIGEST = "90a38e21eddf8cc3a0384302b8b44e7e9bd8aec385074fb88431074c7d718204"


def test_dump_and_verify_show_the_complex_of_the_input_word(capsys, corpus_small):
    # plain homology reduces a closure's word; the matrices dumped, and the
    # d^2 and Euler checks, are those of the word as given
    digest = hashlib.sha256()
    reducible = 0
    for d in corpus_small:
        word = d.braid_word
        if word is None or word.reduced() == word:
            continue
        text = " ".join([f"B{word.strands}", *map(str, word.letters)])
        for fmt in ("json", "csv", "pretty"):
            code, out, _ = run(capsys, "homology", "-w", text, "--format", fmt,
                               "--dump-matrices", "--verify")
            assert code == 0
            digest.update(out.encode())
            if fmt == "json":
                obj = json.loads(out)
                assert obj["matrices"] == differential_matrices(d).to_sparse_json()
                assert obj["verify"] == ["euler: OK", "d2: OK"]
        reducible += 1
    assert reducible >= 25
    assert digest.hexdigest() == DUMPED_DIGEST


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


@pytest.mark.parametrize("control, kind", [("RI", "RI_insert"), ("IIb", "IIb_insert")])
def test_verify_negative_control_lists_its_kind_once(monkeypatch, capsys, control, kind):
    # cmd_verify picks its site from find_sites, and apply_move checks the
    # site against the same listing, kept on the diagram
    from braidbracket import moves

    list_sites, calls = moves._list_sites, []

    def spy(diagram, kind):
        calls.append(kind)
        return list_sites(diagram, kind)

    monkeypatch.setattr(moves, "_list_sites", spy)
    code, out, _ = run(capsys, "verify", "--negative-control", control, "-w", "B2 1 1 1",
                       "--seed", "3", "--format", "json")
    assert code == 0 and json.loads(out)["control"] == control
    assert calls == [kind]


def test_verify_battery_csv(capsys):
    # one row per check of the battery, the same checks and verdicts as json
    argv = ("verify", "--seed", "7", "--moves", "6", "-w", "B2 1 1 1", "--format")
    code, out, _ = run(capsys, *argv, "csv")
    json_code, json_out, _ = run(capsys, *argv, "json")
    assert code == json_code == 0
    lines = out.splitlines()
    assert lines[0] == "check,status"
    verdicts = {name: "OK" if ok else "FAIL" for name, ok in json.loads(json_out).items()}
    assert dict(line.split(",") for line in lines[1:]) == verdicts
    assert len(lines) == len(verdicts) + 1 and "bracket equality,OK" in lines


def test_verify_negative_control_csv(capsys):
    code, out, _ = run(capsys, "verify", "--negative-control", "RI", "-w", "B1",
                       "--format", "csv")
    assert code == 0
    assert out == "control,bracket_differs\nRI,true\n"


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


def test_bracket_threads_flag_keeps_output(capsys):
    args = ("bracket", "--format", "json", "-w", "B3 1 2 -1 2 1")
    _, plain, _ = run(capsys, *args)
    code, threaded, _ = run(capsys, *args, "--threads", "2")
    assert code == 0 and threaded == plain


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


def test_pd_nested_too_deeply_exit_2(tmp_path):
    # the JSON decoder recurses per level of nesting; a file of 100,000
    # brackets is refused as input, in a fresh interpreter so that a
    # traceback would show on stderr
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "braidbracket.cli", "bracket", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr


def test_pd_of_deeply_nested_loops_exit_0(tmp_path):
    # 600 concentric free loops nest 600 levels deep; the bracket's
    # configuration string is built without recursion, so a fresh
    # interpreter prints it with no traceback
    path = tmp_path / "loops.json"
    path.write_text(parse_braid_word("B600").to_pd_json())
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "braidbracket.cli", "bracket", str(path), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    terms = json.loads(proc.stdout)["bracket"]["terms"]
    assert terms == [{"config": "(" * 600 + ")" * 600, "poly": {"0": "1"}}]


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
    path.write_text(json.dumps(pd_with(word, field, value)))
    code, _, err = run(capsys, "bracket", str(path))
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("side", ["", "RL"])
def test_pd_placement_side_other_than_r_or_l_exit_2(tmp_path, capsys, side):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(pd_with("B2", ("placements", 0, 0, 1), side)))
    code, _, err = run(capsys, "bracket", str(path))
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("end", [[7, 0], [-1, 0]])
def test_pd_edge_to_undeclared_crossing_exit_2(tmp_path, capsys, end):
    obj = json.loads(parse_braid_word("B2 1 1 1").to_pd_json())
    obj["edges"].append({"id": 6, "from": end, "to": [8, 1]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "bracket", str(path))
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("word, field, value, error, message", REJECTED_FACE_REFERENCES)
def test_pd_face_reference_errors_exit_2(monkeypatch, capsys, word, field, value, error, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pd_with(word, field, value))))
    code, out, err = run(capsys, "bracket", "-")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and message in err


def _readme_flags():
    """Flags each subcommand takes, read from README's per-subcommand bullets."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("Flags, per subcommand:\n", 1)[1].split("\n\n", 1)[0]
    flags = {}
    for bullet in block.strip().removeprefix("* ").split("\n* "):
        head, body = bullet.split(":", 1)
        names = ["bracket", "homology", "verify"] if head == "all three" else [head.strip("`")]
        found = {
            flag
            for quoted in re.findall(r"`(-[^`]*)`", body)
            for flag in quoted.split()[0].split("/")
        }
        for name in names:
            flags.setdefault(name, set()).update(found)
    return flags


def test_readme_lists_every_flag_of_every_subcommand():
    # -h/--help excepted: argparse adds it to every subcommand
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert _readme_flags() == parsed
