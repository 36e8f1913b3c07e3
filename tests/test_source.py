"""Checks on the library source itself."""

import ast
import collections
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import braidbracket.cli  # noqa: F401  (loads every library module)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidbracket"


def test_no_bare_assert_in_library():
    # ``python -O`` strips assert statements, so an invariant guard written
    # as one silently stops guarding; guards raise real exceptions instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_the_distribution_is_named_and_versioned_as_the_package():
    # pip registers the [project] name, so it must be the package's; the
    # file is read by regex, since tomllib is new in Python 3.11
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)",
                        (ROOT / "pyproject.toml").read_text(), re.M | re.S).group(1)
    fields = dict(re.findall(r'^(\w+) = "([^"]*)"$', project, re.M))
    assert fields["name"] == "braidbracket"
    assert fields["version"] == braidbracket.__version__


def test_library_imports_only_the_standard_library():
    # the runtime is stdlib-only: every import names the package itself
    # (or is relative to it) or a standard-library module
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"braidbracket"}
            ]
    assert found == []


def test_every_trace_target_resolves():
    # the benchmark's tracer wraps library functions by name; one that was
    # renamed or deleted would drop out of traced runs without an error
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == {}
    finally:
        tracer.uninstall()


def _unused(defined):
    """The names of ``defined(tree)`` over the library's modules that occur
    nowhere but in their own definitions, across the library, the tests and
    the demos (the package's __all__ included)."""
    texts = [
        path.read_text()
        for top in ("src", "tests", "demos")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    words = collections.Counter(w for text in texts for w in re.findall(r"\w+", text))
    defs = collections.Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs.update(name for name in defined(tree)
                    if not (name.startswith("__") and name.endswith("__")))
    return sorted(name for name, n in defs.items() if words[name] <= n)


def test_every_helper_is_used():
    # a function, method or property used nowhere is dead code
    assert _unused(lambda tree: [
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]) == []


def test_every_constant_and_class_attribute_is_used():
    # so is a module-level name or a class attribute assigned and never read
    def assigned(tree):
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        for node in (node for body in bodies for node in body):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))

    assert _unused(assigned) == []


def test_one_diagram_constructor():
    # a diagram is made in one place, so no second path can skip its checks:
    # OrientedDiagram is called only in DiagramBuilder.build, and nothing in
    # the library makes an instance through __new__
    calls, news = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and (
                    ast.unparse(child.func).split(".")[-1] == "OrientedDiagram"):
                calls.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        news += [f"{path.name}:{i}" for i, line in enumerate(text.splitlines(), 1)
                 if "__new__" in line]
        visit(ast.parse(text, filename=str(path)), [])
    assert calls == ["diagram.py:DiagramBuilder.build"]
    assert news == []


def test_one_rewrite_path(monkeypatch):
    # a moved diagram is made in one place, moves._rewrite: the surgeries of
    # moves._MOVES are named only by that table and run only from _rewrite,
    # which alone in moves makes a builder and builds it; apply_move checks
    # a site against find_sites and calls _rewrite only after its checks, as
    # its last step; and a walk applies each draw through _rewrite, without
    # apply_move, a MoveSite, the fingerprint or find_sites, and ends where
    # a walk of find_sites and apply_move ends
    from braidbracket import moves
    from braidbracket.diagram import BraidWord, parse_braid_word
    from helpers import WALK_PINS, reference_walk

    surgeries = {surgery.__name__ for surgery in moves._MOVES.values()}
    assert set(_scopes_where(lambda node: isinstance(node, ast.Name)
                             and node.id in surgeries)) == {"moves.py:"}
    for method in ("to_builder", "build"):
        assert [s for s in _callers_of(method) if s.startswith("moves.py:")] == [
            "moves.py:_rewrite"], method
    assert sorted(_scopes_where(lambda node: isinstance(node, ast.Call)
                                and ast.unparse(node.func) == "_rewrite")) == [
        "moves.py:apply_move", "moves.py:random_equivalent_pair"]
    (apply_def,) = [node for node in ast.parse((SRC / "moves.py").read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "apply_move"]
    last = apply_def.body[-1]
    assert isinstance(last, ast.Return) and ast.unparse(last.value).startswith("_rewrite(")
    assert "find_sites" in {ast.unparse(node.func) for node in ast.walk(apply_def)
                            if isinstance(node, ast.Call)}

    callers = []
    for kind, surgery in list(moves._MOVES.items()):
        def spy(*args, surgery=surgery):
            callers.append(sys._getframe(1).f_code.co_name)
            return surgery(*args)
        monkeypatch.setitem(moves._MOVES, kind, spy)
    rewrite = moves._rewrite
    reached = []

    def rewrite_spy(*args):
        reached.append(args[1])
        return rewrite(*args)

    monkeypatch.setattr(moves, "_rewrite", rewrite_spy)
    d = parse_braid_word("B3 1 2 1 -1")
    (slide,) = moves.find_sites(d, "III")
    other = moves.find_sites(parse_braid_word("B3 1 2 1"), "III")[0]
    # stale, of another variant, malformed, and a rotated orbit
    for site in (other, slide._replace(kind="IIIb"), slide._replace(anchor=slide.anchor[1:]),
                 slide._replace(anchor=slide.anchor[1:] + slide.anchor[:1])):
        with pytest.raises(moves.SiteInvalidError):
            moves.apply_move(d, site)
    assert reached == []
    for kind in ("IIa_remove", "IIa_insert", "IIb_insert", "RI_insert", "III"):
        moves.apply_move(d, moves.find_sites(d, kind)[0])
    assert reached == ["IIa_remove", "IIa_insert", "IIb_insert", "RI_insert", "IIIa"]
    assert set(callers) == {"_rewrite"} and len(callers) == 5

    seed, strands, letters = WALK_PINS[0][:3]
    _, want = reference_walk(seed, strands, letters)

    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} reached on a walk")
        return spy

    for name in ("apply_move", "MoveSite", "_fingerprint", "find_sites"):
        monkeypatch.setattr(moves, name, refuse(name))
    del reached[:], callers[:]
    _, got = moves.random_equivalent_pair(seed, 100, BraidWord(strands, letters),
                                          max_crossings=14)
    assert len(reached) == len(callers) == 100 and set(callers) == {"_rewrite"}
    assert got.to_pd_json() == want.to_pd_json()
    assert got.canonical_code() == want.canonical_code()


def test_one_crossing_record():
    # a crossing is made from its sign alone: over_parity is set in one
    # place, OrientedDiagram._validate, and no producer passes one, as an
    # argument or as a keyword
    import inspect

    from braidbracket.diagram import DiagramBuilder, OrientedDiagram

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            targets = []
            if isinstance(child, ast.Assign):
                targets = [t for top in child.targets for t in ast.walk(top)]
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "over_parity" for t in targets):
                found.append(f"{path.name}:{'.'.join(scope)}")
            if isinstance(child, ast.keyword) and child.arg == "over_parity":
                found.append(f"{path.name}:{'.'.join(scope)} keyword")
            visit(child, scope)

    for path in sorted(SRC.rglob("*.py")) + [ROOT / "tests" / "helpers.py"]:
        visit(ast.parse(path.read_text(), filename=str(path)), [])
    assert found == ["diagram.py:OrientedDiagram._validate"]
    assert list(inspect.signature(DiagramBuilder.add_crossing).parameters) == ["self", "sign"]
    assert "over_parity" not in inspect.signature(OrientedDiagram.__init__).parameters


def _scopes_where(match) -> list:
    """``module.py:Class.function`` of every node in src/ that ``match``
    accepts, one entry per node."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def _callers_of(method: str) -> list:
    """The scope of every call ``x.method(...)`` in src/."""
    return _scopes_where(lambda node: isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr == method)


def test_one_complex_assembler(monkeypatch):
    # the blocks of d are assembled in one place: in src/, _StateTable.rule
    # is applied to labelings by _Cube.blocks, the one assembly loop, and
    # by _dv_terms, which applies one rule to one labeling for the
    # definition-level routines; differential_matrices and homology_groups
    # both reach _Cube.blocks, and neither reaches _dv_terms
    from braidbracket import chain_complex, homology
    from braidbracket.diagram import parse_braid_word

    assert sorted(_callers_of("rule")) == [
        "chain_complex.py:_Cube.blocks", "chain_complex.py:_dv_terms"]

    reached = []
    assemble = chain_complex._Cube.blocks

    def spy(cube, p, blocks):
        reached.append(p)
        return assemble(cube, p, blocks)

    def refuse(*args):
        raise AssertionError("_dv_terms reached from the complex")

    monkeypatch.setattr(chain_complex._Cube, "blocks", spy)
    monkeypatch.setattr(chain_complex, "_dv_terms", refuse)
    d = parse_braid_word("B3 1 -2 1")
    chain_complex.differential_matrices(d)
    assert reached == [0, 1, 2, 3]
    reached.clear()
    homology.homology_groups(d)
    assert reached == [0, 1, 2, 3]


def _tests_for_a_unit(node) -> bool:
    """Whether ``node`` asks if a value is +-1: ``x == 1 or x == -1``,
    ``x in (1, -1)`` or ``abs(x) == 1``."""
    def literal(expr):
        try:
            return ast.literal_eval(expr)
        except ValueError:
            return None

    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        op, right = node.ops[0], node.comparators[0]
        if isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.List, ast.Set)):
            return {literal(e) for e in right.elts} == {1, -1}
        return (isinstance(op, ast.Eq) and literal(right) == 1
                and isinstance(node.left, ast.Call) and ast.unparse(node.left.func) == "abs")
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        equal = {(ast.unparse(v.left), literal(v.comparators[0])) for v in node.values
                 if isinstance(v, ast.Compare) and [type(o) for o in v.ops] == [ast.Eq]}
        return any((left, -value) in equal for left, value in equal if value == 1)
    return False


def test_one_reducer(monkeypatch, capsys):
    # unit-pivot elimination is done in one place: in src/, only
    # homology._Block asks whether a value is +-1, as it takes rows and as
    # it reduces what it stored (and laurent._join_terms, to print a
    # coefficient of 1 as nothing).  Homology has one intake, the layer
    # walk: homology_groups and _homology_table take a diagram and a cap
    # only, and even homology --dump-matrices --verify, which prints the
    # full complex, feeds a block only rows that _Cube.blocks assembled;
    # reducing a block takes no row
    import inspect

    from braidbracket import chain_complex, cli, homology
    from braidbracket.diagram import parse_braid_word

    assert sorted(set(_scopes_where(_tests_for_a_unit))) == [
        "homology.py:_Block.invariant_factors", "homology.py:_Block.take",
        "laurent.py:_join_terms"]
    for entry in (homology.homology_groups, homology._homology_table):
        assert list(inspect.signature(entry).parameters) == ["diagram", "cap"]

    reached, within = [], []
    take = homology._Block.take

    def inside(name, method):
        def spy(*args):
            reached.append(name)
            within.append(name)
            try:
                return method(*args)
            finally:
                within.pop()
        return spy

    def take_spy(block, rows):
        reached.append(f"take in {within[-1] if within else 'neither'}")
        return take(block, rows)

    monkeypatch.setattr(homology._Block, "take", take_spy)
    monkeypatch.setattr(homology._Block, "invariant_factors",
                        inside("reduce", homology._Block.invariant_factors))
    monkeypatch.setattr(chain_complex._Cube, "blocks",
                        inside("walk", chain_complex._Cube.blocks))
    d = parse_braid_word("B3 1 -2 1 -2")
    homology.homology_groups(d)
    assert {"take in walk", "reduce"} <= set(reached)
    assert not {"take in neither", "take in reduce"} & set(reached)
    reached.clear()
    assert cli.main(["homology", "-w", "B3 1 -2 1 -2", "--dump-matrices", "--verify"]) == 0
    assert "d2: OK" in capsys.readouterr().out
    assert {"take in walk", "reduce"} <= set(reached)
    assert not {"take in neither", "take in reduce"} & set(reached)


def test_one_intake():
    # a block of d is fed its rows in one place: in src/, only the walk,
    # _Cube.blocks, calls take
    assert _callers_of("take") == ["chain_complex.py:_Cube.blocks"]


def test_one_word_reduction(monkeypatch, capsys):
    # a closure's word is reduced in one place: in src/, only
    # homology.homology_groups calls BraidWord.reduced, and what shows or
    # checks the complex or the bracket of the diagram given never reaches
    # it: differential_matrices, check_euler_identity, the verify battery,
    # bracket_br, and homology --dump-matrices --verify
    import argparse

    from braidbracket import chain_complex, cli, homology
    from braidbracket.bracket import bracket_br
    from braidbracket.diagram import BraidWord, parse_braid_word
    from braidbracket.states import DEFAULT_CAP

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "reduced"):
                found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [])
    assert found == ["homology.py:homology_groups"]

    reached = []
    reduce = BraidWord.reduced

    def spy(word):
        reached.append(word)
        return reduce(word)

    monkeypatch.setattr(BraidWord, "reduced", spy)
    text = "B2 1 -1 1 1 -1"
    d = parse_braid_word(text)
    chain_complex.differential_matrices(d)
    assert homology.check_euler_identity(d)
    bracket_br(d)
    args = argparse.Namespace(word=text, seed=0, moves=3, cap=DEFAULT_CAP)
    assert all(flag for _, flag in cli._verify_battery(args))
    assert cli.main(["homology", "-w", text, "--dump-matrices", "--verify"]) == 0
    assert "d2: OK" in capsys.readouterr().out
    assert reached == []
    homology.homology_groups(d)
    assert reached == [d.braid_word]


def test_benchmark_outputs_match_their_stored_digests():
    # the benchmark's seed-0 batches must print what perfbench/digests.json
    # stores for them, and pass their output checks; this reads perfbench/
    # and writes nothing there
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # the dataclass looks its module up
    try:
        spec.loader.exec_module(workloads)
        stored = json.loads((ROOT / "perfbench" / "digests.json").read_text())
        for workload in workloads.WORKLOADS:
            requests = workloads.generate(workload, 0)
            assert {req.key for req in requests} == set(stored[workload])
            bad = [req.key for req in requests if not workloads.check(
                req, *workloads.execute(req), stored[workload][req.key])]
            assert bad == [], workload
    finally:
        del sys.modules[spec.name]
