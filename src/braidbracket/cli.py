"""Command-line front end.

Three subcommands: ``bracket`` (refined bracket, lightened and normalized
forms), ``homology`` (tri-graded groups and graded Euler characteristic)
and ``verify`` (invariance battery on generated braid-like pairs, or
negative controls).  Input is a braid word (``-w "B2 1 1 1"``), an
oriented-PD JSON file (``-f`` or a positional path), or ``-`` for stdin.

Exit codes: 0 success, 2 parse error, 3 size cap exceeded, 4 pair
generation failure, 5 verification failure.  Output is byte-deterministic
for a fixed input, seed and version.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .diagram import DiagramError, OrientedDiagram, braid_closure, parse_pd, parse_word
from .laurent import lp_str, lp2_str
from .states import DEFAULT_CAP, SizeCapError, enumerate_states
from .bracket import (
    _add_into,
    bracket_br,
    bracket_to_json,
    kauffman_oracle,
    lighten,
    normalize,
    seifert_leading_term,
    skein_expand,
    specialize_chi_to_delta,
)
from .chain_complex import _check_word_cap, differential_matrices
from .homology import (
    _homology_table,
    euler_characteristic,
    homology_groups,
    homology_to_json,
    lightened_in_h,
)
from .moves import GenerationError, apply_move, find_sites, random_equivalent_pair

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_GENERATION = 4
EXIT_VERIFY = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="braidbracket", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", nargs="?", help="oriented-PD JSON file")
    common.add_argument("-w", "--word", help='braid word, e.g. "B2 1 1 1"')
    common.add_argument("-f", "--file", help="oriented-PD JSON file")
    common.add_argument("--cap", type=int, default=DEFAULT_CAP, help="state-sum size cap")
    common.add_argument("--unsafe-cap", action="store_true",
                        help=f"allow caps above {DEFAULT_CAP} crossings")
    common.add_argument("--format", dest="fmt", default="pretty",
                        choices=("json", "csv", "pretty"))
    bracket = sub.add_parser("bracket", parents=[common])
    bracket.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; has no effect")
    homology = sub.add_parser("homology", parents=[common])
    homology.add_argument("--verify", action="store_true",
                          help="also check the Euler identity and d^2 = 0")
    homology.add_argument("--dump-matrices", action="store_true")
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--moves", type=int, default=10)
    verify.add_argument("--negative-control", choices=("RI", "IIb"))
    return p


def _load_diagram(args: argparse.Namespace) -> OrientedDiagram:
    if args.word is not None:
        word = parse_word(args.word)
        try:
            return braid_closure(word)
        except (OverflowError, MemoryError):  # the closure allocates per strand
            exc = SizeCapError(word.strands, args.cap)
            exc.args = (f"{word.strands} strands are too many to build",)
            raise exc from None
    path = args.file if args.file is not None else args.input
    if path is None:
        raise DiagramError("no input: give -w WORD, -f FILE, or a file path")
    if path == "-":
        return parse_pd(sys.stdin.read())
    with open(path, "rb") as fh:
        return parse_pd(fh.read())


def cmd_bracket(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args)
    b = bracket_br(diagram, cap=args.cap)
    light = lighten(b)
    norm = normalize(diagram, b)
    if args.fmt == "json":
        obj = {
            "writhe": diagram.writhe(),
            "bracket": bracket_to_json(b),
            "lightened": [
                {"a": a, "chi": m, "coeff": str(c)}
                for (a, m), c in sorted(light.items())
            ],
            "normalized": bracket_to_json(norm),
        }
        print(json.dumps(obj, sort_keys=True))
    elif args.fmt == "csv":
        print("section,config,exponent,coefficient")
        for cfg_str, poly in sorted(b.items()):
            for e, c in sorted(poly.items()):
                print(f"bracket,{cfg_str},{e},{c}")
        for (a, m), c in sorted(light.items()):
            print(f"lightened,chi^{m},{a},{c}")
        for cfg_str, poly in sorted(norm.items()):
            for e, c in sorted(poly.items()):
                print(f"normalized,{cfg_str},{e},{c}")
    else:
        print(f"writhe: {diagram.writhe()}")
        print("bracket:")
        for cfg_str, poly in sorted(b.items()):
            print(f"  {cfg_str or '(empty)'} : {lp_str(poly)}")
        light_str = " + ".join(
            f"({c})*A^{a}*chi^{m}" for (a, m), c in sorted(light.items())
        )
        print(f"lightened: {light_str or '0'}")
        print("normalized ((-A)^(-3w) * bracket):")
        for cfg_str, poly in sorted(norm.items()):
            print(f"  {cfg_str or '(empty)'} : {lp_str(poly)}")
    return EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    if args.word is not None:  # the cap holds before the closure is built
        _check_word_cap(parse_word(args.word), args.cap)
    diagram = _load_diagram(args)
    # the full complex is assembled only where every block is printed or
    # checked, and then the table is that of the diagram as given, never of
    # a reduced word; otherwise homology assembles what it reduces
    dm = None
    if args.verify or args.dump_matrices:
        dm = differential_matrices(diagram, cap=args.cap)
        table = _homology_table(diagram, args.cap)
    else:
        table = homology_groups(diagram, cap=args.cap)
    euler = euler_characteristic(table)
    verify_lines = []
    failed = False
    if args.verify:
        euler_ok = lightened_in_h(diagram, cap=args.cap) == euler
        d2_ok = dm.check_d_squared()
        verify_lines = [f"euler: {'OK' if euler_ok else 'FAIL'}",
                        f"d2: {'OK' if d2_ok else 'FAIL'}"]
        failed = not (euler_ok and d2_ok)
    if args.fmt == "json":
        obj = homology_to_json(table, euler)
        if args.dump_matrices:
            obj["matrices"] = dm.to_sparse_json()
        if verify_lines:
            obj["verify"] = verify_lines
        print(json.dumps(obj, sort_keys=True))
    elif args.fmt == "csv":
        print("i,j,k,betti,torsion")
        for (i, j, k), (betti, torsion) in sorted(table.items()):
            print(f"{i},{j},{k},{betti},{';'.join(map(str, torsion))}")
        for line in verify_lines:
            print(f"# {line}")
        if args.dump_matrices:
            print(f"# matrices {json.dumps(dm.to_sparse_json(), sort_keys=True)}")
    else:
        for (i, j, k), (betti, torsion) in sorted(table.items()):
            parts = ["Z"] * betti + [f"Z/{t}" for t in torsion]
            print(f"H[{i},{j},{k}] = {' + '.join(parts)}")
        print(f"euler: {lp2_str(euler)}")
        for line in verify_lines:
            print(line)
        if args.dump_matrices:
            print(json.dumps(dm.to_sparse_json(), sort_keys=True))
    return EXIT_VERIFY if failed else EXIT_OK


def _verify_battery(args: argparse.Namespace) -> list:
    if args.word is None:
        raise DiagramError("verify needs a braid word (-w)")
    base = parse_word(args.word)
    if args.moves >= 0:  # a negative count is refused first, as a generation failure
        _check_word_cap(base, args.cap)  # read before the closure is built
    d1, d2 = random_equivalent_pair(args.seed, args.moves, base)
    checks = []
    b1, b2 = bracket_br(d1, cap=args.cap), bracket_br(d2, cap=args.cap)
    checks.append(("bracket equality", b1 == b2))
    # the battery tests braid-like invariance, which homology_groups relies
    # on to reduce a closure's word, so it computes both sides as given
    checks.append(
        ("homology equality",
         _homology_table(d1, args.cap) == _homology_table(d2, args.cap))
    )
    for name, d, b in (("base", d1, b1), ("moved", d2, b2)):
        lhs = specialize_chi_to_delta(lighten(b))
        checks.append((f"oracle identity ({name})", lhs == kauffman_oracle(d, cap=args.cap)))
    skein_ok = True
    for v in d1.active_crossings:
        rhs = {}
        for shift, d in zip((1, -1), skein_expand(d1, v)):
            for cfg_str, poly in bracket_br(d, cap=args.cap).items():
                _add_into(rhs, cfg_str, poly, shift)
        if rhs != b1:
            skein_ok = False
    checks.append(("skein identity", skein_ok))
    try:
        seifert_leading_term(d1, cap=args.cap)
        checks.append(("seifert leading term", True))
    except AssertionError:
        checks.append(("seifert leading term", False))
    wind_ok = True
    for state in enumerate_states(d1, cap=args.cap):
        for c in state.circles:
            if (c.winding == 0) != (c.circle_type == "d") or abs(c.winding) > 1:
                wind_ok = False
    checks.append(("winding/type check", wind_ok))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    if args.negative_control:
        diagram = _load_diagram(args)
        kind = "RI_insert" if args.negative_control == "RI" else "IIb_insert"
        sites = find_sites(diagram, kind)
        if not sites:
            raise GenerationError(f"no {kind} site available")
        moved = apply_move(diagram, sites[args.seed % len(sites)])
        differs = bracket_br(moved, cap=args.cap) != bracket_br(diagram, cap=args.cap)
        if args.fmt == "json":
            print(json.dumps({"control": args.negative_control,
                              "bracket_differs": differs}, sort_keys=True))
        elif args.fmt == "csv":
            print("control,bracket_differs")
            print(f"{args.negative_control},{'true' if differs else 'false'}")
        else:
            print(
                f"negative control {args.negative_control}: bracket "
                f"{'differs (expected difference found)' if differs else 'UNCHANGED'}"
            )
        return EXIT_OK if differs else EXIT_VERIFY
    checks = _verify_battery(args)
    ok = all(flag for _, flag in checks)
    if args.fmt == "json":
        print(json.dumps({name: bool(flag) for name, flag in checks}, sort_keys=True))
    elif args.fmt == "csv":
        print("check,status")
        for name, flag in checks:
            print(f"{name},{'OK' if flag else 'FAIL'}")
    else:
        for name, flag in checks:
            print(f"{name}: {'OK' if flag else 'FAIL'}")
        print("all checks passed" if ok else "verification failed")
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cap = args.cap
    if cap < 0:
        print(f"cap {cap} is negative; it must be >= 0", file=sys.stderr)
        return EXIT_PARSE
    if cap > DEFAULT_CAP and not args.unsafe_cap:
        print(f"cap {cap} above {DEFAULT_CAP} needs --unsafe-cap", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.command == "bracket":
            return cmd_bracket(args)
        if args.command == "homology":
            return cmd_homology(args)
        return cmd_verify(args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except GenerationError as exc:
        print(f"pair generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except (DiagramError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
