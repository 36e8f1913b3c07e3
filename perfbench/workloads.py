"""Workload inputs, request execution and output checks.

Every workload is a fixed batch of requests made from the workload seed.
Each braid-word request slot has a word fixed by the design, and the seed
picks a presentation of it: a cyclic rotation, a flip of the strands
(i -> k - i) and a mirror image.  Rotation and flip give the same diagram
on the sphere, and the mirror swaps the two smoothings at every crossing,
so every seed does the same state-sum and complex work, while the
brackets and homology groups printed differ.  (Letting the seed pick the
crossing signs moved the cost of a batch of homology requests by 10-20%
from seed to seed.)  Walk seeds and walk bases come from the seed.

* ``bracket``: ``bracket --format json -w WORD`` on random words with 2-4
  strands and 8-11 crossings; every fourth request adds ``--threads 2``.
  The state sum (``states``, ``bracket``) does almost all the work.
* ``homology``: ``homology --format json -w WORD`` on closures with 2-3
  strands and 6-8 crossings.  Complex assembly (``chain_complex``) and
  the sparse Smith normal form (``homology``) do the work; ``bracket``
  does none.  Two-strand words cost two to four times as much as
  three-strand words of the same length.  Requests stop at 8 crossings so
  that a batch takes a few seconds: one request takes about 0.6 s at 8
  crossings, 2 s at 9 and up to 8 s at 10 (and 28 s and 300 MB at 11).
* ``verify``: the self-checks.  CLI ``verify`` batteries on the acceptance
  bases, negative controls and ``homology --verify`` on closures of at
  most 7 crossings run the bracket, complex and homology layers on many
  small, moved and skein-expanded diagrams that are not closures.  Library
  walks of 100 braid-like moves up to 14 crossings on knot closures with
  2-4 strands, each followed by a PD JSON round trip and
  ``canonical_code``, put move finding and diagram building (``moves``,
  ``diagram``) at about two thirds of the batch's time.

A request's output is its stdout (for a walk, the PD JSON and the
canonical code), and it is checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = ("bracket", "homology", "verify")

# The bases of the braid-like invariance acceptance check (criterion 08).
ACCEPTANCE_BASES = ((2, (1, 1, 1)), (3, (1, 2, 1)), (2, (1, 1)), (3, (1, 2, -1, 2)))

# Each batch takes about 6 s, so that a run repeats it several times, and
# the cells are sized so that the median and the tail request fall inside a
# group of similar requests rather than at a jump in cost.
# (crossings, requests) per batch; strands cycle through 2, 3, 4.  The
# median falls among the 8-crossing requests and the tail among the eight
# 10-crossing ones.
BRACKET_CELLS = ((8, 30), (9, 10), (10, 8), (11, 2))
# (strands, crossings, requests) per batch: the median request falls among
# the ten 2-strand 7-crossing ones and the tail among the six 2-strand
# 8-crossing ones.
HOMOLOGY_CELLS = ((2, 6, 4), (3, 6, 4), (3, 7, 4), (2, 7, 10), (3, 8, 4), (2, 8, 6))
HOMOLOGY_VERIFY_CELLS = ((2, 5, 2), (2, 6, 2), (3, 6, 1), (3, 7, 1))
# One move per battery: a second move either cancels the first or grows the
# diagram by four crossings, which makes the cost of a battery bimodal.
VERIFY_BATTERY_MOVES, VERIFY_BATTERIES_PER_BASE = 1, 3
# The walks are the group of similar requests that spans the median and
# the p90 request of the verify batch; with fewer, the median sits where
# one-move batteries overlap the walks in cost, and their relative speed
# moves with the machine's load.
REWRITE_WALKS, REWRITE_MOVES, REWRITE_MAX_CROSSINGS = 60, 100, 14

TINY_BRACKET_CELLS = ((4, 2), (5, 2), (6, 1))
TINY_HOMOLOGY_CELLS = ((2, 4, 1), (3, 5, 1))
TINY_HOMOLOGY_VERIFY_CELLS = ((2, 4, 1),)
TINY_REWRITE_WALKS, TINY_REWRITE_MOVES = 1, 8


@dataclass(frozen=True)
class Request:
    """One request: CLI argv, or a rewrite walk (base word and walk seed)."""

    kind: str                    # check to apply to the output
    strands: int
    letters: Tuple[int, ...]
    argv: Optional[Tuple[str, ...]] = None
    walk_seed: int = 0
    walk_moves: int = 0

    @property
    def word(self) -> str:
        return " ".join([f"B{self.strands}"] + [str(g) for g in self.letters])

    @property
    def key(self) -> str:
        """Stable name of the request, used for stored output digests."""
        if self.argv is not None:
            return " ".join(self.argv)
        return f"rewrite {self.word} seed={self.walk_seed} moves={self.walk_moves}"


def _letters(rng: random.Random, strands: int, crossings: int) -> Tuple[int, ...]:
    pool = [g for g in range(1, strands)] + [-g for g in range(1, strands)]
    return tuple(rng.choice(pool) for _ in range(crossings))


def _slot_letters(rng: random.Random, workload: str, slot: int, strands: int,
                  crossings: int) -> Tuple[int, ...]:
    """A presentation, picked by ``rng``, of the slot's fixed word."""
    design = random.Random(f"{workload}:{slot}:{strands}:{crossings}")
    while True:  # a word that uses every generator
        word = _letters(design, strands, crossings)
        if len({abs(g) for g in word}) == strands - 1:
            break
    shift = rng.randrange(crossings)
    word = word[shift:] + word[:shift]
    if rng.random() < 0.5:  # flip the strands
        word = tuple((strands - abs(g)) * (1 if g > 0 else -1) for g in word)
    if rng.random() < 0.5:  # mirror
        word = tuple(-g for g in word)
    return word


def _knot_letters(rng: random.Random, strands: int, crossings: int) -> Tuple[int, ...]:
    """A random word whose closure is a knot (its permutation is one cycle).

    Walks on multi-component closures can split the diagram, and a split
    diagram can leave no braid-like move, which ends the walk with
    ``GenerationError``.
    """
    while True:
        letters = _letters(rng, strands, crossings)
        perm = list(range(strands))
        for g in letters:
            a = abs(g) - 1
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
        x, length = perm[0], 1
        while x != 0:
            x, length = perm[x], length + 1
        if length == strands:
            return letters


def _cli(kind, strands, letters, *args) -> Request:
    word = " ".join([f"B{strands}"] + [str(g) for g in letters])
    argv = tuple(args[:1]) + ("--format", "json", "-w", word) + tuple(args[1:])
    return Request(kind, strands, letters, argv=argv)


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's batch of requests; the same seed gives the same batch."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "bracket":
        cells = TINY_BRACKET_CELLS if tiny else BRACKET_CELLS
        slots = [(2 + i % 3, n) for i, n in enumerate(
            n for n, count in cells for _ in range(count))]
        for i, (strands, crossings) in enumerate(slots):
            extra = ("--threads", "2") if i % 4 == 3 else ()
            out.append(_cli("bracket", strands,
                            _slot_letters(rng, workload, i, strands, crossings),
                            "bracket", *extra))
    elif workload == "homology":
        cells = TINY_HOMOLOGY_CELLS if tiny else HOMOLOGY_CELLS
        slots = [(k, n) for k, n, count in cells for _ in range(count)]
        for i, (strands, crossings) in enumerate(slots):
            out.append(_cli("homology", strands,
                            _slot_letters(rng, workload, i, strands, crossings),
                            "homology"))
    elif workload == "verify":
        bases = ACCEPTANCE_BASES[:1] if tiny else ACCEPTANCE_BASES
        for strands, letters in bases:
            for control in ("RI",) if tiny else ("RI", "IIb"):
                out.append(_cli("control", strands, letters, "verify",
                                "--negative-control", control,
                                "--seed", str(rng.randrange(1000))))
        for strands, letters in ACCEPTANCE_BASES[2:3] if tiny else ACCEPTANCE_BASES:
            for _ in range(1 if tiny else VERIFY_BATTERIES_PER_BASE):
                out.append(_cli("battery", strands, letters, "verify",
                                "--seed", str(rng.randrange(10**6)),
                                "--moves", str(VERIFY_BATTERY_MOVES)))
        cells = TINY_HOMOLOGY_VERIFY_CELLS if tiny else HOMOLOGY_VERIFY_CELLS
        slots = [(k, n) for k, n, count in cells for _ in range(count)]
        for i, (strands, crossings) in enumerate(slots):
            out.append(_cli("homology_verify", strands,
                            _slot_letters(rng, workload, i, strands, crossings),
                            "homology", "--verify"))
        walks = TINY_REWRITE_WALKS if tiny else REWRITE_WALKS
        moves = TINY_REWRITE_MOVES if tiny else REWRITE_MOVES
        for i in range(walks):
            strands = 2 + i % 3
            # a knot closure needs a word length of the k-cycle's parity
            lengths = [n for n in (3, 4, 5, 6) if n % 2 == (strands - 1) % 2]
            letters = _knot_letters(rng, strands, lengths[(i // 3) % 2])
            out.append(Request("rewrite", strands, letters,
                               walk_seed=rng.randrange(10**6), walk_moves=moves))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# -- execution ---------------------------------------------------------------


def execute(req: Request):
    """Run one request in-process; returns (output, exit code, extra).

    ``extra`` holds what the output check needs beyond the output text.
    Library functions are looked up on their modules at call time, so
    installed trace wrappers are used.
    """
    if req.argv is not None:
        cli = sys.modules["braidbracket.cli"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(req.argv))
        return buf.getvalue(), code, None
    diagram_mod = sys.modules["braidbracket.diagram"]
    moves = sys.modules["braidbracket.moves"]
    base = diagram_mod.BraidWord(req.strands, req.letters)
    d1, d2 = moves.random_equivalent_pair(req.walk_seed, req.walk_moves, base,
                                          max_crossings=REWRITE_MAX_CROSSINGS)
    text = d2.to_pd_json()
    d3 = diagram_mod.parse_pd(text)
    return text + "\n" + d3.canonical_code() + "\n", 0, (d1, d2, d3)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- output checks -------------------------------------------------------------

DELTA = {2: -1, -2: -1}  # -A^2 - A^-2


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _add_term(poly: dict, key, c: int) -> None:
    s = poly.get(key, 0) + c
    if s:
        poly[key] = s
    else:
        poly.pop(key, None)


def _check_bracket(req: Request, out: str, code, extra) -> bool:
    """Writhe, lightened = lighten(bracket), normalization, and the oracle."""
    from braidbracket import kauffman_oracle, parse_braid_word

    obj = json.loads(out)
    w = sum(1 if g > 0 else -1 for g in req.letters)
    if code != 0 or obj["writhe"] != w:
        return False
    light: dict = {}
    normalized = []
    sign = -1 if w % 2 else 1
    for term in obj["bracket"]["terms"]:
        m = term["config"].count("(")
        poly = {int(e): int(c) for e, c in term["poly"].items()}
        for e, c in poly.items():
            _add_term(light, (e, m), c)
        normalized.append({"config": term["config"],
                           "poly": {str(e - 3 * w): str(sign * c)
                                    for e, c in sorted(poly.items())}})
    if light != {(t["a"], t["chi"]): int(t["coeff"]) for t in obj["lightened"]}:
        return False
    if normalized != obj["normalized"]["terms"]:
        return False
    classical: dict = {}
    for (a, m), c in light.items():
        poly = {a: c}
        for _ in range(m):
            poly = _mul(poly, DELTA)
        for e, x in poly.items():
            _add_term(classical, e, x)
    return classical == kauffman_oracle(parse_braid_word(req.word))


def _check_homology(req: Request, out: str, code, extra) -> bool:
    """The printed Euler characteristic matches the printed groups and the
    lightened bracket read in H."""
    from braidbracket import parse_braid_word
    from braidbracket.homology import euler_characteristic, lightened_in_h

    obj = json.loads(out)
    table = {(g["i"], g["j"], g["k"]): (g["betti"], tuple(g["torsion"]))
             for g in obj["groups"]}
    euler = {tuple(map(int, key.strip("()").split(","))): c
             for key, c in obj["euler"].items()}
    return (code == 0 and euler == euler_characteristic(table)
            == lightened_in_h(parse_braid_word(req.word)))


def _check_battery(req: Request, out: str, code, extra) -> bool:
    obj = json.loads(out)
    return code == 0 and len(obj) > 0 and all(v is True for v in obj.values())


def _check_control(req: Request, out: str, code, extra) -> bool:
    control = req.argv[req.argv.index("--negative-control") + 1]
    return code == 0 and json.loads(out) == {"control": control, "bracket_differs": True}


def _check_homology_verify(req: Request, out: str, code, extra) -> bool:
    return code == 0 and json.loads(out).get("verify") == ["euler: OK", "d2: OK"]


def _check_rewrite(req: Request, out: str, code, extra) -> bool:
    """The canonical code survives the PD round trip and the writhe is kept."""
    d1, d2, d3 = extra
    text, canonical = out[:-1].rsplit("\n", 1)
    w = sum(1 if g > 0 else -1 for g in req.letters)
    return (canonical == d2.canonical_code() and text == d2.to_pd_json()
            and d1.writhe() == d2.writhe() == d3.writhe() == w)


CHECKS = {
    "bracket": _check_bracket,
    "homology": _check_homology,
    "battery": _check_battery,
    "control": _check_control,
    "homology_verify": _check_homology_verify,
    "rewrite": _check_rewrite,
}


def check(req: Request, out: str, code, extra,
          stored_digest: Optional[str] = None) -> bool:
    """True when the output is correct (and matches its stored digest, if any)."""
    if stored_digest is not None and digest(out) != stored_digest:
        return False
    try:
        return bool(CHECKS[req.kind](req, out, code, extra))
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
