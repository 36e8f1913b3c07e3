"""Tour of the refined bracket: state sums, specializations, sensitivity.

Run:  python demos/bracket_tour.py
"""

from braidbracket import (
    bracket_br,
    kauffman_oracle,
    lighten,
    normalize,
    parse_braid_word,
    seifert_leading_term,
    specialize_chi_to_delta,
)
from braidbracket.laurent import lp_str
from braidbracket.moves import figure4_family


def show(diagram, name):
    print(f"== {name} (writhe {diagram.writhe()})")
    b = bracket_br(diagram)
    for cfg, poly in sorted(b.items()):
        print(f"   {cfg or '(no h-circles)':14s} {lp_str(poly)}")
    return b


# The closure of a single positive crossing on two strands is an unknot
# winding twice around the braid axis.  Its bracket keeps the nesting of
# the two Seifert circles as the configuration "(())".
show(parse_braid_word("B2 1"), "closure of B2 word [1]")

# Hopf link closure: the leading term is A^w times the Seifert
# configuration, everything else has strictly fewer circles.
hopf = parse_braid_word("B2 1 1")
show(hopf, "Hopf link closure [1, 1]")
cfg, coeff = seifert_leading_term(hopf)
print(f"   leading term: {cfg} with coefficient {lp_str(coeff)}")

# Collapsing configurations to circle counts (chi) and then setting
# chi = -A^2 - A^-2 recovers the classical Kauffman bracket, which the
# library recomputes by an independent route as a cross-check.
trefoil = parse_braid_word("B2 1 1 1")
b = show(trefoil, "positive trefoil closure [1, 1, 1]")
classical = specialize_chi_to_delta(lighten(b))
print(f"   classical bracket: {lp_str(classical)}")
print(f"   independent oracle agrees: {classical == kauffman_oracle(trefoil)}")
print(f"   normalized: {sorted(lighten(normalize(trefoil, b)).items())}")

# The refinement sees what the Jones polynomial cannot: these unknot
# diagrams share writhe 0 and Whitney index, yet their brackets differ,
# so no braid-like isotopy connects them.
print("== curl-pair unknot family")
seen = []
for m in range(3):
    fam = figure4_family(m)
    b = bracket_br(fam)
    print(f"   member {m}: {fam.n} crossings, {len(b)} configurations")
    seen.append(b)
print(f"   pairwise distinct: "
      f"{all(seen[i] != seen[j] for i in range(3) for j in range(i + 1, 3))}")
