"""Refined Kauffman bracket and tri-graded homology for braid-like isotopy.

The library computes, for oriented link diagrams with an explicit planar
embedding:

* the refined bracket, a state sum valued in the free Z[A, A^-1]-module on
  plane configurations of circles, invariant under braid-like Reidemeister
  moves (II_a and the six coherently oriented III moves) but not under RI
  or II_b;
* its "lightened" image in Z[A, A^-1, chi] and the classical Kauffman
  bracket specialization;
* a tri-graded chain complex of enhanced states with an integer
  differential of degree (-1, 0, 0), and its integer homology via Smith
  normal form;
* a rewriting engine for braid-like Reidemeister moves used to batch-test
  invariance, plus RI / II_b insertions as negative controls.

Everything is exact integer arithmetic; there is no floating point.
"""

from .diagram import (
    BraidWord,
    OrientedDiagram,
    DiagramError,
    MalformedWordError,
    NonPlanarError,
    OrientationError,
    FormatError,
    parse_braid_word,
    parse_pd,
    reverse_orientation,
    writhe,
)
from .states import (
    KauffmanState,
    SizeCapError,
    StateCircle,
    configuration_of,
    enumerate_states,
    resolve,
    seifert_state,
    sigma,
    winding_number,
)
from .bracket import (
    add_marked_circle,
    bracket_br,
    kauffman_oracle,
    lighten,
    normalize,
    seifert_leading_term,
    skein_expand,
    specialize_chi_to_delta,
)
from .chain_complex import (
    EnhancedState,
    differential_matrices,
    enhanced_states,
    incidence,
    partial_differential,
    verify_anticommute,
)
from .homology import (
    check_euler_identity,
    euler_characteristic,
    homology_groups,
    smith_normal_form,
)
from .moves import (
    GenerationError,
    MoveSite,
    SiteInvalidError,
    apply_move,
    apply_move_script,
    figure4_family,
    find_sites,
    random_equivalent_pair,
    site_to_json,
)

__all__ = [
    "BraidWord",
    "OrientedDiagram",
    "DiagramError",
    "MalformedWordError",
    "NonPlanarError",
    "OrientationError",
    "FormatError",
    "SizeCapError",
    "parse_braid_word",
    "parse_pd",
    "reverse_orientation",
    "writhe",
    "KauffmanState",
    "StateCircle",
    "configuration_of",
    "enumerate_states",
    "resolve",
    "seifert_state",
    "sigma",
    "winding_number",
    "add_marked_circle",
    "bracket_br",
    "kauffman_oracle",
    "lighten",
    "normalize",
    "seifert_leading_term",
    "skein_expand",
    "specialize_chi_to_delta",
    "EnhancedState",
    "differential_matrices",
    "enhanced_states",
    "incidence",
    "partial_differential",
    "verify_anticommute",
    "check_euler_identity",
    "euler_characteristic",
    "homology_groups",
    "smith_normal_form",
    "GenerationError",
    "MoveSite",
    "SiteInvalidError",
    "apply_move",
    "apply_move_script",
    "figure4_family",
    "find_sites",
    "random_equivalent_pair",
    "site_to_json",
]

__version__ = "0.1.0"
