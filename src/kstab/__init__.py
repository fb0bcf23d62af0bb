"""Exact K-stability certificates for polarized group compactifications.

From polytope data alone, this package decides whether a polarized
equivariant compactification of a reductive group (or a toric variety)
admits a certificate of K-instability, i.e. unboundedness of the Mabuchi
energy: a Weyl-invariant convex piecewise-linear test function with a
negative stability bracket.  Every computation is exact rational
arithmetic, and the closed-form bracket is verified against
first-principles weighted lattice-point sums.
"""

from .errors import (BudgetError, FitMismatch, KstabError, ParseError,
                     ValidationError)
from .exact import MPoly, interpolate_univariate, rat_str
from .functionals import (BracketTerms, StabilityReport, abcd_coefficients,
                          average_a, bracket_terms, csc_verdict,
                          density_sign_scan, futaki_minus_F1, plus_masses,
                          stability_bracket)
from .generators import (gen_donaldson72, gen_pgl3_family, gen_pgln_simplex,
                         gen_wonderful, random_w_invariant_polytope)
from .integrate import (boundary_integral, face_integral, integrate_poly,
                        triangulate, volume)
from .oracle import (LatticeSumSeries, fit_series, lemma_check, oracle_futaki,
                     weighted_lattice_sum)
from .polytope import (Polytope, chamber_intersect, hj_smooth_corner_2d,
                       hull_and_facets, is_delzant, is_w_invariant,
                       make_delzant_2d, validate_complex, wall_vertex_check)
from .plfunc import (LiftedPolytope, PLFunction, build_test_polytope,
                     corner_crease, eval_pl, is_w_invariant_pl, pl_constant,
                     pl_from_pieces, subdivision_from_pl, symmetrize)
from .problemfile import Problem, load_problem, parse_problem, save_problem, serialize_problem
from .rootsys import RootSystem, build_root_system, multiplicity_at, weyl_orbit
from .scan import scan_destabilizer

__version__ = "0.1.0"
