"""Exact cohomology of the fibres of polynomial maps C^n -> C^q (n > q).

The library decides the complete-intersection-at-infinity property,
computes the Milnor number and a weighted-homogeneous basis of the
top cohomology of the fibre at infinity, and produces certified,
degree-bounded decompositions of closed forms in fibre and relative
cohomology.  All arithmetic is exact.
"""

from .polyform import (NEG_INF, KForm, Polynomial, euler_contraction,
                       exterior_derivative, lie_derivative,
                       scaling_substitution, validate_weights, wedge)
from .groebner import (GroebnerBasis, MonomialOrder, buchberger,
                       elimination_ideal, elimination_order, ideal_dimension,
                       quotient_vector_basis)
from .gradedlin import (ColumnGroup, CombinationSolver, ExactLinearSolver,
                        GroupWitness, kform_coordinates, monomial_basis,
                        weighted_exponents)
from .infinity import (InfinityBasis, PolyMap, PreconditionError,
                       closed_at_infinity, euler_normalize,
                       exact_at_infinity, infinity_basis,
                       is_complete_intersection_at_infinity,
                       koszul_kernel_generators, milnor_number,
                       singular_dimension)
from .fibre import (ExactnessResult, FibreClass, RelativeDecomposition,
                    bounded_ideal_membership, closed_on_fibre,
                    exact_on_fibre, fibre_class, is_in_subalgebra,
                    relative_closed, relative_decompose,
                    relative_exact_homogeneous, verify_decomposition,
                    verify_vanishing)
from .parse import (ParseError, ProblemFile, form_str, parse_form_expr,
                    parse_polynomial_expr, parse_problem, poly_str)

__version__ = "0.1.0"
