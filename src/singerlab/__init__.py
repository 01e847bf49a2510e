"""singerlab: exact computation in GL_n(F_q).

Singer cycles, reflections, minimum-length reflection factorizations, and
exhaustive desk-scale verification of the generation theorems that link
them.
"""

from .errors import BudgetExceededError
from .ff import FieldSpec, element_order, factorize, is_prime, make_field
from .groupgen import (ClosureResult, classify_qc, generates_full,
                       group_closure, normalizer_of_cyclic, verify_gill,
                       verify_main1, verify_main2)
from .matrix import (Matrix, Subspace, char_poly, enumerate_gl,
                     enumerate_subspaces, fixed_space, gl_exponent, gl_order,
                     matrix_order, stabilizes)
from .poly import (FieldExtension, Poly, companion, enumerate_monic,
                   field_model, find_primitive_poly, gcd, invmod,
                   is_irreducible, is_primitive_poly, powmod)
from .reflect import (FactorizationList, enumerate_minimal_factorizations,
                      enumerate_reflections, factorizations_in_det_subgroup,
                      is_reflection, minimal_factorization, reflection_length,
                      stabilizing_factorization)
from .singer import (irreducible_conditions, is_irreducible_element,
                     is_irreducible_oracle, is_singer, normalizer_reflection,
                     normalizing_reflections, singer_oracles)

__version__ = "0.1.0"
