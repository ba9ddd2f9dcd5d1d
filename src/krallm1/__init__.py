"""Exact-arithmetic toolkit for the -1 Krall-Jacobi polynomial family.

The pipeline: little q-Jacobi polynomials, their Geronimus transform
with a mass parameter at the origin, the representation table of the
q-difference operator fixing the transformed family, the q -> -1 limit
family with its third-order reflection (Dunkl-type) operator, the exact
moment functional, and the 2x2 matrix orthogonal polynomials built from
the even parts.  Every identity relating those pieces is machine-checked
exactly or in high-precision floats.
"""

from .errors import (DegenerateParameters, DegreeUnderflow,
                     GeronimusDegenerate, IncompleteTable,
                     InsufficientMoments, IntegrabilityError, KrallM1Error,
                     NonPolynomialOutput, NotPositiveDefinite,
                     ResidualExceeded)
from .exact_core import (DEFAULT_PRECISION, LaurentPoly, format_rational,
                         parse_rational, poch, qpoch, qpochs, to_mpf,
                         working_precision)
from .minus_one import (MinusOneParams, MomentSequence, apply_L0_monomial,
                        apply_L0_operator, base_recurrence_m1, epsilon_scan,
                        family_from_chain, family_gram, gen_poly_family,
                        gen_poly_m1, gram_matrix, hankel_dets, inner_product,
                        lambda_tilde, limit_B, limit_rep_coeff, moments,
                        point_mass, quadrature_moment_check,
                        transformed_recurrence_m1, weight_density)
from .matrix_op import (FiveTermCoeffs, d_matrix, default_tolerance,
                        e_matrix, find_positive_definite_point,
                        five_term_check, matrix_poly, matrix_recurrence_check,
                        r_nm, split_even_odd)
from .qjacobi import (ABSENT, QJacobiParams, RepCoeffTable, apply_Lq,
                      geronimus_family, lambda_q, lqj_coeff, lqj_poly,
                      lqj_recurrence, phi, qn_zero, rep_coeff_paper,
                      rep_coeff_reconstruct, transformed_recurrence)
from .report import CheckResult, VerificationReport, exact_check

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
