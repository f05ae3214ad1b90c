"""Exact verification and construction kit for deformed Novikov structures.

Everything is computed over Q or Q[q] with no floating point anywhere:
structure constants, induced products and coproducts, doubles, Yang-Baxter
residuals, and windowed checks on graded completions.
"""

from .exactcore import (POLY, RATIONAL, Scalar, Tensor, ZeroPolynomialError,
                        polynomial, qvar, rational_roots)
from .structures import (AxiomReport, Presentation, PresentationError, QLocus,
                         RepAdmDiff, RepNov, Space, all_hold, check_axiom,
                         dualize, is_admissible_quadruple, scan_residuals,
                         vanishing_locus)
from .constructions import (deformation_family_check, descendent_commdiff,
                            descendent_novikov, dual_rep_admdiff,
                            dual_rep_novikov, induce_nov_coalg, induce_novikov,
                            induced_rep_q, pre_novikov_from_oop,
                            pre_novikov_from_zinbiel, regular_rep_novikov,
                            semidirect_admdiff, semidirect_novikov,
                            zinbiel_from_oop)
from .bialgebra import (check_admissible_zinbiel, check_diff_asi_bialgebra,
                        check_manin_triple, check_novikov_bialgebra,
                        double_construction, double_induced_family,
                        family_difference_locus, novikov_bialgebra_locus,
                        prenov_double_family, quadratic_novikov_check,
                        standard_form, zinbiel_double)
from .ybe import (aybe_residual, canonical_r, delta_r, Delta_qr,
                  is_antisymmetric, nybe_residual, oop_check, r_admissibility,
                  r_from_T, T_from_r)
from .liewindow import (WindowSpec, polyalg_family, polyalg_window_check,
                        window_lie_bialgebra_check)
from .presfile import PresFileError, emit, load, parse, save

__version__ = "0.1.0"
