"""Exact state-sum evaluation of 2d lattice TQFTs on spin surfaces."""

from .algebra import (BUILTIN_NAMES, GradedFrobeniusAlgebra, builtin_by_name,
                      builtin_clifford, builtin_group_z2,
                      builtin_twisted_matrix, derive, validate_predicates)
from .eval import (Amplitude, build_graph, contract_exhaustive,
                   contract_graph, evaluate, evaluate_raw, plan_contraction)
from .fields import QQ, PrimeField, RationalField
from .pachner import PachnerMove, apply_pachner_move, random_pachner_move
from .spin import (NS, R_TYPE, MarkingMove, apply_marking_move,
                   arf_invariant, classify_spin_structures,
                   curve_lift_sign, enumerate_admissible, is_admissible,
                   quadratic_form, quadratic_pairs, symplectic_basis)
from .surface import (CurveSpec, CurveStep, Edge, MarkedTriangulation, Slot,
                      Triangle, build_cylinder, build_disk,
                      build_pair_of_pants, genus_g_closed,
                      genus_g_closed_detail, glue_boundaries, validate)
from .tensor import BudgetExceeded, GradedTensor
from .tft import (closed_form, cylinder_closed_form, cylinder_spin,
                  glue_amplitude, pants_closed_form, pants_spin,
                  plus_part_state_sum, spin_class_handles, state_space,
                  statistical_sign_sum, torus_spin, z_algebra)

__version__ = "0.1.0"
