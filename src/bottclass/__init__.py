"""Exact classification of real Bott manifolds.

Diffeomorphism classes of Bott matrices under the three standard moves,
Z2 cohomology rings with Stiefel-Whitney classes, Spin and Spin^C
obstructions with an independent Clifford-lift oracle, the underlying
Bieberbach groups, and a cohomological-rigidity experiment.
"""

__version__ = "0.1.0"

from .bieberbach import (
    AffineIso,
    GroupPresentation,
    TransLattice,
    conjugate_by_perm,
    format_iso,
    generators_of,
    holonomy_rep,
    is_torsion_free,
    lattice_of,
    gamma_n_generators,
    member,
    tower_conjugation_report,
    verify_tower_conjugation,
)
from .bottmatrix import (
    BottMatrix,
    ClassFingerprint,
    ColumnMismatch,
    DiffeoClass,
    MatrixParseError,
    NotBottMatrix,
    count_ghw_rbm_classes,
    diffeo_class_of,
    diffeo_classes,
    enumerate_strict_upper,
    format_matrix_text,
    is_ghw_rbm,
    is_orientable,
    op1,
    op2,
    op3,
    parse_matrix,
    to_json_dict,
    to_strict_upper,
    validate,
)
from .cohomology import (
    CohomRing,
    Gf2Poly,
    format_poly,
    h2_real_is_zero,
    poly_from_vars,
    ring_of,
)
from .gf2 import (
    BoundExceeded,
    InvariantViolation,
    Gf2Mat,
    kernel_basis,
    solve,
    UsageError,
)
from .rigidity import RingIsoWitness, rigidity_experiment, ring_isomorphic
from .spin import (
    CliffordElement,
    NonOrientable,
    ObstructionWitness,
    SpinLift,
    clifford_mul,
    has_spin,
    spin_lift_search,
    spinc_obstructed,
    odd_overlap_witness,
    disjoint_rows_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
