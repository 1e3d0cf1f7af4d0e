"""Exact fusion data for 2-permutation orbifolds of lattice vertex operator algebras.

Given the Gram matrix of a positive-definite even lattice, permorb
classifies the irreducible modules of the corresponding 2-permutation
orbifold algebra, computes their quantum dimensions and fusion products in
exact arithmetic, decomposes them over the product subalgebra, and runs a
machine-checkable verification suite for the fusion-ring axioms.
"""

from .base import (
    NonSplit,
    Split,
    TwistedSplit,
    VlLabel,
    VlPlusLabel,
    all_vl_labels,
    all_vlplus_labels,
    dual_base,
    fuse_split_twisted,
    fuse_vl,
    fuse_vlplus,
    fusion_rule_vlplus,
    is_admissible_triple,
    nonsplit_label,
    split_label,
    vl_label,
)
from .characters import (
    SignCharacter,
    all_characters,
    chi_eval,
    chi_of_lambda,
    chi_shift,
    format_character,
    pi_pairing,
    split_gauge_sign,
    weight_parity_sign,
)
from .errors import (
    DegeneratePair,
    DimensionMismatch,
    NonIntegralPairing,
    NotEven,
    NotInAmbientGroup,
    NotInDual,
    NotInLattice,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
    PermorbError,
    TableTooLarge,
)
from .lattice import (
    GramLattice,
    Modulus,
    Vector,
    canonicalize,
    halve_mod_L,
    inner,
    smith_normal_form,
    validate_lattice,
    vector,
)
from .orbifold import (
    Diag,
    FusionTable,
    NonDiag,
    OrbifoldLabel,
    Twisted,
    decompose_module,
    diag,
    dual_orbifold,
    enumerate_modules,
    fuse_orbifold,
    fusion_table,
    glob,
    induce,
    is_simple_current,
    label_sort_key,
    nondiag,
    qdims_by_kind,
    qdim_orbifold,
    twisted,
)
from .qsqrt import QSqrt
from .verify import Report

__version__ = "0.1.0"
