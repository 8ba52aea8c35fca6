"""dyadlab: a desk-scale laboratory for dyadic harmonic analysis on finite trees."""

from .lattice import (
    Cube,
    DyadicTree,
    GridFunction,
    LatticeError,
)
from .weights import (
    BloomTriple,
    ExponentConfig,
    Weight,
    ap_characteristic,
    divergence_flag,
    dual_weight,
    fujii_wilson_ainfty,
    lower_joint_characteristic,
    parse_weight,
    power_weight_cube_lower_bound,
    upper_joint_characteristic,
)
from .operators import (
    commutator_test_pairs,
    commutator,
    commutator_handle,
    hilbert_transform,
    maximal,
    paraproduct,
    paraproduct_handle,
    sharp_maximal,
)
from .sparse import (
    SparseFamily,
    StoppingMassError,
    family_from_text,
    family_to_text,
    paraproduct_sparse_dominate,
    verify_sparse,
)
from .norms import (
    NormReport,
    bmo_alpha_norm,
    discretized_sharp_sup,
    empirical_operator_norm,
    empirical_operator_norms,
    lp_norm,
    multiplier_norm,
    q_ge_p_testing,
    sequential_testing_functional,
    sharp_maximal_r_norm,
    weight_necessity_bound,
)

__version__ = "0.1.0"
