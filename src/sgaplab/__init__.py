"""Numerical laboratory for spectral gaps of group actions.

Builds reversible chains, Cayley and Schreier graphs, and group averaging
operators from worked examples, and computes spectral radii, restricted
operator norms, Cheeger constants, expander certificates, and Lyapunov
exponent bounds at desk scale.
"""

# SGAP_THREADS caps BLAS/OpenMP threads.  The pools are sized when numpy first
# loads, so the cap goes in before any submodule imports it.
import os as _os

_cap = _os.environ.get("SGAP_THREADS", "").strip()
if _cap.isdecimal() and int(_cap) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _set = _os.environ.get(_var, "").strip()
        if not (_set.isdecimal() and 0 < int(_set) <= int(_cap)):
            _os.environ[_var] = _cap

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DisconnectedChainError,
    NotReversibleError,
    SgapError,
    UnsupportedVariantError,
    VariantMismatchError,
)
from .group_algebra import (
    FreeWord,
    MatModP,
    MatZ,
    ProbMeasure,
    ReturnProbabilitySeries,
    check_adapted,
    convolve,
    convolution_power,
    convolution_powers,
    free_word,
    group_closure,
    identity_like,
    inverse,
    mat_mod_p,
    mat_z,
    mul,
    special_linear_order,
    spectral_radius_return,
)
from .markov_core import (
    SpectralReport,
    WeightedChain,
    apply_markov,
    chain_from_json,
    chain_spectrum,
    chain_to_json,
    check_detailed_balance,
    dirichlet_form,
    lambda1,
    operator_norm_l20,
)
from .cheeger import (
    CutReport,
    area_coarea_check,
    cheeger_exact,
    cheeger_sweep,
    cut_ratio,
    verify_cheeger,
)
from .walk_models import (
    HalfLineSpec,
    LabeledGraph,
    build_bernoulli_schreier,
    build_cayley,
    build_pgl2_halfline,
    build_torus_schreier,
    build_tree,
    elementary_generators,
    graph_to_edge_list_text,
    graph_to_simple_walk_chain,
    pgl2_cheeger_bound,
    sanov_generators,
)
from .spectral_engine import (
    CompressionLadder,
    compressed_norm,
    compression_ladder,
    expander_bound_check,
    radial_rayleigh,
    tensor_power_check,
    tree_ball_ladder,
)
from .expanders import (
    FamilyCertificate,
    MemberRecord,
    build_family,
    expanding_constant_report,
    u_block,
)
from .lyapunov import (
    LyapunovEstimate,
    MatrixMeasure,
    estimate_lyapunov,
    exact_u_n,
    furstenberg_bound,
    sanov_group_measure,
    sanov_matrix_measure,
)

__version__ = "0.1.0"
