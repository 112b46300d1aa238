"""Covariance-matrix simulation of quasi-free fermionic Lindblad semigroups."""

from .errors import (
    FermicovError,
    NonUniqueStationary,
    NotPSD,
    NumericalFailure,
    StructureViolation,
    TooLarge,
    UnsupportedIso,
    WordTooLong,
)
from .phase import (
    TAU_NUM,
    TAU_STRUCT,
    BasisTag,
    BogoliubovTransform,
    CouplingMatrix,
    HamiltonianMatrix,
    block_reduce,
    convert_basis,
    expm,
    validate_coupling,
    validate_qf,
)
from .quasifree import (
    CovarianceMatrix,
    SmallCovarianceMatrix,
    covariance_from_gibbs,
    full_from_small,
    small_covariance_from_gibbs,
    small_from_full,
    validate_covariance,
    validate_small_covariance,
    wick_moment,
)
from .fock import (
    DenseOperator,
    DenseState,
    IsomorphismTag,
    annihilation_ops,
    covariance_of,
    embed,
    embed_b1sb2,
    field_operator,
    gibbs_state,
    majorana_ops,
    parity_op,
    partial_trace_bath,
    quadratic_hamiltonian,
    quasifree_state,
)
from .lindblad import (
    ErgodicityReport,
    GaugeInvariantSpec,
    SemigroupSpec,
    ergodicity,
    ergodicity_gauge_invariant,
    lift_gauge_invariant,
    make_gauge_invariant,
    make_semigroup,
    propagate,
    propagate_gauge_invariant,
    propagate_series,
    real_case_kalman,
    stationary,
    stationary_gauge_invariant,
    support_decomposition,
)
from .oracle import (
    DenseLindbladian,
    build_lindbladian,
    evolve_dense,
    repeated_interaction_step,
    stationary_dense,
)
from .models import (
    ChainParams,
    ChainStationaryPrediction,
    XYParams,
    chain_hamiltonian,
    one_end_chain,
    simple_bath_model,
    star_model,
    thermalization_model,
    two_bath_chain,
    xy_chain,
)

__version__ = "0.1.0"
