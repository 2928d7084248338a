"""Ordinal ranks of monotone operators on finitely represented compact spaces.

The library computes stabilization ordinals of contracting (derivative)
and inflating (expansion) operators: Cantor-Bendixson ranks of countable
ordinal spaces, equivalence-closure ranks of finite relations and
resolution towers, entropy-rank reports for subshifts of finite type, and
verification of finite rank-witness certificates.
"""

from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalDomainError,
    OrdinalFormatError,
    OrdinalSyntaxError,
    add,
    cmp,
    format_ordinal,
    from_int,
    is_limit,
    leading_exponent,
    least_exponent,
    left_difference,
    mul_omega,
    omega_power,
    parse_ordinal,
    succ,
)
from .engine import (
    DERIVATIVE,
    EXPANSION,
    ClosedForm,
    ContractViolationError,
    IndeterminateTraceError,
    IterationTrace,
    MonotoneOperator,
    SetDomain,
    UnsupportedDomainError,
    check_operator_laws,
    derivative_reaches_bottom,
    expansion_reaches_top,
    iterate_steps,
    limit_stage,
    rank_closed_form,
    write_trace_csv,
)
from .cbspaces import (
    DivisibilitySet,
    IntervalSet,
    IntervalSpaceDomain,
    OrdinalSpaceDomain,
    cb_derivative,
    cb_operator,
    cb_rank,
    empty_interval,
    empty_set,
    full_space,
    interval,
    limit_point_oracle,
    member,
    stage_set,
    succ_expansion,
    succ_expansion_operator,
)
from .relations import (
    CellRelation,
    FinitePointSpace,
    RelationDomain,
    RelationTower,
    chain_n,
    check_tower,
    equiv_closure,
    gamma_finite,
    gamma_operator,
    gamma_tower_iterate,
    refine_project,
    sym_refl,
)
from .subshift import (
    IndependenceCertificate,
    SubshiftSpec,
    TransitionGraph,
    build_graph,
    count_words,
    entropy_estimate,
    entropy_rank_report,
    entropy_spectral,
    enumerate_words,
    ie_relation,
    independence_status,
    is_independent,
    parse_subshift,
    realizable,
)
from .certificates import (
    OrderCode,
    RankCertificate,
    extract_embedding,
    make_certificate,
    order_type,
    successor_code,
    validate_order_code,
    verify_exact_rank,
    verify_lower_bound,
)

__version__ = "0.1.0"
