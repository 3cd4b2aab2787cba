"""Steering conditionally convergent series by reordering their terms.

The package splits into layers: ``series`` describes term families and
their classical sums, ``confinement`` orders finite vector lists so
running sums stay bounded, ``rearrange`` builds injection prefixes that
steer partial sums to chosen targets, ``conditions`` grows certified
chains of such prefixes with shrinking tolerances, ``subspace`` analyzes
which target combinations are reachable at all, and ``fileio`` /
``certcheck`` / ``cli`` handle persistence, independent verification and
the command line.
"""
from .certcheck import VerificationReport, verify_certificate
from .conditions import (CertificateChain, Condition, ConditionReport,
                         certified_le, certified_lt, extend, extend_detail,
                         initial_condition, is_condition, leq, run)
from .confinement import (ConstantSchedule, ConfinementResult,
                          brute_force_confine, confine_with_anchor,
                          confine_zero_sum, order_with_threshold,
                          prefix_norms, published_constant)
from .errors import (BudgetExhaustedError, DisagreementError,
                     InfeasibleEtaError, InputError, PreconditionError,
                     SearchError, SizeLimitError, StructureError,
                     SumchaseError)
from .fileio import (parse_certificate, parse_spec_file, trace_rows,
                     write_certificate, write_trace)
from .rearrange import (PrefixPlan, UsedIndices, chase_target,
                        cover_indices, plan_from_injection,
                        riemann_rearrange, select_block_indices,
                        verify_prefix)
from .series import (FamilyVector, SeriesSpec, abs_power, classical_sum,
                     composite, family, is_conditionally_convergent,
                     partial_sum_vector, power_alternating,
                     rademacher_harmonic, tail_sup_bound)
from .subspace import (AffineSumRange, CoefficientVector,
                       DependencyStructure, dependency_decompose,
                       growth_statistics, k_space_basis, membership_check,
                       predicted_dependent_limit, r_space, sum_range)

__version__ = "0.1.0"

__all__ = [
    "AffineSumRange", "BudgetExhaustedError", "CertificateChain",
    "CoefficientVector", "Condition", "ConditionReport",
    "ConfinementResult", "ConstantSchedule", "DependencyStructure",
    "DisagreementError", "FamilyVector", "InfeasibleEtaError", "InputError",
    "PreconditionError", "PrefixPlan", "SearchError", "SeriesSpec",
    "SizeLimitError", "StructureError", "SumchaseError", "UsedIndices",
    "VerificationReport", "abs_power", "brute_force_confine",
    "certified_le", "certified_lt", "chase_target", "classical_sum",
    "composite", "confine_with_anchor", "confine_zero_sum", "cover_indices",
    "dependency_decompose", "extend", "extend_detail", "family",
    "growth_statistics", "initial_condition", "is_condition",
    "is_conditionally_convergent", "k_space_basis", "leq",
    "membership_check", "order_with_threshold", "parse_certificate",
    "parse_spec_file", "partial_sum_vector", "plan_from_injection",
    "power_alternating", "predicted_dependent_limit", "prefix_norms",
    "published_constant", "r_space", "rademacher_harmonic",
    "riemann_rearrange", "run", "select_block_indices", "sum_range",
    "tail_sup_bound", "trace_rows", "verify_certificate",
    "verify_prefix", "write_certificate", "write_trace",
]
