"""The package's public names."""
import sumchase

#: Every name ``from sumchase import *`` gives, reviewed.  A public name
#: is added or retired by editing this list together with ``__all__``.
PUBLIC_NAMES = [
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


def test_the_public_names_are_the_reviewed_list():
    assert sorted(sumchase.__all__) == PUBLIC_NAMES
    assert len(set(sumchase.__all__)) == len(sumchase.__all__)
    for name in PUBLIC_NAMES:
        assert hasattr(sumchase, name), name
