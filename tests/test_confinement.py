"""Prefix-norm confinement: schedules, orderings, and the oracle."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumchase import (ConstantSchedule, InputError, SearchError,
                      SizeLimitError, brute_force_confine, confine_with_anchor,
                      confine_zero_sum, order_with_threshold, prefix_norms,
                      published_constant)
from sumchase.confinement import _BACKTRACK_LIMIT, _ordering_search


def zero_sum_instance(seed: int, n: int, d: int) -> np.ndarray:
    """Seeded vectors with zero total and norms at most one."""
    rng = np.random.default_rng(seed)
    vs = rng.uniform(-1.0, 1.0, size=(n - 1, d))
    vs = np.vstack([vs, -vs.sum(axis=0)])
    top = np.linalg.norm(vs, axis=1).max()
    if top > 1.0:
        vs /= top
    return vs


def test_default_schedule_is_dimension_plus_one():
    for d in range(1, 6):
        assert published_constant(d) == d + 1


def test_schedule_overrides_and_never_decreases():
    sched = ConstantSchedule((5.0, 5.5))
    assert sched.value_at(1) == 5.0
    assert sched.value_at(2) == 5.5
    # past the overrides the default applies, clamped upward
    assert sched.value_at(3) == max(4.0, 5.5)
    assert sched.value_at(9) == 10.0


def test_schedule_rejects_nonsense():
    with pytest.raises(InputError):
        ConstantSchedule((0.0,))
    with pytest.raises(InputError):
        published_constant(0)


def test_opposite_pair_is_confined_trivially():
    vs = np.array([[0.8, 0.0], [-0.8, 0.0]])
    result = confine_zero_sum(vs)
    assert sorted(result.permutation) == [0, 1]
    assert result.permutation[0] == 0
    assert result.max_prefix_norm == pytest.approx(0.8)
    # the reported ceiling is the constant plus the precondition tolerance
    assert result.bound_used == pytest.approx(published_constant(2), abs=1e-8)
    assert result.max_prefix_norm <= result.bound_used


def test_prefix_norms_recomputes_running_sums():
    vs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    norms = prefix_norms(vs, (0, 1, 2))
    assert norms[0] == 1.0
    assert norms[1] == pytest.approx(np.sqrt(2.0))
    assert norms[2] == pytest.approx(0.0)


def test_zero_sum_preconditions_are_enforced():
    with pytest.raises(InputError):
        confine_zero_sum(np.array([[2.0], [-2.0]]))  # norms above one
    with pytest.raises(InputError):
        confine_zero_sum(np.array([[0.5], [0.1]]))  # sum not zero
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(InputError, match="tol"):
            confine_zero_sum(np.array([[0.5], [-0.5]]), tol=tol)
        with pytest.raises(InputError, match="tol"):
            confine_with_anchor(np.array([[0.5], [0.25]]), [0.75], 1.0,
                                tol=tol)


def test_confinement_beats_bound_on_seeded_batch():
    for seed in range(40):
        n = 2 + seed % 7
        d = 1 + seed % 3
        vs = zero_sum_instance(seed, n, d)
        result = confine_zero_sum(vs)
        assert result.max_prefix_norm <= published_constant(d) + 1e-12
        recomputed = prefix_norms(vs, result.permutation).max()
        assert result.max_prefix_norm == pytest.approx(recomputed, abs=1e-12)


def test_greedy_never_beats_the_exhaustive_oracle():
    for seed in (1, 2, 3, 11, 12):
        vs = zero_sum_instance(seed, 6, 2)
        result = confine_zero_sum(vs)
        _, optimum = brute_force_confine(vs)
        assert result.max_prefix_norm >= optimum - 1e-12


def test_exhaustive_oracle_refuses_large_inputs():
    vs = zero_sum_instance(0, 12, 2)
    with pytest.raises(SizeLimitError):
        brute_force_confine(vs)


def test_anchored_prefixes_stay_under_the_shifted_bound():
    rng = np.random.default_rng(42)
    for rho in (0.5, 1.0, 2.0):
        raw = rng.uniform(-1.0, 1.0, size=(7, 2))
        b = raw.sum(axis=0)
        scale = min(rho / np.linalg.norm(raw, axis=1).max(),
                    rho / max(np.linalg.norm(b), 1e-9)) * 0.99
        vs = raw * scale
        b = b * scale
        result = confine_with_anchor(vs, b, rho)
        bound = rho * published_constant(2) + np.linalg.norm(b) + 1e-9
        assert prefix_norms(vs, result.permutation).max() <= bound


def test_anchored_rejects_oversized_vectors():
    vs = np.array([[1.5, 0.0], [0.0, 0.1]])
    with pytest.raises(InputError):
        confine_with_anchor(vs, vs.sum(axis=0), rho=1.0)


def test_order_with_threshold_reports_impossible_bounds():
    vs = np.array([[1.0], [1.0], [-2.0]])
    with pytest.raises(SearchError):
        order_with_threshold(vs, 0.5)


def _search(values, node_cap):
    return _ordering_search(np.array(values)[:, None], 1.0, node_cap)


def test_ordering_search_backtracks_out_of_a_greedy_dead_end():
    """The greedy first descent dead-ends on these 1-D vectors: 6
    expansions, one per vector after the first, would finish it.  The
    search backs out in 8 expansions, and proves a second list
    unorderable in 652, which the memo of failed used-subsets keeps that
    small (9 vectors have 8! orders)."""
    values = [-0.5, -0.5, 0.8, -0.5, -0.8, -0.4, 1.9]
    expected = [0, 2, 5, 4, 6, 1, 3]
    with pytest.raises(SearchError, match="expansions"):
        _search(values, len(values) - 1)
    assert order_with_threshold(np.array(values)[:, None], 1.0) == expected
    assert _search(values, 8) == expected
    with pytest.raises(SearchError, match="expansions"):
        _search(values, 7)
    stuck = [-0.4, 0.6, 0.1, 0.5, -0.1, 0.1, 0.6, 0.8, -0.9]
    with pytest.raises(SearchError, match="no ordering"):
        _search(stuck, 652)
    with pytest.raises(SearchError, match="expansions"):
        _search(stuck, 651)


def _anchored_instance(seed: int, n: int, d: int, rho: float):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, d))
    b = raw.sum(axis=0)
    scale = min(rho / np.linalg.norm(raw, axis=1).max(),
                rho / np.linalg.norm(b)) * 0.99
    return raw * scale, b * scale


def _digest(permutation) -> str:
    text = ",".join(str(i) for i in permutation)
    return hashlib.sha256(text.encode()).hexdigest()


def test_orderings_keep_their_pinned_digests():
    """The permutations of zero-sum and anchored lists on both sides of
    _BACKTRACK_LIMIT, and of a 1-D list whose greedy descent dead-ends
    (so the search backtracks), hashed as comma-separated positions."""
    zero = {(3, 300, 3): "e2b426e833eee3f3b5b16406b6260c9f"
                         "2a1f54e556b1edf1512205c4fabc2660",
            (5, 760, 3): "c8567103f6bcda0d0812cc09a9d4b362"
                         "2628f2bfacfc47e497018b0532a71c71"}
    for (seed, n, d), want in zero.items():
        result = confine_zero_sum(zero_sum_instance(seed, n, d))
        assert _digest(result.permutation) == want, (seed, n, d)
    anchored = {(4, 480, 2, 1.0): "a7b3f288be6cddd0553aa8e235dc9ec9"
                                  "ed32565efab0dd3abf443c7aa49afad5",
                (6, 1180, 3, 2.0): "66ade3f6839cea452209818a29eb3037"
                                   "dc99815fc775d72c464890660042e69e"}
    for (seed, n, d, rho), want in anchored.items():
        vs, b = _anchored_instance(seed, n, d, rho)
        result = confine_with_anchor(vs, b, rho)
        assert _digest(result.permutation) == want, (seed, n, d, rho)
    assert 300 < _BACKTRACK_LIMIT < 760
    rng = np.random.default_rng(1)
    line = rng.uniform(-1.0, 1.0, size=40)
    line[-1] -= line.sum()
    assert (_digest(order_with_threshold(line[:, None], 0.9))
            == "5f57e3cea0b90492065041ca8c0119a3e0289af68440b503c4e2ef4030258000")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=3))
def test_confinement_contract_on_random_instances(seed, n, d):
    vs = zero_sum_instance(seed, n, d)
    result = confine_zero_sum(vs)
    assert sorted(result.permutation) == list(range(n))
    assert result.permutation[0] == 0
    assert result.max_prefix_norm <= published_constant(d) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_custom_schedule_is_honored_when_loose(seed):
    vs = zero_sum_instance(seed, 5, 2)
    sched = ConstantSchedule((6.0, 6.0))
    result = confine_zero_sum(vs, schedule=sched)
    assert result.bound_used == pytest.approx(6.0, abs=1e-8)
    assert result.max_prefix_norm <= result.bound_used
