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
from sumchase.confinement import (_BACKTRACK_LIMIT, _NODE_CAP,
                                  _column_norms, _ordering_search)


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


def _reference_search(vs: np.ndarray, threshold: float, cap: int) -> list[int]:
    """The search as a per-frame gather over a used mask: the reference
    that _ordering_search must match, pick for pick and error for error."""
    n = vs.shape[0]
    positions = np.arange(n)
    used = np.zeros(n, dtype=bool)
    used[0] = True
    order = [0]
    mask = 1
    failed: set[int] = set()
    stack: list[tuple[np.ndarray, list[int]]] = [(vs[0], [])]
    nodes = 0
    while len(order) < n:
        prefix, tried = stack[-1]
        free = ~used
        free[tried] = False
        cand = positions[free]
        x = prefix + vs[cand]
        norms = np.sqrt(np.add.reduce(x * x, axis=1))
        best = int(norms.argmin()) if cand.size else -1
        if best < 0 or not norms[best] <= threshold:
            failed.add(mask)
            stack.pop()
            if not stack:
                raise SearchError(
                    "no ordering satisfies the requested prefix bound")
            undone = order.pop()
            used[undone] = False
            mask &= ~(1 << undone)
            continue
        pick = int(cand[best])
        nodes += 1
        if nodes > cap:
            raise SearchError(f"ordering search exceeded {cap} expansions")
        tried.append(pick)
        if (mask | 1 << pick) in failed:
            continue
        used[pick] = True
        mask |= 1 << pick
        order.append(pick)
        stack.append((prefix + vs[pick], []))
    return order


def _outcome(search, vs, threshold, cap):
    try:
        return search(vs, threshold, cap)
    except SearchError as exc:
        return str(exc)


def test_search_matches_the_reference_loop_on_small_instances():
    """Seeded lists (n 2-12, d 1-7, half of them zero-sum, half on a grid
    of quarters so that norms tie) under thresholds between 0.3 and 1.5
    times the longest vector, which make the search backtrack, find no
    ordering or run out of expansions."""
    rng = np.random.default_rng(2024)
    seen = set()
    for i in range(2000):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 8))
        vs = rng.uniform(-1.0, 1.0, size=(n, d))
        if i % 4 >= 2:
            vs = np.round(vs * 4.0) / 4.0
        if i % 2:
            vs[-1] -= vs.sum(axis=0)
        threshold = (float(rng.uniform(0.3, 1.5))
                     * float(np.linalg.norm(vs, axis=1).max()))
        full, greedy = (_outcome(_reference_search, vs, threshold, cap)
                        for cap in (_NODE_CAP, n - 1))
        assert _outcome(_ordering_search, vs, threshold, _NODE_CAP) == full
        assert _outcome(_ordering_search, vs, threshold, n - 1) == greedy
        seen.add(full.split()[-1] if isinstance(full, str)
                 else "greedy" if full == greedy else "backtracked")
        if isinstance(greedy, str):
            seen.add(greedy.split()[-1])
    assert seen == {"bound", "expansions", "backtracked", "greedy"}


def test_search_matches_the_reference_loop_on_benchmark_shaped_lists():
    """Zero-sum and anchored lists of 760-1820 vectors in d = 2-4, past
    _BACKTRACK_LIMIT, so the search is the greedy descent with n - 1
    expansions; anchored lists are searched as confine_with_anchor
    searches them, with -b appended and everything divided by rho."""
    cases = [(zero_sum_instance(5, 760, 3), 1.0),
             (zero_sum_instance(8, 1820, 3), 1.0),
             (zero_sum_instance(9, 1250, 4), 1.0)]
    for seed, n, d, rho in ((4, 1500, 2, 1.0), (6, 1100, 4, 2.0),
                            (7, 940, 2, 0.5)):
        vs, b = _anchored_instance(seed, n, d, rho)
        cases.append((np.vstack([vs, -b[None, :]]) / rho, rho))
    for vs, rho in cases:
        n, d = vs.shape
        assert n > _BACKTRACK_LIMIT
        threshold = published_constant(d) + 1e-9 / (2.0 * max(1.0, rho))
        want = _reference_search(vs, threshold, n - 1)
        assert _ordering_search(vs, threshold, n - 1) == want, (n, d)


@pytest.mark.parametrize("d", [1, 3])
def test_confinement_never_writes_into_the_callers_array(d):
    """The search copies the free vectors before it shifts them: at d = 1,
    vs[1:].T is already C-contiguous, so np.ascontiguousarray would hand
    back the caller's memory."""
    vs = zero_sum_instance(3, 9, d)
    values = [-0.5, -0.5, 0.8, -0.5, -0.8, -0.4, 1.9]
    backtracks = np.repeat(np.array(values)[:, None], d, axis=1) / math.sqrt(d)
    anchored, b = _anchored_instance(3, 9, d, 1.0)
    calls = [(lambda a: _ordering_search(a, 1.0, _NODE_CAP), backtracks),
             (lambda a: _ordering_search(a, 2.0, _NODE_CAP), vs),
             (confine_zero_sum, vs),
             (lambda a: confine_with_anchor(a, b, 1.0), anchored)]
    if d == 1:
        calls += [(confine_zero_sum, vs[:, 0].copy()),
                  (lambda a: confine_with_anchor(a, b, 1.0),
                   anchored[:, 0].copy())]
    for call, arg in calls:
        before = arg.copy()
        call(arg)
        assert np.array_equal(arg, before)


def test_column_norms_are_the_norms_the_bound_checks_read():
    """For d <= 7 the left fold is np.linalg.norm bit for bit.  For d >= 8
    it adds in another order than numpy's pairwise sum, and prefix_norms
    measures with the same fold as the search, so an ordering the search
    accepts is never over its threshold as prefix_norms reads it."""
    rng = np.random.default_rng(0)
    for d in range(1, 8):
        x = (rng.standard_normal((20_000, d))
             * rng.uniform(0.01, 100.0, size=(20_000, 1)))
        got = _column_norms(x.T.copy())
        assert np.array_equal(got, np.linalg.norm(x, axis=1)), d
    for d in range(8, 13):
        for seed, n in enumerate((40, 190, 600, 900)):
            vs = zero_sum_instance(100 * d + seed, n, d)
            result = confine_zero_sum(vs)
            reached = float(prefix_norms(vs, result.permutation).max())
            assert result.max_prefix_norm == reached
            # the largest prefix now sits exactly on the threshold
            order = order_with_threshold(vs, reached)
            assert tuple(order) == result.permutation
            assert prefix_norms(vs, order).max() <= reached


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
