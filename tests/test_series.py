"""Series construction, evaluation and classical summation."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumchase import (BudgetExhaustedError, InputError, abs_power,
                      classical_sum, composite, family,
                      is_conditionally_convergent, partial_sum_vector,
                      power_alternating, rademacher_harmonic,
                      tail_sup_bound)
from sumchase.series import (magnitude_array, reduce_spec, term_array,
                             vector_terms)

LN2 = 0.6931471805599453
ZETA2 = 1.6449340668482264
# level-1 sign pattern on 1/(m+1): pi/4 + (ln 2)/2
RAD1_SUM = 1.1319717536774209


def _python_term(spec, m):
    """The term at ``m`` in Python floats, apart from numpy: libm's
    ``pow`` for the magnitude, then the sign and the combination in the
    order the series definitions give them."""
    if spec.kind == "composite":
        total = 0.0
        for coeff, ref in spec.combo:
            total += coeff * _python_term(ref, m)
        if spec.perturbation is not None:
            total += _python_term(spec.perturbation, m)
        return total
    size = (m + 1.0) ** -spec.exponent
    if spec.kind == "rademacher_harmonic":
        return -size if (m >> spec.level) & 1 else size
    value = spec.scale * size
    if spec.sign_level is not None and (m >> spec.sign_level) & 1:
        value = -value
    return value


def _within_one_ulp(spec, ms):
    values = term_array(spec, ms)
    for m, value in zip(ms.tolist(), values.tolist()):
        scalar = _python_term(spec, m)
        assert abs(value - scalar) <= math.ulp(scalar), (spec, m)


def test_alternating_terms_match_hand_values():
    spec = power_alternating(1.0)
    assert term_array(spec, [0, 1, 2, 5]).tolist() == [
        1.0, -0.5, 1.0 / 3.0, -1.0 / 6.0]


def test_level_one_signs_flip_every_two_indices():
    signs = np.sign(term_array(rademacher_harmonic(1), np.arange(8)))
    assert signs.tolist() == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]


def test_level_zero_equals_plain_alternating_pointwise():
    ms = np.arange(50)
    assert np.array_equal(term_array(rademacher_harmonic(0), ms),
                          term_array(power_alternating(1.0), ms))


@pytest.mark.parametrize("exponent", [1.0, 0.75, 0.5])
def test_power_alternating_is_the_level_zero_pattern(exponent):
    alt = power_alternating(exponent)
    assert alt == rademacher_harmonic(0, exponent)
    assert hash(alt) == hash(rademacher_harmonic(0, exponent))


def test_abs_power_scale_and_sign_pattern():
    spec = abs_power(2.0, scale=-3.0, sign_level=1)
    assert term_array(spec, [0, 2]).tolist() == [-3.0, 3.0 / 9.0]


def test_composite_terms_are_the_declared_combination():
    a0 = rademacher_harmonic(0)
    mix = composite([(2.0, a0)], perturbation=abs_power(2.0, scale=0.5))
    ms = np.arange(10)
    expected = 2.0 * term_array(a0, ms) + 0.5 / (ms + 1.0) ** 2
    assert term_array(mix, ms) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("bad", [
    lambda: abs_power(1.0),
    lambda: abs_power(0.5),
    lambda: rademacher_harmonic(-1),
    lambda: rademacher_harmonic(0, 1.5),
    lambda: composite([]),
    lambda: abs_power(2.0, scale=float("nan")),
    lambda: rademacher_harmonic(0, "abc"),
    lambda: rademacher_harmonic(True),
    lambda: power_alternating(None),
    lambda: abs_power(2.0, scale="1"),
    lambda: abs_power(2.0, sign_level=True),
    lambda: composite([(True, power_alternating())]),
])
def test_invalid_constructions_are_rejected(bad):
    with pytest.raises(InputError):
        bad()


def test_conditional_exponents_stop_at_one():
    # exponents in (0, 1] keep the series conditionally convergent
    rademacher_harmonic(2, 1.0)
    rademacher_harmonic(2, 0.5)
    with pytest.raises(InputError):
        rademacher_harmonic(2, 1.01)


def test_negative_index_rejected():
    with pytest.raises(InputError):
        term_array(power_alternating(), [-1])


@pytest.mark.parametrize("m", [2 ** 63, 1.5])
def test_index_must_be_an_int64(m):
    with pytest.raises(InputError):
        term_array(power_alternating(), [m])


_INTEGER_EXPONENT_SPECS = [
    rademacher_harmonic(0), rademacher_harmonic(2), power_alternating(1.0),
    abs_power(3.0, scale=2.0, sign_level=0),
    composite([(1.0, rademacher_harmonic(0)),
               (-0.5, rademacher_harmonic(1))], perturbation=abs_power(3.0))]
_FRACTIONAL_EXPONENT_SPECS = [
    power_alternating(0.5), rademacher_harmonic(1, 0.75),
    abs_power(1.5, scale=2.0, sign_level=0)]


def test_term_array_within_one_ulp_for_integer_exponents():
    # libm ``pow`` and numpy's reciprocal round 1/1923 (m = 1922) and
    # 1/3846 (m = 3845) differently; elsewhere below 4096 they agree
    for spec in _INTEGER_EXPONENT_SPECS:
        _within_one_ulp(spec, np.arange(4096))


def _scalar_terms(spec, ms):
    """The term at each index of ``ms``, evaluated one index at a time."""
    return np.array([term_array(spec, np.array([m]))[0] for m in ms])


def test_term_array_matches_scalar_term_exactly_for_integer_exponents():
    # a term does not depend on the other indices it is evaluated with
    ms = np.concatenate([np.arange(40), [1922, 3845]])
    for spec in _INTEGER_EXPONENT_SPECS:
        arr = term_array(spec, ms)
        scalar = _scalar_terms(spec, ms.tolist())
        for value, single in zip(arr.tolist(), scalar.tolist()):
            assert value == single, spec


def test_term_is_term_array_bit_for_bit():
    # one index at a time or 4096 at once, m = 1922 included, where libm
    # ``pow`` and numpy's reciprocal round 1/1923 differently
    ms = np.arange(4096)
    for spec in _INTEGER_EXPONENT_SPECS + _FRACTIONAL_EXPONENT_SPECS:
        scalar = _scalar_terms(spec, ms.tolist())
        assert scalar.tobytes() == term_array(spec, ms).tobytes(), spec


def test_term_array_within_one_ulp_for_fractional_exponents():
    for spec in _FRACTIONAL_EXPONENT_SPECS:
        _within_one_ulp(spec, np.arange(4096))


def test_term_array_within_one_ulp_of_scalar_term_at_large_index():
    # m = 1922 is where libm ``pow`` and numpy's reciprocal round the
    # alternating harmonic term differently
    for spec in _INTEGER_EXPONENT_SPECS + _FRACTIONAL_EXPONENT_SPECS:
        _within_one_ulp(spec, np.array([1922]))


def test_partial_sum_matches_fsum():
    spec = power_alternating(1.0)
    idx = list(range(4))
    expected = math.fsum(term_array(spec, idx))
    assert partial_sum_vector(family(spec), idx)[0] == expected


def test_partial_sum_is_order_independent():
    fam = family(rademacher_harmonic(1, 1.0))
    idx = [5, 17, 2, 90, 33, 0, 64]
    forward = partial_sum_vector(fam, idx)[0]
    assert partial_sum_vector(fam, list(reversed(idx)))[0] == forward
    assert partial_sum_vector(fam, sorted(idx))[0] == forward


def test_partial_sum_vector_stacks_coordinates():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    idx = [0, 1, 2]
    vec = partial_sum_vector(fam, idx)
    assert vec.shape == (2,)
    assert vec[0] == math.fsum(term_array(fam[0], idx))
    assert vec[1] == math.fsum(term_array(fam[1], idx))
    assert partial_sum_vector(fam, idx, 1).tolist() == [vec[0]]


@pytest.mark.parametrize("indices", [[3, -1], [4, 7, 4], [3, 2 ** 63]],
                         ids=["negative", "duplicate", "out-of-range"])
def test_partial_sums_reject_bad_indices(indices):
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    with pytest.raises(InputError):
        partial_sum_vector(fam, indices)


def test_classical_sum_alternating_harmonic_is_ln_two():
    assert classical_sum(power_alternating(1.0), 1e-9) == pytest.approx(
        LN2, abs=1e-9)


def test_classical_sum_inverse_squares():
    assert classical_sum(abs_power(2.0), 1e-9) == pytest.approx(
        ZETA2, abs=1e-9)


def test_classical_sum_level_one_pattern():
    assert classical_sum(rademacher_harmonic(1), 1e-8) == pytest.approx(
        RAD1_SUM, abs=1e-8)


def test_classical_sum_is_linear_over_composites():
    mix = composite([(2.0, power_alternating(1.0))],
                    perturbation=abs_power(2.0))
    assert classical_sum(mix, 1e-8) == pytest.approx(
        2.0 * LN2 + ZETA2, abs=1e-8)


def test_classical_sum_signed_abs_power():
    # alternating inverse squares: pi^2 / 12
    value = classical_sum(abs_power(2.0, sign_level=0), 1e-8)
    assert value == pytest.approx(math.pi ** 2 / 12.0, abs=1e-8)


@pytest.mark.parametrize("precision", [math.inf, math.nan, 0.0, -1.0])
def test_classical_sum_needs_a_finite_positive_precision(precision):
    with pytest.raises(InputError, match="finite and positive"):
        classical_sum(power_alternating(1.0), precision)


def test_classical_sum_respects_the_term_budget():
    with pytest.raises(BudgetExhaustedError):
        classical_sum(power_alternating(1.0), 1e-9, term_budget=50)


def test_cancelling_combination_sums_to_its_perturbation():
    a0 = rademacher_harmonic(0)
    resid = composite([(1.0, a0), (-1.0, a0)], perturbation=abs_power(2.0))
    assert not is_conditionally_convergent(resid)
    assert classical_sum(resid, 1e-9) == pytest.approx(ZETA2, abs=1e-9)


def test_reduce_spec_merges_equal_patterns():
    a1 = rademacher_harmonic(1)
    doubled = composite([(1.0, a1), (1.0, a1)])
    red = reduce_spec(doubled)
    assert red.patterns == ((1, 1.0, 2.0),)
    assert red.absolute == ()


def test_conditional_convergence_classification():
    assert is_conditionally_convergent(power_alternating(1.0))
    assert is_conditionally_convergent(rademacher_harmonic(3))
    assert not is_conditionally_convergent(abs_power(2.0))
    assert not is_conditionally_convergent(abs_power(2.0, sign_level=1))


def test_tail_bound_decreases_and_covers_single_terms():
    spec = rademacher_harmonic(2, 1.0)
    assert tail_sup_bound(spec, 10) <= tail_sup_bound(spec, 5)
    assert (np.abs(term_array(spec, [10, 11, 200]))
            <= tail_sup_bound(spec, 10)).all()


def test_family_tail_bound_covers_the_vector_norm():
    fam = family(rademacher_harmonic(0, 1.0), abs_power(2.0, scale=3.0))
    m = 7
    combined = math.hypot(tail_sup_bound(fam[0], m), tail_sup_bound(fam[1], m))
    assert tail_sup_bound(fam, m) == pytest.approx(combined, rel=1e-15)
    for k in (7, 8, 40):
        assert (np.linalg.norm(vector_terms(fam, [k])[0])
                <= tail_sup_bound(fam, m))


def test_family_tail_bound_is_at_least_the_measured_norm():
    """The checks measure term vectors with ``np.linalg.norm``, so the
    family bound at ``m`` must be at least that norm at ``m``; combining
    the coordinates in any other order of operations can leave it one
    rounding step below."""
    pair = family(rademacher_harmonic(0), rademacher_harmonic(1))
    scaled = family(composite([(8.0, rademacher_harmonic(0))]),
                    rademacher_harmonic(1), rademacher_harmonic(2))
    ms = np.arange(100_000, dtype=np.int64)
    for fam in (pair, scaled):
        bounds = np.array([tail_sup_bound(fam, m) for m in range(len(ms))])
        norms = np.linalg.norm(vector_terms(fam, ms, len(fam)), axis=1)
        assert (norms <= bounds).all()


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=5000), min_size=1,
               max_size=60),
       st.permutations(range(3)))
def test_partial_sum_permutation_invariance(indices, perm):
    fam = family(rademacher_harmonic(1))
    ordered = sorted(indices)
    shuffled = list(ordered)
    # rotate chunks according to the drawn permutation for variety
    third = max(1, len(shuffled) // 3)
    chunks = [shuffled[:third], shuffled[third:2 * third],
              shuffled[2 * third:]]
    rearranged = [x for p in perm for x in chunks[p]]
    assert (partial_sum_vector(fam, rearranged)[0]
            == partial_sum_vector(fam, ordered)[0])


def test_tail_bound_covers_the_term_where_libm_and_numpy_differ():
    """libm's ``1923.0 ** -1.0`` is one rounding step below numpy's, which
    every term comes from."""
    spec = power_alternating(1.0)
    size = abs(term_array(spec, [1922])[0])
    assert tail_sup_bound(spec, 1922) == size
    assert tail_sup_bound(family(spec), 1922) == size


_TAIL_SPECS = [
    power_alternating(1.0), power_alternating(0.75),
    rademacher_harmonic(2, 0.5), abs_power(2.0, 3.0, sign_level=1),
    abs_power(1.5, 0.1),
    composite([(8.0, rademacher_harmonic(0))]),
    composite([(-1.0, rademacher_harmonic(0)),
               (-1.0, rademacher_harmonic(1))], abs_power(2.0)),
    composite([(0.3, rademacher_harmonic(0, 0.75)),
               (1 / 3, power_alternating(0.75)),
               (0.7, composite([(1.1, rademacher_harmonic(3, 0.75)),
                                (-2.9, abs_power(1.7))]))],
              abs_power(3.0, 0.2)),
]


@pytest.mark.parametrize("spec", _TAIL_SPECS, ids=[
    "alt-1", "alt-0.75", "rad2-0.5", "abs-signed", "abs-scaled",
    "composite-8", "composite-cancelling", "composite-nested"])
def test_tail_bound_covers_every_later_term(spec):
    """Over the first 20,000 indices the bound at m is at least every term
    from m on, and equals the term at m when no part can cancel."""
    ms = np.arange(20_000, dtype=np.int64)
    bounds = np.array([tail_sup_bound(spec, m) for m in range(len(ms))])
    sizes = np.abs(term_array(spec, ms))
    later_max = np.maximum.accumulate(sizes[::-1])[::-1]
    assert (later_max <= bounds).all()
    assert (np.diff(bounds) <= 0.0).all()
    if spec.kind != "composite" or len(spec.combo) == 1:
        assert np.array_equal(bounds, sizes)


@pytest.mark.parametrize("exponent", [1.0, 0.75, 0.6, 0.5, 1.5, 2.0])
def test_magnitudes_do_not_increase_with_the_index(exponent):
    """The tail bound rests on this: every bound reads the magnitude at
    its start index."""
    mags = magnitude_array(np.arange(1 << 20, dtype=np.int64), exponent)
    assert (np.diff(mags) <= 0.0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 4))
@example(9214, 0)  # the draw that found the libm bound one step low
def test_tail_bound_is_sound_for_every_later_index(start, offset):
    spec = power_alternating(1.0)
    bound = tail_sup_bound(spec, start)
    assert abs(term_array(spec, [start + offset])[0]) <= bound


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3000), min_size=1,
                max_size=30, unique=True))
@example([1922])  # libm pow and numpy disagree by one rounding step here
def test_vector_terms_rows_match_singleton_sums(indices):
    fam = family(rademacher_harmonic(0), rademacher_harmonic(2))
    rows = vector_terms(fam, indices, 2)
    assert rows.shape == (len(indices), 2)
    for row, m in zip(rows, indices):
        assert np.array_equal(row, partial_sum_vector(fam, [m]))


def _scaled_float(mantissa: int, exponent: int) -> float:
    return math.ldexp(mantissa, exponent)


# a 53-bit mantissa at any exponent that keeps it finite, from
# subnormals (rounded by ldexp) to the 2**1023 scale
_any_float = st.builds(_scaled_float,
                       st.integers(-(2 ** 53 - 1), 2 ** 53 - 1),
                       st.integers(-1130, 970))


@st.composite
def _summands(draw):
    """Floats over a narrow or a wide exponent span, with signs mixed,
    some negated copies for heavy cancellation, and a random split into
    chunks."""
    if draw(st.booleans()):
        base = draw(st.integers(-1100, 940))
        width = draw(st.sampled_from((0, 5, 30, 34)))
        narrow = st.builds(_scaled_float,
                           st.integers(-(2 ** 53 - 1), 2 ** 53 - 1),
                           st.integers(base, base + width))
        values = draw(st.lists(narrow, max_size=40))
    else:
        values = draw(st.lists(st.one_of(
            _any_float, st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-2.0 ** -1022, 2.0 ** -1022)), max_size=40))
    cancel = draw(st.lists(st.sampled_from(values), max_size=20)
                  if values else st.just([]))
    values = values + [-v for v in cancel]
    order = draw(st.permutations(range(len(values))))
    values = [values[i] for i in order]
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=4)))
    return values, cuts


def _float_or_inf(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@settings(max_examples=400, deadline=None)
@given(_summands(), st.sampled_from((1, 2, 3, 7, 1 << 16)))
@example(([2.0 ** 1023, 2.0 ** 1023, -2.0 ** 1023, 5e-324], []), 1)
@example(([0.1, 2.0 ** -1074, -0.1, 1e300, -1e300], [2]), 2)
@example(([-math.ldexp(2 ** 52 + 1, 971)], []), 1)
def test_both_exact_sums_equal_the_fraction_sum(case, chunk):
    """The engine's accumulator and the checker's limb sums hold the
    exact sum: the running sums of the checker, carried across the cuts,
    and both totals round once to the correctly rounded value."""
    from sumchase import certcheck, series

    values, cuts = case
    exact = sum(map(Fraction, values), Fraction(0))
    unit = Fraction(1, 2 ** series._EXACT_SCALE)
    saved = series._EXACT_CHUNK
    series._EXACT_CHUNK = chunk
    try:
        acc = series._ExactSum()
        for lo, hi in zip([0] + cuts, cuts + [len(values)]):
            acc.add(np.array(values[lo:hi], dtype=np.float64))
    finally:
        series._EXACT_CHUNK = saved
    assert acc.units * unit == exact
    if abs(exact) < 2 ** 1024 - 2 ** 970:
        assert acc.value() == float(exact)
        if all(abs(v) < 2.0 ** 1020 for v in values):
            assert math.fsum(values) == acc.value()
    else:
        with pytest.raises(OverflowError):
            acc.value()
    total, running, prefix = 0, [], Fraction(0)
    expected = []
    for v in values:
        prefix += Fraction(v)
        expected.append(_float_or_inf(prefix))
    for lo, hi in zip([0] + cuts, cuts + [len(values)]):
        part = np.array(values[lo:hi], dtype=np.float64)
        got, total = certcheck._exact_run(part, total, True)
        running.extend(got.tolist())
        assert certcheck._exact_run(part, total - sum_units(part), False
                                    )[1] == total
    assert total * unit == exact
    assert running == expected
    assert certcheck._rounded(total) == _float_or_inf(exact)


def sum_units(part: np.ndarray) -> int:
    """The exact sum of ``part`` in units of ``2**-1126``."""
    return int(sum(map(Fraction, part.tolist()), Fraction(0)) * 2 ** 1126)
