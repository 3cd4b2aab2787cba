"""Kernel/complement algebra and dependency decomposition."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumchase import (CoefficientVector, InputError, abs_power, composite,
                      dependency_decompose, family, growth_statistics,
                      k_space_basis, membership_check, power_alternating,
                      predicted_dependent_limit, r_space, rademacher_harmonic,
                      sum_range)
from sumchase import subspace
from sumchase.series import reduce_spec, term_array

ZETA2 = 1.6449340668482264


def triple():
    a0 = rademacher_harmonic(0)
    a1 = rademacher_harmonic(1)
    a2 = composite([(-1.0, a0), (-1.0, a1)], perturbation=abs_power(2.0))
    return family(a0, a1, a2)


def test_coefficient_vector_roundtrip_and_dot():
    cv = CoefficientVector.from_dense([1.0, 0.0, -3.0])
    assert cv.support == (0, 2)
    assert cv.values == (1.0, -3.0)
    assert list(cv.as_array(3)) == [1.0, 0.0, -3.0]
    assert cv.dot([2.0, 99.0, 1.0]) == -1.0


def test_coefficient_vector_validation():
    with pytest.raises(InputError):
        CoefficientVector((0, 0), (1.0, 2.0))
    with pytest.raises(InputError):
        CoefficientVector((0,), (0.0,))
    with pytest.raises(InputError):
        CoefficientVector.from_dense([1.0]).as_array(0)


def test_free_generators_have_a_trivial_kernel():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    assert k_space_basis(fam) == []


def test_declared_relation_shows_up_as_the_kernel():
    basis = k_space_basis(triple())
    assert len(basis) == 1
    assert list(basis[0].as_array(3)) == [1.0, 1.0, 1.0]


def test_kernel_coefficients_are_cleared_rationals():
    a0 = rademacher_harmonic(0)
    a1 = rademacher_harmonic(1)
    mixed = composite([(0.5, a0), (-1.5, a1)], perturbation=abs_power(2.0))
    basis = k_space_basis(family(a0, a1, mixed))
    assert len(basis) == 1
    assert list(basis[0].as_array(3)) == [1.0, -3.0, -2.0]


def test_complement_of_empty_kernel_is_the_identity():
    rows = r_space([], 3)
    assert len(rows) == 3
    stacked = np.vstack(rows)
    assert np.allclose(stacked, np.eye(3))


def test_complement_is_orthonormal_and_fills_the_dimension():
    basis = k_space_basis(triple())
    rows = r_space(basis, 3)
    assert len(basis) + len(rows) == 3
    gram = np.vstack(rows) @ np.vstack(rows).T
    assert np.allclose(gram, np.eye(len(rows)), atol=1e-12)
    for cv in basis:
        for r in rows:
            assert abs(float(np.dot(cv.as_array(3), r))) <= 1e-12


def test_membership_needs_orthogonality_to_the_kernel():
    basis = k_space_basis(triple())
    assert membership_check((0.3, -0.1, -0.2), basis, 1e-9)
    assert not membership_check((0.3, -0.1, 0.2), basis, 1e-3)
    with pytest.raises(InputError):
        membership_check((0.0, 0.0, 0.0), basis, -1.0)


def test_decomposition_recovers_the_declared_relation():
    struct = dependency_decompose(triple())
    assert struct.independent_set == (0, 1)
    assert struct.dependents() == (2,)
    assert struct.coefficients[2] == ((0, 1.0), (1, 1.0))
    assert struct.abs_sums[2] == pytest.approx(ZETA2, abs=1e-6)


def test_free_family_decomposes_to_itself():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    struct = dependency_decompose(fam)
    assert struct.independent_set == (0, 1)
    assert struct.dependents() == ()


def test_a_dependent_relation_rebuilds_the_absolute_witness():
    """``sum_k w_k * a^k + a^j`` over the relation of dependent j is the
    absolutely convergent perturbation that a^j carries, term by term."""
    fam = triple()
    struct = dependency_decompose(fam)
    assert struct.dependents() == (2,)
    witness = composite([(w, fam[k]) for k, w in struct.coefficients[2]]
                        + [(1.0, fam[2])])
    ms = np.arange(64)
    assert term_array(witness, ms) == pytest.approx(1.0 / (ms + 1.0) ** 2,
                                                    rel=1e-12)


@pytest.mark.parametrize("precision", [-1.0, 0.0, math.nan, math.inf])
def test_decomposition_rejects_a_nonpositive_precision(precision):
    # a family without dependents sums nothing, so only an up-front check
    # catches the bad value
    with pytest.raises(InputError):
        dependency_decompose(family(rademacher_harmonic(0)),
                             precision=precision)


def test_sum_range_refuses_an_infinite_precision():
    # an infinite share per part would let every sum stop at once, at 0.0
    with pytest.raises(InputError, match="finite and positive"):
        sum_range(triple(), precision=math.inf)


def test_predicted_limit_shifts_with_the_achieved_sums():
    struct = dependency_decompose(triple())
    base = predicted_dependent_limit(struct, {0: 0.0, 1: 0.0}, 2)
    assert base == pytest.approx(ZETA2, abs=1e-6)
    moved = predicted_dependent_limit(struct, {0: 0.25, 1: -0.5}, 2)
    assert moved == pytest.approx(base + 0.25, abs=1e-12)
    with pytest.raises(InputError):
        predicted_dependent_limit(struct, {0: 0.0}, 2)
    with pytest.raises(InputError):
        predicted_dependent_limit(struct, {0: 0.0, 1: 0.0}, 0)


def test_growth_statistics_on_a_divergent_direction():
    fam = family(rademacher_harmonic(0))
    stats = growth_statistics(fam, [1.0], truncation=1 << 14)
    # absolute sums of the harmonic series keep growing like log N
    assert stats.abs_sum > 0.5 * math.log(1 << 14)
    assert stats.ratio > 1.0
    assert stats.verdict() != "member"


def test_growth_statistics_on_a_cancelling_combination():
    stats = growth_statistics(triple(), [1.0, 1.0, 1.0],
                              truncation=1 << 14)
    assert stats.abs_sum < 2.0
    assert stats.ratio < 1.01
    assert stats.verdict() == "member"


def test_kernel_basis_survives_rounding_noise_in_an_exact_relation():
    # s3 - s2 + 4 s0 cancels exactly, but its computed terms leave
    # rounding noise whose halves' ratio alone would read as growth
    s0 = rademacher_harmonic(1, 0.75)
    s1 = composite([(-2.0, s0)])
    s2 = rademacher_harmonic(1, 1.0)
    s3 = composite([(1.0, s2), (-2.0, s0), (1.0, s1)])
    fam = family(s0, s1, s2, s3)
    basis = k_space_basis(fam, truncation=256)
    assert [(cv.support, cv.values) for cv in basis] == [
        ((0, 1), (2.0, 1.0)), ((0, 2, 3), (4.0, -1.0, 1.0))]
    noise = growth_statistics(fam, [4.0, 0.0, -1.0, 1.0], truncation=256)
    assert 0.0 < noise.abs_sum < 1e-12 * noise.scale
    assert noise.ratio >= 1.5
    assert noise.verdict() == "member"


def test_growth_scale_sums_the_scaled_terms():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    stats = growth_statistics(fam, [2.0, -3.0], truncation=64)
    ms = np.arange(64)
    expected = (np.abs(2.0 * term_array(fam[0], ms)).sum()
                + np.abs(-3.0 * term_array(fam[1], ms)).sum())
    assert stats.scale == pytest.approx(expected, rel=1e-12)
    assert stats.abs_sum <= stats.scale
    unit = growth_statistics(fam, [1.0, 0.0], truncation=64)
    assert unit.abs_sum == pytest.approx(unit.scale, rel=1e-12)


def _reference_growth(fam, coeffs, truncation):
    """The growth statistics of one vector, summed one vector at a time:
    per 2**15-index chunk of each half, every nonzero coefficient's
    scaled terms are added into the combination in spec order."""
    dim = len(coeffs)
    half = truncation // 2
    totals = [0.0, 0.0]
    scale = 0.0
    for part, (lo, hi) in enumerate(((0, half), (half, truncation))):
        acc = 0.0
        for start in range(lo, hi, 1 << 15):
            ms = np.arange(start, min(start + (1 << 15), hi), dtype=np.int64)
            combo = np.zeros(ms.shape, dtype=np.float64)
            for c, spec in zip(coeffs, fam.specs[:dim]):
                if c != 0.0:
                    scaled = c * term_array(spec, ms)
                    combo += scaled
                    scale += float(np.abs(scaled, out=scaled).sum())
            acc += float(np.abs(combo).sum())
        totals[part] = acc
    half_sum = totals[0]
    abs_sum = totals[0] + totals[1]
    if half_sum > 0.0:
        ratio = abs_sum / half_sum
    else:
        ratio = 1.0 if abs_sum == 0.0 else math.inf
    return subspace.GrowthStats(abs_sum, half_sum, ratio, truncation, scale)


def mixed_family():
    """Exponents 0.5, 0.75, 1, 1.5 and 2.5 across six series: composites
    whose refs mix exponents, perturbations, a signed abs_power used both
    alone and as a perturbation, and negative coefficients."""
    r0 = rademacher_harmonic(0, 0.75)
    r1 = rademacher_harmonic(1, 1.0)
    alt = power_alternating(0.5)
    signed = abs_power(2.5, -0.5, sign_level=1)
    mix = composite([(-1.5, r0), (2.0, r1), (0.5, alt)], perturbation=signed)
    dep = composite([(-2.0, r0), (1.0, r1)],
                    perturbation=composite([(-1.0, abs_power(1.5, 2.0))]))
    return family(r0, r1, alt, signed, mix, dep)


SWEEP_TRUNCATIONS = [4, 5, (1 << 15) + 3, 3 * (1 << 15) - 1]


@pytest.mark.parametrize("truncation", SWEEP_TRUNCATIONS)
@pytest.mark.parametrize("dim", [6, 3])
def test_kernel_growth_sweep_matches_the_one_vector_loop(truncation, dim):
    fam = mixed_family()
    basis, growth = subspace.k_space_growth(fam, dim, truncation)
    units = [[float(i == j) for j in range(dim)] for i in range(dim)]
    assert growth == [_reference_growth(fam, u, truncation) for u in units]
    kernel = [cv.as_array(dim) for cv in basis]
    assert len(kernel) == (3 if dim == 6 else 0)
    assert subspace._growth_sweep(fam, kernel + units, truncation) == [
        _reference_growth(fam, v, truncation) for v in kernel + units]


@pytest.mark.parametrize("truncation", SWEEP_TRUNCATIONS)
@pytest.mark.parametrize("coeffs", [
    [0.0, 0.0, 0.0, 0.0, 0.0, -2.5],
    [1.0, -1.0, 0.5, -3.0, 2.0, -0.75],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0],
    [-0.125]], ids=["one-composite", "all-signed", "signed-abs", "zero",
                    "one"])
def test_growth_statistics_matches_the_one_vector_loop(coeffs, truncation):
    fam = mixed_family()
    assert growth_statistics(fam, coeffs, truncation) == _reference_growth(
        fam, coeffs, truncation)


def test_growth_statistics_rejects_tiny_truncations():
    with pytest.raises(InputError):
        growth_statistics(family(rademacher_harmonic(0)), [1.0], truncation=2)


@pytest.mark.parametrize("coeffs", [[], [1.0, 0.0, 7.0], [math.nan, 0.0],
                                    [0.0, -math.inf]],
                         ids=["empty", "too-long", "nan", "inf"])
def test_growth_statistics_rejects_bad_coefficients(coeffs):
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    with pytest.raises(InputError):
        growth_statistics(fam, coeffs, truncation=1024)


def test_sum_range_combines_offsets_and_directions():
    rng = sum_range(triple(), precision=1e-6)
    assert len(rng.offset) == 3
    ln2 = 0.6931471805599453
    rad1_sum = 1.1319717536774209
    assert rng.offset[0] == pytest.approx(ln2, abs=1e-5)
    assert rng.offset[2] == pytest.approx(ZETA2 - ln2 - rad1_sum, abs=1e-5)
    assert len(rng.subspace_basis) == 2
    for row in rng.subspace_basis:
        assert abs(sum(row)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_deviations_built_from_complement_directions_pass_membership(u, v):
    fam = triple()
    basis = k_space_basis(fam)
    rows = r_space(basis, 3)
    xbar = u * rows[0] + v * rows[1]
    assert membership_check(tuple(float(x) for x in xbar), basis, 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_dimension_split_for_free_families(d):
    fam = family(*(rademacher_harmonic(i) for i in range(d)))
    basis = k_space_basis(fam)
    rows = r_space(basis, d)
    assert len(basis) + len(rows) == d


@st.composite
def small_families(draw):
    """Rademacher series at a few levels and exponents, plus composites of
    earlier series with small integer coefficients."""
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if specs and draw(st.booleans()):
            refs = draw(st.lists(st.integers(0, len(specs) - 1),
                                 min_size=1, max_size=3, unique=True))
            specs.append(composite(
                [(draw(st.sampled_from((-2.0, -1.0, 1.0, 2.0))), specs[k])
                 for k in refs]))
        else:
            specs.append(rademacher_harmonic(
                draw(st.integers(0, 2)), draw(st.sampled_from((1.0, 0.75)))))
    return family(*specs)


@settings(max_examples=40, deadline=None)
@given(small_families())
def test_kernel_basis_is_the_exact_pattern_kernel(fam):
    full = k_space_basis(fam, truncation=256)
    for cv in full:
        ints = [int(v) for v in cv.values]
        assert list(cv.values) == ints
        assert math.gcd(*ints) == 1
        assert ints[0] > 0
        residue: dict = {}
        for k, v in zip(cv.support, ints):
            for level, p, c in reduce_spec(fam[k]).patterns:
                residue[level, p] = (residue.get((level, p), Fraction(0))
                                     + v * Fraction(c))
        assert not any(residue.values())
    for d in range(1, len(fam) + 1):
        basis = k_space_basis(fam, d, truncation=256)
        leading = dependency_decompose(family(*fam.specs[:d]))
        assert len(basis) == d - len(leading.independent_set)
        assert basis == [cv for cv in full if max(cv.support) < d]
