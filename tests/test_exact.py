"""Exact scalar arithmetic: parsing and PhaseSum algebra."""

import cmath
import operator
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolab.exact import PhaseSum, _cyclotomic_coeffs, parse_scalar, scalar_str


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1/3", Fraction(1, 3)),
        ("-2/5", Fraction(-2, 5)),
        ("0.25", Fraction(1, 4)),
        ("0.4142135623730950488016887242096980785697", Fraction(
            4142135623730950488016887242096980785697, 10**40)),
        (7, Fraction(7)),
        (Fraction(3, 8), Fraction(3, 8)),
    ],
)
def test_parse_scalar(raw, expected):
    assert parse_scalar(raw) == expected


def test_parse_scalar_rejects_floats_and_junk():
    with pytest.raises(ValueError, match="float"):
        parse_scalar(0.5)
    with pytest.raises(ValueError, match="angle"):
        parse_scalar("one third", field="angle")


def test_scalar_str_round_trip():
    for x in [Fraction(1, 3), Fraction(-7, 2), Fraction(5)]:
        assert parse_scalar(scalar_str(x)) == x


# ---------------------------------------------------------------------------
# PhaseSum algebra
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
angles = st.fractions(min_value=0, max_value=1, max_denominator=16)


def phase_sums(max_terms=4):
    return st.lists(st.tuples(angles, rationals), max_size=max_terms).map(PhaseSum)


def test_unit_values():
    assert PhaseSum.unit(Fraction(0)).value() == pytest.approx(1)
    assert PhaseSum.unit(Fraction(1, 2)).value() == pytest.approx(-1)
    assert PhaseSum.unit(Fraction(1, 4)).value() == pytest.approx(1j)


@given(phase_sums(), phase_sums())
def test_addition_matches_numeric(a, b):
    assert (a + b).value() == pytest.approx(a.value() + b.value(), abs=1e-12)


@given(phase_sums(), phase_sums())
def test_product_matches_numeric(a, b):
    assert (a * b).value() == pytest.approx(a.value() * b.value(), abs=1e-12)


@given(phase_sums())
def test_conjugate_matches_numeric(a):
    assert a.conjugate().value() == pytest.approx(a.value().conjugate(), abs=1e-12)


@given(phase_sums())
def test_self_difference_is_zero(a):
    assert (a - a).is_zero()


@given(phase_sums())
def test_abs2_is_real_nonnegative(a):
    v = a.abs2().value()
    assert v.imag == pytest.approx(0, abs=1e-12)
    assert v.real >= -1e-12


def test_phase_cancellation_merges_exactly():
    theta = Fraction(4142135623730950488016887242096980785697, 10**40)
    prod = PhaseSum.unit(theta) * PhaseSum.unit(-theta)
    assert prod.as_rational() == 1


def test_vanishing_root_of_unity_sums():
    third = PhaseSum.unit(Fraction(0)) + PhaseSum.unit(Fraction(1, 3)) + PhaseSum.unit(Fraction(2, 3))
    assert third.is_zero()
    fifth = sum((PhaseSum.unit(Fraction(j, 5)) for j in range(5)), PhaseSum.zero())
    assert fifth.is_zero()
    assert not (third + 1).is_zero()


def test_equality_across_denominators():
    # e^(2*pi*i*2/3) equals -1 - e^(2*pi*i/3) (full third-roots cycle) and
    # -e^(2*pi*i/6) (sixth-root identity); all three must compare equal.
    a = PhaseSum.unit(Fraction(2, 3))
    b = PhaseSum.zero() - PhaseSum.one() - PhaseSum.unit(Fraction(1, 3))
    c = PhaseSum.zero() - PhaseSum.unit(Fraction(1, 6))
    assert b.value() == pytest.approx(a.value(), abs=1e-12)
    assert c.value() == pytest.approx(a.value(), abs=1e-12)
    assert a == b
    assert a == c


def test_half_mixture_is_zero():
    # (1/2) e^(0) + (1/2) e^(pi i) = 0 exactly
    s = PhaseSum([(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
    assert s.is_zero()
    assert s.as_rational() == 0


def test_as_rational():
    assert PhaseSum.from_rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)
    assert PhaseSum.unit(Fraction(1, 3)).as_rational() is None
    two = PhaseSum.unit(Fraction(1, 2)) * PhaseSum.unit(Fraction(1, 2))
    assert two.as_rational() == 1


def test_rotated():
    s = PhaseSum.unit(Fraction(1, 8)).rotated(Fraction(1, 8))
    assert s == PhaseSum.unit(Fraction(1, 4))
    assert s.value() == pytest.approx(cmath.exp(2j * cmath.pi * 0.25))


# ---------------------------------------------------------------------------
# lattice products against the Fraction double loop
# ---------------------------------------------------------------------------

def reference_product(a: PhaseSum, b: PhaseSum) -> tuple:
    """Canonical terms of a * b by the plain double loop over Fractions."""
    merged: dict[Fraction, Fraction] = {}
    for a1, w1 in a.terms:
        for a2, w2 in b.terms:
            angle = (a1 + a2) % 1
            merged[angle] = merged.get(angle, Fraction(0)) + w1 * w2
    return tuple(sorted((t, w) for t, w in merged.items() if w))


wide_angles = st.builds(
    Fraction,
    st.integers(min_value=-(10**41), max_value=10**41),
    st.sampled_from([1, 2, 3, 5, 7, 12, 64, 105, 10**40, 3 * 10**40]),
)
fractional_weights = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.sampled_from([1, 2, 3, 6, 7, 10**40]),
)
wide_sums = st.lists(st.tuples(wide_angles, fractional_weights), max_size=6).map(PhaseSum)


@st.composite
def product_pairs(draw):
    """(a, b) with b independent of a, or b = a with some weights negated so
    that cross terms of a * b cancel."""
    a = draw(wide_sums)
    if draw(st.booleans()):
        return a, draw(wide_sums)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(a.terms),
                          max_size=len(a.terms)))
    return a, PhaseSum((t, s * w) for (t, w), s in zip(a.terms, signs))


@given(product_pairs())
def test_product_terms_match_reference_loop(pair):
    a, b = pair
    assert (a * b).terms == reference_product(a, b)
    assert a.abs2().terms == reference_product(a, a.conjugate())
    assert (a * Fraction(-2, 3)).terms == reference_product(a, PhaseSum.from_rational(Fraction(-2, 3)))
    assert all(type(t) is Fraction and type(w) is Fraction for t, w in (a * b).terms)


@st.composite
def summand_lists(draw):
    """Lists of sums, some followed later by their negation, so that whole
    summands (and possibly everything) cancel."""
    xs = draw(st.lists(wide_sums, max_size=6))
    if xs:
        xs += [-x for x in draw(st.lists(st.sampled_from(xs), max_size=3))]
    return draw(st.permutations(xs))


@given(summand_lists())
def test_sum_terms_match_left_fold(xs):
    total = PhaseSum.sum(xs)
    assert total.terms == reduce(operator.add, xs, PhaseSum.zero()).terms
    assert all(type(t) is Fraction and type(w) is Fraction for t, w in total.terms)


def test_sum_of_nothing_and_of_cancelling_sums_is_empty():
    x = PhaseSum([(Fraction(1, 3), Fraction(2, 7)), (Fraction(1, 10**40), Fraction(1))])
    assert PhaseSum.sum([]).terms == ()
    assert PhaseSum.sum(iter([x, -x])).terms == ()
    assert PhaseSum.sum([x, -x, x]).terms == x.terms


@given(wide_angles, fractional_weights)
def test_one_term_abs2_matches_the_product(angle, weight):
    x = PhaseSum([(angle, weight)])
    assert x.abs2().terms == (x * x.conjugate()).terms == ((Fraction(0), weight * weight),)


def test_product_cancellation_to_rational():
    theta = Fraction(1, 3 * 10**40)
    a = PhaseSum.one() + PhaseSum.unit(theta)
    b = PhaseSum.one() - PhaseSum.unit(theta)
    assert (a * b).terms == ((Fraction(0), Fraction(1)), (2 * theta, Fraction(-1)))


# ---------------------------------------------------------------------------
# cyclotomic polynomials and integer reduction
# ---------------------------------------------------------------------------

def poly_mul(p, r):
    out = [0] * (len(p) + len(r) - 1)
    for i, pi in enumerate(p):
        for j, rj in enumerate(r):
            out[i + j] += pi * rj
    return out


def test_cyclotomic_divisor_product_and_degree():
    for q in range(1, 257):
        product = [1]
        for d in range(1, q + 1):
            if q % d == 0:
                product = poly_mul(product, _cyclotomic_coeffs(d))
        assert product == [-1] + [0] * (q - 1) + [1], q
        totient = sum(1 for k in range(1, q + 1) if gcd(k, q) == 1)
        assert len(_cyclotomic_coeffs(q)) - 1 == totient, q


def test_cyclotomic_pinned_coefficients():
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2.
    phi105 = {0: 1, 1: 1, 2: 1, 5: -1, 6: -1, 7: -2, 8: -1, 9: -1, 12: 1, 13: 1,
              14: 1, 15: 1, 16: 1, 17: 1, 20: -1, 22: -1, 24: -1, 26: -1, 28: -1,
              31: 1, 32: 1, 33: 1, 34: 1, 35: 1, 36: 1, 39: -1, 40: -1, 41: -2,
              42: -1, 43: -1, 46: 1, 47: 1, 48: 1}
    assert _cyclotomic_coeffs(105) == tuple(phi105.get(i, 0) for i in range(49))
    # Phi_320(x) = Phi_10(x^32) and Phi_2048(x) = x^1024 + 1.
    phi320 = {0: 1, 32: -1, 64: 1, 96: -1, 128: 1}
    assert _cyclotomic_coeffs(320) == tuple(phi320.get(i, 0) for i in range(129))
    assert _cyclotomic_coeffs(2048) == (1,) + (0,) * 1023 + (1,)


def test_zero_and_rational_with_fractional_weights():
    third = Fraction(1, 3)
    z1, z2 = PhaseSum.unit(Fraction(1, 3)), PhaseSum.unit(Fraction(2, 3))
    assert ((PhaseSum.one() + z1 + z2) * third).is_zero()
    assert ((z1 + z2) * Fraction(1, 6)).as_rational() == Fraction(-1, 6)
    assert not ((z1 + z2) * Fraction(1, 6)).is_zero()
    # weights over different denominators: (1/2)(i + (-i)) + 1/3 + (2/7)(1 + z1 + z2)
    mixed = PhaseSum([(Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2)),
                      (Fraction(0), third)]) + (PhaseSum.one() + z1 + z2) * Fraction(2, 7)
    assert mixed.as_rational() == third
    assert (mixed - third).is_zero()
