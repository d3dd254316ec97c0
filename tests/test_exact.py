"""Exact scalar arithmetic: parsing, PhaseSum algebra and exact |rotated sum|^2."""

import cmath
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolab.exact import PhaseSum, parse_scalar, scalar_str
from ergolab.spectral import CorrelationSeq


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


def test_parse_scalar_refuses_an_exponent_past_the_int_digit_limit():
    """Fraction("1e-100000000") builds 10**100000000 and takes minutes."""
    assert parse_scalar("1e5") == 100000
    assert parse_scalar("2.5e-3") == Fraction(1, 400)
    assert parse_scalar("1E+3") == 1000
    for raw in ["1e-100000000", "1e100000000", "-3.5E+1_000_000", " 2e9999999 "]:
        with pytest.raises(ValueError, match="^angle: .*exponent"):
            parse_scalar(raw, field="angle")


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
    assert PhaseSum([(Fraction(1, 2), Fraction(3, 7))]).as_rational() == Fraction(-3, 7)


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
# |rotated sum|^2 of a correlation sequence: the Fejer closed form
# ---------------------------------------------------------------------------

digits40 = st.builds(Fraction, st.integers(min_value=-(10**41), max_value=10**41),
                     st.sampled_from([10**40, 3 * 10**40]))
small_steps = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                               Fraction(7, 12), Fraction(5, 64)])
nonzero_weights = st.builds(Fraction, st.integers(min_value=-9, max_value=9).filter(bool),
                            st.sampled_from([1, 2, 3, 7, 10**40]))


@st.composite
def geometric_phases(draw):
    """(phases, angle, N): phases[n] = w * e(a0 + n * beta) for n <= N, with a0,
    beta and the query angle over 40-digit denominators.  Half the draws put
    angle + beta on a small denominator (0 included), so the 2N - 1 keys of
    |sum|^2 collide and merge."""
    N = draw(st.integers(min_value=2, max_value=64))
    a0, beta, w = draw(digits40), draw(digits40), draw(nonzero_weights)
    angle = draw(small_steps) - beta if draw(st.booleans()) else draw(digits40)
    phases = [PhaseSum([(a0 + n * beta, w)]) for n in range(N + 1)]
    return phases, angle % 1, N


@st.composite
def broken_phases(draw):
    """A geometric sequence with one index n < N changed: its angle shifted,
    its weight changed (possibly to 0), or a second term added."""
    phases, angle, N = draw(geometric_phases())
    n = draw(st.one_of(st.integers(min_value=0, max_value=2),
                       st.integers(min_value=0, max_value=N - 1))) % N
    (a, w), = phases[n].terms
    how = draw(st.sampled_from(["angle", "weight", "term"]))
    if how == "angle":
        phases[n] = PhaseSum([(a + draw(wide_angles.filter(lambda t: t % 1)), w)])
    elif how == "weight":
        phases[n] = PhaseSum([(a, w + draw(nonzero_weights))])
    else:
        phases[n] = phases[n] + PhaseSum([(draw(wide_angles), draw(nonzero_weights))])
    return phases, angle, N


def rotated_abs2_and_products(phases, angle, N):
    """Check seq.rotated_abs2(angle, N) against the reference |total|^2 and
    return total and the number of ``PhaseSum.abs2`` calls it made."""
    seq = CorrelationSeq(N=len(phases) - 1, observable=None, exact=True,
                         _values=np.array([p.value() for p in phases]), _phases=phases)
    total = seq.rotated_sum(angle, N)
    calls = []
    original = PhaseSum.abs2
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PhaseSum, "abs2", lambda self: calls.append(self) or original(self))
        square = seq.rotated_abs2(angle, N)
    reference = reference_product(total, total.conjugate())
    assert square.terms == reference
    assert square.as_rational() == PhaseSum(reference).as_rational()
    if square.as_rational() is not None:
        assert float(square.as_rational()) == pytest.approx(abs(total.value()) ** 2, abs=1e-6)
    return total, len(calls)


@given(geometric_phases())
def test_geometric_rotated_abs2_is_the_product(drawn):
    phases, angle, N = drawn
    total, products = rotated_abs2_and_products(phases, angle, N)
    # the closed form replaces every product with more than 2N - 1 terms
    assert products == (len(total.terms) ** 2 <= 2 * N - 1)


@pytest.mark.parametrize("N, size, products", [(0, 0, 1), (4, 3, 0), (5, 3, 1)])
def test_the_closed_form_starts_where_the_product_outgrows_it(N, size, products):
    """With angle + beta = 1/3 the sum has 3 terms: a product of 9 against
    2N - 1 = 7 closed-form terms at N = 4, and 9 at N = 5.  An empty sum
    (N = 0) has nothing to square."""
    beta = Fraction(1, 10**40)
    phases = [PhaseSum([(n * beta, Fraction(-2, 3))]) for n in range(N + 2)]
    total, calls = rotated_abs2_and_products(phases, Fraction(1, 3) - beta, N)
    assert len(total.terms) == size and calls == products


@given(broken_phases())
def test_broken_sequences_fall_back_to_the_product(drawn):
    phases, angle, N = drawn
    total, products = rotated_abs2_and_products(phases, angle, N)
    steps = [p.terms[0] if len(p.terms) == 1 else None for p in phases[:N]]
    geometric = None not in steps and len({w for _, w in steps}) == 1 and all(
        (a - steps[0][0] - n * (steps[1][0] - steps[0][0])) % 1 == 0
        for n, (a, _) in enumerate(steps))
    if not geometric:
        assert products == 1


# ---------------------------------------------------------------------------
# the dense reference: reduction modulo the q-th cyclotomic polynomial
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(q: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the q-th cyclotomic polynomial.

    Phi_q = prod_{d | q} (x^d - 1)^mu(q/d); only squarefree q/d contribute, so
    d runs over q divided by products of distinct primes of q.  The factors
    with mu = +1 are multiplied first, and those with mu = -1 then divide the
    product exactly.
    """
    primes = _prime_factors(q)
    up, down = [], []
    for mask in range(1 << len(primes)):
        d = q
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d //= p
        (down if bin(mask).count("1") % 2 else up).append(d)
    poly = [1]
    for d in up:  # poly * (x^d - 1)
        poly = [s - p for s, p in zip([0] * d + poly, poly + [0] * d)]
    for d in down:  # poly / (x^d - 1), exact: poly[i] = quot[i - d] - quot[i]
        quot = [0] * (len(poly) - d)
        for i in range(len(quot)):
            quot[i] = (quot[i - d] if i >= d else 0) - poly[i]
        poly = quot
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs: list[int], q: int) -> list[int]:
    """Remainder of sum(coeffs[a] * x^a) modulo the q-th cyclotomic polynomial."""
    phi = _cyclotomic_coeffs(q)
    deg = len(phi) - 1  # phi is monic of degree deg
    tail = [(j, pj) for j, pj in enumerate(phi[:deg]) if pj]
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for j, pj in tail:
                work[base + j] -= c * pj
    return work[:deg]


def dense_verdicts(x: PhaseSum) -> tuple[bool, Fraction | None]:
    """(is_zero, as_rational) of x by reducing D * x modulo Phi_q, where q and
    D are the lcms of the angle and weight denominators."""
    if not x.terms:
        return True, Fraction(0)
    q = lcm(*(a.denominator for a, _ in x.terms))
    D = lcm(*(w.denominator for _, w in x.terms))
    coeffs = [0] * q
    for a, w in x.terms:
        coeffs[a.numerator * (q // a.denominator)] = w.numerator * (D // w.denominator)
    remainder = _reduce_mod_cyclotomic(coeffs, q)
    rational = None if any(remainder[1:]) else Fraction(remainder[0], D)
    return not any(remainder), rational


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


# ---------------------------------------------------------------------------
# the sparse zero test against the dense reference, and past q = 2048
# ---------------------------------------------------------------------------

def cycle(p: int, offset: Fraction, weight: Fraction) -> PhaseSum:
    """weight * e(offset) * (1 + e(1/p) + ... + e((p-1)/p)), which is 0."""
    return PhaseSum((offset + Fraction(t, p), weight) for t in range(p))


small_weights = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2, 5]))


@st.composite
def planted_sums(draw):
    """Sums over q <= 2048: planted p-cycles for primes p of q, rotated by
    multiples of 1/q, plus an optional rational and a few stray terms."""
    q = draw(st.integers(1, 2048))
    primes = _prime_factors(q)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        if primes:
            p = draw(st.sampled_from(primes))
            terms += cycle(p, Fraction(draw(st.integers(0, q - 1)), q), draw(small_weights)).terms
    if draw(st.booleans()):
        terms.append((Fraction(0), draw(small_weights)))
    for _ in range(draw(st.integers(0, 2))):
        terms.append((Fraction(draw(st.integers(0, q - 1)), q), draw(small_weights)))
    return PhaseSum(terms)


@given(planted_sums())
def test_sparse_verdicts_equal_the_dense_reduction(x):
    assert (x.is_zero(), x.as_rational()) == dense_verdicts(x)


@pytest.mark.parametrize("modulus", [2049, 3 * 10**40, 6 * (10**9 + 7), 2**61 - 1])
def test_planted_cycles_vanish_past_2048(modulus):
    """Cycles of the small primes 2, 3, 5 and of the primes of the modulus up
    to 683, rotated by multiples of 1/modulus, cancel; a stray term does not."""
    primes = [p for p in (2, 3, 5, 683) if p < 100 or modulus % p == 0]
    zero = PhaseSum.sum(cycle(p, Fraction(k * 7919 + 1, modulus), Fraction(k + 1, 3))
                        for k, p in enumerate(primes))
    assert len(zero.terms) > 1 and zero.value() == pytest.approx(0, abs=1e-9)
    assert zero.is_zero() and zero.as_rational() == 0
    assert (zero + Fraction(2, 7)).as_rational() == Fraction(2, 7)
    stray = zero + PhaseSum.unit(Fraction(1, modulus))
    assert not stray.is_zero() and stray.as_rational() is None
    lone = PhaseSum.unit(Fraction(1, modulus))
    assert not lone.is_zero() and (lone + Fraction(1, 3)).as_rational() is None


def test_a_cancelling_pair_over_a_large_prime_leaves_the_rational():
    P = 10**9 + 7
    x = PhaseSum.unit(Fraction(1, P)) + PhaseSum.unit(Fraction(1, P) + Fraction(1, 2)) + Fraction(1, 3)
    assert len(x.terms) == 3
    assert x.as_rational() == Fraction(1, 3)
    assert (x - Fraction(1, 3)).is_zero() and not x.is_zero()
