"""The integer-lattice ``PhaseSum`` against the ``Fraction``-term one it replaced.

``FractionPhaseSum`` below is ``PhaseSum`` as it was when it stored sorted
``(Fraction, Fraction)`` terms and turned them into integer numerators for
every product, rotation and zero test; only members the property uses are
kept.  It shares the zero test ``_vanishes`` with the package, which
``tests/test_exact.py`` checks against the dense cyclotomic reduction.
"""

import cmath
from fractions import Fraction
from math import lcm
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.exact import PhaseSum, _difference, _split, _vanishes

# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

def int_rational(acc: dict[int, int], q: int, D: int) -> Fraction | None:
    """The rational value of sum(acc[A] / D * e(A / q)), or None if it is not
    rational; acc has nonzero weights, and q need not be the least denominator.

    If the sum is c, then so is class j = 0's beta_(0,0) - beta_(0,1) over m
    (c sits at t = 0), with at most len(acc) terms.  Once no prime of q is
    <= len(acc) + 1, that sum minus c vanishes only if it is empty, so c is its
    weight at angle 0.
    """
    rest, m = acc, q
    for p in range(2, len(acc) + 2):
        if m % p == 0:
            classes, m = _split(rest, m, p)
            row = classes.get(0, {})
            rest = _difference(row.get(0, {}), row.get(1, {}))
    c = rest.get(0, 0)
    return Fraction(c, D) if _vanishes(_difference(acc, {0: c}), q) else None


def _as_ints(terms, Q: int, D: int) -> list[tuple[int, int]]:
    """Terms (angle, weight) as integers (angle * Q, weight * D)."""
    return [(a.numerator * (Q // a.denominator), w.numerator * (D // w.denominator))
            for a, w in terms]


def _weight_lcm(terms) -> int:
    return lcm(*(w.denominator for _, w in terms))


def _angle_lcm(terms) -> int:
    return lcm(*(a.denominator for a, _ in terms))


_ZERO = Fraction(0)


class FractionPhaseSum:
    """``PhaseSum`` as it stored its terms: sorted (angle, weight) pairs of
    ``Fraction``s, angles mod 1 and merged, weights nonzero."""

    __slots__ = ("_terms", "_cached_value")

    def __init__(self, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        merged: dict[Fraction, Fraction] = {}
        for angle, weight in terms:
            if not weight:
                continue
            angle = angle % 1
            acc = merged.get(angle)
            merged[angle] = weight if acc is None else acc + weight
        self._terms: tuple[tuple[Fraction, Fraction], ...] = tuple(
            sorted((a, w) for a, w in merged.items() if w)
        )
        self._cached_value: complex | None = None

    @classmethod
    def _wrap(cls, terms: tuple[tuple[Fraction, Fraction], ...]) -> "FractionPhaseSum":
        """Wrap terms that are already reduced mod 1, merged, nonzero and sorted."""
        obj = object.__new__(cls)
        obj._terms = terms
        obj._cached_value = None
        return obj

    @classmethod
    def _from_ints(cls, acc: dict[int, int], Q: int, D: int) -> "FractionPhaseSum":
        """The sum of (acc[A] / D) * e(A / Q) over the nonzero entries of acc."""
        return cls._wrap(tuple(
            (Fraction(key, Q), Fraction(acc[key], D)) for key in sorted(acc) if acc[key]
        ))

    @classmethod
    def from_rational(cls, w) -> "FractionPhaseSum":
        if type(w) is not Fraction:
            w = Fraction(w)
        return cls._wrap(((_ZERO, w),) if w else ())

    @classmethod
    def sum(cls, sums: Iterable["FractionPhaseSum"], step: Fraction = _ZERO) -> "FractionPhaseSum":
        """sum_n e^(2*pi*i*n*step) * sums[n] in one pass over the integer lattice.

        Angle numerators over the lcm Q of all angle denominators (the step's
        included) key the accumulation of weight numerators over the lcm D of
        all weight denominators; terms equal those of a left fold of ``+``
        over the rotated sums.
        """
        parts = [s._terms for s in sums]
        terms = [t for part in parts for t in part]
        if not terms:
            return _ZERO_SUM
        Q, D = lcm(_angle_lcm(terms), step.denominator), _weight_lcm(terms)
        S = step.numerator * (Q // step.denominator)
        acc: dict[int, int] = {}
        get = acc.get
        for n, part in enumerate(parts):
            for a, w in part:
                key = (a.numerator * (Q // a.denominator) + n * S) % Q
                acc[key] = get(key, 0) + w.numerator * (D // w.denominator)
        return cls._from_ints(acc, Q, D)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._terms

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "FractionPhaseSum":
        if isinstance(other, FractionPhaseSum):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPhaseSum.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "FractionPhaseSum":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return FractionPhaseSum(self._terms + rhs._terms)

    __radd__ = __add__

    def __neg__(self) -> "FractionPhaseSum":
        return FractionPhaseSum._wrap(tuple((a, -w) for a, w in self._terms))

    def __sub__(self, other) -> "FractionPhaseSum":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "FractionPhaseSum":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "FractionPhaseSum":
        if isinstance(other, (int, Fraction)):
            return self._monomial_product(_ZERO, Fraction(other))
        if isinstance(other, FractionPhaseSum):
            lhs, rhs = self, other
            if len(rhs._terms) > len(lhs._terms):
                lhs, rhs = rhs, lhs
            if not rhs._terms:
                return _ZERO_SUM
            if len(rhs._terms) == 1:
                return lhs._monomial_product(*rhs._terms[0])
            return lhs._int_product(rhs)
        return NotImplemented

    __rmul__ = __mul__

    def _monomial_product(self, angle: Fraction, weight: Fraction) -> "FractionPhaseSum":
        """The product with weight * e^(2*pi*i*angle).

        Shifting by one angle keeps the angles distinct, so nothing merges.
        """
        if not weight:
            return _ZERO_SUM
        scaled = self if weight == 1 else \
            FractionPhaseSum._wrap(tuple((a, w * weight) for a, w in self._terms))
        return scaled.rotated(angle)

    def _int_product(self, other: "FractionPhaseSum") -> "FractionPhaseSum":
        """The product, accumulated over integer angle and weight numerators.

        Angle numerators over Q add mod Q, weight numerators over D1 and D2
        multiply, and each merged coefficient is divided by D1 * D2 once.
        """
        lhs, rhs = self._terms, other._terms
        Q = lcm(_angle_lcm(lhs), _angle_lcm(rhs))
        D1, D2 = _weight_lcm(lhs), _weight_lcm(rhs)
        right = _as_ints(rhs, Q, D2)
        acc: dict[int, int] = {}
        get = acc.get
        for A1, W1 in _as_ints(lhs, Q, D1):
            for A2, W2 in right:
                key = (A1 + A2) % Q
                acc[key] = get(key, 0) + W1 * W2
        return FractionPhaseSum._from_ints(acc, Q, D1 * D2)

    def conjugate(self) -> "FractionPhaseSum":
        if not self._terms:
            return self
        return FractionPhaseSum._wrap(tuple(sorted(
            (-a % 1 if a else a, w) for a, w in self._terms)))

    def rotated(self, angle: Fraction | int, modulus: int = 1) -> "FractionPhaseSum":
        """Multiply by the unit phase e^(2*pi*i*angle/modulus).  The shifted
        angles are numerators over the lcm of all denominators, so each term
        costs one new ``Fraction``."""
        Q = angle.denominator * modulus
        P = angle.numerator % Q
        if not P or not self._terms:
            return self
        L = lcm(Q, _angle_lcm(self._terms))
        shift = P * (L // Q)
        keyed = sorted(((a.numerator * (L // a.denominator) + shift) % L, w)
                       for a, w in self._terms)
        return FractionPhaseSum._wrap(tuple((Fraction(A, L), w) for A, w in keyed))

    def abs2(self) -> "FractionPhaseSum":
        """|self|^2 as an exact (real) PhaseSum."""
        if not self._terms:
            return self
        if len(self._terms) == 1:
            w = self._terms[0][1]
            return FractionPhaseSum._wrap(((_ZERO, w * w),))
        return self * self.conjugate()

    # -- evaluation ----------------------------------------------------------

    def value(self) -> complex:
        if self._cached_value is None:
            acc = 0j
            for a, w in self._terms:
                acc += float(w) * cmath.exp(2j * cmath.pi * float(a))
            self._cached_value = acc
        return self._cached_value

    # -- exact predicates ------------------------------------------------------

    def _numerators(self) -> tuple[dict[int, int], int, int]:
        """(acc, q, D) with self = sum(acc[A] / D * e(A / q))."""
        q, D = _angle_lcm(self._terms), _weight_lcm(self._terms)
        return dict(_as_ints(self._terms, q, D)), q, D

    def is_zero(self) -> bool:
        if not self._terms:
            return True
        acc, q, _ = self._numerators()
        return _vanishes(acc, q)

    def as_rational(self) -> Fraction | None:
        """The exact rational value of this sum, or None if it is not rational."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return self._terms[0][1]
        return int_rational(*self._numerators())


_ZERO_SUM = FractionPhaseSum._wrap(())


# ---------------------------------------------------------------------------
# drawn sums and operations, on both classes
# ---------------------------------------------------------------------------

#: small denominators merge and cancel; 40-digit ones are a decimal rotation's
angles = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 8, 12])),
    st.builds(Fraction, st.integers(-(10**41), 10**41), st.sampled_from([10**40, 3 * 10**40])),
)
#: weights over 2, 4, 6 and 12 reduce when they merge: 1/4 + 1/4 = 1/2, 1/6 + 1/3 = 1/2
weights = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 12, 10**40]))


@st.composite
def term_lists(draw):
    """Terms of one sum: free terms (zero weights included), plus optionally
    a whole p-cycle, which is 0 but not empty, and the negation of some of
    the free terms, which cancels them."""
    terms = draw(st.lists(st.tuples(angles, weights), max_size=5))
    if draw(st.booleans()):
        p, offset, w = draw(st.sampled_from([2, 3, 4])), draw(angles), draw(weights)
        terms += [(offset + Fraction(t, p), w) for t in range(p)]
    if terms and draw(st.booleans()):
        terms += [(a, -w) for a, w in draw(st.lists(st.sampled_from(terms), max_size=3))]
    return draw(st.permutations(terms))


OPERATIONS = ["add", "sub", "mul", "scale", "conjugate", "rotated", "abs2", "sum"]


@st.composite
def programs(draw):
    """Starting term lists and up to six operations on the sums made so far."""
    starts = draw(st.lists(term_lists(), min_size=1, max_size=3))
    steps = []
    for i in range(draw(st.integers(1, 6))):
        size = len(starts) + i
        pick = st.integers(0, size - 1)
        op = draw(st.sampled_from(OPERATIONS))
        if op in ("add", "sub", "mul"):
            args = (draw(pick), draw(pick))
        elif op == "scale":
            args = (draw(pick), draw(st.one_of(weights, st.integers(-3, 3))))
        elif op == "rotated":
            args = (draw(pick), draw(st.one_of(angles, st.integers(-5, 5))),
                    draw(st.integers(1, 12)))
        elif op == "sum":
            args = (draw(st.lists(pick, max_size=8)), draw(angles))
        else:
            args = (draw(pick),)
        steps.append((op, args))
    return starts, steps


def apply(cls, pool, op, args):
    if op == "add":
        return pool[args[0]] + pool[args[1]]
    if op == "sub":
        return pool[args[0]] - pool[args[1]]
    if op == "mul":
        return pool[args[0]] * pool[args[1]]
    if op == "scale":
        return pool[args[0]] * args[1]
    if op == "rotated":
        return pool[args[0]].rotated(args[1], args[2])
    if op == "sum":
        return cls.sum([pool[i] for i in args[0]], args[1])
    return getattr(pool[args[0]], op)()


def hexes(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def assert_same(new: PhaseSum, ref: FractionPhaseSum) -> None:
    assert new.terms == ref.terms
    assert all(type(a) is Fraction and type(w) is Fraction for a, w in new.terms)
    assert hexes(new.value()) == hexes(ref.value())
    assert new.as_rational() == ref.as_rational()
    assert new.is_zero() == ref.is_zero()


@settings(max_examples=400, deadline=None)
@given(programs())
def test_lattice_phase_sums_match_the_fraction_terms_bit_for_bit(program):
    """Every drawn sum, and every result of +, -, * (by a sum or a scalar),
    conjugate, rotated, abs2 and PhaseSum.sum on them, has the reference's
    terms, as_rational and is_zero, and the same value() bits."""
    starts, steps = program
    new = [PhaseSum(terms) for terms in starts]
    ref = [FractionPhaseSum(terms) for terms in starts]
    for op, args in steps:
        new.append(apply(PhaseSum, new, op, args))
        ref.append(apply(FractionPhaseSum, ref, op, args))
    for x, y in zip(new, ref):
        assert_same(x, y)
