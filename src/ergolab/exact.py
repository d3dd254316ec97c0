"""Exact scalars: rationals parsed from strings, and finite sums of unit phases.

Every quantity this package calls "exact" is a finite sum

    sum_j  w_j * e^(2*pi*i*t_j)

with rational weights ``w_j`` and rational angles ``t_j``.  ``PhaseSum`` stores
that form literally, so sums, products, conjugation and equality are decided in
exact arithmetic.  Floats only appear when a caller asks for ``value()``.

Products and zero tests run on an integer lattice: angles become numerators
over the lcm Q of their denominators and weights become numerators over the
lcm D of theirs, so the inner loops multiply and add Python ints and only the
surviving merged terms are turned back into ``Fraction``s.

Zero-testing is exact whenever the common denominator of the angles is small
enough for cyclotomic reduction (a vanishing rational combination of q-th roots
of unity is exactly a multiple of the q-th cyclotomic polynomial; Lam & Leung,
J. Algebra 224, 2000).  The cyclotomic polynomials are built from integers
alone.  For huge denominators (e.g. forty-digit decimal parameters) a 60-digit
numeric fallback on ``mpmath`` is used; in practice those sums only ever cancel
at the rational-angle level, which the merge step on construction already
catches exactly.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Union

__all__ = [
    "PhaseSum",
    "parse_scalar",
    "scalar_str",
]

#: Largest angle denominator for which zero tests run exact cyclotomic reduction.
CYCLOTOMIC_LIMIT = 2048

ScalarLike = Union[int, str, Fraction]


def parse_scalar(value: ScalarLike, *, field: str = "value") -> Fraction:
    """Parse an exact scalar: an int, a ``Fraction``, ``"p/q"``, or a decimal string.

    Floats are rejected on purpose: every parameter must be finitely
    representable, and a decimal string states its own precision.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise _value_error(field, f"expected a rational scalar, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise _value_error(
            field,
            f"got float {value!r}; pass an exact string such as '1/3' or '0.25'",
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _value_error(field, f"cannot parse {value!r} as a rational") from exc
    raise _value_error(field, f"cannot parse {type(value).__name__} as a rational")


def _value_error(field: str, message: str) -> ValueError:
    err = ValueError(f"{field}: {message}")
    err.field = field  # type: ignore[attr-defined]
    return err


def scalar_str(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` for integers)."""
    return str(x)


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


def _lattice(terms, Q: int, D: int) -> list[tuple[int, int]]:
    """Terms (angle, weight) as integers (angle * Q, weight * D)."""
    return [(a.numerator * (Q // a.denominator), w.numerator * (D // w.denominator))
            for a, w in terms]


def _weight_lcm(terms) -> int:
    return lcm(*(w.denominator for _, w in terms))


def _angle_lcm(terms) -> int:
    return lcm(*(a.denominator for a, _ in terms))


_ZERO = Fraction(0)
_ONE = Fraction(1)


class PhaseSum:
    """A finite sum of rational multiples of unit phases e^(2*pi*i*t), t rational.

    Immutable.  Angles are stored mod 1 and equal angles are merged on
    construction, so e.g. ``unit(t) * unit(-t)`` collapses to the rational 1
    without any root-of-unity reasoning.
    """

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
    def _canonical(cls, terms: tuple[tuple[Fraction, Fraction], ...]) -> "PhaseSum":
        """Wrap terms that are already reduced mod 1, merged, nonzero and sorted."""
        obj = object.__new__(cls)
        obj._terms = terms
        obj._cached_value = None
        return obj

    @classmethod
    def _from_lattice(cls, acc: dict[int, int], Q: int, D: int) -> "PhaseSum":
        """The sum of (acc[A] / D) * e(A / Q) over the nonzero entries of acc."""
        return cls._canonical(tuple(
            (Fraction(key, Q), Fraction(acc[key], D)) for key in sorted(acc) if acc[key]
        ))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PhaseSum":
        return cls._canonical(())

    @classmethod
    def one(cls) -> "PhaseSum":
        return cls._canonical(((_ZERO, _ONE),))

    @classmethod
    def unit(cls, angle: Fraction) -> "PhaseSum":
        """The unimodular value e^(2*pi*i*angle)."""
        return cls([(Fraction(angle), Fraction(1))])

    @classmethod
    def from_rational(cls, w) -> "PhaseSum":
        if type(w) is not Fraction:
            w = Fraction(w)
        return cls._canonical(((_ZERO, w),) if w else ())

    @classmethod
    def sum(cls, sums: Iterable["PhaseSum"], step: Fraction = _ZERO) -> "PhaseSum":
        """sum_n e^(2*pi*i*n*step) * sums[n] in one pass over the integer lattice.

        Angle numerators over the lcm Q of all angle denominators (the step's
        included) key the accumulation of weight numerators over the lcm D of
        all weight denominators; terms equal those of a left fold of ``+``
        over the rotated sums.
        """
        parts = [s._terms for s in sums]
        terms = [t for part in parts for t in part]
        if not terms:
            return cls._canonical(())
        Q, D = lcm(_angle_lcm(terms), step.denominator), _weight_lcm(terms)
        S = step.numerator * (Q // step.denominator)
        acc: dict[int, int] = {}
        get = acc.get
        for n, part in enumerate(parts):
            for a, w in part:
                key = (a.numerator * (Q // a.denominator) + n * S) % Q
                acc[key] = get(key, 0) + w.numerator * (D // w.denominator)
        return cls._from_lattice(acc, Q, D)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "PhaseSum(0)"
        bits = " + ".join(f"{w}*e(2pi*i*{a})" for a, w in self._terms)
        return f"PhaseSum({bits})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "PhaseSum":
        if isinstance(other, PhaseSum):
            return other
        if isinstance(other, (int, Fraction)):
            return PhaseSum.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "PhaseSum":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return PhaseSum(self._terms + rhs._terms)

    __radd__ = __add__

    def __neg__(self) -> "PhaseSum":
        return PhaseSum._canonical(tuple((a, -w) for a, w in self._terms))

    def __sub__(self, other) -> "PhaseSum":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "PhaseSum":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "PhaseSum":
        if isinstance(other, (int, Fraction)):
            return self._monomial_product(_ZERO, Fraction(other))
        if isinstance(other, PhaseSum):
            lhs, rhs = self, other
            if len(rhs._terms) > len(lhs._terms):
                lhs, rhs = rhs, lhs
            if not rhs._terms:
                return PhaseSum._canonical(())
            if len(rhs._terms) == 1:
                return lhs._monomial_product(*rhs._terms[0])
            return lhs._lattice_product(rhs)
        return NotImplemented

    __rmul__ = __mul__

    def _monomial_product(self, angle: Fraction, weight: Fraction) -> "PhaseSum":
        """The product with weight * e^(2*pi*i*angle).

        Shifting by one angle keeps the angles distinct, so nothing merges.
        """
        if not weight:
            return PhaseSum._canonical(())
        scaled = self if weight == 1 else \
            PhaseSum._canonical(tuple((a, w * weight) for a, w in self._terms))
        return scaled.rotated(angle)

    def _lattice_product(self, other: "PhaseSum") -> "PhaseSum":
        """The product, accumulated over integer angle and weight numerators.

        Angle numerators over Q add mod Q, weight numerators over D1 and D2
        multiply, and each merged coefficient is divided by D1 * D2 once.
        """
        lhs, rhs = self._terms, other._terms
        Q = lcm(_angle_lcm(lhs), _angle_lcm(rhs))
        D1, D2 = _weight_lcm(lhs), _weight_lcm(rhs)
        right = _lattice(rhs, Q, D2)
        acc: dict[int, int] = {}
        get = acc.get
        for A1, W1 in _lattice(lhs, Q, D1):
            for A2, W2 in right:
                key = (A1 + A2) % Q
                acc[key] = get(key, 0) + W1 * W2
        return PhaseSum._from_lattice(acc, Q, D1 * D2)

    def conjugate(self) -> "PhaseSum":
        return PhaseSum._canonical(tuple(sorted(
            (-a % 1 if a else a, w) for a, w in self._terms)))

    def rotated(self, angle: Fraction | int, modulus: int = 1) -> "PhaseSum":
        """Multiply by the unit phase e^(2*pi*i*angle/modulus).  The shifted
        angles are numerators over the lcm of all denominators, so each term
        costs one new ``Fraction``."""
        Q = angle.denominator * modulus
        P = angle.numerator % Q
        if not P:
            return self
        L = lcm(Q, _angle_lcm(self._terms))
        shift = P * (L // Q)
        keyed = sorted(((a.numerator * (L // a.denominator) + shift) % L, w)
                       for a, w in self._terms)
        return PhaseSum._canonical(tuple((Fraction(A, L), w) for A, w in keyed))

    def abs2(self) -> "PhaseSum":
        """|self|^2 as an exact (real) PhaseSum."""
        if len(self._terms) == 1:
            w = self._terms[0][1]
            return PhaseSum._canonical(((_ZERO, w * w),))
        return self * self.conjugate()

    # -- evaluation ----------------------------------------------------------

    def value(self) -> complex:
        if self._cached_value is None:
            acc = 0j
            for a, w in self._terms:
                acc += float(w) * cmath.exp(2j * cmath.pi * float(a))
            self._cached_value = acc
        return self._cached_value

    def __complex__(self) -> complex:
        return self.value()

    # -- exact predicates ------------------------------------------------------

    def _cyclotomic_remainder(self) -> tuple[list[int], int] | None:
        """(remainder of D * self modulo Phi_q, D), or None if q > CYCLOTOMIC_LIMIT.

        q is the lcm of the angle denominators and D that of the weights, so
        the remainder has integer coefficients.
        """
        q = _angle_lcm(self._terms)
        if q > CYCLOTOMIC_LIMIT:
            return None
        D = _weight_lcm(self._terms)
        coeffs = [0] * q
        for A, W in _lattice(self._terms, q, D):
            coeffs[A] = W
        return _reduce_mod_cyclotomic(coeffs, q), D

    def is_zero(self) -> bool:
        if not self._terms:
            return True
        reduced = self._cyclotomic_remainder()
        if reduced is not None:
            return not any(reduced[0])
        # Denominator too large for exact reduction: high-precision numeric test.
        import mpmath

        with mpmath.workdps(60):
            total = mpmath.mpc(0)
            for a, w in self._terms:
                total += mpmath.mpf(w.numerator) / w.denominator * mpmath.expjpi(
                    2 * mpmath.mpf(a.numerator) / a.denominator
                )
            return bool(mpmath.fabs(total) < mpmath.mpf(10) ** -45)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return (self - rhs).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def as_rational(self) -> Fraction | None:
        """The exact rational value of this sum, or None if it is not rational."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return self._terms[0][1]
        reduced = self._cyclotomic_remainder()
        if reduced is None:
            return None
        remainder, D = reduced
        if any(remainder[1:]):
            return None
        return Fraction(remainder[0], D)
