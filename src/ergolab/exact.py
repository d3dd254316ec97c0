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

Zero tests and ``as_rational`` are exact for every angle denominator, with no
numeric fallback.  They split off one prime power p^e of Q at a time: the
minimal polynomial of a primitive p^e-th root of unity over the m-th roots of
unity (m = Q / p^e) is 1 + x^(p^(e-1)) + ... + x^((p-1) p^(e-1)), so a sum
vanishes iff its coefficients along that cycle agree, each a smaller sum over
m.  Only primes p no larger than the number of terms can close a cycle, so a
forty-digit denominator costs a few splits (Lam & Leung, "On vanishing sums of
roots of unity", J. Algebra 224, 2000).
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

__all__ = [
    "PhaseSum",
    "lattice_rational",
    "parse_scalar",
    "scalar_str",
]

#: Read only by perfbench's tracer, which buckets zero tests by denominator.
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
        # Fraction builds 10**exponent, which takes minutes for 1e-100000000.
        exponent = value.upper().partition("E")[2].strip().lstrip("+-").replace("_", "")
        exponent, limit = exponent.lstrip("0"), sys.get_int_max_str_digits()
        if limit and exponent.isdecimal() and (
                len(exponent) > len(str(limit)) or int(exponent) > limit):
            raise _value_error(field, f"the exponent of {value!r} exceeds {limit}")
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


def _split(acc: dict[int, int], q: int, p: int):
    """The terms of sum(W * e(A / q)) keyed j -> t -> v -> W, and m.

    With p^e the exact power of p in q and m = q / p^e, each angle A / q is
    u / p^e + v / m by the Chinese remainder theorem, and u = j + t * p^(e-1)
    with t < p.  The factor e(t / p) is what the zero test compares.
    """
    pe = p
    while q % (pe * p) == 0:
        pe *= p
    m, step = q // pe, pe // p
    to_u, to_v = pow(m, -1, pe), pow(pe, -1, m)
    classes: dict[int, dict[int, dict[int, int]]] = {}
    for A, W in acc.items():
        t, j = divmod(A * to_u % pe, step)
        classes.setdefault(j, {}).setdefault(t, {})[A * to_v % m] = W
    return classes, m


def _difference(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    out = dict(x)
    for key, W in y.items():
        out[key] = out.get(key, 0) - W
    return {key: W for key, W in out.items() if W}


def _vanishes(acc: dict[int, int], q: int) -> bool:
    """Whether sum(W * e(A / q)) over acc is 0; acc has nonzero weights.

    For a prime p of q, Phi_{p^e}(x) = sum_{t<p} x^(t * p^(e-1)) stays the
    minimal polynomial of e(1 / p^e) over Q(e(1 / m)), so the sum is zero iff
    in every class j of ``_split`` the p coefficients over m are equal, and all
    zero when fewer than p occur.  A class holds p terms only if p <= len(acc),
    so when q has no such prime the sum is not zero.
    """
    if len(acc) < 2:
        return not acc
    p = next((d for d in range(2, len(acc) + 1) if q % d == 0), None)
    if p is None:
        return False
    classes, m = _split(acc, q, p)
    for row in classes.values():
        parts = row.values() if len(row) < p else \
            (_difference(row[t], row[t + 1]) for t in range(p - 1))
        if not all(_vanishes(part, m) for part in parts):
            return False
    return True


def lattice_rational(acc: dict[int, int], q: int, D: int) -> Fraction | None:
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
        """The empty sum, one shared instance: a PhaseSum is never changed."""
        return _ZERO_SUM

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
            return _ZERO_SUM
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
                return _ZERO_SUM
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
            return _ZERO_SUM
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
        if not self._terms:
            return self
        return PhaseSum._canonical(tuple(sorted(
            (-a % 1 if a else a, w) for a, w in self._terms)))

    def rotated(self, angle: Fraction | int, modulus: int = 1) -> "PhaseSum":
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
        return PhaseSum._canonical(tuple((Fraction(A, L), w) for A, w in keyed))

    def abs2(self) -> "PhaseSum":
        """|self|^2 as an exact (real) PhaseSum."""
        if not self._terms:
            return self
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

    def _integers(self) -> tuple[dict[int, int], int, int]:
        """(acc, q, D) with self = sum(acc[A] / D * e(A / q))."""
        q, D = _angle_lcm(self._terms), _weight_lcm(self._terms)
        return dict(_lattice(self._terms, q, D)), q, D

    def is_zero(self) -> bool:
        if not self._terms:
            return True
        acc, q, _ = self._integers()
        return _vanishes(acc, q)

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
        return lattice_rational(*self._integers())


_ZERO_SUM = PhaseSum._canonical(())
