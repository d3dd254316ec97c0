"""Exact scalars: rationals parsed from strings, and finite sums of unit phases.

Every quantity this package calls "exact" is a finite sum

    sum_j  w_j * e^(2*pi*i*t_j)

with rational weights ``w_j`` and rational angles ``t_j``.  ``PhaseSum`` keeps
it as an integer lattice: a dict from angle numerators A in [0, Q) to nonzero
weight numerators W, over the least angle denominator Q and the least weight
denominator D, so that the sum is sum(W / D * e(A / Q)).  Sums, products,
rotations, conjugation, zero tests and rational values all run on Python
ints; a ``Fraction`` is built only for the ``terms`` view, and a float only
when a caller asks for ``value()``.

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
from math import gcd, lcm
from typing import Iterable, Sequence, Union

__all__ = [
    "PhaseSum",
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


class PhaseSum:
    """A finite sum of rational multiples of unit phases e^(2*pi*i*t), t rational.

    Immutable.  Stored as the integer lattice ``{A: W}`` over the least Q and
    D, with value sum(W / D * e(A / Q)): equal angles are merged and zero
    weights dropped on construction, so e.g. ``unit(t) * unit(-t)`` collapses
    to the rational 1 without any root-of-unity reasoning.
    """

    __slots__ = ("_acc", "_Q", "_D", "_cached_value")

    def __init__(self, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        """The sum of weight * e(angle) over (angle, weight) pairs of ints or Fractions."""
        terms = [(a, w) for a, w in terms if w]
        Q, D = lcm(*(a.denominator for a, _ in terms)), lcm(*(w.denominator for _, w in terms))
        acc: dict[int, int] = {}
        for a, w in terms:
            A = a.numerator * (Q // a.denominator) % Q
            acc[A] = acc.get(A, 0) + w.numerator * (D // w.denominator)
        self._store(acc, Q, D)

    def _store(self, acc: dict[int, int], Q: int, D: int) -> None:
        """Keep the nonzero entries of acc, over the least Q and D they need."""
        acc = {A: W for A, W in acc.items() if W}
        g, h = gcd(Q, *acc), gcd(D, *acc.values())
        if g > 1 or h > 1:
            acc = {A // g: W // h for A, W in acc.items()}
        self._acc, self._Q, self._D, self._cached_value = acc, Q // g, D // h, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_lattice(cls, acc: dict[int, int], Q: int, D: int) -> "PhaseSum":
        """The sum of acc[A] / D * e(A / Q) over the entries of acc, each key
        in [0, Q).  acc is copied: zero weights are dropped, and Q and D cut
        to the least that the rest need."""
        obj = object.__new__(cls)
        obj._store(acc, Q, D)
        return obj

    @classmethod
    def from_lags(cls, lags: Sequence[int], angle: Fraction, D: int) -> "PhaseSum":
        """The real sum of lags[|d|] / D * e(d * angle) over |d| < len(lags)."""
        Q, step, acc = angle.denominator, angle.numerator, {}
        for d in range(1 - len(lags), len(lags)):
            key = d * step % Q
            acc[key] = acc.get(key, 0) + lags[abs(d)]
        return cls.from_lattice(acc, Q, D)

    @classmethod
    def zero(cls) -> "PhaseSum":
        """The empty sum, one shared instance: a PhaseSum is never changed."""
        return _ZERO_SUM

    @classmethod
    def one(cls) -> "PhaseSum":
        return _ONE_SUM

    @classmethod
    def unit(cls, angle: Fraction) -> "PhaseSum":
        """The unimodular value e^(2*pi*i*angle)."""
        angle = Fraction(angle) % 1
        return cls.from_lattice({angle.numerator: 1}, angle.denominator, 1)

    @classmethod
    def from_rational(cls, w) -> "PhaseSum":
        if not isinstance(w, (int, Fraction)):
            w = Fraction(w)
        return cls.from_lattice({0: w.numerator}, 1, w.denominator)

    @classmethod
    def sum(cls, sums: Iterable["PhaseSum"], step: Fraction | int = 0) -> "PhaseSum":
        """sum_n e^(2*pi*i*n*step) * sums[n], accumulated over the lcm Q of all
        angle denominators (the step's included) and the lcm D of all weight
        denominators; equal to a left fold of ``+`` over the rotated sums."""
        sums = list(sums)
        parts = [s for s in sums if s._acc]
        if not parts:
            return _ZERO_SUM
        Q, D = lcm(step.denominator, *(s._Q for s in parts)), lcm(*(s._D for s in parts))
        S = step.numerator * (Q // step.denominator)
        acc: dict[int, int] = {}
        get = acc.get
        for n, s in enumerate(sums):
            a, b, shift = Q // s._Q, D // s._D, n * S
            for A, W in s._acc.items():
                key = (A * a + shift) % Q
                acc[key] = get(key, 0) + W * b
        return cls.from_lattice(acc, Q, D)

    @classmethod
    def geometric_abs2(cls, sums: Sequence["PhaseSum"], step: Fraction) -> "PhaseSum | None":
        """|sum_n e(n * step) * sums[n]|^2 when every sums[n] is w * e(a + n * beta)
        for one weight w, else None.  With N = len(sums) it is
        w^2 * sum_{|d|<N} (N - |d|) * e(d * (step + beta)), N times the Fejer
        kernel at step + beta (Katznelson, *An Introduction to Harmonic
        Analysis*, I.2), built in O(N) instead of by an N^2 product."""
        if not sums or any(len(s._acc) != 1 for s in sums) or \
                len({(s._D, *s._acc.values()) for s in sums}) > 1:
            return None
        N, Q = len(sums), lcm(step.denominator, *(s._Q for s in sums))
        A = [next(iter(s._acc)) * (Q // s._Q) for s in sums]
        B = (A[1] - A[0]) % Q if N > 1 else 0
        if any((A[n] - A[0] - n * B) % Q for n in range(2, N)):
            return None
        (W,), D = sums[0]._acc.values(), sums[0]._D
        phi = Fraction((step.numerator * (Q // step.denominator) + B) % Q, Q)
        return cls.from_lags([W * W * (N - d) for d in range(N)], phi, D * D)

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        """The number of terms: distinct angles with a nonzero weight."""
        return len(self._acc)

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(angle, weight) pairs in increasing angle, angles in [0, 1)."""
        Q, D, acc = self._Q, self._D, self._acc
        return tuple((Fraction(A, Q), Fraction(acc[A], D)) for A in sorted(acc))

    def __repr__(self) -> str:
        if not self._acc:
            return "PhaseSum(0)"
        bits = " + ".join(f"{w}*e(2pi*i*{a})" for a, w in self.terms)
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
        return PhaseSum.sum((self, rhs))

    __radd__ = __add__

    def __neg__(self) -> "PhaseSum":
        return PhaseSum.from_lattice({A: -W for A, W in self._acc.items()}, self._Q, self._D)

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
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        lhs, rhs = (self, rhs) if len(self._acc) >= len(rhs._acc) else (rhs, self)
        # a product with 0 or 1 builds nothing
        if not rhs._acc:
            return rhs
        if rhs._D == 1 and rhs._acc == {0: 1}:
            return lhs
        return lhs._product(rhs)

    __rmul__ = __mul__

    def _product(self, rhs: "PhaseSum") -> "PhaseSum":
        """The product with a sum of at most as many terms: angle numerators
        over the lcm Q add mod Q, weight numerators multiply over D1 * D2, and
        equal angles merge."""
        Q = lcm(self._Q, rhs._Q)
        a, b = Q // self._Q, Q // rhs._Q
        right = [(A * b, W) for A, W in rhs._acc.items()]
        acc: dict[int, int] = {}
        get = acc.get
        for A1, W1 in self._acc.items():
            A1 *= a
            for A2, W2 in right:
                key = (A1 + A2) % Q
                acc[key] = get(key, 0) + W1 * W2
        return PhaseSum.from_lattice(acc, Q, self._D * rhs._D)

    def conjugate(self) -> "PhaseSum":
        Q = self._Q
        if Q == 1:  # real: every angle is 0
            return self
        return PhaseSum.from_lattice({-A % Q: W for A, W in self._acc.items()}, Q, self._D)

    def rotated(self, angle: Fraction | int, modulus: int = 1) -> "PhaseSum":
        """Multiply by the unit phase e^(2*pi*i*angle/modulus): every angle
        numerator shifts over the lcm of both angle denominators."""
        Q = angle.denominator * modulus
        P = angle.numerator % Q
        if not P or not self._acc:
            return self
        L = lcm(Q, self._Q)
        a, shift = L // self._Q, P * (L // Q)
        return PhaseSum.from_lattice({(A * a + shift) % L: W for A, W in self._acc.items()},
                                     L, self._D)

    def abs2(self) -> "PhaseSum":
        """|self|^2 as an exact (real) PhaseSum."""
        if not self._acc:
            return self
        if len(self._acc) == 1:
            (W,) = self._acc.values()
            return PhaseSum.from_lattice({0: W * W}, 1, self._D ** 2)
        return self * self.conjugate()

    # -- evaluation ----------------------------------------------------------

    def value(self) -> complex:
        """The sum in floats, term by term in increasing angle; W / D and A / Q
        are the correctly rounded floats of the reduced fractions."""
        if self._cached_value is None:
            Q, D, acc, total = self._Q, self._D, self._acc, 0j
            for A in sorted(acc):
                total += acc[A] / D * cmath.exp(2j * cmath.pi * (A / Q))
            self._cached_value = total
        return self._cached_value

    def __complex__(self) -> complex:
        return self.value()

    # -- exact predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return _vanishes(self._acc, self._Q)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return (self - rhs).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def as_rational(self) -> Fraction | None:
        """The exact rational value of this sum, or None if it is not rational.

        If the sum is c, then so is class j = 0's beta_(0,0) - beta_(0,1) of
        ``_split`` over m (c sits at t = 0), with at most len(self) terms.  Once
        no prime of m is <= len(self) + 1, that sum minus c vanishes only if it
        is empty, so c is its weight at angle 0.
        """
        rest, m = self._acc, self._Q
        for p in range(2, len(self._acc) + 2):
            if m % p == 0:
                classes, m = _split(rest, m, p)
                row = classes.get(0, {})
                rest = _difference(row.get(0, {}), row.get(1, {}))
        c = rest.get(0, 0)
        if _vanishes(_difference(self._acc, {0: c}), self._Q):
            return Fraction(c, self._D)
        return None


_ZERO_SUM = PhaseSum()
_ONE_SUM = PhaseSum.from_rational(1)
