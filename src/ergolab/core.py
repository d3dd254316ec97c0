"""Measure-preserving systems with exact character integrals and seeded samplers.

A system bundles a point map (exact on rational points), an invariant measure
handle, and -- for the affine families -- a *character pullback*: composing the
character with frequency vector k with the map yields a constant unit phase
times another character.  That single fact is what makes correlation
sequences, eigenvalue detection and joining checks exact.

Measures are finite mixtures of Haar factors and rational Dirac atoms (plus a
sampled-only continuous family for statistical runs).  Character integrals
against them are `PhaseSum`s; sampling is seeded and deterministic.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ergolab.exact import PhaseSum, parse_scalar

TWO64 = 2**64

Point = tuple[Fraction, ...]
FreqVector = tuple[int, ...]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ErgolabError(Exception):
    """Base class for all package errors."""


class SpecValidationError(ErgolabError):
    """A malformed spec or argument; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DepthExceededError(ErgolabError):
    """A rank-one map was applied beyond its constructed depth."""


class UnsupportedOperationError(ErgolabError):
    """The requested exact operation is not available for this object."""


class UndecidableInputError(ErgolabError):
    """Finite input cannot certify the requested verdict."""

    def __init__(self, message: str, stages_agreeing: int | None = None):
        self.stages_agreeing = stages_agreeing
        super().__init__(message)


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coord:
    """One coordinate of a product space.

    kind "circle" is the unit circle written additively as [0, 1); "cyclic" is
    the finite cyclic group of the given order embedded as {j/order}; and
    "interval" is [0, 1) *without* wrap-around (rank-one tower realizations).
    """

    kind: str
    order: int | None = None


CIRCLE = Coord("circle")
INTERVAL = Coord("interval")

Space = tuple[Coord, ...]


def factor_slices(parts: Sequence) -> list[slice]:
    """The coordinate slice of each part (a measure or a system) in the
    concatenation of their spaces."""
    bounds = itertools.accumulate((len(p.space) for p in parts), initial=0)
    return [slice(lo, hi) for lo, hi in itertools.pairwise(bounds)]


def validate_point(space: Space, point: Sequence[Fraction], *, field: str = "point") -> Point:
    if len(point) != len(space):
        raise SpecValidationError(
            field, f"expected {len(space)} coordinates, got {len(point)}"
        )
    out = []
    for i, (coord, value) in enumerate(zip(space, point)):
        value = Fraction(value)
        if not (0 <= value < 1):
            raise SpecValidationError(f"{field}[{i}]", f"{value} is outside [0, 1)")
        if coord.kind == "cyclic" and (value * coord.order).denominator != 1:
            raise SpecValidationError(
                f"{field}[{i}]",
                f"{value} is not an element of the cyclic group of order {coord.order}",
            )
        out.append(value)
    return tuple(out)


def validate_frequencies(space: Space, k: Sequence[int], *, field: str = "k") -> FreqVector:
    # a tuple of plain ints (not bools) of the right arity is returned as is
    if type(k) is tuple and len(k) == len(space) and set(map(type, k)) <= {int}:
        return k
    if len(k) != len(space):
        raise SpecValidationError(
            field, f"frequency vector has arity {len(k)}, space has arity {len(space)}"
        )
    if not all(isinstance(v, (int, np.integer)) for v in k):
        raise SpecValidationError(field, "frequencies must be integers")
    return tuple(int(v) for v in k)


def character_at(k: FreqVector, point: Point) -> PhaseSum:
    """Exact value of e^(2*pi*i*<k, point>)."""
    angle = sum((Fraction(ki) * ti for ki, ti in zip(k, point)), Fraction(0))
    return PhaseSum.unit(angle)


def character_array(k: FreqVector, points: np.ndarray) -> np.ndarray:
    """Values of the character on an (n, arity) float array.

    The matrix-vector product is taken on a row-major copy, so the values do
    not depend on the layout of ``points``: BLAS sums a column-major operand
    in another order, which moves the last bits."""
    kv = np.asarray(k, dtype=np.float64)
    return np.exp(2j * np.pi * (np.ascontiguousarray(points) @ kv))


def frequency_box(arity: int, max_abs: int, *, skip_zero: bool = False) -> list[FreqVector]:
    """All integer frequency vectors with sup-norm <= max_abs."""
    out: list[FreqVector] = []
    radius = range(-max_abs, max_abs + 1)
    def rec(prefix):
        if len(prefix) == arity:
            out.append(tuple(prefix))
            return
        for v in radius:
            rec(prefix + [v])
    rec([])
    if skip_zero:
        out = [k for k in out if any(k)]
    return out


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def derive_seed(master: int, label: str) -> int:
    """Per-task seed derived from a master seed by hashing the task label."""
    digest = hashlib.sha256(f"{int(master)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _draw_units(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, TWO64, size=n, dtype=np.uint64)


def _weight_thresholds(weights: Sequence[Fraction], field: str) -> np.ndarray:
    """Integer thresholds on the raw 64-bit draw for choosing index i with
    probability weights[i]: the cumulative weights times 2^64 up to the last
    positive weight, which is left out (so no threshold reaches 2^64).
    Refuses weights that do not sum to 1 or are negative."""
    total = sum(weights, Fraction(0))
    if total != 1:
        raise SpecValidationError(field, f"weights sum to {total}, expected 1")
    if any(w < 0 for w in weights):
        raise SpecValidationError(field, "weights must be nonnegative")
    last = max(i for i, w in enumerate(weights) if w)
    cumulative = itertools.accumulate(map(Fraction, weights[:last]))
    return np.asarray([int(c * TWO64) for c in cumulative], dtype=np.uint64)


def _choose(thresholds: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """n indices drawn with the weights ``thresholds`` was built from."""
    return np.searchsorted(thresholds, _draw_units(rng, n), side="right")


def wrap_unit(x: np.ndarray) -> np.ndarray:
    """x mod 1 on a float array: ``x - floor(x)``, bit for bit ``x % 1.0``.

    For finite x both round the same exact value x - floor(x) once, and both
    give +0.0 at integers (and at -0.0); numpy's float ``%`` costs several
    times more.  The difference is written over the floor, so no third array
    is allocated."""
    floor = np.floor(x)
    return np.subtract(x, floor, out=floor)


def _units_to_floats(units: np.ndarray) -> np.ndarray:
    """u / 2^64 in [0, 1).  The float64 quotient rounds to 1.0 for
    u >= 2^64 - 2^10; on the circle that point is 0.0.  Every other value is
    returned bit for bit unchanged."""
    return wrap_unit(units.astype(np.float64) / float(TWO64))


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class MeasureHandle:
    """A probability measure: optional exact character integrator plus a sampler.

    Subclasses set ``space`` and ``description`` and implement
    ``integrate_character`` (returning None when no exact value exists),
    ``sample_rationals`` and ``sample_floats``.  Both sampling paths are
    deterministic given the generator state; they are *separate* streams.
    """

    space: Space
    description: str

    @property
    def arity(self) -> int:
        return len(self.space)

    @property
    def exact(self) -> bool:
        return self.integrate_character((0,) * self.arity) is not None and \
            self._fully_exact()

    def _fully_exact(self) -> bool:
        return True

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        raise NotImplementedError

    def sample_rationals(self, rng: np.random.Generator, n: int) -> list[Point]:
        raise NotImplementedError

    def sample_floats(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def split(self, coords: tuple[int, ...]) -> "MeasureSplit":
        """Disintegrate over the given coordinates; see MeasureSplit."""
        if coords == ():
            return MeasureSplit(PointMeasure(), IndependentFiber(self), ())
        if coords == tuple(range(self.arity)):
            return MeasureSplit(self, IndependentFiber(PointMeasure()), coords)
        raise UnsupportedOperationError(
            f"{type(self).__name__} cannot be disintegrated over coordinates {coords}"
        )

    def enumerate_atoms(self) -> Optional[list[tuple[Fraction, Point]]]:
        """(weight, point) pairs when the measure has finite support, else None."""
        return None


@dataclass
class MeasureSplit:
    """A disintegration: base marginal over `coords` plus a fiber model."""

    base: MeasureHandle
    fiber: "IndependentFiber | ConditionalAtomsFiber"
    coords: tuple[int, ...]


@dataclass
class IndependentFiber:
    """Fiber measure that does not depend on the base point (product structure)."""

    measure: MeasureHandle

    def at(self, base_point: Point) -> MeasureHandle:
        return self.measure


@dataclass
class ConditionalAtomsFiber:
    """Fiber measures looked up per base atom (finite-support bases only)."""

    table: dict[Point, MeasureHandle]

    def at(self, base_point: Point) -> MeasureHandle:
        try:
            return self.table[tuple(base_point)]
        except KeyError:
            raise SpecValidationError(
                "base_point", f"{base_point} is not an atom of the disintegrated base"
            ) from None


class PointMeasure(MeasureHandle):
    """The unique measure on the zero-arity space (used for trivial factors)."""

    def __init__(self):
        self.space = ()
        self.description = "point"

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        validate_frequencies(self.space, k)
        return PhaseSum.one()

    def sample_rationals(self, rng, n):
        return [() for _ in range(n)]

    def sample_floats(self, rng, n):
        return np.zeros((n, 0))

    def enumerate_atoms(self):
        return [(Fraction(1), ())]


class HaarMeasure(MeasureHandle):
    """Haar (Lebesgue) measure on a torus factor or interval coordinates."""

    def __init__(self, space: Space | int, description: str = "haar"):
        if isinstance(space, int):
            space = (CIRCLE,) * space
        self.space = space
        self.description = description

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        k = validate_frequencies(self.space, k)
        return PhaseSum.one() if not any(k) else PhaseSum.zero()

    def sample_rationals(self, rng, n):
        units = _draw_units(rng, n * self.arity).reshape(n, self.arity)
        return [
            tuple(Fraction(int(u), TWO64) for u in row) for row in units
        ]

    def sample_floats(self, rng, n):
        units = _draw_units(rng, n * self.arity).reshape(n, self.arity)
        return _units_to_floats(units)

    def split(self, coords):
        coords = tuple(coords)
        rest = tuple(i for i in range(self.arity) if i not in coords)
        base = HaarMeasure(tuple(self.space[i] for i in coords))
        fiber = HaarMeasure(tuple(self.space[i] for i in rest))
        if not coords:
            base = PointMeasure()
        if not rest:
            return MeasureSplit(base, IndependentFiber(PointMeasure()), coords)
        return MeasureSplit(base, IndependentFiber(fiber), coords)


class DiracMixture(MeasureHandle):
    """A finite mixture of Dirac atoms at rational points."""

    def __init__(self, space: Space, atoms: Sequence[tuple[Fraction, Point]],
                 description: str = "atoms"):
        self.space = space
        self.description = description
        if not atoms:
            raise SpecValidationError("atoms", "atom list must be nonempty")
        self._thresholds = _weight_thresholds([w for w, _ in atoms], "atoms")
        self.atoms = [
            (Fraction(w), validate_point(space, p, field=f"atoms[{i}].point"))
            for i, (w, p) in enumerate(atoms)
        ]
        # weight numerators over D and coordinate numerators over Q
        self._D = lcm(*(w.denominator for w, _ in self.atoms))
        self._Q = lcm(*(c.denominator for _, p in self.atoms for c in p))
        self._lattice = [(w.numerator * (self._D // w.denominator),
                          tuple(c.numerator * (self._Q // c.denominator) for c in p))
                         for w, p in self.atoms]

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        """Weights summed per angle <k, p> mod 1, all in integer numerators."""
        k = validate_frequencies(self.space, k)
        Q, acc = self._Q, {}
        for W, p in self._lattice:
            A = sum(map(operator.mul, k, p)) % Q
            acc[A] = acc.get(A, 0) + W
        return PhaseSum._from_lattice(acc, Q, self._D)

    def enumerate_atoms(self):
        return list(self.atoms)

    def sample_rationals(self, rng, n):
        idx = _choose(self._thresholds, rng, n)
        return [self.atoms[i][1] for i in idx]

    def sample_floats(self, rng, n):
        idx = _choose(self._thresholds, rng, n)
        table = np.asarray(
            [[float(c) for c in p] for _, p in self.atoms], dtype=np.float64
        )
        return table[idx]

    def split(self, coords):
        coords = tuple(coords)
        if coords == ():
            return super().split(coords)
        rest = tuple(i for i in range(self.arity) if i not in coords)
        base_space = tuple(self.space[i] for i in coords)
        grouped: dict[Point, list[tuple[Fraction, Point]]] = {}
        weights: dict[Point, Fraction] = {}
        for w, p in self.atoms:
            bp = tuple(p[i] for i in coords)
            fp = tuple(p[i] for i in rest)
            grouped.setdefault(bp, []).append((w, fp))
            weights[bp] = weights.get(bp, Fraction(0)) + w
        base = DiracMixture(
            base_space, [(w, bp) for bp, w in weights.items()],
            description=f"{self.description}|base",
        )
        fiber_space = tuple(self.space[i] for i in rest)
        table = {}
        for bp, items in grouped.items():
            wb = weights[bp]
            if fiber_space:
                table[bp] = DiracMixture(
                    fiber_space, [(w / wb, fp) for w, fp in items],
                    description=f"{self.description}|fiber",
                )
            else:
                table[bp] = PointMeasure()
        return MeasureSplit(base, ConditionalAtomsFiber(table), coords)


def cyclic_uniform(order: int) -> DiracMixture:
    """Haar measure on the cyclic group of the given order, embedded in the circle."""
    if order < 1:
        raise SpecValidationError("order", f"cyclic order must be >= 1, got {order}")
    space = (Coord("cyclic", order),)
    w = Fraction(1, order)
    return DiracMixture(
        space, [(w, (Fraction(j, order),)) for j in range(order)],
        description=f"cyclic-uniform({order})",
    )


def product_of_integrals(parts: Iterable[Optional[PhaseSum]]) -> Optional[PhaseSum]:
    """The product of factor integrals, read in one pass.  A factor whose
    integral is exactly zero (the empty ``PhaseSum``) makes the product zero
    whatever the other factors return, and the factors after it are not read;
    else one with no integral (None) makes it None."""
    total: Optional[PhaseSum] = None
    unknown = False
    for part in parts:
        if part is None:
            unknown = True
        elif not part.terms:
            return PhaseSum.zero()
        elif not unknown:
            total = part if total is None else total * part
    return None if unknown else (PhaseSum.one() if total is None else total)


class ProductMeasure(MeasureHandle):
    """Product of independent factor measures; its character integral is the
    ``product_of_integrals`` of the factors'."""

    def __init__(self, factors: Sequence[MeasureHandle], description: str | None = None):
        if not factors:
            raise SpecValidationError("factors", "product requires at least one factor")
        self.factors = list(factors)
        self.space = tuple(c for f in self.factors for c in f.space)
        self.description = description or " (x) ".join(f.description for f in self.factors)
        self._slices = factor_slices(self.factors)

    def _fully_exact(self) -> bool:
        return all(f.exact for f in self.factors)

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        k = validate_frequencies(self.space, k)
        return product_of_integrals(
            f.integrate_character(k[sl]) for f, sl in zip(self.factors, self._slices))

    def sample_rationals(self, rng, n):
        cols = [f.sample_rationals(rng, n) for f in self.factors]
        return [tuple(c for col in row for c in col) for row in zip(*cols)]

    def sample_floats(self, rng, n):
        blocks = [f.sample_floats(rng, n) for f in self.factors]
        return np.concatenate(blocks, axis=1)

    def enumerate_atoms(self):
        per_factor = [f.enumerate_atoms() for f in self.factors]
        if any(a is None for a in per_factor):
            return None
        combos: list[tuple[Fraction, Point]] = [(Fraction(1), ())]
        for atoms in per_factor:
            combos = [(w * wf, p + pf) for w, p in combos for wf, pf in atoms]
        return combos

    def split(self, coords):
        coords = tuple(coords)
        if sorted(coords) != list(coords):
            raise UnsupportedOperationError("factor coordinates must be increasing")
        bases: list[MeasureHandle] = []
        fibers: list[MeasureHandle] = []
        for f, sl in zip(self.factors, self._slices):
            local = tuple(c - sl.start for c in coords if sl.start <= c < sl.stop)
            if local == tuple(range(f.arity)):
                bases.append(f)
            elif not local:
                fibers.append(f)
            else:
                sub = f.split(local)
                if not isinstance(sub.fiber, IndependentFiber):
                    raise UnsupportedOperationError(
                        f"coordinates {coords} require a conditional split inside a "
                        "product factor; only independent splits compose"
                    )
                bases.append(sub.base)
                fibers.append(sub.fiber.measure)
        def assemble(parts: list[MeasureHandle]) -> MeasureHandle:
            parts = [p for p in parts if p.arity]
            if not parts:
                return PointMeasure()
            return parts[0] if len(parts) == 1 else ProductMeasure(parts)
        return MeasureSplit(assemble(bases), IndependentFiber(assemble(fibers)), coords)


class MixtureMeasure(MeasureHandle):
    """A convex mixture of measures on one common space."""

    def __init__(self, components: Sequence[tuple[Fraction, MeasureHandle]],
                 description: str | None = None):
        if not components:
            raise SpecValidationError("components", "mixture requires components")
        self._thresholds = _weight_thresholds([w for w, _ in components], "components")
        space = components[0][1].space
        for i, (_, m) in enumerate(components):
            if m.space != space:
                raise SpecValidationError(
                    f"components[{i}]", "all mixture components must share one space"
                )
        self.components = [(Fraction(w), m) for w, m in components]
        self.space = space
        self.description = description or " + ".join(
            f"{w}*{m.description}" for w, m in self.components
        )

    def _fully_exact(self) -> bool:
        return all(m.exact for _, m in self.components)

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        k = validate_frequencies(self.space, k)
        total = PhaseSum.zero()
        for w, m in self.components:
            part = m.integrate_character(k)
            if part is None:
                return None
            total = total + part * w
        return total

    def sample_rationals(self, rng, n):
        idx = _choose(self._thresholds, rng, n)
        return [self.components[i][1].sample_rationals(rng, 1)[0] for i in idx]

    def sample_floats(self, rng, n):
        idx = _choose(self._thresholds, rng, n)
        out = np.empty((n, self.arity), dtype=np.float64)
        for j, (_, m) in enumerate(self.components):
            rows = np.nonzero(idx == j)[0]
            if rows.size:
                out[rows] = m.sample_floats(rng, rows.size)
        return out

    def enumerate_atoms(self):
        merged: list[tuple[Fraction, Point]] = []
        for w, m in self.components:
            atoms = m.enumerate_atoms()
            if atoms is None:
                return None
            merged.extend((w * wa, p) for wa, p in atoms)
        return merged


class SampledPowerMeasure(MeasureHandle):
    """The pushforward of Lebesgue on [0,1) under u -> u^exponent.

    Continuous and atomless for every exponent >= 1, with no exact character
    integrals for exponent > 1: this is the statistical-path stand-in for a
    general continuous distribution.
    """

    def __init__(self, exponent: int):
        if exponent < 1:
            raise SpecValidationError("exponent", "exponent must be >= 1")
        self.exponent = int(exponent)
        self.space = (CIRCLE,)
        self.description = f"pushforward of haar under u^{self.exponent}"

    def _fully_exact(self) -> bool:
        return self.exponent == 1

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        k = validate_frequencies(self.space, k)
        if not any(k):
            return PhaseSum.one()
        if self.exponent == 1:
            return PhaseSum.zero()
        return None

    def sample_rationals(self, rng, n):
        units = _draw_units(rng, n)
        return [(Fraction(int(u), TWO64) ** self.exponent,) for u in units]

    def sample_floats(self, rng, n):
        units = _draw_units(rng, n)
        return (_units_to_floats(units) ** self.exponent)[:, None]


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

class Cocycle:
    """A measurable map from a base space into the circle (written additively)."""

    #: Q: the phases of ``frequency_shift`` are numerators over Q
    phase_modulus: int = 1

    def __call__(self, point: Point) -> Fraction:
        raise NotImplementedError

    def evaluate_array(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def frequency_shift(self, kg: int) -> Optional[tuple[dict[int, int], int]]:
        """If e^(2*pi*i*kg*phi(x)) is a character times a constant phase
        e^(2*pi*i*P/Q), return ({coord: added frequency}, P) with 0 <= P < Q;
        otherwise None."""
        return None


@dataclass(frozen=True)
class AffineCocycle(Cocycle):
    """phi(x) = slope * x[coord] + intercept, reduced mod 1.

    A non-integer slope is evaluated on the fundamental-domain representative
    (a perfectly good measurable cocycle, but not continuous on the circle);
    exact character pullbacks are only available when slope * kg is an integer.
    """

    slope: Fraction
    intercept: Fraction
    coord: int = 0

    def __call__(self, point: Point) -> Fraction:
        return (self.slope * point[self.coord] + self.intercept) % 1

    def evaluate_array(self, points: np.ndarray) -> np.ndarray:
        return wrap_unit(float(self.slope) * points[:, self.coord] + float(self.intercept))

    @property
    def phase_modulus(self) -> int:
        return self.intercept.denominator

    def frequency_shift(self, kg: int):
        if kg % self.slope.denominator:
            return None
        return ({self.coord: self.slope.numerator * (kg // self.slope.denominator)},
                self.intercept.numerator * kg % self.intercept.denominator)


@dataclass(frozen=True)
class TableCocycle(Cocycle):
    """A lookup cocycle on a finite set of base points."""

    table: tuple[tuple[Point, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.table))
        object.__setattr__(
            self,
            "_float_map",
            {tuple(float(c) for c in p): float(v) for p, v in self.table},
        )

    def __call__(self, point: Point) -> Fraction:
        try:
            return self._map[tuple(point)] % 1
        except KeyError:
            raise SpecValidationError(
                "point", f"{point} is outside the cocycle's finite support"
            ) from None

    def evaluate_array(self, points: np.ndarray) -> np.ndarray:
        out = np.empty(points.shape[0])
        for i, row in enumerate(points):
            key = tuple(float(c) for c in row)
            try:
                out[i] = self._float_map[key]
            except KeyError:
                raise SpecValidationError(
                    "point", f"{row} is outside the cocycle's finite support"
                ) from None
        return out


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class System:
    """A measure-preserving transformation together with its invariant measure."""

    space: Space
    measure: MeasureHandle

    def apply(self, point: Point) -> Point:
        raise NotImplementedError

    def apply_array(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    #: Q: the phases of ``pullback_step`` are numerators over Q
    phase_modulus: int = 1

    def pullback_step(self, k: FreqVector) -> Optional[tuple[FreqVector, int]]:
        """(k', P) with char_k(T x) = e^(2*pi*i*P/Q) * char_k'(x) and
        0 <= P < Q, or None; ``k`` is an already validated frequency tuple."""
        return None

    def char_pullback(self, k: FreqVector) -> Optional[tuple[FreqVector, Fraction]]:
        """(k', phase) with char_k(T x) = e^(2*pi*i*phase) * char_k'(x), or None."""
        step = self.pullback_step(validate_frequencies(self.space, k))
        return None if step is None else (step[0], Fraction(step[1], self.phase_modulus))


class IdentitySystem(System):
    def __init__(self, measure: MeasureHandle):
        self.measure = measure
        self.space = measure.space

    def apply(self, point):
        return validate_point(self.space, point)

    def apply_array(self, points):
        return points

    def pullback_step(self, k):
        return k, 0


class RotationSystem(System):
    """x -> x + angle on the circle with Haar measure."""

    def __init__(self, angle: Fraction, measure: MeasureHandle | None = None):
        self.angle = Fraction(angle) % 1
        self.phase_modulus = self.angle.denominator
        self.measure = measure if measure is not None else HaarMeasure(1)
        if self.measure.arity != 1:
            raise SpecValidationError("measure", "rotation acts on one circle coordinate")
        self.space = self.measure.space

    def apply(self, point):
        (x,) = validate_point(self.space, point)
        return ((x + self.angle) % 1,)

    def apply_array(self, points):
        return wrap_unit(points + float(self.angle))

    def pullback_step(self, k):
        return k, k[0] * self.angle.numerator % self.phase_modulus


class SkewProductSystem(System):
    """T(x, g) = (B x, g + phi(x)) over a base system B with cocycle phi.

    Covers the torus twist (identity base, affine cocycle, circle group), the
    shifted twist, and finite cyclic group extensions.  The invariant measure
    is base measure (x) Haar on the group coordinate.
    """

    def __init__(self, base: System, cocycle: Cocycle, group: Coord = CIRCLE):
        if isinstance(cocycle, AffineCocycle) and not 0 <= cocycle.coord < len(base.space):
            raise SpecValidationError("cocycle.coord", f"{cocycle.coord} is not a base coordinate")
        self.base = base
        self.cocycle = cocycle
        self.group = group
        if group.kind == "cyclic":
            group_measure: MeasureHandle = cyclic_uniform(group.order)
        elif group.kind == "circle":
            group_measure = HaarMeasure(1)
        else:
            raise SpecValidationError("group", f"unsupported group {group.kind!r}")
        self.measure = ProductMeasure([base.measure, group_measure])
        self.space = base.space + (group,)
        self.phase_modulus = lcm(base.phase_modulus, cocycle.phase_modulus)

    @property
    def base_arity(self) -> int:
        return len(self.base.space)

    def apply(self, point):
        point = validate_point(self.space, point)
        b = self.base_arity
        new_base = self.base.apply(point[:b])
        shift = self.cocycle(point[:b])
        if self.group.kind == "cyclic" and (shift * self.group.order).denominator != 1:
            raise SpecValidationError(
                "cocycle", f"value {shift} is not in the cyclic group of order {self.group.order}"
            )
        return new_base + ((point[b] + shift) % 1,)

    def apply_array(self, points):
        b = self.base_arity
        out = np.empty_like(points, dtype=np.float64)
        out[:, :b] = self.base.apply_array(points[:, :b])
        out[:, b] = wrap_unit(points[:, b] + self.cocycle.evaluate_array(points[:, :b]))
        return out

    def pullback_step(self, k):
        b = self.base_arity
        shift = self.cocycle.frequency_shift(k[b])
        base_step = None if shift is None else self.base.pullback_step(k[:b])
        if base_step is None:
            return None
        (added, P), (kb, base_P) = shift, base_step
        kb = list(kb)
        for coord, extra in added.items():
            kb[coord] += extra
        Q = self.phase_modulus
        return tuple(kb) + (k[b],), (P * (Q // self.cocycle.phase_modulus)
                                     + base_P * (Q // self.base.phase_modulus)) % Q


#: marks a factor integral not yet in a product system's memo (None is a memoized value)
_MISSING = object()


class ProductSystem(System):
    """The product map of the factors.  Its measure is the product of theirs
    unless a joint ``measure`` is given: an invariant measure of the map with
    those marginals, i.e. a joining, which every joining constructor returns."""

    def __init__(self, factors: Sequence[System], measure: MeasureHandle | None = None):
        if not factors:
            raise SpecValidationError("factors", "product requires at least one factor")
        self.factors = list(factors)
        self.space = tuple(c for f in self.factors for c in f.space)
        self.measure = measure if measure is not None else \
            ProductMeasure([f.measure for f in self.factors])
        if self.measure.space != self.space:
            raise SpecValidationError(
                "measure", "the joint measure does not live on the concatenated factor spaces"
            )
        self._slices = factor_slices(self.factors)
        self.phase_modulus = lcm(*(f.phase_modulus for f in self.factors))
        #: (factor index, factor frequency) -> the factor's exact integral or None
        self._factor_integrals: dict = {}

    def integrate(self, k: Sequence[int]) -> Optional[PhaseSum]:
        """Integral of the character ``k`` against the system's (joint) measure."""
        return self.measure.integrate_character(tuple(k))

    def product_integral(self, k: Sequence[int]) -> Optional[PhaseSum]:
        """Integral of the same character against the product of the factors'
        measures, with ``ProductMeasure``'s rule (``product_of_integrals``).

        Each factor integral is computed once per system and reused."""
        k, memo, parts = tuple(k), self._factor_integrals, []
        for i, (f, sl) in enumerate(zip(self.factors, self._slices)):
            key = (i, k[sl])
            part = memo.get(key, _MISSING)
            if part is _MISSING:
                part = memo[key] = f.measure.integrate_character(key[1])
            parts.append(part)
        return product_of_integrals(parts)

    def apply(self, point):
        point = validate_point(self.space, point)
        out: tuple[Fraction, ...] = ()
        for f, sl in zip(self.factors, self._slices):
            out += f.apply(point[sl])
        return out

    def apply_array(self, points):
        out = np.empty_like(points, dtype=np.float64)
        for f, sl in zip(self.factors, self._slices):
            out[:, sl] = f.apply_array(points[:, sl])
        return out

    def pullback_step(self, k):
        out: tuple[int, ...] = ()
        P, Q = 0, self.phase_modulus
        for f, sl in zip(self.factors, self._slices):
            step = f.pullback_step(k[sl])
            if step is None:
                return None
            out += step[0]
            P += step[1] * (Q // f.phase_modulus)
        return out, P % Q


# ---------------------------------------------------------------------------
# image measures
# ---------------------------------------------------------------------------

class CoordinateMap:
    """x -> (x[index[0]], x[index[1]], ...) on points with ``arity``
    coordinates: copies, reorders or drops coordinates.  Its character
    pullback adds k[t] into slot index[t], with phase 0."""

    phase_modulus = 1

    def __init__(self, arity: int, index: Sequence[int]):
        self.arity, self.index = arity, tuple(index)

    def apply(self, point: Point) -> Point:
        return tuple(point[i] for i in self.index)

    def apply_array(self, points: np.ndarray) -> np.ndarray:
        # row-major like the samplers' arrays; points[:, index] is column-major
        return np.take(points, np.asarray(self.index, dtype=np.intp), axis=1)

    def pullback_step(self, k: FreqVector) -> tuple[FreqVector, int]:
        out = [0] * self.arity
        for i, ki in zip(self.index, k):
            out[i] += ki
        return tuple(out), 0


class ImageMeasure(MeasureHandle):
    """The law of f(x) for x drawn from ``source``, where f is a ``System`` on
    the source's space or a ``CoordinateMap``.

    A character is integrated through f's pullback when it has one, else
    summed over the source's atoms, else it has no exact integral.  Samples
    are f applied to the source's own draws, and atoms are pushed forward.
    The measure is exact exactly when the source is.
    """

    def __init__(self, source: MeasureHandle, f: "System | CoordinateMap",
                 description: str | None = None):
        self.source, self.f = source, f
        self.space = tuple(source.space[i] for i in f.index) \
            if isinstance(f, CoordinateMap) else source.space
        self.description = description or f"image of {source.description}"

    def _fully_exact(self) -> bool:
        return self.source.exact

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        k = validate_frequencies(self.space, k)
        step = self.f.pullback_step(k)
        if step is not None:
            part = self.source.integrate_character(step[0])
            return None if part is None else part.rotated(step[1], self.f.phase_modulus)
        atoms = self.source.enumerate_atoms()
        if atoms is None:
            return None
        return PhaseSum((sum(map(operator.mul, k, self.f.apply(p)), Fraction(0)), w)
                        for w, p in atoms)

    def sample_rationals(self, rng, n):
        return [self.f.apply(p) for p in self.source.sample_rationals(rng, n)]

    def sample_floats(self, rng, n):
        return self.f.apply_array(self.source.sample_floats(rng, n))

    def enumerate_atoms(self):
        atoms = self.source.enumerate_atoms()
        return None if atoms is None else [(w, self.f.apply(p)) for w, p in atoms]


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """The observable e^(2*pi*i*<freqs, .>); optionally replaced by its
    mean-centered version f - integral(f)."""

    freqs: tuple[int, ...]
    centered: bool = False

    def label(self) -> str:
        base = "e(" + ",".join(str(v) for v in self.freqs) + ")"
        return f"centered {base}" if self.centered else base


@dataclass(frozen=True)
class LevelIndicator:
    """Indicator of one tower level of a rank-one map at the given stage,
    mean-centered and normalized to unit variance (exact simple function)."""

    stage: int
    level: int = 0
    centered: bool = True

    def label(self) -> str:
        return f"level({self.stage},{self.level})"


Observable = Character | LevelIndicator


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------

def build_measure(doc: dict, *, path: str = "measure") -> MeasureHandle:
    """Build a MeasureHandle from its JSON description."""
    from ergolab.schema import parse
    return make_measure(parse(doc, "measure", path))


def make_measure(doc) -> MeasureHandle:
    """The measure of a document the schema has checked (or a built measure)."""
    if isinstance(doc, MeasureHandle):
        return doc
    kind = doc["kind"]
    if kind == "haar":
        return HaarMeasure(doc["arity"])
    if kind == "atoms":
        atoms = [(parse_scalar(a["weight"]), tuple(map(parse_scalar, a["point"])))
                 for a in doc["atoms"]]
        # the space has the arity of the first point; validate_point refuses the rest
        return DiracMixture((CIRCLE,) * (len(atoms[0][1]) if atoms else 1), atoms)
    if kind == "cyclic-uniform":
        return cyclic_uniform(doc["order"])
    if kind == "product":
        return ProductMeasure([make_measure(f) for f in doc["factors"]])
    if kind == "mixture":
        return MixtureMeasure([(parse_scalar(c["weight"]), make_measure(c["measure"]))
                               for c in doc["components"]])
    return SampledPowerMeasure(doc["exponent"])  # power-law-sampled


def make_cocycle(doc) -> Cocycle:
    """The cocycle of a document the schema has checked (or a built cocycle)."""
    if isinstance(doc, Cocycle):
        return doc
    if doc["kind"] == "affine":
        return AffineCocycle(parse_scalar(doc["slope"]), parse_scalar(doc["intercept"]),
                             doc["coord"])
    return TableCocycle(tuple((tuple(map(parse_scalar, e["point"])), parse_scalar(e["value"]))
                              for e in doc["entries"]))


def build_system(spec: dict, *, path: str = "") -> System:
    """Realize a system spec document as an executable System.

    The point map matches the declared formula exactly on rational points;
    exact character integrals are available whenever the invariant measure is a
    finite mixture of Haar and Dirac components.  ``path`` prefixes the field
    named by a validation error.
    """
    from ergolab.schema import parse
    return make_system(parse(spec, "system", path))


def make_system(doc) -> System:
    """The system of a document the schema has checked (or a built system)."""
    if isinstance(doc, System):
        return doc
    kind, params = doc["kind"], doc["params"]
    if kind == "rotation":
        return RotationSystem(parse_scalar(params["angle"]), make_measure(params["measure"]))
    if kind == "identity":
        return IdentitySystem(make_measure(params["measure"]))
    if kind == "twist":
        base = IdentitySystem(make_measure(params["base_measure"]))
        cocycle = make_cocycle(params["cocycle"])
        if "shift" in params:
            if not isinstance(cocycle, AffineCocycle):
                raise SpecValidationError("params.shift", "shift requires an affine cocycle")
            cocycle = AffineCocycle(cocycle.slope,
                                    (cocycle.intercept + parse_scalar(params["shift"])) % 1,
                                    cocycle.coord)
        return SkewProductSystem(base, cocycle, CIRCLE)
    if kind == "group-extension":
        group = params["group"]
        return SkewProductSystem(
            make_system(params["base"]), make_cocycle(params["cocycle"]),
            Coord("cyclic", group["order"]) if group["kind"] == "cyclic" else CIRCLE)
    if kind == "product":
        return ProductSystem([make_system(f) for f in params["factors"]])
    from ergolab.rank1 import Rank1Spec, build_rank1_system  # rank1-family

    depth = params["depth"]
    return build_rank1_system(Rank1Spec.from_digits(params["digits"], depth) if "digits" in params
                              else Rank1Spec.from_rational(params["a"], depth))


def build_observable(doc: dict, *, path: str = "observable") -> Observable:
    """A Character, or with ``level`` = [stage, level] a LevelIndicator."""
    from ergolab.schema import parse
    doc = parse(doc, "observable", path)
    if "level" in doc:
        return LevelIndicator(*doc["level"])
    return Character(tuple(doc["freqs"]), centered=doc["centered"])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def orbit(system: System, start: Sequence, n: int) -> list[Point]:
    """[start, T start, ..., T^(n-1) start], coordinates reduced mod 1."""
    if n < 0:
        raise SpecValidationError("n", f"orbit length must be >= 0, got {n}")
    point = validate_point(
        system.space,
        tuple(c if isinstance(c, Fraction) else parse_scalar(c, field="start") for c in start),
        field="start",
    )
    out = []
    for i in range(n):
        out.append(point)
        if i + 1 < n:
            point = system.apply(point)
    return out


def pullback_orbit(system: System, k: Sequence[int],
                   n: int) -> Iterator[tuple[FreqVector, int]]:
    """(k_j, P_j) for j < n with char_k o T^j = e^(2*pi*i*P_j/Q) * char_(k_j),
    Q = ``system.phase_modulus``; stops early at a step with no pullback.
    ``k`` is validated once and the phases are summed mod Q in integers."""
    k = validate_frequencies(system.space, k)
    step, Q, P = system.pullback_step, system.phase_modulus, 0
    for j in range(n):
        yield k, P
        nxt = step(k) if j + 1 < n else None
        if nxt is None:
            return
        k, P = nxt[0], (P + nxt[1]) % Q


@dataclass
class IntegralEstimate:
    """Exact value or Monte Carlo estimate of a character integral."""

    value: complex
    exact: bool
    phase_sum: PhaseSum | None = None
    n_samples: int = 0
    std_error: float = 0.0


def integrate_character(measure: MeasureHandle, k: Sequence[int], *,
                        seed: int | None = None, samples: int = 4096) -> IntegralEstimate:
    """Integrate e^(2*pi*i*<k, .>) against the measure.

    Exact when the measure carries an exact integrator; otherwise a seeded
    Monte Carlo estimate with its standard error.
    """
    k = validate_frequencies(measure.space, k)
    exact = measure.integrate_character(k)
    if exact is not None:
        return IntegralEstimate(value=exact.value(), exact=True, phase_sum=exact)
    if seed is None:
        raise UnsupportedOperationError(
            "measure has no exact integrator; pass a seed for a sampled estimate"
        )
    rng = rng_from_seed(seed)
    points = measure.sample_floats(rng, samples)
    values = character_array(k, points)
    est = complex(values.mean())
    se = float(np.sqrt(max(0.0, 1.0 - abs(est) ** 2) / samples))
    return IntegralEstimate(value=est, exact=False, n_samples=samples, std_error=se)
