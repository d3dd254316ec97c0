"""Joinings: measures on product spaces with prescribed marginals.

A joining is an invariant measure of the factors' product map whose
marginals are their measures, realized as a sampler over the product space plus
an optional exact character integrator.  Every constructor returns the
``core.ProductSystem`` of the factors carrying the joining as its measure (the
product joining is that map's default measure), so the spectral engine applies
verbatim to joined systems.  Every claim about a joining is made through
character integrals: ``ProductSystem.integrate`` against the joining and
``ProductSystem.product_integral`` against the product of its marginals.

Construction kinds: product, diagonal, graph (including off-diagonal powers),
the relatively independent extension over declared factors, and the coupled
triple of a twist and its shifted copy.  All are images of product measures
under coordinate or graph maps (``core.ImageMeasure``), except relatively
independent extensions whose fibers depend on the drawn base point: those are
given by callables (``JoiningMeasure``).
``product_consistency_test`` refutes product structure of one given joining and
is explicitly one-sided: disjointness quantifies over all joinings, which no
finite procedure certifies.

Sampled checks read every empirical character mean from one kernel,
``_character_means``.  Since mean(e(<-k, x>)) = conj(mean(e(<k, x>))), it
tabulates one key of each pair {k, -k} and reads the other as the conjugate.
It splits the coordinates into two halves and lays each half's characters out
as a (columns, samples) table, built as outer products of per-coordinate power
rows broadcast along the contiguous samples axis.  All means come at once from
one complex matrix product A·Bᵀ / n, accumulated over blocks of
``MEANS_BLOCK_ROWS`` samples so that memory does not grow with samples times
characters, and are read back for the whole family by one integer-array gather
at the keys' mixed-radix indices.  Exact marginal integrals are computed once
per joining and factor frequency and kept on its ``ProductSystem``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ergolab.core import (
    CIRCLE,
    AffineCocycle,
    Cocycle,
    ConditionalAtomsFiber,
    CoordinateMap,
    ErgolabError,
    FreqVector,
    HaarMeasure,
    IdentitySystem,
    ImageMeasure,
    IndependentFiber,
    MeasureHandle,
    PointMeasure,
    ProductMeasure,
    ProductSystem,
    SkewProductSystem,
    SpecValidationError,
    System,
    UnsupportedOperationError,
    character_at,
    derive_seed,
    factor_slices,
    frequency_box,
    make_cocycle,
    make_measure,
    make_system,
    rng_from_seed,
    validate_frequencies,
    wrap_unit,
)
from ergolab.exact import PhaseSum, parse_scalar
from ergolab.schema import MAX_OFF_DIAGONAL_POWER, check_factor_lists, parse  # noqa: F401

DEFAULT_CHECK_FAMILY_MAX_FREQ = 2
SIGMA_FACTOR = 4.0
#: samples per block of the character-mean kernel; bounds its working memory
MEANS_BLOCK_ROWS = 1024


class JoiningConstructionError(ErgolabError):
    """A declared joining violates a structural requirement; carries the witness."""

    def __init__(self, message: str, character: FreqVector | None = None):
        self.character = character
        super().__init__(message)


# ---------------------------------------------------------------------------
# joint measure and system
# ---------------------------------------------------------------------------

class JoiningMeasure(MeasureHandle):
    """MeasureHandle from callables: integrator + samplers over the product
    space (fibers that depend on the base point)."""

    def __init__(self, space, integrator, sample_rationals_fn, sample_floats_fn,
                 description: str, exact_flag: bool):
        self.space = space
        self.description = description
        self._integrator = integrator
        self._sample_rationals = sample_rationals_fn
        self._sample_floats = sample_floats_fn
        self._exact_flag = exact_flag

    def _fully_exact(self) -> bool:
        return self._exact_flag

    def integrate_character(self, k: FreqVector) -> Optional[PhaseSum]:
        k = validate_frequencies(self.space, k)
        return self._integrator(k)

    def sample_rationals(self, rng, n):
        return self._sample_rationals(rng, n)

    def sample_floats(self, rng, n):
        return self._sample_floats(rng, n)


#: a joining is the ``ProductSystem`` carrying it; ``perfbench/tracer.py`` wraps
#: ``product_integral`` and ``integrate`` under this name
Joining = ProductSystem


def sample_joining(joining: ProductSystem, seed: int, count: int, *,
                   rationals: bool = False):
    """Deterministic point stream from the joining (floats, or exact rationals)."""
    if count < 1:
        raise SpecValidationError("count", f"count must be >= 1, got {count}")
    rng = rng_from_seed(seed)
    if rationals:
        return joining.measure.sample_rationals(rng, count)
    return joining.measure.sample_floats(rng, count)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_joining(spec: dict, *, path: str = "") -> ProductSystem:
    """Realize a joining spec document; component entries may be spec documents
    or Systems.  ``path`` prefixes the field named by a validation error."""
    doc = parse(spec, "joining", path)
    kind, params = doc["kind"], doc["params"]
    if kind == "product":
        return product_joining([make_system(c) for c in params["components"]])
    if kind == "diagonal":
        sys_ = make_system(params["component"])
        return graph_joining(sys_, IdentitySystem(sys_.measure))
    if kind == "graph":
        return graph_joining(make_system(params["component"]), make_system(params["map"]))
    if kind == "off-diagonal":
        power = params["power"]
        sys_ = make_system(params["component"])
        step = sys_ if power >= 0 else sys_.inverse()
        maps = [step] * abs(power) or [IdentitySystem(sys_.measure)]
        return graph_joining(sys_, _ComposedSystem(*maps, measure=sys_.measure))
    if kind == "rel-indep":
        systems = [make_system(c) for c in params["components"]]
        return rel_indep_joining(systems, params["factors"], params["base"])
    return example1_triple(make_measure(params["base_measure"]),
                           make_cocycle(params["cocycle"]), parse_scalar(params["angle"]))


class _ComposedSystem(System):
    """maps[0] o ... o maps[-1], carrying ``measure`` (the innermost map's by
    default): graph maps tested for commutation, and off-diagonal powers."""

    def __init__(self, *maps: System, measure: MeasureHandle | None = None):
        self.maps = maps
        self.space = maps[-1].space
        self.measure = maps[-1].measure if measure is None else measure
        self.phase_modulus = math.lcm(*(m.phase_modulus for m in maps))

    def apply(self, point):
        for m in reversed(self.maps):
            point = m.apply(point)
        return point

    def apply_array(self, points):
        for m in reversed(self.maps):
            points = m.apply_array(points)
        return points

    def pullback_step(self, k):
        # char_k o (A o B) = char_k o A o B: pull back through the outer map first
        P, Q = 0, self.phase_modulus
        for m in self.maps:
            step = m.pullback_step(k)
            if step is None:
                return None
            k, P = step[0], P + step[1] * (Q // m.phase_modulus)
        return k, P % Q


def product_joining(systems: Sequence[System]) -> ProductSystem:
    return ProductSystem(systems)


def graph_joining(system: System, graph_map: System, *,
                  check_max_freq: int = DEFAULT_CHECK_FAMILY_MAX_FREQ) -> ProductSystem:
    """(Id, R)-pushforward of the component measure: the graph of R.

    R must preserve the measure and commute with the dynamics; both are checked
    on the exact character family and the construction is rejected with the
    violating character otherwise.
    """
    if graph_map.space != system.space:
        raise SpecValidationError("map", "graph map must act on the component's space")
    _validate_graph_map(system, graph_map, check_max_freq)
    arity = len(system.space)
    # x -> (x, x) -> (x, R x)
    doubled = ImageMeasure(system.measure, CoordinateMap(arity, tuple(range(arity)) * 2))
    measure = ImageMeasure(doubled, ProductSystem([IdentitySystem(system.measure), graph_map]),
                           description="graph joining")
    return ProductSystem([system, system], measure=measure)


def _validate_graph_map(system: System, graph_map: System, max_freq: int) -> None:
    measure = system.measure
    image = ImageMeasure(measure, graph_map)
    family = frequency_box(len(system.space), max_freq, skip_zero=True)
    atoms = measure.enumerate_atoms()
    for k in family:
        # measure preservation of R
        expected, actual = measure.integrate_character(k), image.integrate_character(k)
        if expected is not None and actual is not None and not (actual - expected).is_zero():
            raise JoiningConstructionError(
                f"graph map does not preserve the measure at character {k}",
                character=k,
            )
        # commutation with the dynamics on the exact family
        via_tr = _ComposedSystem(system, graph_map).char_pullback(k)
        via_rt = _ComposedSystem(graph_map, system).char_pullback(k)
        if via_tr is not None and via_rt is not None and via_tr != via_rt:
            raise JoiningConstructionError(
                f"graph map does not commute with the dynamics at character {k}",
                character=k,
            )
        if via_tr is None and atoms is not None:
            for _, p in atoms:
                if system.apply(graph_map.apply(p)) != graph_map.apply(system.apply(p)):
                    raise JoiningConstructionError(
                        f"graph map does not commute with the dynamics at atom {p}",
                        character=k,
                    )
            break  # pointwise check on atoms does not depend on k


def _factor_system(system: System, coords: Sequence[int]) -> System:
    """The coordinate-projection factor of a system, when structurally valid."""
    coords = tuple(int(c) for c in coords)
    if coords == ():
        return IdentitySystem(PointMeasure())
    if coords == tuple(range(len(system.space))):
        return system
    if isinstance(system, IdentitySystem):
        return IdentitySystem(system.measure.split(coords).base)
    if isinstance(system, SkewProductSystem) and isinstance(system.base, IdentitySystem):
        if coords == tuple(range(system.base_arity)):
            return IdentitySystem(system.base.measure)
    if isinstance(system, ProductSystem):
        parts: list[System] = []
        for f, sl in zip(system.factors, factor_slices(system.factors)):
            local = tuple(c - sl.start for c in coords if sl.start <= c < sl.stop)
            if local:
                parts.append(_factor_system(f, local))
        if sum(len(p.space) for p in parts) != len(coords):
            raise UnsupportedOperationError(f"coordinates {coords} out of range")
        return ProductSystem(parts) if len(parts) > 1 else parts[0]
    raise UnsupportedOperationError(
        f"{type(system).__name__} exposes no factor on coordinates {coords}"
    )


def rel_indep_joining(systems: Sequence[System], factors: Sequence[Sequence[int]],
                      base: dict | ProductSystem) -> ProductSystem:
    """Couple two systems through a joining of declared coordinate factors and
    draw the fibers independently.

    With trivial factors this is exactly the product joining.  The base joining
    is built over the derived factor systems (kinds: product, diagonal, graph).
    """
    if len(systems) != 2:
        raise SpecValidationError("components", "rel-indep joins two systems")
    check_factor_lists(factors)
    if not isinstance(base, ProductSystem):
        base = parse(base, "rel-indep-base", "base")
    s1, s2 = systems
    f1, f2 = tuple(factors[0]), tuple(factors[1])
    a1, a2 = len(s1.space), len(s2.space)
    rest1 = tuple(i for i in range(a1) if i not in f1)
    rest2 = tuple(i for i in range(a2) if i not in f2)
    # the source point is (base point, fiber-1 point, fiber-2 point); ``order``
    # names the joined coordinate each source coordinate fills
    order = f1 + tuple(a1 + c for c in f2) + rest1 + tuple(a1 + c for c in rest2)
    if sorted(order) != list(range(a1 + a2)):
        raise SpecValidationError("factors", "factors must be distinct component coordinates")
    fac1, fac2 = _factor_system(s1, f1), _factor_system(s2, f2)
    split1, split2 = s1.measure.split(f1), s2.measure.split(f2)

    if isinstance(base, ProductSystem):
        base_joining = base
    elif base["kind"] == "product":
        base_joining = product_joining([fac1, fac2])
    elif base["kind"] == "diagonal":
        base_joining = graph_joining(fac1, IdentitySystem(fac1.measure))
    else:
        base_joining = graph_joining(fac1, make_system(base["map"]))
    if [len(c.space) for c in base_joining.factors] != [len(f1), len(f2)]:
        raise SpecValidationError("base", "base joining does not match the factor arities")

    scatter = CoordinateMap(a1 + a2, sorted(range(a1 + a2), key=order.__getitem__))
    base_measure, fiber1, fiber2 = base_joining.measure, split1.fiber, split2.fiber
    if isinstance(fiber1, IndependentFiber) and isinstance(fiber2, IndependentFiber):
        source: MeasureHandle = ProductMeasure([base_measure, fiber1.measure, fiber2.measure])
    else:
        # a fiber depends on the base point: summed over base atoms, drawn per point
        b1, b, r1 = len(f1), len(f1) + len(f2), len(rest1)

        def integrator(k):
            kb, kr1, kr2 = k[:b], k[b:b + r1], k[b + r1:]
            base_atoms = base_measure.enumerate_atoms()
            if base_atoms is None:
                return None
            total = PhaseSum.zero()
            for w, bp in base_atoms:
                p1 = fiber1.at(bp[:b1]).integrate_character(kr1)
                p2 = fiber2.at(bp[b1:]).integrate_character(kr2)
                if p1 is None or p2 is None:
                    return None
                total = total + character_at(kb, bp) * p1 * p2 * w
            return total

        def sample_rationals(rng, n):
            return [bp + fiber1.at(bp[:b1]).sample_rationals(rng, 1)[0]
                    + fiber2.at(bp[b1:]).sample_rationals(rng, 1)[0]
                    for bp in base_measure.sample_rationals(rng, n)]

        def sample_floats(rng, n):
            return np.array([[float(c) for c in p] for p in sample_rationals(rng, n)])

        exact_flag = base_measure.exact and all(
            isinstance(fiber, ConditionalAtomsFiber) or fiber.measure.exact
            for fiber in (fiber1, fiber2))
        joined_space = s1.space + s2.space
        source = JoiningMeasure(tuple(joined_space[c] for c in order), integrator,
                                sample_rationals, sample_floats,
                                description="base point and fibers", exact_flag=exact_flag)
    measure = ImageMeasure(source, scatter, description="relatively independent extension")
    return ProductSystem([s1, s2], measure=measure)


def example1_triple(base_measure: MeasureHandle, cocycle: Cocycle,
                    angle: Fraction) -> ProductSystem:
    """The coupled triple: a twist and its shifted copy glued along the base.

    Components are T(x, y) = (x, y + beta(x)) and R(x, z) = (x, z + beta(x) + angle)
    on the same base; the joining lives on (x1, y, x2, z), is supported on
    x1 = x2, and draws y, z independently from Haar.  Its three-coordinate
    realization evolves as P(x, y, z) = (x, y + beta(x), z + beta(x) + angle).
    """
    if base_measure.arity != 1:
        raise SpecValidationError("base_measure", "the twist base has one coordinate")
    twist = SkewProductSystem(IdentitySystem(base_measure), cocycle, CIRCLE)
    if isinstance(cocycle, AffineCocycle):
        shifted_cocycle: Cocycle = AffineCocycle(
            cocycle.slope, (cocycle.intercept + angle) % 1, cocycle.coord
        )
    else:
        inner = cocycle

        class _Shifted(Cocycle):
            phase_modulus = math.lcm(inner.phase_modulus, angle.denominator)

            def __call__(self, point):
                return (inner(point) + angle) % 1

            def evaluate_array(self, points):
                return wrap_unit(inner.evaluate_array(points) + float(angle))

            def frequency_shift(self, kg):
                step = inner.frequency_shift(kg)
                if step is None:
                    return None
                added, P = step
                Q = self.phase_modulus
                return added, (P * (Q // inner.phase_modulus)
                               + kg * angle.numerator * (Q // angle.denominator)) % Q

        shifted_cocycle = _Shifted()
    shifted = SkewProductSystem(IdentitySystem(base_measure), shifted_cocycle, CIRCLE)
    # (x, y, z) -> (x, y, x, z), with y and z drawn independently from Haar
    measure = ImageMeasure(ProductMeasure([base_measure, HaarMeasure(2)]),
                           CoordinateMap(3, (0, 1, 0, 2)), description="coupled twist triple")
    return ProductSystem([twist, shifted], measure=measure)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    passed: bool
    mode: str
    entries: list[dict]


def invariance_check(joining: ProductSystem, family: Sequence[Sequence[int]], *,
                     seed: int | None = None, samples: int = 4096) -> InvarianceReport:
    """Verify that the joining is invariant under the product dynamics.

    Exact path: integrator(f o (T x S)) must equal integrator(f) for every
    character in the family.  Sampled path: two-sample comparison between the
    stream and its image, flagged beyond 4 combined standard errors.
    """
    if not family:
        raise SpecValidationError("family", "character family must be nonempty")
    entries = []
    exact_ok = joining.measure.exact
    if exact_ok:
        passed = True
        for k in family:
            k = validate_frequencies(joining.space, tuple(k))
            step = joining.char_pullback(k)
            before = joining.integrate(k)
            if step is None or before is None:
                exact_ok = False
                break
            k2, ph = step
            after = joining.integrate(k2)
            if after is None:
                exact_ok = False
                break
            pushed = after.rotated(ph)
            same = (pushed - before).is_zero()
            passed &= same
            value, pushforward = before.value(), pushed.value()
            entries.append({
                "character": list(k),
                "value": [value.real, value.imag],
                "pushforward": [pushforward.real, pushforward.imag],
                "equal": same,
            })
        if exact_ok:
            return InvarianceReport(passed=passed, mode="exact", entries=entries)
        entries = []

    if seed is None:
        raise UnsupportedOperationError("no exact path; pass a seed for a sampled check")
    if samples < 1:
        raise SpecValidationError("samples", f"samples must be >= 1, got {samples}")
    rng = rng_from_seed(seed)
    points = joining.measure.sample_floats(rng, samples)
    image = joining.apply_array(points)
    family = [validate_frequencies(joining.space, tuple(k)) for k in family]
    before = _character_means(points, family)
    after = _character_means(image, family)
    sigma = math.sqrt(2.0 / samples)
    passed = True
    for k in family:
        m1, m2 = before[k], after[k]
        ok = abs(m1 - m2) <= SIGMA_FACTOR * sigma
        passed &= ok
        entries.append({
            "character": list(k),
            "value": [m1.real, m1.imag],
            "pushforward": [m2.real, m2.imag],
            "sigma": sigma,
            "equal": ok,
        })
    return InvarianceReport(passed=passed, mode="sampled", entries=entries)


@dataclass
class ConsistencyRow:
    character: FreqVector
    joint: complex
    product: complex
    sigma: float

    @property
    def deviation(self) -> float:
        return abs(self.joint - self.product)


@dataclass
class ConsistencyVerdict:
    verdict: str  # "consistent-with-product" | "refuted"
    witness: FreqVector | None
    mode: str
    rows: list[ConsistencyRow]
    note: str

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def _product_characters(boxes: Sequence[list[FreqVector]]) -> list[FreqVector]:
    """Every nonzero concatenation of one frequency vector from each box."""
    keys = map(tuple, map(itertools.chain.from_iterable, itertools.product(*boxes)))
    return [k for k in keys if any(k)]


def product_consistency_test(joining: ProductSystem, degree: int = 2, *,
                             samples: int = 4096, mode: str = "auto",
                             seed: int | None = None) -> ConsistencyVerdict:
    """Compare the joining's character integrals against the product of marginals.

    Exact path: any nonzero exact difference refutes with the witnessing
    character.  Sampled path: any standardized difference beyond 4 sigma
    (sigma = 1/sqrt(samples)) refutes.  A pass is explicitly one-sided: it says
    this one joining looked like the product on the tested characters, nothing
    more.
    """
    if degree < 1:
        raise SpecValidationError("degree", f"degree must be >= 1, got {degree}")
    if mode not in ("auto", "exact", "sampled"):
        raise SpecValidationError("mode", f"unknown mode {mode!r}")
    boxes = [frequency_box(len(c.space), degree) for c in joining.factors]
    characters = _product_characters(boxes)
    note = ("one-sided: only the tested characters of this one joining were "
            "compared; no disjointness claim is implied")

    use_exact = mode != "sampled" and joining.measure.exact and all(
        c.measure.exact for c in joining.factors
    )
    if mode == "exact" and not use_exact:
        raise UnsupportedOperationError("exact mode requested but not available")

    rows: list[ConsistencyRow] = []
    witness = None
    if use_exact:
        for k in characters:
            joint = joining.integrate(k)
            prod = joining.product_integral(k)
            if joint is None or prod is None:
                raise UnsupportedOperationError(f"exact integral unavailable at {k}")
            rows.append(ConsistencyRow(k, joint.value(), prod.value(), 0.0))
            if witness is None and not (joint - prod).is_zero():
                witness = k
        return ConsistencyVerdict(
            verdict="refuted" if witness else "consistent-with-product",
            witness=witness, mode="exact", rows=rows, note=note,
        )

    if seed is None:
        raise UnsupportedOperationError("sampled mode needs a seed")
    if samples < 1:
        raise SpecValidationError("samples", f"samples must be >= 1, got {samples}")
    rng = rng_from_seed(seed)
    points = joining.measure.sample_floats(rng, samples)
    sigma = 1.0 / math.sqrt(samples)
    means = _character_means(points, characters)
    marginal_means: dict[int, dict[FreqVector, complex]] = {}

    def sampled_product(k: FreqVector) -> complex:
        # drawn once per factor, on its whole box, when first needed
        total = 1.0 + 0j
        for i, (factor, sl) in enumerate(zip(joining.factors, joining._slices)):
            ki = k[sl]
            if i not in marginal_means:
                rng_i = rng_from_seed(derive_seed(seed, f"marginal-{i}"))
                pts = factor.measure.sample_floats(rng_i, samples)
                marginal_means[i] = _character_means(pts, boxes[i])
            total *= marginal_means[i][ki]
        return total

    worst = (None, 0.0)
    for k in characters:
        prod_ps = joining.product_integral(k)
        prod = prod_ps.value() if prod_ps is not None else sampled_product(k)
        joint = means[k]
        rows.append(ConsistencyRow(k, joint, prod, sigma))
        dev = abs(joint - prod)
        if dev > SIGMA_FACTOR * sigma and dev > worst[1]:
            worst = (k, dev)
    witness = worst[0]
    return ConsistencyVerdict(
        verdict="refuted" if witness else "consistent-with-product",
        witness=witness, mode="sampled", rows=rows, note=note,
    )


def _character_means(points: np.ndarray, family: Sequence[FreqVector]
                     ) -> dict[FreqVector, complex]:
    """Empirical mean of e(<k, x>) over the rows x of ``points``, for every k in
    ``family``.

    As mean(e(<-k, x>)) = conj(mean(e(<k, x>))), each key is read from the one
    of k, -k whose first nonzero coordinate, reading the right half and then the
    left, is positive (or from 0), conjugated if that is -k: a pair {k, -k} shares
    one entry, and the right half's first coordinate needs no negative values.

    The coordinates are split into a left and a right half, so that
    e(<k, x>) = A[k_left, x] * B[k_right, x].  Each half's table is laid out as
    (columns, samples): the outer product, coordinate by coordinate, of the
    power rows of the values that occur there (see ``_power_rows``), each
    product broadcast along the contiguous samples axis.  Every mean is then an
    entry of one complex matrix product A·Bᵀ / n, gathered for the whole family
    at once at the mixed-radix indices of the keys' two halves.  The samples
    are processed in blocks of ``MEANS_BLOCK_ROWS`` and the blocks' A·Bᵀ are
    added up, so memory is bounded by the block size times the table widths,
    whatever the number of samples.
    """
    if not family:
        return {}
    n, arity = points.shape
    half = arity // 2
    keys = [tuple(k) for k in family]
    signed = np.array(keys, dtype=np.int64)
    ordered = np.roll(signed, -half, axis=1)  # the right half, then the left
    flip = ordered[np.arange(len(keys)), (ordered != 0).argmax(axis=1)] < 0
    canonical = np.where(flip[:, None], -signed, signed)
    left_values, left_index = _half_plan(canonical[:, :half])
    right_values, right_index = _half_plan(canonical[:, half:])
    acc = np.zeros((math.prod(map(len, left_values)), math.prod(map(len, right_values))),
                   dtype=np.complex128)
    for lo in range(0, n, MEANS_BLOCK_ROWS):
        block = points[lo:lo + MEANS_BLOCK_ROWS]
        # one expression, so the previous block's tables are freed before these are built
        acc += (_half_table(block[:, :half], left_values)
                @ _half_table(block[:, half:], right_values).T)
    means = acc[left_index, right_index] / n
    np.conjugate(means, out=means, where=flip)
    return dict(zip(keys, means.tolist()))


def _half_plan(keys: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """The sorted values that occur at each coordinate of one half's ``keys``
    (one key per row), and each key's column in the outer-product table of
    those values: its mixed-radix index, the last coordinate varying fastest."""
    values = [sorted(set(column)) for column in keys.T.tolist()]
    index = np.zeros(len(keys), dtype=np.intp)
    for column, vs in zip(keys.T, values):
        index = index * len(vs) + np.searchsorted(vs, column)
    return values, index


def _half_table(coords: np.ndarray, values: list[list[int]]) -> np.ndarray:
    """(columns, samples) table of e(<key, x>), one column for every combination
    of the per-coordinate ``values`` in mixed-radix order, as outer products of
    power rows broadcast along the samples."""
    n = coords.shape[0]
    table = np.ones((1, n), dtype=np.complex128)
    for c, vs in enumerate(values):
        out = np.empty((len(table), len(vs), n), dtype=np.complex128)
        np.multiply(table[:, None, :], _power_rows(coords[:, c], vs), out=out)
        table = out.reshape(-1, n)
    return table


def _power_rows(x: np.ndarray, values: Sequence[int]) -> np.ndarray:
    """Rows e(v x) for v in ``values``, from a single ``np.exp``: positive
    powers by repeated multiplication, negative ones as their conjugates."""
    out = np.empty((len(values), x.shape[0]), dtype=np.complex128)
    row = {v: j for j, v in enumerate(values)}
    base = np.exp(2j * np.pi * x)
    power = np.ones(x.shape[0], dtype=np.complex128)
    for v in range(max(abs(v) for v in values) + 1):
        if v:
            np.multiply(power, base, out=power)
        if v in row:
            out[row[v]] = power
        if -v in row:
            np.conjugate(power, out=out[row[-v]])
    return out
