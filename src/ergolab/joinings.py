"""Joinings: measures on product spaces with prescribed marginals.

A joining is an invariant measure of the factors' product map whose
marginals are their measures.  Every constructor returns the
``core.ProductSystem`` of the factors carrying the joining as its measure (the
product joining is that map's default measure), so the spectral engine applies
verbatim to joined systems.  Every claim about a joining is made through
character integrals: ``ProductSystem.integrate`` against the joining and
``ProductSystem.product_integral`` against the product of its marginals.

Construction kinds: product, diagonal, graph (including off-diagonal powers),
the relatively independent extension over declared factors, and the coupled
triple of a twist and its shifted copy.  Each is an image of a product measure
under coordinate or graph maps (``core.ImageMeasure``); a relatively
independent extension whose fibers depend on the base point is the image of a
mixture of products, one per atom of the base joining.  A negative power -p
is never built from an inverse map: the transpose of a joining is a joining,
so the graph of T^-p is the graph of T^p with its two halves swapped,
y -> (T^p y, y).  ``product_consistency_test`` refutes product structure of
one given joining and is explicitly one-sided: disjointness quantifies over
all joinings, which no finite procedure certifies.

Sampled checks read every empirical character mean from one kernel,
``_character_means``.  Since mean(e(<-k, x>)) = conj(mean(e(<k, x>))), it
tabulates one key of each pair {k, -k} and reads the other as the conjugate.
Each mean is an entry of one complex matrix product A·Bᵀ / n of the two
coordinate halves' (columns, samples) tables, accumulated over blocks of
``MEANS_BLOCK_ROWS`` samples.  The tables hold only the columns some key
reads, and B is never built whole: its columns are made one value of its
first coordinate at a time.  So the working memory is one block times the
widths of A, of the table of B's other coordinates and of one such slice of B,
whatever the number of samples.  Both paths of the consistency test read
the product of the marginals off one exact product column
(``_product_column``): it factors over the joining's factors, so one
``product_integral`` call per frequency of each factor's box fixes every entry
of their outer product.  The sampled path takes each entry's value, or the
product of the factors' sampled means where the entry has none.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from ergolab.core import (
    CIRCLE,
    AffineCocycle,
    Cocycle,
    CoordinateMap,
    DiracMixture,
    ErgolabError,
    FreqVector,
    HaarMeasure,
    IdentitySystem,
    ImageMeasure,
    MeasureHandle,
    MixtureMeasure,
    PointMeasure,
    ProductMeasure,
    ProductSystem,
    SkewProductSystem,
    SpecValidationError,
    System,
    UnsupportedOperationError,
    derive_seed,
    factor_slices,
    frequency_box,
    make_cocycle,
    make_measure,
    make_system,
    np,
    product_of_integrals,
    rng_from_seed,
    validate_frequencies,
    wrap_unit,
)
from ergolab.exact import parse_scalar
from ergolab.schema import MAX_OFF_DIAGONAL_POWER, check_factor_lists, parse  # noqa: F401

DEFAULT_CHECK_FAMILY_MAX_FREQ = 2
SIGMA_FACTOR = 4.0
#: samples per block of the character-mean kernel; bounds its working memory.
#: On product-closure's 3,124 characters at 30,000 samples the kernel's traced
#: peak is 0.85 MiB at 512 and 1.45 MiB at 1,024, with CPU time within noise
MEANS_BLOCK_ROWS = 512


class JoiningConstructionError(ErgolabError):
    """A declared joining violates a structural requirement; carries the witness."""

    def __init__(self, message: str, character: FreqVector | None = None):
        self.character = character
        super().__init__(message)


# ---------------------------------------------------------------------------
# joint system
# ---------------------------------------------------------------------------

#: a joining is the ``ProductSystem`` carrying it; ``perfbench/tracer.py`` wraps
#: ``product_integral`` and ``integrate`` under this name
Joining = ProductSystem


def sample_joining(joining: ProductSystem, seed: int, count: int) -> np.ndarray:
    """Deterministic (count, arity) float stream from the joining."""
    if count < 1:
        raise SpecValidationError("count", f"count must be >= 1, got {count}")
    return joining.measure.sample_floats(rng_from_seed(seed), count)


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
        maps = [sys_] * abs(power) or [IdentitySystem(sys_.measure)]
        graph = graph_joining(sys_, _ComposedSystem(*maps, measure=sys_.measure))
        if power >= 0:
            return graph
        # the graph of T^-p is that of T^p with its halves swapped: y -> (T^p y, y)
        arity = len(sys_.space)
        swap = CoordinateMap(2 * arity, [*range(arity, 2 * arity), *range(arity)])
        return ProductSystem([sys_, sys_], measure=ImageMeasure(
            graph.measure, swap, description="graph joining"))
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
    """R must preserve the measure and commute with the dynamics, checked on the
    exact character family, or pointwise on the atoms where a character has no
    pullback.  A map composed of the component and the identity preserves and
    commutes by construction; any other map is refused unless both are decided."""
    measure = system.measure
    image = ImageMeasure(measure, graph_map)
    atoms = measure.enumerate_atoms()
    maps = graph_map.maps if isinstance(graph_map, _ComposedSystem) else (graph_map,)
    by_construction = all(m is system or isinstance(m, IdentitySystem) for m in maps)
    family = frequency_box(len(system.space), max_freq, skip_zero=True)
    compared = by_construction or not family
    for k in family:
        expected, actual = measure.integrate_character(k), image.integrate_character(k)
        if expected is not None and actual is not None:
            if not (actual - expected).is_zero():
                raise JoiningConstructionError(
                    f"graph map does not preserve the measure at character {k}", character=k)
            compared = True
        if by_construction:
            continue
        via_tr = _ComposedSystem(system, graph_map).char_pullback(k)
        via_rt = _ComposedSystem(graph_map, system).char_pullback(k)
        if via_tr is not None and via_rt is not None:
            if via_tr != via_rt:
                raise JoiningConstructionError(
                    f"graph map does not commute with the dynamics at character {k}",
                    character=k,
                )
        elif atoms is None:
            raise JoiningConstructionError(
                f"cannot decide whether the graph map commutes with the dynamics at "
                f"character {k}: no character pullback and no atoms", character=k)
        else:
            for _, p in atoms:
                if system.apply(graph_map.apply(p)) != graph_map.apply(system.apply(p)):
                    raise JoiningConstructionError(
                        f"graph map does not commute with the dynamics at atom {p}",
                        character=k,
                    )
            atoms = []  # the pointwise check on atoms does not depend on k
    if not compared:
        raise JoiningConstructionError(
            "cannot decide whether the graph map preserves the measure: no character "
            "of the family has an exact integral on both sides")


def _factor_system(system: System, coords: Sequence[int]) -> System:
    """The coordinate-projection factor of a system, when structurally valid."""
    coords = tuple(int(c) for c in coords)
    if coords == ():
        return IdentitySystem(PointMeasure())
    if coords == tuple(range(len(system.space))):
        return system
    if isinstance(system, IdentitySystem):
        return IdentitySystem(system.measure.split(coords)[0])
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
                      base: dict) -> ProductSystem:
    """Couple two systems through a joining λ of declared coordinate factors and
    draw the fibers independently: the image of λ ⊗ fiber 1 ⊗ fiber 2, or, when
    a fiber depends on the base point, of the mixture over λ's atoms b of
    δ_b ⊗ fiber 1(b1) ⊗ fiber 2(b2).

    Over the product base this is the product joining, since
    ∫ μ1^b1 ⊗ μ2^b2 d(λ1 ⊗ λ2) = μ1 ⊗ μ2.  A diagonal or graph base is built
    over the derived factor systems and must have the second factor's measure
    as its second marginal on the exact character family.
    """
    if len(systems) != 2:
        raise SpecValidationError("components", "rel-indep joins two systems")
    check_factor_lists(factors)
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
    if base["kind"] == "product":
        return ProductSystem([s1, s2])
    if len(f1) != len(f2):
        raise SpecValidationError("base", "base joining does not match the factor arities")
    graph_map = IdentitySystem(fac1.measure) if base["kind"] == "diagonal" \
        else make_system(base["map"])
    base_measure = graph_joining(fac1, graph_map).measure
    family = frequency_box(len(f2), DEFAULT_CHECK_FAMILY_MAX_FREQ, skip_zero=True)
    compared = False
    for k in family:
        joint = base_measure.integrate_character((0,) * len(f1) + k)
        marginal = fac2.measure.integrate_character(k)
        if joint is None or marginal is None:
            continue
        if not (joint - marginal).is_zero():
            raise JoiningConstructionError(
                f"base joining's second marginal differs from the second factor's "
                f"measure at character {k}", character=k)
        compared = True
    if family and not compared:
        raise JoiningConstructionError(
            "cannot decide whether the base joining's second marginal is the second "
            "factor's measure: no character of the family has an exact integral on both sides")

    (_, fiber1), (_, fiber2) = s1.measure.split(f1), s2.measure.split(f2)
    if isinstance(fiber1, dict) or isinstance(fiber2, dict):
        # a fiber depends on the base point: one product component per base atom
        atoms = base_measure.enumerate_atoms()
        if atoms is None:
            raise JoiningConstructionError("fibers that depend on the base point need "
                                           "a base joining with atoms")
        components = []
        for w, b in atoms:
            parts = [DiracMixture(base_measure.space, [(1, b)])]
            for fiber, half in ((fiber1, b[:len(f1)]), (fiber2, b[len(f1):])):
                if isinstance(fiber, dict) and half not in fiber:
                    raise JoiningConstructionError(
                        f"half {half} of base atom {b} is not an atom of its split")
                parts.append(fiber[half] if isinstance(fiber, dict) else fiber)
            components.append((w, ProductMeasure(parts)))
        source: MeasureHandle = MixtureMeasure(components)
    else:
        source = ProductMeasure([base_measure, fiber1, fiber2])
    scatter = CoordinateMap(a1 + a2, sorted(range(a1 + a2), key=order.__getitem__))
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
                values = inner.evaluate_array(points)
                return wrap_unit(np.add(values, float(angle), out=values))

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

class InvarianceReport(NamedTuple):
    passed: bool
    mode: str
    entries: list[dict]


def invariance_check(joining: ProductSystem, family: Sequence[Sequence[int]], *,
                     seed: int | None = None, samples: int = 4096) -> InvarianceReport:
    """Verify that the joining is invariant under the product dynamics.

    Exact path: integrator(f o (T x S)) must equal integrator(f) for every
    character in the family; the first one with no exact integral sends them all
    to the sampled path, which needs a seed: a two-sample comparison between the
    stream and its image, flagged beyond 4 combined standard errors.
    """
    if not family:
        raise SpecValidationError("family", "character family must be nonempty")
    entries = []
    measure = joining.measure
    passed = True
    for k in family:
        # validated once here; the pullback and both integrals take the tuple as is
        k = validate_frequencies(joining.space, tuple(k))
        step = joining.pullback_step(k)
        before = measure._integrate(k)
        after = None if step is None or before is None else measure._integrate(step[0])
        if after is None:
            entries = []
            break
        pushed = after.rotated(step[1], joining.phase_modulus)
        same = (pushed - before).is_zero()
        passed &= same
        value, pushforward = before.value(), pushed.value()
        entries.append({
            "character": list(k),
            "value": [value.real, value.imag],
            "pushforward": [pushforward.real, pushforward.imag],
            "equal": same,
        })
    else:
        return InvarianceReport(passed=passed, mode="exact", entries=entries)

    if seed is None:
        raise UnsupportedOperationError("no exact path; pass a seed for a sampled check")
    if samples < 1:
        raise SpecValidationError("samples", f"samples must be >= 1, got {samples}")
    rng = rng_from_seed(seed)
    points = joining.measure.sample_floats(rng, samples)
    family = [validate_frequencies(joining.space, tuple(k)) for k in family]
    before = _character_means(points, family)
    after = _character_means(joining.apply_array(points), family)
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


class ConsistencyRow(NamedTuple):
    character: FreqVector
    joint: complex
    product: complex
    sigma: float


class ConsistencyVerdict(NamedTuple):
    verdict: str  # "consistent-with-product" | "refuted"
    witness: FreqVector | None
    mode: str
    rows: list[ConsistencyRow]
    note: str


def _product_characters(boxes: Sequence[list[FreqVector]]) -> list[FreqVector]:
    """Every nonzero concatenation of one frequency vector from each box."""
    keys = map(tuple, map(itertools.chain.from_iterable, itertools.product(*boxes)))
    return [k for k in keys if any(k)]


def product_consistency_test(joining: ProductSystem, degree: int = 2, *,
                             samples: int = 4096, mode: str = "auto",
                             seed: int | None = None) -> ConsistencyVerdict:
    """Compare the joining's character integrals against the product of marginals.

    Exact path (``auto`` mode): any nonzero exact difference refutes with the
    witnessing character; the first character with no exact integral sends the
    test to the sampled path, which needs a seed.  Sampled path (``sampled``
    mode too): any difference beyond 4 sigma (sigma = 1/sqrt(samples)) refutes.
    A pass is explicitly one-sided: it says this one joining looked like the
    product on the tested characters, nothing more.
    """
    if degree < 1:
        raise SpecValidationError("degree", f"degree must be >= 1, got {degree}")
    if mode not in ("auto", "sampled"):
        raise SpecValidationError("mode", f"unknown mode {mode!r}")
    boxes = [frequency_box(len(c.space), degree) for c in joining.factors]
    note = ("one-sided: only the tested characters of this one joining were "
            "compared; no disjointness claim is implied")

    rows: list[ConsistencyRow] = []
    witness = None
    if mode == "auto":
        for k, prod in zip(_product_characters(boxes), _product_column(joining, boxes)):
            joint = joining.integrate(k)
            if joint is None or prod is None:
                if seed is None:
                    raise UnsupportedOperationError(f"exact integral unavailable at {k}")
                rows = []  # fall back to the sampled path
                break
            rows.append(ConsistencyRow(k, joint.value(), prod.value(), 0.0))
            if witness is None and not (joint - prod).is_zero():
                witness = k
        else:
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
    # listed after the draw, so that the sampler's peak does not hold them too
    characters = _product_characters(boxes)
    sigma = 1.0 / math.sqrt(samples)
    means = _character_means(points, characters)
    del points
    products = _sampled_product_column(joining, boxes, characters, seed, samples)
    worst = (None, 0.0)
    for k, prod in zip(characters, products):
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


def _product_column(joining: ProductSystem, boxes: Sequence[list[FreqVector]]):
    """The product of the joining's marginals, the exact ``product_of_integrals``
    or None, at each character of ``_product_characters(boxes)``, in its order.

    The product factors over the joining's factors, so each factor's marginal
    integral is read once per frequency of its box, through ``product_integral``
    on the character that is that frequency on the factor and 0 elsewhere.
    The column is the outer product of these tables: their C-order grid less
    its middle entry, the zero character (negating every frequency reverses
    the grid).  Each entry is the one ``product_integral`` returns on the whole
    character, term for term.
    """
    arity = len(joining.space)
    tables = [[joining.product_integral((0,) * sl.start + ki + (0,) * (arity - sl.stop))
               for ki in box] for box, sl in zip(boxes, joining._slices)]
    grid = itertools.product(*tables)
    middle = math.prod(map(len, boxes)) // 2
    entries = itertools.chain(itertools.islice(grid, middle), itertools.islice(grid, 1, None))
    return map(product_of_integrals, entries)


def _sampled_product_column(joining: ProductSystem, boxes: Sequence[list[FreqVector]],
                            characters: list[FreqVector], seed: int, samples: int):
    """The value of each ``_product_column`` entry at ``characters``, which are
    ``_product_characters(boxes)``; an entry with no exact value is the product
    of the factors' sampled means, each factor drawn once, on its whole box,
    when first needed."""
    marginal_means: dict[int, dict[FreqVector, complex]] = {}

    def sampled_product(k: FreqVector) -> complex:
        total = 1.0 + 0j
        for i, (factor, sl) in enumerate(zip(joining.factors, joining._slices)):
            if i not in marginal_means:
                rng_i = rng_from_seed(derive_seed(seed, f"marginal-{i}"))
                pts = factor.measure.sample_floats(rng_i, samples)
                marginal_means[i] = _character_means(pts, boxes[i])
            total *= marginal_means[i][k[sl]]
        return total

    for k, exact in zip(characters, _product_column(joining, boxes)):
        yield exact.value() if exact is not None else sampled_product(k)


def _character_means(points: np.ndarray, family: Sequence[FreqVector]
                     ) -> dict[FreqVector, complex]:
    """Empirical mean of e(<k, x>) over the rows x of ``points``, for every k in
    ``family``.

    As mean(e(<-k, x>)) = conj(mean(e(<k, x>))), each key is read from the one
    of k, -k whose first nonzero coordinate, reading the right half and then the
    left, is positive (or from 0), conjugated if that is -k: a pair {k, -k} shares
    one entry, and the right half's first coordinate is never negative.

    The coordinates are split into a left and a right half, so that
    e(<k, x>) = A[k_left, x] * B[k_right, x], and each mean is an entry of the
    complex matrix product A·Bᵀ / n.  Tables are laid out as (columns, samples)
    and hold only the columns some key reads (see ``_table_plan``).  B is never
    built whole: one pass per value v of the right half's first coordinate
    multiplies e(v x) into the columns it needs of the table of the remaining
    right coordinates, and adds A times that sub-table into the matching column
    block of the sum.  The samples are processed in blocks of
    ``MEANS_BLOCK_ROWS`` and the blocks' products are added up, so the working
    memory is one block times A's width, the right tail's table and one
    sub-table, whatever the number of samples; the means are then gathered for
    the whole family at once at the keys' columns.
    """
    if not family:
        return {}
    n, arity = points.shape
    half = arity // 2
    keys = [tuple(k) for k in family]
    flip, (left_levels, left_index), (right_levels, right_index) = _plan(keys, half)
    *tail_levels, passes = right_levels
    acc = np.zeros((_width(left_levels), _width(right_levels)), dtype=np.complex128)
    for lo in range(0, n, MEANS_BLOCK_ROWS):
        block = points[lo:lo + MEANS_BLOCK_ROWS]
        _add_block(acc, block, half, left_levels, tail_levels, passes)
    means = acc[left_index, right_index] / n
    np.conjugate(means, out=means, where=flip)
    return dict(zip(keys, means.tolist()))


def _plan(keys: list[FreqVector], half: int) -> tuple[np.ndarray, tuple, tuple]:
    """Which keys are read as the conjugate of their negative, and the
    ``_table_plan`` of each half of the canonical keys; the right half's first
    coordinate is planned last, so that its groups are the passes."""
    signed = np.array(keys, dtype=np.int64)
    ordered = np.roll(signed, -half, axis=1)  # the right half, then the left
    flip = ordered[np.arange(len(keys)), (ordered != 0).argmax(axis=1)] < 0
    canonical = np.where(flip[:, None], -signed, signed)
    return (flip, _table_plan(canonical[:, :half]),
            _table_plan(np.roll(canonical[:, half:], -1, axis=1)))


def _add_block(acc: np.ndarray, block: np.ndarray, half: int, left_levels: list,
               tail_levels: list, passes: list) -> None:
    """Add one block's A·Bᵀ into ``acc``, one column block of B per pass; the
    block's tables are freed on return."""
    left = _build_table(block[:, :half], left_levels)
    tail = _build_table(block[:, half + 1:], tail_levels)
    buffer = np.empty((max(size for _, _, size in passes), len(block)), dtype=np.complex128)
    start = 0
    rows = _power_rows(block[:, half], [v for v, _, _ in passes])
    for row, (_, parents, size) in zip(rows, passes):
        sub = _times_row(tail, parents, row, buffer[:size])
        acc[:, start:start + size] += left @ sub.T
        start += size


def _table_plan(keys: np.ndarray) -> tuple[list[list[tuple]], np.ndarray]:
    """How to build the table of the columns that ``keys`` (one key per row)
    read, one coordinate at a time, and each key's column in it.

    Level c has one column per distinct prefix keys[:, :c + 1], grouped by its
    last value v: a list of (v, parents, size), where ``parents`` selects the
    ``size`` columns of level c - 1 that the group multiplies by e(v x), in the
    group's column order (a slice when they are a run).  No coordinates give
    no levels and one column, the constant 1."""
    column = np.zeros(len(keys), dtype=np.int64)
    width = 1
    levels = []
    for values in keys.T:
        low = int(values.min())
        code = (values - low) * width + column  # (value, parent column), value-major
        # sorted in Python: the first np.sort maps in about 256 KiB of sort kernels
        distinct = np.array(sorted(set(code.tolist())), dtype=np.int64)
        column = np.searchsorted(distinct, code)
        value, parents = np.divmod(distinct, width)
        starts = np.flatnonzero(np.diff(value)) + 1
        groups = []
        for v, p in zip(value[np.concatenate(([0], starts))].tolist(), np.split(parents, starts)):
            run = p[-1] - p[0] + 1 == len(p)
            groups.append((v + low, slice(int(p[0]), int(p[-1]) + 1) if run
                           else p.astype(np.intp), len(p)))
        levels.append(groups)
        width = len(distinct)
    return levels, column


def _width(levels: list) -> int:
    return sum(size for _, _, size in levels[-1]) if levels else 1


def _build_table(coords: np.ndarray, levels: list) -> np.ndarray:
    """(columns, samples) table of a ``_table_plan``: each level's columns are
    its parents' columns times the power row of their value, the products
    taken along the contiguous samples axis."""
    n = coords.shape[0]
    if not levels:
        return np.ones((1, n), dtype=np.complex128)
    # the first level's parent is the constant column: its columns are power rows
    table = _power_rows(coords[:, 0], [v for v, _, _ in levels[0]])
    for c, groups in enumerate(levels[1:], 1):
        out = np.empty((sum(size for _, _, size in groups), n), dtype=np.complex128)
        start = 0
        for row, (_, parents, size) in zip(_power_rows(coords[:, c], [v for v, _, _ in groups]),
                                           groups):
            _times_row(table, parents, row, out[start:start + size])
            start += size
        table = out
    return table


def _times_row(table: np.ndarray, parents, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = the ``parents`` columns of ``table`` times ``row``, with no
    temporary: a run of columns is read in place, others are gathered into
    ``out`` first."""
    if isinstance(parents, slice):
        return np.multiply(table[parents], row, out=out)
    np.take(table, parents, axis=0, out=out, mode="clip")  # the default mode buffers ``out``
    return np.multiply(out, row, out=out)


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
