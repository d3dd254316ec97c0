"""Joinings: measures on product spaces with prescribed marginals.

A joining is an invariant measure of the components' product map whose
marginals are their measures, realized as a sampler over the product space plus
an optional exact character integrator.  It is carried as the measure of a
``core.ProductSystem`` (the product joining is that map's default measure), so
the spectral engine applies verbatim to joined systems.  Every claim about a
joining is made through character integrals.

Construction kinds: product, diagonal, graph (including off-diagonal powers),
the relatively independent extension over declared factors, the coupled triple
of a twist and its shifted copy, and programmatic custom samplers.  All but
the last are images of product measures under coordinate or graph maps
(``core.ImageMeasure``); custom samplers, and fibers that depend on the drawn
base point, are given by callables (``JoiningMeasure``).
``product_consistency_test`` refutes product structure of one given joining and
is explicitly one-sided: disjointness quantifies over all joinings, which no
finite procedure certifies.

Sampled checks read every empirical character mean from one kernel,
``_character_means``.  It splits the coordinates into two halves, tabulates
each half's characters as broadcast outer products of per-coordinate power
columns, and gets all means at once as one complex matrix product Aᵀ·B / n,
accumulated over blocks of ``MEANS_BLOCK_ROWS`` samples so that memory does not
grow with samples times characters.  Exact marginal integrals are computed once per joining and
component frequency and kept on the ``Joining``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
    product_of_integrals,
    rng_from_seed,
    validate_frequencies,
    wrap_unit,
)
from ergolab.exact import PhaseSum, parse_scalar
from ergolab.schema import MAX_OFF_DIAGONAL_POWER, check_factor_lists, parse  # noqa: F401

DEFAULT_CHECK_FAMILY_MAX_FREQ = 2
SIGMA_FACTOR = 4.0
#: samples per block of the character-mean kernel; bounds its working memory
MEANS_BLOCK_ROWS = 4096


class JoiningConstructionError(ErgolabError):
    """A declared joining violates a structural requirement; carries the witness."""

    def __init__(self, message: str, character: FreqVector | None = None):
        self.character = character
        super().__init__(message)


@dataclass(frozen=True)
class JoiningSpec:
    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_json(cls, doc: dict, *, field: str = "joining") -> "JoiningSpec":
        doc = parse(doc, "joining", field)
        return cls(kind=doc["kind"], params=doc["params"])


# ---------------------------------------------------------------------------
# joint measure and system
# ---------------------------------------------------------------------------

class JoiningMeasure(MeasureHandle):
    """MeasureHandle from callables: integrator + samplers over the product
    space (custom joinings, and fibers that depend on the base point)."""

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


@dataclass
class Joining:
    """A joining of the component systems: their product map, carrying the
    joining as its invariant measure, exposed as sampler + integrator."""

    components: list[System]
    system: ProductSystem
    #: (component index, component frequency) -> exact marginal integral or None
    _marginal_integrals: dict = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    @property
    def space(self):
        return self.system.space

    @property
    def slices(self) -> list[slice]:
        return self.system._slices

    @property
    def exact(self) -> bool:
        return self.system.measure.exact

    def integrate(self, k: Sequence[int]) -> Optional[PhaseSum]:
        return self.system.measure.integrate_character(tuple(k))

    def marginal_integrate(self, index: int, k: Sequence[int]) -> Optional[PhaseSum]:
        return self.components[index].measure.integrate_character(tuple(k))

    def split_frequencies(self, k: Sequence[int]) -> list[FreqVector]:
        k = tuple(k)
        return [tuple(k[sl]) for sl in self.slices]

    def product_integral(self, k: Sequence[int]) -> Optional[PhaseSum]:
        """Integral of the same character against the product of the marginals,
        with ``ProductMeasure``'s rule (``core.product_of_integrals``).

        Each marginal integral is computed once per joining and reused."""
        return product_of_integrals([self._memoized_marginal(i, ki)
                                     for i, ki in enumerate(self.split_frequencies(k))])

    def _memoized_marginal(self, index: int, k: FreqVector) -> Optional[PhaseSum]:
        key = (index, k)
        if key not in self._marginal_integrals:
            self._marginal_integrals[key] = self.marginal_integrate(index, k)
        return self._marginal_integrals[key]


def sample_joining(joining: Joining, seed: int, count: int, *,
                   rationals: bool = False):
    """Deterministic point stream from the joining (floats, or exact rationals)."""
    if count < 1:
        raise SpecValidationError("count", f"count must be >= 1, got {count}")
    rng = rng_from_seed(seed)
    if rationals:
        return joining.system.measure.sample_rationals(rng, count)
    return joining.system.measure.sample_floats(rng, count)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_joining(spec: JoiningSpec | dict, *, path: str = "") -> Joining:
    """Realize a JoiningSpec; component entries may be spec documents or Systems.
    ``path`` prefixes the field named by a validation error."""
    doc = parse(spec.to_json() if isinstance(spec, JoiningSpec) else spec, "joining", path)
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
    if kind == "example1-triple":
        return example1_triple(make_measure(params["base_measure"]),
                               make_cocycle(params["cocycle"]), parse_scalar(params["angle"]))
    raise SpecValidationError(
        "kind", "custom-sampler joinings are programmatic: use custom_joining()")


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


def product_joining(systems: Sequence[System]) -> Joining:
    systems = list(systems)
    return Joining(components=systems, system=ProductSystem(systems))


def graph_joining(system: System, graph_map: System, *,
                  check_max_freq: int = DEFAULT_CHECK_FAMILY_MAX_FREQ) -> Joining:
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
    return Joining(components=[system, system],
                   system=ProductSystem([system, system], measure=measure))


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
                      base: dict | Joining) -> Joining:
    """Couple two systems through a joining of declared coordinate factors and
    draw the fibers independently.

    With trivial factors this is exactly the product joining.  The base joining
    is built over the derived factor systems (kinds: product, diagonal, graph).
    """
    if len(systems) != 2:
        raise SpecValidationError("components", "rel-indep joins two systems")
    check_factor_lists(factors)
    if not isinstance(base, Joining):
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

    if isinstance(base, Joining):
        base_joining = base
    elif base["kind"] == "product":
        base_joining = product_joining([fac1, fac2])
    elif base["kind"] == "diagonal":
        base_joining = graph_joining(fac1, IdentitySystem(fac1.measure))
    else:
        base_joining = graph_joining(fac1, make_system(base["map"]))
    if [len(c.space) for c in base_joining.components] != [len(f1), len(f2)]:
        raise SpecValidationError("base", "base joining does not match the factor arities")

    scatter = CoordinateMap(a1 + a2, sorted(range(a1 + a2), key=order.__getitem__))
    base_measure, fiber1, fiber2 = base_joining.system.measure, split1.fiber, split2.fiber
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

        exact_flag = base_joining.exact and all(
            isinstance(fiber, ConditionalAtomsFiber) or fiber.measure.exact
            for fiber in (fiber1, fiber2))
        joined_space = s1.space + s2.space
        source = JoiningMeasure(tuple(joined_space[c] for c in order), integrator,
                                sample_rationals, sample_floats,
                                description="base point and fibers", exact_flag=exact_flag)
    measure = ImageMeasure(source, scatter, description="relatively independent extension")
    return Joining(components=[s1, s2],
                   system=ProductSystem([s1, s2], measure=measure))


def example1_triple(base_measure: MeasureHandle, cocycle: Cocycle,
                    angle: Fraction) -> Joining:
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
    return Joining(components=[twist, shifted],
                   system=ProductSystem([twist, shifted], measure=measure))


def custom_joining(components: Sequence[System],
                   sample_rationals_fn, sample_floats_fn,
                   integrator=None, description: str = "custom joining") -> Joining:
    """Programmatic joining from user-supplied samplers (and optional integrator)."""
    systems = list(components)
    space = tuple(c for s in systems for c in s.space)
    measure = JoiningMeasure(
        space,
        integrator if integrator is not None else (lambda k: None),
        sample_rationals_fn,
        sample_floats_fn,
        description=description,
        exact_flag=integrator is not None,
    )
    return Joining(components=systems,
                   system=ProductSystem(systems, measure=measure))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    passed: bool
    mode: str
    entries: list[dict]

    def to_json(self) -> dict:
        return {"passed": self.passed, "mode": self.mode, "entries": self.entries}


def invariance_check(joining: Joining, family: Sequence[Sequence[int]], *,
                     seed: int | None = None, samples: int = 4096) -> InvarianceReport:
    """Verify that the joining is invariant under the product dynamics.

    Exact path: integrator(f o (T x S)) must equal integrator(f) for every
    character in the family.  Sampled path: two-sample comparison between the
    stream and its image, flagged beyond 4 combined standard errors.
    """
    if not family:
        raise SpecValidationError("family", "character family must be nonempty")
    entries = []
    exact_ok = joining.exact
    if exact_ok:
        passed = True
        for k in family:
            k = validate_frequencies(joining.space, tuple(k))
            step = joining.system.char_pullback(k)
            before = joining.integrate(k)
            if step is None or before is None:
                exact_ok = False
                break
            k2, ph = step
            after = joining.integrate(k2)
            if after is None:
                exact_ok = False
                break
            same = (after.rotated(ph) - before).is_zero()
            passed &= same
            entries.append({
                "character": list(k),
                "value": [before.value().real, before.value().imag],
                "pushforward": [(after.rotated(ph)).value().real,
                                (after.rotated(ph)).value().imag],
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
    points = joining.system.measure.sample_floats(rng, samples)
    image = joining.system.apply_array(points)
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

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "mode": self.mode,
            "note": self.note,
            "rows": [
                {
                    "character": list(r.character),
                    "joint": [r.joint.real, r.joint.imag],
                    "product": [r.product.real, r.product.imag],
                    "sigma": r.sigma,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["character,joint_re,joint_im,product_re,product_im,sigma"]
        for r in self.rows:
            ch = " ".join(str(v) for v in r.character)
            lines.append(
                f"{ch},{r.joint.real!r},{r.joint.imag!r},"
                f"{r.product.real!r},{r.product.imag!r},{r.sigma!r}"
            )
        return "\n".join(lines) + "\n"


def _product_characters(boxes: Sequence[list[FreqVector]]) -> list[FreqVector]:
    """Every nonzero concatenation of one frequency vector from each box."""
    out = []
    for parts in itertools.product(*boxes):
        k = tuple(v for part in parts for v in part)
        if any(k):
            out.append(k)
    return out


def product_consistency_test(joining: Joining, degree: int = 2, *,
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
    boxes = [frequency_box(len(c.space), degree) for c in joining.components]
    characters = _product_characters(boxes)
    note = ("one-sided: only the tested characters of this one joining were "
            "compared; no disjointness claim is implied")

    use_exact = mode != "sampled" and joining.exact and all(
        c.measure.exact for c in joining.components
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
    points = joining.system.measure.sample_floats(rng, samples)
    sigma = 1.0 / math.sqrt(samples)
    means = _character_means(points, characters)
    marginal_means: dict[int, dict[FreqVector, complex]] = {}

    def sampled_product(k: FreqVector) -> complex:
        # drawn once per component, on its whole box, when first needed
        total = 1.0 + 0j
        for i, ki in enumerate(joining.split_frequencies(k)):
            if i not in marginal_means:
                rng_i = rng_from_seed(derive_seed(seed, f"marginal-{i}"))
                pts = joining.components[i].measure.sample_floats(rng_i, samples)
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

    The coordinates are split into a left and a right half, so that
    e(<k, x>) = A[x, k_left] * B[x, k_right].  Each half's table is the
    broadcast outer product, coordinate by coordinate, of the power columns of
    the values that occur there (see ``_power_columns``), so every mean is an
    entry of one complex matrix product Aᵀ·B / n, read at the mixed-radix
    indices of the key's two halves.  The samples are processed in blocks of
    ``MEANS_BLOCK_ROWS`` rows and the blocks' Aᵀ·B are added up, so memory is
    bounded by the block size times a small multiple of the table widths,
    whatever the number of samples.
    """
    family = [tuple(k) for k in family]
    if not family:
        return {}
    n, arity = points.shape
    half = arity // 2
    left_values, left_column = _half_plan([k[:half] for k in family])
    right_values, right_column = _half_plan([k[half:] for k in family])
    acc = np.zeros((math.prod(map(len, left_values)), math.prod(map(len, right_values))),
                   dtype=np.complex128)
    for lo in range(0, n, MEANS_BLOCK_ROWS):
        block = points[lo:lo + MEANS_BLOCK_ROWS]
        # one expression, so the previous block's tables are freed before these are built
        acc += (_half_table(block[:, :half], left_values).T
                @ _half_table(block[:, half:], right_values))
    acc /= n
    return {k: complex(acc[left_column[k[:half]], right_column[k[half:]]])
            for k in family}


def _half_plan(keys: Sequence[FreqVector]
               ) -> tuple[list[list[int]], dict[FreqVector, int]]:
    """The sorted values that occur at each coordinate of one half's ``keys``,
    and each key's column in the outer-product table of those values: its
    mixed-radix index, the last coordinate varying fastest."""
    keys = set(keys)
    width = len(next(iter(keys)))
    values = [sorted({key[c] for key in keys}) for c in range(width)]
    index = [{v: j for j, v in enumerate(vs)} for vs in values]
    column = {}
    for key in keys:
        j = 0
        for c in range(width):
            j = j * len(values[c]) + index[c][key[c]]
        column[key] = j
    return values, column


def _half_table(coords: np.ndarray, values: list[list[int]]) -> np.ndarray:
    """(rows, columns) table of e(<key, x>) for every combination of the
    per-coordinate ``values``, as broadcast outer products of power columns."""
    rows = coords.shape[0]
    table = np.ones((rows, 1), dtype=np.complex128)
    for c, vs in enumerate(values):
        powers = _power_columns(coords[:, c], vs)
        table = (table[:, :, None] * powers[:, None, :]).reshape(rows, -1)
    return table


def _power_columns(x: np.ndarray, values: Sequence[int]) -> np.ndarray:
    """Columns e(v x) for v in ``values``, from a single ``np.exp``: positive
    powers by repeated multiplication, negative ones as their conjugates."""
    out = np.empty((x.shape[0], len(values)), dtype=np.complex128)
    column = {v: j for j, v in enumerate(values)}
    base = np.exp(2j * np.pi * x)
    power = np.ones(x.shape[0], dtype=np.complex128)
    for v in range(max(abs(v) for v in values) + 1):
        if v:
            power = power * base
        if v in column:
            out[:, column[v]] = power
        if -v in column:
            out[:, column[-v]] = np.conj(power)
    return out
