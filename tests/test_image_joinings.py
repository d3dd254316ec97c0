"""Constructed joinings as images of product measures: ``ImageMeasure`` and
``CoordinateMap`` behind the diagonal, graph, off-diagonal, example1-triple and
relatively independent joinings.

Oracles: the integrators, samplers and atom enumerators these joinings were
built from by hand before they became image measures, kept here as references.
Over the product base a relatively independent extension is the product
joining itself, and is checked against it.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ergolab.core import (
    CoordinateMap,
    HaarMeasure,
    IdentitySystem,
    ImageMeasure,
    MixtureMeasure,
    ProductMeasure,
    SpecValidationError,
    System,
    build_measure,
    build_system,
    frequency_box,
    product_of_integrals,
    rng_from_seed,
)
from ergolab.exact import PhaseSum
from ergolab.joinings import (
    MAX_OFF_DIAGONAL_POWER,
    _ComposedSystem,
    _factor_system,
    build_joining,
    graph_joining,
    product_joining,
    rel_indep_joining,
    sample_joining,
)

F = Fraction


def character_at(k, point):
    """Exact e(<k, point>) at a rational point: the oracle for atom sums."""
    return PhaseSum.unit(sum((ki * ti for ki, ti in zip(k, point)), Fraction(0)))

ROT_THIRD = {"kind": "rotation", "params": {"angle": "1/3"}}
HAAR = {"kind": "haar", "arity": 1}
ATOMS = {"kind": "atoms", "atoms": [
    {"point": ["0"], "weight": "1/3"},
    {"point": ["1/4"], "weight": "1/6"},
    {"point": ["2/3"], "weight": "1/2"},
]}
IDENTITY_ATOMS = {"kind": "identity", "params": {"measure": ATOMS}}
IDENTITY_HAAR = {"kind": "identity", "params": {"measure": HAAR}}
# atoms on (x, g) that g -> g + phi(x) permutes, phi(0) = 1/2 and phi(1/2) = 0
PAIR_ATOMS = {"kind": "atoms", "atoms": [
    {"point": ["0", "0"], "weight": "1/4"},
    {"point": ["0", "1/2"], "weight": "1/4"},
    {"point": ["1/2", "0"], "weight": "1/3"},
    {"point": ["1/2", "1/4"], "weight": "1/6"},
]}
IDENTITY_PAIR_ATOMS = {"kind": "identity", "params": {"measure": PAIR_ATOMS}}
TABLE = {"kind": "table", "entries": [{"point": ["0"], "value": "1/2"},
                                      {"point": ["1/2"], "value": "0"}]}
HALVES = {"kind": "atoms", "atoms": [{"point": ["0"], "weight": "1/2"},
                                     {"point": ["1/2"], "weight": "1/2"}]}
TABLE_TWIST = {"kind": "twist", "params": {"base_measure": HALVES, "cocycle": TABLE}}
EXTENSION = {"kind": "group-extension", "params": {
    "base": {"kind": "rotation", "params": {"angle": "2/7"}},
    "cocycle": {"kind": "affine", "slope": "3", "intercept": "1/5"}}}
TWIST = {"kind": "twist", "params": {}}
TWIST_PAIR = {"kind": "product", "params": {"factors": [TWIST, TWIST]}}


# ---------------------------------------------------------------------------
# the former closures
# ---------------------------------------------------------------------------

class TwoMapComposition(System):
    """outer o inner, the two-map composition the former powers nested."""

    def __init__(self, outer, inner):
        self.outer, self.inner = outer, inner
        self.space = inner.space
        self.measure = inner.measure
        self.phase_modulus = math.lcm(outer.phase_modulus, inner.phase_modulus)

    def apply(self, point):
        return self.outer.apply(self.inner.apply(point))

    def apply_array(self, points):
        return self.outer.apply_array(self.inner.apply_array(points))

    def pullback_step(self, k):
        step = self.outer.pullback_step(k)
        last = None if step is None else self.inner.pullback_step(step[0])
        if last is None:
            return None
        Q = self.phase_modulus
        return last[0], (step[1] * (Q // self.outer.phase_modulus)
                         + last[1] * (Q // self.inner.phase_modulus)) % Q


def old_graph_closures(system, graph_map):
    """What ``graph_joining`` built by hand."""
    measure0 = system.measure
    arity = len(system.space)

    def integrator(k):
        k1, k2 = k[:arity], k[arity:]
        step = graph_map.char_pullback(k2)
        if step is not None:
            k2p, ph = step
            merged = tuple(a + b for a, b in zip(k1, k2p))
            base = measure0.integrate_character(merged)
            return None if base is None else base.rotated(ph)
        atoms = measure0.enumerate_atoms()
        if atoms is None:
            return None
        total = PhaseSum.zero()
        for w, p in atoms:
            total = total + character_at(k1, p) * character_at(k2, graph_map.apply(p)) * w
        return total

    def sample_floats(rng, n):
        pts = measure0.sample_floats(rng, n)
        return np.concatenate([pts, graph_map.apply_array(pts.copy())], axis=1)

    def atoms_fn():
        atoms = measure0.enumerate_atoms()
        if atoms is None:
            return None
        return [(w, p + graph_map.apply(p)) for w, p in atoms]

    return integrator, sample_floats, atoms_fn


def old_triple_closures(base_measure):
    """What ``example1_triple`` built by hand."""

    def integrator(k):
        k1, k2, k3, k4 = k
        if k2 != 0 or k4 != 0:
            return PhaseSum.zero()
        return base_measure.integrate_character((k1 + k3,))

    def sample_floats(rng, n):
        xs = base_measure.sample_floats(rng, n)
        yz = HaarMeasure(2).sample_floats(rng, n)
        return np.column_stack([xs[:, 0], yz[:, 0], xs[:, 0], yz[:, 1]])

    return integrator, sample_floats, lambda: None


def old_rel_indep_closures(s1, s2, f1, f2, base_joining):
    """What ``rel_indep_joining`` built by hand over a diagonal or graph base:
    the integrator, summed over the base joining's atoms when a fiber depends
    on the base point, and, for independent fibers, the blockwise draw of its
    float sampler (base, then fiber 1, then fiber 2).
    Fibers that depend on the base point have no reference draw (None)."""
    (_, fiber1), (_, fiber2) = s1.measure.split(f1), s2.measure.split(f2)
    a1, a2 = len(s1.space), len(s2.space)
    rest1 = tuple(i for i in range(a1) if i not in f1)
    rest2 = tuple(i for i in range(a2) if i not in f2)
    b1_arity = len(f1)
    independent = not isinstance(fiber1, dict) and not isinstance(fiber2, dict)

    def at(fiber, half):
        return fiber[half] if isinstance(fiber, dict) else fiber

    def assemble(base_pt1, fiber_pt1, base_pt2, fiber_pt2):
        pt1 = [None] * a1
        for c, v in zip(f1, base_pt1):
            pt1[c] = v
        for c, v in zip(rest1, fiber_pt1):
            pt1[c] = v
        pt2 = [None] * a2
        for c, v in zip(f2, base_pt2):
            pt2[c] = v
        for c, v in zip(rest2, fiber_pt2):
            pt2[c] = v
        return tuple(pt1) + tuple(pt2)

    def integrator(k):
        k1, k2 = k[:a1], k[a1:]
        kb = tuple(k1[c] for c in f1) + tuple(k2[c] for c in f2)
        kr1 = tuple(k1[c] for c in rest1)
        kr2 = tuple(k2[c] for c in rest2)
        if independent:
            base_part = base_joining.integrate(kb)
            p1 = fiber1.integrate_character(kr1)
            p2 = fiber2.integrate_character(kr2)
            if base_part is None or p1 is None or p2 is None:
                return None
            return base_part * p1 * p2
        base_atoms = base_joining.measure.enumerate_atoms()
        if base_atoms is None:
            return None
        total = PhaseSum.zero()
        for w, bp in base_atoms:
            p1 = at(fiber1, bp[:b1_arity]).integrate_character(kr1)
            p2 = at(fiber2, bp[b1_arity:]).integrate_character(kr2)
            if p1 is None or p2 is None:
                return None
            total = total + character_at(kb, bp) * p1 * p2 * w
        return total

    def sample_floats(rng, n):
        base_pts = base_joining.measure.sample_floats(rng, n)
        fib1 = fiber1.sample_floats(rng, n)
        fib2 = fiber2.sample_floats(rng, n)
        out = np.empty((n, a1 + a2))
        for j, c in enumerate(f1):
            out[:, c] = base_pts[:, j]
        for j, c in enumerate(rest1):
            out[:, c] = fib1[:, j]
        for j, c in enumerate(f2):
            out[:, a1 + c] = base_pts[:, b1_arity + j]
        for j, c in enumerate(rest2):
            out[:, a1 + c] = fib2[:, j]
        return out

    def atoms_fn():
        base_atoms = base_joining.measure.enumerate_atoms()
        if independent or base_atoms is None:
            return None
        out = []
        for w, bp in base_atoms:
            atoms1 = at(fiber1, bp[:b1_arity]).enumerate_atoms()
            atoms2 = at(fiber2, bp[b1_arity:]).enumerate_atoms()
            if atoms1 is None or atoms2 is None:
                return None
            out += [(w * w1 * w2, assemble(bp[:b1_arity], p1, bp[b1_arity:], p2))
                    for w1, p1 in atoms1 for w2, p2 in atoms2]
        return out

    return integrator, sample_floats if independent else None, atoms_fn


def product_closures(joining):
    """The product joining's own integrals, draws and atoms."""
    m = joining.measure
    return joining.integrate, m.sample_floats, m.enumerate_atoms


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

def swapped_halves(closures, arity):
    """The closures of the transposed joining: the same draws and atoms with
    their two halves swapped, and each character read with its halves swapped."""
    integrator, sample_floats, atoms_fn = closures

    def swap(p):
        return tuple(p[arity:]) + tuple(p[:arity])

    def swapped_floats(rng, n):
        pts = sample_floats(rng, n)
        return np.concatenate([pts[:, arity:], pts[:, :arity]], axis=1)

    def swapped_atoms():
        atoms = atoms_fn()
        return None if atoms is None else [(w, swap(p)) for w, p in atoms]

    return lambda k: integrator(swap(k)), swapped_floats, swapped_atoms


def graph_case(component, graph_map=None, power=None):
    def build():
        system = build_system(component)
        if power is not None:
            joining = build_joining({"kind": "off-diagonal",
                                     "params": {"component": component, "power": power}})
            # the former power: one composition per step, around the identity
            old_map = IdentitySystem(system.measure)
            for _ in range(abs(power)):
                old_map = TwoMapComposition(system, old_map)
            closures = old_graph_closures(system, old_map)
            # the graph of T^-p is the graph of T^p with its halves swapped
            return joining, closures if power >= 0 else \
                swapped_halves(closures, len(system.space))
        if graph_map is None:
            joining = build_joining({"kind": "diagonal", "params": {"component": component}})
            old_map = IdentitySystem(system.measure)
        else:
            joining = build_joining({"kind": "graph",
                                     "params": {"component": component, "map": graph_map}})
            old_map = build_system(graph_map)
        return joining, old_graph_closures(system, old_map)
    return build


def triple_case(base_measure, cocycle):
    def build():
        joining = build_joining({"kind": "example1-triple", "params": {
            "base_measure": base_measure, "cocycle": cocycle, "angle": "1/5"}})
        return joining, old_triple_closures(build_measure(base_measure))
    return build


def rel_indep_case(components, factors, base):
    def build():
        systems = [build_system(c) for c in components]
        joining = rel_indep_joining(systems, factors, base)
        if base["kind"] == "product":
            # over the product base the extension is the product joining
            return joining, product_closures(product_joining(
                [build_system(c) for c in components]))
        fac1 = _factor_system(systems[0], factors[0])
        graph_map = IdentitySystem(fac1.measure) if base["kind"] == "diagonal" else \
            build_system(base["map"])
        return joining, old_rel_indep_closures(*systems, *map(tuple, factors),
                                               graph_joining(fac1, graph_map))
    return build


PRODUCT_BASE = {"kind": "product"}
DIAGONAL_BASE = {"kind": "diagonal"}
CASES = {
    "diagonal-atoms": graph_case(IDENTITY_ATOMS),
    "diagonal-haar": graph_case(ROT_THIRD),
    "graph-rotation": graph_case(ROT_THIRD, {"kind": "rotation", "params": {"angle": "1/6"}}),
    "off-diagonal+2": graph_case(EXTENSION, power=2),
    "off-diagonal-2": graph_case(EXTENSION, power=-2),
    "graph-atoms-no-pullback": graph_case(IDENTITY_PAIR_ATOMS, TABLE_TWIST),
    "triple-haar": triple_case(HAAR, {"kind": "affine", "slope": "3", "intercept": "1/7"}),
    "triple-table-atoms": triple_case(HALVES, TABLE),
    "triple-power-law": triple_case({"kind": "power-law-sampled", "exponent": 2},
                                    {"kind": "affine", "slope": "1", "intercept": "0"}),
    "rel-indep-trivial": rel_indep_case([IDENTITY_ATOMS, ROT_THIRD], [[], []], PRODUCT_BASE),
    "rel-indep-atoms": rel_indep_case([IDENTITY_ATOMS, IDENTITY_ATOMS], [[], []], PRODUCT_BASE),
    "rel-indep-closure": rel_indep_case([TWIST_PAIR, ROT_THIRD], [[0, 2], []], PRODUCT_BASE),
    "rel-indep-diagonal-bases": rel_indep_case([TWIST, TWIST], [[0], [0]], DIAGONAL_BASE),
    # the pair's second base coordinate is a factor: the scatter is not its own inverse
    "rel-indep-scattered": rel_indep_case([TWIST_PAIR, TWIST], [[2], [0]], DIAGONAL_BASE),
    # the first fiber depends on the base point, the second (Haar) does not
    "rel-indep-conditional": rel_indep_case(
        [IDENTITY_PAIR_ATOMS, {"kind": "twist", "params": {"base_measure": HALVES}}],
        [[0], [0]], DIAGONAL_BASE),
    # both fibers depend on the base point, coupled by the rotation by 1/2
    "rel-indep-conditional-graph": rel_indep_case(
        [IDENTITY_PAIR_ATOMS, IDENTITY_PAIR_ATOMS], [[0], [0]],
        {"kind": "graph", "map": {"kind": "rotation", "params": {"angle": "1/2",
                                                                 "measure": HALVES}}}),
    "rel-indep-conditional-product": rel_indep_case(
        [IDENTITY_PAIR_ATOMS, ROT_THIRD], [[0], []], PRODUCT_BASE),
}
PRODUCT_BASE_CASES = {"rel-indep-trivial", "rel-indep-atoms", "rel-indep-closure",
                      "rel-indep-conditional-product"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_image_joining_equals_its_former_closures(name):
    joining, (integrator, sample_floats, atoms_fn) = CASES[name]()
    measure = joining.measure
    if name in PRODUCT_BASE_CASES:
        assert isinstance(measure, ProductMeasure)
    else:
        assert isinstance(measure, ImageMeasure)
        # fibers that depend on the base point make a mixture over the base atoms
        assert isinstance(measure.source, MixtureMeasure) == (sample_floats is None)
    for k in frequency_box(len(joining.space), 2):
        new, old = joining.integrate(k), integrator(k)
        assert (new is None) == (old is None), k
        if new is not None:
            assert new.terms == old.terms, k
    for seed in (0, 7, 2024):
        if sample_floats is None:
            assert_draws_follow_the_integrals(joining, seed)
            continue
        floats = sample_joining(joining, seed, 300)
        reference = sample_floats(rng_from_seed(seed), 300)
        assert floats.flags.c_contiguous
        assert floats.shape == reference.shape
        assert np.array_equal(floats.view(np.uint64), reference.view(np.uint64))
    assert measure.enumerate_atoms() == atoms_fn()


def assert_draws_follow_the_integrals(joining, seed, n=4096):
    """Draws lie on the joining's atoms when it has finitely many (the exact
    integral of each character is the mean over them), and the draws' character
    means are within 4 sigma of the exact integrals on the degree-1 box."""
    atoms = joining.measure.enumerate_atoms()
    floats = sample_joining(joining, seed, n)
    if atoms is not None:
        assert set(map(tuple, floats.tolist())) <= {tuple(map(float, p)) for _, p in atoms}
    assert floats.shape == (n, len(joining.space))
    for k in frequency_box(len(joining.space), 1):
        mean = np.exp(2j * np.pi * (floats @ np.array(k))).mean()
        assert abs(mean - joining.integrate(k).value()) <= 4 / math.sqrt(n), k


# ---------------------------------------------------------------------------
# the two measures on their own
# ---------------------------------------------------------------------------

def test_coordinate_map_copies_reorders_and_pulls_back():
    scatter = CoordinateMap(3, (2, 0, 0))
    assert scatter.apply((F(1, 2), F(1, 3), F(1, 4))) == (F(1, 4), F(1, 2), F(1, 2))
    assert scatter.pullback_step((1, 2, 5)) == ((7, 0, 1), 0)
    points = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = scatter.apply_array(points)
    assert out.flags.c_contiguous
    assert np.array_equal(out, points[:, [2, 0, 0]])


def test_image_measure_integrates_through_the_pullback_and_over_atoms():
    atoms = build_measure(ATOMS)
    rotation = build_system({"kind": "rotation", "params": {"angle": "1/6"}})
    image = ImageMeasure(atoms, rotation)
    for k in range(-4, 5):
        brute = PhaseSum((k * ((p[0] + F(1, 6)) % 1), w) for w, p in atoms.atoms)
        assert image.integrate_character((k,)).terms == brute.terms
    assert image.enumerate_atoms() == [(w, rotation.apply(p)) for w, p in atoms.atoms]
    # no pullback and no atoms: no exact integral
    power = build_measure({"kind": "power-law-sampled", "exponent": 2})
    twist = build_system({"kind": "twist", "params": {
        "base_measure": {"kind": "power-law-sampled", "exponent": 2},
        "cocycle": {"kind": "affine", "slope": "1/2"}}})
    sampled = ImageMeasure(ProductMeasure([power, HaarMeasure(1)]), twist)
    assert sampled.integrate_character((0, 1)) is None


def test_product_measure_zero_factor_beats_a_missing_integral():
    product = ProductMeasure([build_measure({"kind": "power-law-sampled", "exponent": 2}),
                              HaarMeasure(1)])
    assert product.integrate_character((1, 1)) == PhaseSum.zero()
    assert product.integrate_character((0, 1)) == PhaseSum.zero()
    assert product.integrate_character((1, 0)) is None
    assert product.integrate_character((0, 0)) == PhaseSum.one()


def test_product_of_integrals_zero_wins_in_any_position():
    zero, one, half = PhaseSum.zero(), PhaseSum.one(), PhaseSum.from_rational(Fraction(1, 2))
    assert product_of_integrals([None, zero]) == zero
    assert product_of_integrals([zero, None]) == zero
    assert product_of_integrals([half, None]) is None
    assert product_of_integrals([half, half]) == PhaseSum.from_rational(Fraction(1, 4))
    assert product_of_integrals([]) == one

    def parts():
        yield zero
        raise AssertionError("read past an exact zero")

    assert product_of_integrals(parts()) == zero


def test_product_integral_follows_the_product_measure_rule():
    """The joint and the product integral agree on an exact zero that only
    one marginal knows, and on None when none is known to vanish."""
    power = {"kind": "power-law-sampled", "exponent": 2}
    joining = product_joining([
        build_system({"kind": "twist", "params": {"base_measure": power}}),
        build_system({"kind": "identity", "params": {"measure": power}})])
    assert joining.integrate((0, 1, 1)) == PhaseSum.zero()
    assert joining.product_integral((0, 1, 1)) == PhaseSum.zero()
    assert joining.integrate((0, 0, 1)) is None
    assert joining.product_integral((0, 0, 1)) is None


# ---------------------------------------------------------------------------
# off-diagonal powers and compositions
# ---------------------------------------------------------------------------

def test_composition_applies_inner_first_and_pulls_back_outer_first():
    """On maps that do not commute, A o B o C applies C first, and its pullback
    gives char_k(A B C x) = e(phase) char_k'(x) at a rational point."""
    twist = build_system(TWIST)
    base_rot = build_system({"kind": "product", "params": {"factors": [
        {"kind": "rotation", "params": {"angle": "1/5"}}, IDENTITY_HAAR]}})
    shifted = build_system({"kind": "twist", "params": {
        "cocycle": {"kind": "affine", "slope": "2", "intercept": "1/3"}}})
    composed = _ComposedSystem(twist, base_rot, shifted)
    x = (F(1, 7), F(2, 9))
    assert composed.apply(x) == twist.apply(base_rot.apply(shifted.apply(x)))
    points = np.array([[0.1, 0.7], [0.35, 0.2]])
    # apply_array steps its input in place: the reference steps a copy
    expected = twist.apply_array(base_rot.apply_array(shifted.apply_array(points.copy())))
    assert not np.array_equal(expected, points)
    assert np.array_equal(composed.apply_array(points), expected)
    for k in frequency_box(2, 2):
        k2, phase = composed.char_pullback(k)
        assert character_at(k, composed.apply(x)) == character_at(k2, x).rotated(phase), k


def off_diagonal_doc(power):
    return {"joining": {"kind": "off-diagonal",
                        "params": {"component": ROT_THIRD, "power": power}}}


@pytest.mark.parametrize("power, same_as", [(1000, 1), (-1000, -1),
                                            (MAX_OFF_DIAGONAL_POWER, 1)])
def test_large_off_diagonal_powers_validate_and_reduce_mod_the_rotation(
        power, same_as, tmp_path, capsys):
    from ergolab.cli import main

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(off_diagonal_doc(power)))
    assert main(["spec", "validate", str(path)]) == 0
    # the rotation is by 1/3, so T^power = T^same_as
    large = build_joining(off_diagonal_doc(power)["joining"])
    small = build_joining(off_diagonal_doc(same_as)["joining"])
    for k in frequency_box(2, 3):
        assert large.integrate(k) == small.integrate(k), k
    point = (F(1, 7), F(2, 9))
    assert large.apply(point) == small.apply(point)


#: not invariant: a mixture with a Haar part whose atomic part the rotation
#: moves, which building the rotation refuses
ROT_THIRD_OVER_HALF_ZERO = {"kind": "rotation", "params": {"angle": "1/3", "measure": {
    "kind": "mixture", "components": [
        {"weight": "1/2", "measure": {"kind": "haar", "arity": 1}},
        {"weight": "1/2", "measure": {"kind": "atoms", "atoms": [{"point": ["0"]}]}}]}}}


@pytest.mark.parametrize("component, code, message", [
    ({"kind": "rank1-family", "params": {"a": "1/3", "depth": 4}}, 0, "valid off-diagonal spec"),
    (ROT_THIRD_OVER_HALF_ZERO, 3, "the map does not preserve the atomic measure: the point (0) "
                                  "carries weight 1/2 before the map and 0 after"),
])
@pytest.mark.parametrize("power", [1, -1])
def test_a_negative_power_validates_exactly_when_the_positive_one_does(
        component, code, message, power, tmp_path, capsys):
    """T^-p is never built: its graph is the graph of T^p with its halves
    swapped, so a rank-one tower takes a negative power, and a map that does not
    preserve its measure is refused at either sign."""
    from ergolab.cli import main

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"joining": {"kind": "off-diagonal", "params": {
        "component": component, "power": power}}}))
    assert main(["spec", "validate", str(path)]) == code
    out, err = capsys.readouterr()
    assert message in out + err


@pytest.mark.parametrize("power", [MAX_OFF_DIAGONAL_POWER + 1, -MAX_OFF_DIAGONAL_POWER - 1])
def test_off_diagonal_power_beyond_the_cap_is_a_config_error(power, tmp_path, capsys):
    from ergolab.cli import main

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(off_diagonal_doc(power)))
    assert main(["spec", "validate", str(path)]) == 3
    assert "params.power" in capsys.readouterr().err
    with pytest.raises(SpecValidationError) as info:
        build_joining({"kind": "off-diagonal",
                       "params": {"component": {"kind": "no-such-kind"}, "power": power}})
    assert info.value.field == "params.power"  # refused before the component is built


@pytest.mark.parametrize("params, field", [
    ({"factors": 5}, "factors"),
    ({"factors": [5, []]}, "factors"),
    ({"factors": [[0.5], []]}, "factors"),
    ({"factors": [[False], []]}, "factors"),
    ({"base": 5}, "base"),
])
def test_rel_indep_refuses_malformed_factors_and_base(params, field, tmp_path, capsys):
    """These ended in a TypeError or AttributeError traceback, or [[0.5], []]
    and [[False], []] were read as coordinate 0."""
    from ergolab.cli import main

    doc = {"joining": {"kind": "rel-indep", "params": {
        "components": [{"kind": "identity", "params": {"measure": HAAR}}, ROT_THIRD],
        **params}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spec", "validate", str(path)]) == 3
    assert f"{field}: " in capsys.readouterr().err


@pytest.mark.parametrize("factors", [[[5], []], [[0, 0], []], [[], [-1]]])
def test_rel_indep_refuses_factors_that_are_not_distinct_coordinates(factors, tmp_path, capsys):
    """An out-of-range coordinate used to end in an IndexError traceback."""
    from ergolab.cli import main

    doc = {"joining": {"kind": "rel-indep", "params": {
        "components": [{"kind": "identity", "params": {"measure": HAAR}}, ROT_THIRD],
        "factors": factors}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spec", "validate", str(path)]) == 3
    assert "factors: factors must be distinct component coordinates" in capsys.readouterr().err


def test_rel_indep_base_with_another_second_marginal_is_a_config_error(tmp_path, capsys):
    """The diagonal base over atoms at 0 and 1/2 and the twist's Haar base
    integrated e(2 x2) to 1, where the twist gives 0; it validated."""
    from ergolab.cli import main

    doc = {"joining": {"kind": "rel-indep", "params": {
        "components": [{"kind": "identity", "params": {"measure": HALVES}}, TWIST],
        "factors": [[0], [0]], "base": {"kind": "diagonal"}}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spec", "validate", str(path)]) == 3
    assert "second marginal differs from the second factor's measure at character (-2,)" \
        in capsys.readouterr().err


def test_rel_indep_base_whose_second_marginal_cannot_be_checked_is_a_config_error(
        tmp_path, capsys):
    """No character of the u^2 pushforward has an exact integral, so the check
    compared none; the diagonal base, whose second marginal is Haar, validated."""
    from ergolab.cli import main

    power = {"kind": "identity", "params": {"measure": {"kind": "power-law-sampled",
                                                         "exponent": 2}}}
    doc = {"joining": {"kind": "rel-indep", "params": {
        "components": [{"kind": "identity", "params": {"measure": HAAR}}, power],
        "factors": [[0], [0]], "base": {"kind": "diagonal"}}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spec", "validate", str(path)]) == 3
    assert "cannot decide whether the base joining's second marginal is the second " \
        "factor's measure" in capsys.readouterr().err


def test_rel_indep_over_the_product_base_still_derives_the_factors(tmp_path, capsys):
    """The product base returns the product joining, but only after both
    factor systems are derived: a twist exposes no factor on its fiber."""
    from ergolab.cli import main

    doc = {"joining": {"kind": "rel-indep", "params": {
        "components": [TWIST, ROT_THIRD], "factors": [[1], []]}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spec", "validate", str(path)]) == 3
    assert "SkewProductSystem exposes no factor on coordinates (1,)" in capsys.readouterr().err
