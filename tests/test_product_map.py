"""The one product map: ``ProductSystem`` carrying the product measure or a
joining, and the shared threshold sampler of the finite mixtures.

Oracles: the closures ``product_joining`` was built from before it became the
plain product system, and the cumulative-``Fraction`` threshold loop of
``DiracMixture`` and ``MixtureMeasure``, both kept here as references.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ergolab.core import (
    CIRCLE,
    INTERVAL,
    TWO64,
    DiracMixture,
    HaarMeasure,
    MeasureHandle,
    MixtureMeasure,
    ProductMeasure,
    ProductSystem,
    SpecValidationError,
    build_measure,
    build_system,
    factor_slices,
    frequency_box,
    rng_from_seed,
)
from ergolab.exact import PhaseSum
from ergolab.joinings import (
    product_consistency_test,
    product_joining,
    sample_joining,
)

F = Fraction

ROT_THIRD = {"kind": "rotation", "params": {"angle": "1/3"}}
ATOMS = {"kind": "atoms", "atoms": [
    {"point": ["0"], "weight": "1/3"},
    {"point": ["1/4"], "weight": "1/6"},
    {"point": ["2/3"], "weight": "1/2"},
]}
IDENTITY_ATOMS = {"kind": "identity", "params": {"measure": ATOMS}}
IDENTITY_CYCLIC = {"kind": "identity",
                   "params": {"measure": {"kind": "cyclic-uniform", "order": 3}}}
IDENTITY_POWER = {"kind": "identity",
                  "params": {"measure": {"kind": "power-law-sampled", "exponent": 2}}}
IDENTITY_MIXTURE = {"kind": "identity", "params": {"measure": {
    "kind": "mixture", "components": [
        {"weight": "1/4", "measure": {"kind": "haar", "arity": 1}},
        {"weight": "3/4", "measure": ATOMS},
    ]}}}
TWIST_OVER_ATOMS = {"kind": "twist", "params": {"base_measure": ATOMS,
                                                 "cocycle": {"kind": "affine", "slope": "2",
                                                             "intercept": "1/5"}}}
CYCLIC_EXTENSION = {"kind": "group-extension", "params": {
    "base": ROT_THIRD,
    "cocycle": {"kind": "affine", "slope": "0", "intercept": "1/4"},
    "group": {"kind": "cyclic", "order": 4},
}}


class SamplerOnlyMeasure(MeasureHandle):
    """A measure given only by its sampler: no character has an exact
    integral, so every check on it takes the sampled path."""

    def __init__(self, space, sample_floats):
        self.space, self.description = space, "sampler only"
        self.sample_floats = sample_floats

    def _integrate(self, k):
        return None


PRODUCTS = {
    "atoms-rotation": [IDENTITY_ATOMS, ROT_THIRD],
    "atoms-cyclic": [IDENTITY_ATOMS, IDENTITY_CYCLIC],
    "twist-extension": [TWIST_OVER_ATOMS, CYCLIC_EXTENSION],
    "power-rotation": [IDENTITY_POWER, ROT_THIRD],
    "three-factors": [ROT_THIRD, IDENTITY_MIXTURE, TWIST_OVER_ATOMS],
    "cyclic-mixture-atoms": [IDENTITY_CYCLIC, IDENTITY_MIXTURE, IDENTITY_ATOMS],
}


# ---------------------------------------------------------------------------
# the product joining against its former closures
# ---------------------------------------------------------------------------

def old_product_closures(systems):
    """The integrator, sampler and atom enumerator ``product_joining`` used to
    build by hand."""
    slices = []
    lo = 0
    for s in systems:
        slices.append(slice(lo, lo + len(s.space)))
        lo += len(s.space)

    def integrator(k):
        # an exactly zero factor makes the product zero, even beside a factor
        # with no exact integral
        parts = [s.measure.integrate_character(k[sl]) for s, sl in zip(systems, slices)]
        if any(part is not None and not part.terms for part in parts):
            return PhaseSum.zero()
        total = PhaseSum.one()
        for part in parts:
            if part is None:
                return None
            total = total * part
        return total

    def sample_floats(rng, n):
        return np.concatenate([s.measure.sample_floats(rng, n) for s in systems], axis=1)

    def atoms_fn():
        # formerly delegated to ProductMeasure; spelled out here as its formula
        per_factor = [s.measure.enumerate_atoms() for s in systems]
        if any(a is None for a in per_factor):
            return None
        return [(math.prod((w for w, _ in combo), start=Fraction(1)),
                 tuple(c for _, p in combo for c in p))
                for combo in itertools.product(*per_factor)]

    return integrator, sample_floats, atoms_fn


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_joining_equals_its_former_closures(name):
    systems = [build_system(doc) for doc in PRODUCTS[name]]
    joining = product_joining(systems)
    integrator, sample_floats, atoms_fn = old_product_closures(systems)

    assert joining.factors == systems
    for k in frequency_box(len(joining.space), 2):
        new, old = joining.integrate(k), integrator(k)
        assert (new is None) == (old is None), k
        if new is not None:
            assert (new - old).is_zero(), k
    for seed in (0, 7, 2024):
        floats = sample_joining(joining, seed, 300)
        reference = sample_floats(rng_from_seed(seed), 300)
        assert floats.shape == reference.shape
        assert np.array_equal(floats.view(np.uint64), reference.view(np.uint64))
    assert joining.measure.enumerate_atoms() == atoms_fn()


def test_sampled_consistency_of_the_product_joining_equals_the_hand_built_one():
    identity, rotation = build_system(IDENTITY_ATOMS), build_system(ROT_THIRD)
    _, sample_floats, _ = old_product_closures([identity, rotation])
    hand_built = ProductSystem([identity, rotation], measure=SamplerOnlyMeasure(
        identity.space + rotation.space, sample_floats))
    for seed in (3, 2024):
        new = product_consistency_test(product_joining([identity, rotation]), degree=2,
                                       mode="sampled", samples=2048, seed=seed)
        old = product_consistency_test(hand_built, degree=2, mode="sampled",
                                       samples=2048, seed=seed)
        assert (new.verdict, new.witness, new.mode, new.note) == \
            (old.verdict, old.witness, old.mode, old.note)
        assert new.rows == old.rows


# ---------------------------------------------------------------------------
# ProductSystem with a joint measure
# ---------------------------------------------------------------------------

def test_product_system_defaults_to_the_product_measure():
    system = ProductSystem([build_system(ROT_THIRD), build_system(IDENTITY_ATOMS)])
    assert isinstance(system.measure, ProductMeasure)
    assert system.measure.space == system.space


@pytest.mark.parametrize("measure", [
    HaarMeasure(3),
    HaarMeasure(1),
    HaarMeasure((CIRCLE, INTERVAL)),
])
def test_product_system_refuses_a_measure_on_the_wrong_space(measure):
    rotation = build_system(ROT_THIRD)
    with pytest.raises(SpecValidationError) as info:
        ProductSystem([rotation, rotation], measure=measure)
    assert info.value.field == "measure"


def test_product_system_accepts_a_measure_on_its_space():
    rotation = build_system(ROT_THIRD)
    measure = HaarMeasure(2)
    assert ProductSystem([rotation, rotation], measure=measure).measure is measure


def test_factor_slices_tile_the_concatenated_space():
    systems = [build_system(doc) for doc in PRODUCTS["three-factors"]]
    assert factor_slices(systems) == [slice(0, 1), slice(1, 2), slice(2, 4)]
    assert factor_slices([]) == []


# ---------------------------------------------------------------------------
# the shared threshold sampler
# ---------------------------------------------------------------------------

def old_indices(weights, rng, n):
    """The cumulative-Fraction threshold loop both mixtures used to carry."""
    cum = Fraction(0)
    thresholds = []
    for w in weights[:-1]:
        cum += w
        thresholds.append(int(cum * TWO64))
    units = rng.integers(0, TWO64, size=n, dtype=np.uint64)
    return np.searchsorted(np.asarray(thresholds, dtype=np.uint64), units, side="right")


WEIGHTS = [
    [F(1)],
    [F(1, 2), F(1, 2)],
    [F(1, 3), F(1, 7), F(11, 21)],
    [F(1, 4), F(0), F(3, 4)],
    [F(1, 2**64 + 1), F(2**64, 2**64 + 1)],
    [F(1, 10)] * 10,
    [F(999, 1000), F(1, 2000), F(1, 2000)],
]
SEEDS = (0, 1, 31415, 2024)


def distinct_points(count):
    return [(F(j, count + 1),) for j in range(count)]


@pytest.mark.parametrize("weights", WEIGHTS, ids=range(len(WEIGHTS)))
def test_dirac_mixture_draws_the_former_atom_indices(weights):
    points = distinct_points(len(weights))
    mixture = DiracMixture((CIRCLE,), list(zip(weights, points)))
    for seed in SEEDS:
        expected = old_indices(weights, rng_from_seed(seed), 500)
        floats = mixture.sample_floats(rng_from_seed(seed), 500)
        table = np.array([[float(p[0])] for p in points])
        assert np.array_equal(floats, table[expected])


@pytest.mark.parametrize("weights", WEIGHTS, ids=range(len(WEIGHTS)))
def test_mixture_measure_draws_the_former_component_indices(weights):
    points = distinct_points(len(weights))
    mixture = MixtureMeasure([
        (w, DiracMixture((CIRCLE,), [(F(1), p)])) for w, p in zip(weights, points)
    ])
    for seed in SEEDS:
        expected = old_indices(weights, rng_from_seed(seed), 300)
        floats = mixture.sample_floats(rng_from_seed(seed), 300)
        table = np.array([[float(p[0])] for p in points])
        assert np.array_equal(floats, table[expected])


def test_trailing_zero_weights_are_never_drawn():
    # the former loop's last threshold was 2^64 here, which overflows uint64
    points = distinct_points(4)
    weights = [F(1, 2), F(1, 2), F(0), F(0)]
    mixture = DiracMixture((CIRCLE,), list(zip(weights, points)))
    for seed in SEEDS:
        expected = old_indices(weights[:2], rng_from_seed(seed), 400)
        drawn = mixture.sample_floats(rng_from_seed(seed), 400)
        assert drawn[:, 0].tolist() == [float(points[i][0]) for i in expected]
    components = MixtureMeasure([(w, DiracMixture((CIRCLE,), [(F(1), p)]))
                                 for w, p in zip(weights, points)])
    assert set(components.sample_floats(rng_from_seed(3), 400)[:, 0]) <= {0.0, 0.2}


HAAR = {"kind": "haar", "arity": 1}


@pytest.mark.parametrize("doc, field", [
    ({"kind": "mixture", "components": [{"weight": "2", "measure": HAAR},
                                        {"weight": "-1", "measure": HAAR}]}, "components"),
    ({"kind": "mixture", "components": [{"weight": "1/2", "measure": HAAR},
                                        {"weight": "1/3", "measure": HAAR}]}, "components"),
    ({"kind": "atoms", "atoms": [{"point": ["0"], "weight": "3/2"},
                                 {"point": ["1/2"], "weight": "-1/2"}]}, "atoms"),
    ({"kind": "atoms", "atoms": [{"point": ["0"], "weight": "1/2"}]}, "atoms"),
])
def test_mixture_weights_must_be_a_probability_vector(doc, field):
    with pytest.raises(SpecValidationError) as info:
        build_measure(doc)
    assert info.value.field == field

