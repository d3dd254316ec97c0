"""Systems, measures, orbits, exact integrals, and their invariants."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.core import (
    Character,
    HaarMeasure,
    IdentitySystem,
    ImageMeasure,
    MixtureMeasure,
    ProductMeasure,
    RotationSystem,
    SampledPowerMeasure,
    SpecValidationError,
    UnsupportedOperationError,
    build_measure,
    build_system,
    cyclic_uniform,
    frequency_box,
    integrate_character,
    orbit,
    rng_from_seed,
)
from ergolab.exact import PhaseSum
from ergolab.rank1 import Rank1Spec, rank1_map
from ergolab.schema import parse

F = Fraction


def character_at(k, point):
    """Exact e(<k, point>) at a rational point: the oracle for atom sums."""
    return PhaseSum.unit(sum((ki * ti for ki, ti in zip(k, point)), Fraction(0)))


def rotation(angle):
    return build_system({"kind": "rotation", "params": {"angle": angle}})


def twist(slope="1", intercept="0", base=None):
    params = {"cocycle": {"kind": "affine", "slope": slope, "intercept": intercept}}
    if base is not None:
        params["base_measure"] = base
    return build_system({"kind": "twist", "params": params})


MIX_HALVES = {
    "kind": "atoms",
    "atoms": [
        {"point": ["0"], "weight": "1/2"},
        {"point": ["1/2"], "weight": "1/2"},
    ],
}


# ---------------------------------------------------------------------------
# build_system and apply formulas
# ---------------------------------------------------------------------------

def test_rotation_apply():
    sys_ = rotation("1/2")
    assert sys_.apply((F(0),)) == (F(1, 2),)
    assert sys_.apply((F(3, 4),)) == (F(1, 4),)


def test_twist_apply_matches_formula():
    sys_ = twist()
    assert sys_.apply((F(1, 3), F(0))) == (F(1, 3), F(1, 3))
    assert sys_.apply((F(1, 3), F(5, 6))) == (F(1, 3), F(1, 6))


def test_product_with_identity_factor_is_inert():
    sys_ = build_system({
        "kind": "product",
        "params": {"factors": [
            {"kind": "rotation", "params": {"angle": "1/4"}},
            {"kind": "identity", "params": {"measure": MIX_HALVES}},
        ]},
    })
    assert sys_.apply((F(0), F(1, 2))) == (F(1, 4), F(1, 2))


def test_product_of_rotation_with_one_point_identity():
    point_identity = {"kind": "identity", "params": {"measure": {
        "kind": "atoms", "atoms": [{"point": ["0"], "weight": "1"}]}}}
    sys_ = build_system({
        "kind": "product",
        "params": {"factors": [
            {"kind": "rotation", "params": {"angle": "1/4"}},
            point_identity,
        ]},
    })
    assert sys_.apply((F(1, 8), F(0))) == (F(3, 8), F(0))


def test_group_extension_cyclic():
    sys_ = build_system({
        "kind": "group-extension",
        "params": {
            "base": {"kind": "rotation", "params": {"angle": "1/3"}},
            "cocycle": {"kind": "affine", "slope": "0", "intercept": "1/2"},
            "group": {"kind": "cyclic", "order": 2},
        },
    })
    assert sys_.apply((F(0), F(0))) == (F(1, 3), F(1, 2))
    assert sys_.apply((F(0), F(1, 2))) == (F(1, 3), F(0))


@pytest.mark.parametrize(
    "doc, field_bit",
    [
        ({"kind": "nope", "params": {}}, "kind"),
        ({"kind": "product", "params": {"factors": []}}, "factors"),
        ({"kind": "identity", "params": {"measure": {
            "kind": "atoms", "atoms": [
                {"point": ["0"], "weight": "1/2"},
                {"point": ["1/2"], "weight": "1/3"},
            ]}}}, "atoms"),
        ({"kind": "rotation", "params": {"angle": "x"}}, "angle"),
    ],
)
def test_malformed_specs_name_the_field(doc, field_bit):
    with pytest.raises((SpecValidationError, ValueError)) as err:
        build_system(doc)
    assert field_bit in str(err.value)


ROT_THIRD_OVER_ZERO = {"kind": "rotation", "params": {"angle": "1/3", "measure": {
    "kind": "atoms", "atoms": [{"weight": "1", "point": ["0"]}]}}}
ROT_THIRD_OVER_HALF_ZERO = {"kind": "rotation", "params": {"angle": "1/3", "measure": {
    "kind": "mixture", "components": [
        {"weight": "1/2", "measure": {"kind": "haar", "arity": 1}},
        {"weight": "1/2", "measure": ROT_THIRD_OVER_ZERO["params"]["measure"]}]}}}
#: the same mixture as the one factor of a product measure
ROT_THIRD_OVER_PRODUCT = {"kind": "rotation", "params": {"angle": "1/3", "measure": {
    "kind": "product", "factors": [ROT_THIRD_OVER_HALF_ZERO["params"]["measure"]]}}}


@pytest.mark.parametrize("command, system, weight", [
    ("validate", ROT_THIRD_OVER_ZERO, "1"), ("run", ROT_THIRD_OVER_ZERO, "1"),
    ("validate", ROT_THIRD_OVER_HALF_ZERO, "1/2"), ("run", ROT_THIRD_OVER_HALF_ZERO, "1/2"),
    ("validate", ROT_THIRD_OVER_PRODUCT, "1/2"),
], ids=["validate", "run", "validate-mixture", "run-mixture", "validate-product"])
def test_a_rotation_that_moves_its_atomic_measure_is_a_config_error(
        command, system, weight, tmp_path, capsys):
    """The rotation by 1/3 moves δ₀ to δ_{1/3}, alone or as the atomic half of
    ½ Haar + ½ δ₀ (whose Haar half it keeps); both used to validate and run,
    and the mixture as the one factor of a product still validated."""
    from ergolab.cli import main

    path = tmp_path / "doc.json"
    if command == "validate":
        path.write_text(json.dumps({"system": system}))
        argv = ["spec", "validate", str(path)]
    else:
        path.write_text(json.dumps({"knobs": {"system": system, "N": 16}}))
        argv = ["run", "spectral-probe", "--config", str(path), "--seed", "1",
                "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert ("params.measure: the map does not preserve the atomic measure: the point (0) "
            f"carries weight {weight} before the map and 0 after") in capsys.readouterr().err


POWER_2 = {"kind": "power-law-sampled", "exponent": 2}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("measure, weight", [
    (POWER_2, "1"),
    ({"kind": "mixture", "components": [{"weight": "1/2", "measure": {"kind": "haar"}},
                                        {"weight": "1/2", "measure": POWER_2}]}, "1/2"),
    ({"kind": "product", "factors": [POWER_2]}, "1"),
], ids=["power-law", "half-haar", "product"])
def test_a_rotation_that_moves_its_power_law_part_is_a_config_error(
        command, measure, weight, tmp_path, capsys):
    """The density 1/(2 sqrt x) of the power law of exponent 2 is strictly
    decreasing, so no nonzero rotation keeps it; ½ Haar + ½ of it moves too.
    All three validated, and spectral-probe called its sequence exact."""
    from ergolab.cli import main

    system = {"kind": "rotation", "params": {"angle": "1/3", "measure": measure}}
    path = tmp_path / "doc.json"
    if command == "validate":
        path.write_text(json.dumps({"system": system}))
        argv = ["spec", "validate", str(path)]
    else:
        path.write_text(json.dumps({"knobs": {"system": system, "N": 16}}))
        argv = ["run", "spectral-probe", "--config", str(path), "--seed", "1",
                "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert (f"params.measure: the rotation by 1/3 does not preserve the power-law part "
            f"(weight {weight}) of the measure") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("angle, measure", [
    ("0", POWER_2),
    ("1/3", {"kind": "power-law-sampled", "exponent": 1}),
    ("1/3", {"kind": "mixture", "components": [{"weight": "1", "measure": {"kind": "haar"}},
                                               {"weight": "0", "measure": POWER_2}]}),
], ids=["angle-0", "exponent-1", "zero-weight"])
def test_a_rotation_that_keeps_its_power_law_part_is_accepted(angle, measure):
    """The rotation by 0 keeps every measure, and exponent 1 is Haar."""
    system = build_system({"kind": "rotation", "params": {"angle": angle, "measure": measure}})
    assert system.apply((F(1, 2),)) == ((F(1, 2) + F(angle)) % 1,)


def test_a_rotation_of_the_uniform_thirds_is_accepted():
    thirds = {"kind": "atoms", "atoms": [{"weight": "1/3", "point": [p]}
                                         for p in ("0", "1/3", "2/3")]}
    system = build_system({"kind": "rotation", "params": {"angle": "2/3", "measure": thirds}})
    assert system.apply((F(2, 3),)) == (F(1, 3),)


@st.composite
def rotations_over_atoms(draw):
    """A rational rotation and a finite atom set on the points j/grid, often a
    union of its orbits with one weight per orbit, and sometimes with zero
    weights, which move nothing."""
    q = draw(st.integers(1, 6))
    a, m = draw(st.integers(0, q - 1)), draw(st.integers(1, 12))
    grid = m * q
    starts = draw(st.lists(st.integers(0, grid - 1), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(starts), max_size=len(starts)))
    if sum(weights) == 0:
        weights[0] = 1
    atoms: dict[int, int] = {}
    closed = draw(st.booleans())
    for j, w in zip(starts, weights):
        orbit_length = q if closed else 1
        for i in range(orbit_length):
            point = (j + i * a * m) % grid
            atoms[point] = atoms.get(point, 0) + w
    total = sum(atoms.values())
    return F(a, q), grid, {j: F(w, total) for j, w in atoms.items()}


@settings(max_examples=300, deadline=None)
@given(rotations_over_atoms())
def test_a_rotation_is_accepted_exactly_over_the_atom_sets_it_preserves(case):
    """Oracle: a measure on the cyclic group {j/grid} is invariant under the
    rotation exactly when every Fourier coefficient k < grid of its image
    equals its own."""
    angle, grid, atoms = case
    doc = {"kind": "rotation", "params": {"angle": str(angle), "measure": {
        "kind": "atoms", "atoms": [{"weight": str(w), "point": [str(F(j, grid))]}
                                   for j, w in atoms.items()]}}}
    measure = build_measure(doc["params"]["measure"])
    image = ImageMeasure(measure, RotationSystem(angle, measure))
    invariant = all((image.integrate_character((k,)) - measure.integrate_character((k,))).is_zero()
                    for k in range(grid))
    try:
        build_system(doc)
    except SpecValidationError as err:
        assert err.field == "params.measure"
        assert not invariant
    else:
        assert invariant


@st.composite
def rotations_over_mixtures(draw):
    """A rotation over a mixture of Haar, sometimes a power-law part, and the
    atoms of ``rotations_over_atoms`` spread over one or two atomic components;
    also the atoms' weights by grid index."""
    angle, grid, atoms = draw(rotations_over_atoms())
    haar = F(draw(st.integers(1, 3)), 4)
    power = draw(st.sampled_from([F(0), F(1, 8)]))
    split = draw(st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)))
    groups = [[j for j, s in zip(atoms, split) if s == side] for side in (True, False)]
    components = [{"weight": str(haar), "measure": {"kind": "haar", "arity": 1}}]
    if power:
        components.append({"weight": str(power),
                           "measure": {"kind": "power-law-sampled", "exponent": 2}})
    for group in groups:
        total = sum((atoms[j] for j in group), F(0))
        if total:
            components.append({"weight": str((1 - haar - power) * total), "measure": {
                "kind": "atoms", "atoms": [{"weight": str(atoms[j] / total),
                                            "point": [str(F(j, grid))]} for j in group]}})
    doc = {"kind": "rotation", "params": {"angle": str(angle), "measure": {
        "kind": "mixture", "components": components}}}
    return doc, angle, grid, atoms, power


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rotations_over_mixtures())
def test_a_rotation_is_accepted_exactly_over_the_mixtures_whose_atoms_it_preserves(case):
    """Oracle: the atomic and the absolutely continuous part of an invariant
    measure are each invariant.  Haar is rotation-invariant and a power-law part
    of exponent 2 moves under any nonzero angle, so the mixture is accepted
    exactly when every atom's weight is that of the point the rotation moves it
    to and, with a power-law part, the angle is 0."""
    doc, angle, grid, atoms, power = case
    shift = int(angle * grid)
    invariant = all(atoms.get(j, 0) == atoms.get((j + shift) % grid, 0)
                    for j in range(grid)) and not (power and angle)
    try:
        build_system(doc)
    except SpecValidationError as err:
        assert err.field == "params.measure"
        assert not invariant
    else:
        assert invariant


def test_spec_json_round_trip():
    """A parsed document is a complete spec: parsing it again changes nothing."""
    spec = parse({"kind": "rotation", "params": {"angle": "1/3"}, "precision": 40}, "system")
    assert spec == {"kind": "rotation", "precision": 40,
                    "params": {"angle": "1/3", "measure": {"kind": "haar", "arity": 1}}}
    assert parse(json.loads(json.dumps(spec)), "system") == spec


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_rotation_half():
    assert orbit(rotation("1/2"), ("0",), 3) == [(F(0),), (F(1, 2),), (F(0),)]


def test_orbit_twist():
    pts = orbit(twist(), ("1/3", "0"), 3)
    assert pts == [(F(1, 3), F(0)), (F(1, 3), F(1, 3)), (F(1, 3), F(2, 3))]


def test_orbit_rotation_quarter():
    assert orbit(rotation("1/4"), ("1/8",), 2) == [(F(1, 8),), (F(3, 8),)]


def test_orbit_validates_start():
    with pytest.raises(SpecValidationError):
        orbit(rotation("1/4"), ("1/8", "0"), 2)
    with pytest.raises(SpecValidationError):
        orbit(rotation("1/4"), ("9/8",), 2)
    with pytest.raises(SpecValidationError):
        orbit(rotation("1/4"), ("1/8",), -1)


# ---------------------------------------------------------------------------
# integrate_character
# ---------------------------------------------------------------------------

def test_integrate_lebesgue():
    est = integrate_character(HaarMeasure(1), (1,))
    assert est.exact and est.value == 0
    est0 = integrate_character(HaarMeasure(1), (0,))
    assert est0.exact and est0.value == 1


def test_integrate_mixture_halves():
    m = build_measure(MIX_HALVES)
    est = integrate_character(m, (1,))
    assert est.exact and est.phase_sum.is_zero()
    assert integrate_character(m, (2,)).phase_sum.as_rational() == 1


def test_integrate_arity_mismatch():
    with pytest.raises(SpecValidationError):
        integrate_character(HaarMeasure(2), (1,))


def test_integrate_monte_carlo_reports_errors():
    m = SampledPowerMeasure(2)
    est = integrate_character(m, (1,), seed=7, samples=4096)
    assert not est.exact and est.n_samples == 4096
    assert 0 < est.std_error <= 1 / np.sqrt(4096) + 1e-12
    # oracle: integral of e^(2 pi i u^2) du by midpoint quadrature
    grid = (np.arange(20000) + 0.5) / 20000
    oracle = np.exp(2j * np.pi * grid**2).mean()
    assert abs(est.value - oracle) < 4 * est.std_error + 0.01


def test_integrate_without_seed_raises():
    with pytest.raises(UnsupportedOperationError):
        integrate_character(SampledPowerMeasure(2), (1,))


# ---------------------------------------------------------------------------
# invariants: measure preservation, conjugate symmetry, determinism
# ---------------------------------------------------------------------------

def exact_systems():
    return [
        rotation("1/3"),
        rotation("2/5"),
        build_system({"kind": "rotation",
                      "params": {"angle": "1/2", "measure": MIX_HALVES}}),
        IdentitySystem(build_measure(MIX_HALVES)),
        twist(),
        twist(slope="2", intercept="1/7"),
        build_system({
            "kind": "group-extension",
            "params": {
                "base": {"kind": "rotation", "params": {"angle": "1/3"}},
                "cocycle": {"kind": "affine", "slope": "0", "intercept": "1/2"},
                "group": {"kind": "cyclic", "order": 2},
            },
        }),
        build_system({"kind": "product", "params": {"factors": [
            {"kind": "rotation", "params": {"angle": "1/4"}},
            {"kind": "twist", "params": {}},
        ]}}),
    ]


@pytest.mark.parametrize("system", exact_systems(),
                         ids=lambda s: type(s).__name__ + str(len(s.space)))
def test_measure_preservation_on_character_family(system):
    """integral(char o T) = integral(char) exactly for |k|_inf <= 8."""
    max_freq = 8 if len(system.space) <= 2 else 3
    for k in frequency_box(len(system.space), max_freq):
        before = system.measure.integrate_character(k)
        step = system.char_pullback(k)
        assert step is not None
        k2, phase = step
        after = system.measure.integrate_character(k2).rotated(phase)
        assert (after - before).is_zero(), f"not preserved at {k}"


@pytest.mark.parametrize("system", exact_systems()[:4],
                         ids=lambda s: type(s).__name__)
def test_measure_preservation_pointwise_pushforward(system):
    """Oracle cross-check: push atoms / quadrature grids through the map."""
    atoms = system.measure.enumerate_atoms()
    if atoms is None:
        pytest.skip("continuous measure: covered by the character test")
    for k in frequency_box(len(system.space), 5):
        before = sum((character_at(k, p) * w for w, p in atoms), PhaseSum.zero())
        after = sum((character_at(k, system.apply(p)) * w for w, p in atoms),
                    PhaseSum.zero())
        assert (after - before).is_zero()


def test_conjugate_symmetry_of_integrators():
    measures = [HaarMeasure(2), build_measure(MIX_HALVES), cyclic_uniform(5),
                ProductMeasure([HaarMeasure(1), cyclic_uniform(3)])]
    for m in measures:
        for k in frequency_box(m.arity, 3):
            neg = tuple(-v for v in k)
            assert (m.integrate_character(neg)
                    - m.integrate_character(k).conjugate()).is_zero()


@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_sampler_determinism(seed):
    m = ProductMeasure([HaarMeasure(1), build_measure(MIX_HALVES)])
    fa = m.sample_floats(rng_from_seed(seed), 8)
    fb = m.sample_floats(rng_from_seed(seed), 8)
    assert np.array_equal(fa, fb)


class _TopUnitGenerator:
    """Stands in for a numpy Generator whose every uint64 draw is 2^64 - 1."""

    def integers(self, low, high, size, dtype):
        return np.full(size, 2**64 - 1, dtype=dtype)


@pytest.mark.parametrize("measure", [HaarMeasure(2), SampledPowerMeasure(2)])
def test_float_samplers_stay_below_one(measure):
    # 2^64 - 1 over 2^64 rounds to 1.0 in float64; on the circle that is 0.0
    pts = measure.sample_floats(_TopUnitGenerator(), 5)
    assert pts.shape == (5, measure.arity)
    assert np.all((0.0 <= pts) & (pts < 1.0))
    tower = rank1_map(Rank1Spec.from_rational(F(1, 3), 4))
    image = tower.apply_array(pts[:, 0])
    assert np.all((0.0 <= image) & (image < 1.0))


@pytest.mark.parametrize("measure", [HaarMeasure(3), SampledPowerMeasure(3)])
def test_float_samplers_keep_every_other_draw(measure):
    units = rng_from_seed(12).integers(0, 2**64, size=3 * 4096, dtype=np.uint64)
    expected = units.reshape(-1, measure.arity).astype(np.float64) / 2.0**64
    if isinstance(measure, SampledPowerMeasure):
        expected = expected ** 3
    assert np.array_equal(measure.sample_floats(rng_from_seed(12), expected.shape[0]),
                          expected)


def test_orbit_determinism_same_spec():
    a = build_system({"kind": "twist", "params": {}})
    b = build_system({"kind": "twist", "params": {}})
    assert orbit(a, ("1/7", "2/7"), 50) == orbit(b, ("1/7", "2/7"), 50)


def test_mixture_sampling_distribution():
    m = MixtureMeasure([(F(1, 4), HaarMeasure(1)), (F(3, 4), build_measure(MIX_HALVES))])
    pts = m.sample_floats(rng_from_seed(5), 4000)
    atom_fraction = np.isin(pts[:, 0], [0.0, 0.5]).mean()
    assert abs(atom_fraction - 0.75) < 4 / np.sqrt(4000) + 0.02


# ---------------------------------------------------------------------------
# fibered view
# ---------------------------------------------------------------------------

def test_fibered_consistency_for_finite_support_twist():
    """The flat integral equals the sum over base atoms of w e(<k_b, p>) times
    the fiber measure's integral (|k|_inf <= 8)."""
    base = {
        "kind": "atoms",
        "atoms": [
            {"point": ["1/3"], "weight": "1/2"},
            {"point": ["1/5"], "weight": "1/2"},
        ],
    }
    system = twist(base=base)
    for k in frequency_box(2, 8):
        kb, kf = k[:1], k[1:]
        via_fibers = PhaseSum.zero()
        for w, p in system.base.measure.atoms:
            part = RotationSystem(system.cocycle(p)).measure.integrate_character(kf)
            via_fibers = via_fibers + character_at(kb, p) * part * w
        flat = system.measure.integrate_character(k)
        assert (via_fibers - flat).is_zero(), f"fibered mismatch at {k}"


def test_fibered_fibers_are_rotations_by_the_cocycle():
    """Over an identity base the twist moves the circle over a base point by
    the rotation the cocycle takes there."""
    system = twist(slope="1", intercept="1/7")
    fiber = RotationSystem(system.cocycle((F(1, 3),)))
    assert system.apply((F(1, 3), F(0))) == (F(1, 3),) + fiber.apply((F(0),))
    assert fiber.apply((F(0),)) == (F(1, 3) + F(1, 7),)


def test_character_observable_labels():
    assert Character((1, 0)).label() == "e(1,0)"
    assert Character((1,), centered=True).label() == "centered e(1)"
