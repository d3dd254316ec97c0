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
    MixtureMeasure,
    ProductMeasure,
    RotationSystem,
    SampledPowerMeasure,
    SpecValidationError,
    UnsupportedOperationError,
    build_measure,
    build_system,
    character_at,
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
    a = m.sample_rationals(rng_from_seed(seed), 8)
    b = m.sample_rationals(rng_from_seed(seed), 8)
    assert a == b
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


def test_dirac_rational_and_float_paths_agree():
    m = build_measure(MIX_HALVES)
    rats = m.sample_rationals(rng_from_seed(11), 64)
    floats = m.sample_floats(rng_from_seed(11), 64)
    assert np.array_equal(np.array([[float(c) for c in p] for p in rats]), floats)


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
