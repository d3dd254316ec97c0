"""Float paths of the systems: the unit wrap, apply_array layouts, Monte Carlo
orbits and frequency validation.

Oracles: the concatenate-and-``% 1.0`` float maps, the Monte Carlo loop on
row-major points and the converting ``validate_frequencies`` are kept here as
references; every comparison is bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.core import (
    CIRCLE,
    AffineCocycle,
    DiracMixture,
    IdentitySystem,
    ProductSystem,
    RotationSystem,
    SkewProductSystem,
    SpecValidationError,
    TableCocycle,
    build_system,
    character_array,
    rng_from_seed,
    validate_frequencies,
    wrap_unit,
)
from ergolab.joinings import build_joining, example1_triple, product_joining
from ergolab.spectral import correlation_sequence

F = Fraction


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(bits(a), bits(b))


# ---------------------------------------------------------------------------
# wrap_unit
# ---------------------------------------------------------------------------

WRAP_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1 - 2**-53, -(1 - 2**-53), 0.5, -0.5, 1.0, -1.0,
    2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**52 - 0.5, -(2.0**52 - 0.5),
    2.0**51 + 0.25, -(2.0**51 + 0.25), 2.0**53, -(2.0**53), -1e300, -1.7976931348623157e308,
    1.7976931348623157e308, -123456789.123456789, -2.0**-1074 * 3,
]


def test_wrap_unit_edges_match_remainder():
    xs = np.array(WRAP_EDGES)
    assert_same_bits(wrap_unit(xs), xs % 1.0)
    for x in WRAP_EDGES:
        assert_same_bits(wrap_unit(np.array([x])), np.array([x]) % 1.0)
    # integers and -0.0 wrap to +0.0, not -0.0
    assert_same_bits(wrap_unit(np.array([-0.0, -3.0, 7.0])), np.zeros(3))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_unit_is_remainder_for_every_finite_float(x):
    xs = np.array([x, -x, x * 2.0**-40, x * 2.0**-1000])
    assert_same_bits(wrap_unit(xs), xs % 1.0)
    assert_same_bits(wrap_unit(np.asfortranarray(np.tile(xs, (3, 1)))),
                     np.tile(xs, (3, 1)) % 1.0)


# ---------------------------------------------------------------------------
# apply_array against the concatenate-and-% 1.0 formulas
# ---------------------------------------------------------------------------

def old_evaluate(cocycle, points):
    if isinstance(cocycle, AffineCocycle):
        return (float(cocycle.slope) * points[:, cocycle.coord]
                + float(cocycle.intercept)) % 1.0
    return cocycle.evaluate_array(points)


def old_apply_array(system, points):
    """The float maps as they were written before the shared output buffer."""
    if isinstance(system, IdentitySystem):
        return points
    if isinstance(system, RotationSystem):
        return (points + float(system.angle)) % 1.0
    if isinstance(system, SkewProductSystem):
        b = system.base_arity
        new_base = old_apply_array(system.base, points[:, :b])
        shift = old_evaluate(system.cocycle, points[:, :b])
        new_g = (points[:, b] + shift) % 1.0
        return np.concatenate([new_base, new_g[:, None]], axis=1)
    if isinstance(system, ProductSystem):
        return np.concatenate(
            [old_apply_array(p, points[:, sl])
             for p, sl in zip(system.factors, system._slices)],
            axis=1,
        )
    raise TypeError(type(system))


def twist(slope="1", intercept="0"):
    cocycle = {"kind": "affine", "slope": slope, "intercept": intercept}
    return build_system({"kind": "twist", "params": {"cocycle": cocycle}})


HAAR_TRIPLE = {"kind": "example1-triple", "params": {
    "base_measure": {"kind": "haar", "arity": 1},
    "cocycle": {"kind": "affine", "slope": "3", "intercept": "1/7"},
    "angle": "1/5",
}}

POWER_TRIPLE = {"kind": "example1-triple", "params": {
    "base_measure": {"kind": "power-law-sampled", "exponent": 2},
    "cocycle": {"kind": "affine", "slope": "1", "intercept": "0"},
    "angle": "1/5",
}}

SYSTEMS = {
    "rotation": lambda: RotationSystem(F(1, 3)),
    "rotation-sqrt2": lambda: RotationSystem(F(4142135623730950488, 10**19)),
    "twist": lambda: twist(),
    "shifted-twist": lambda: twist("3", "1/7"),
    "skew-over-rotation": lambda: SkewProductSystem(
        RotationSystem(F(2, 7)), AffineCocycle(F(5, 2), F(1, 9)), CIRCLE),
    "product": lambda: ProductSystem([RotationSystem(F(1, 5)), twist("2", "1/3")]),
    "triple": lambda: build_joining(HAAR_TRIPLE),
    "power-triple": lambda: build_joining(POWER_TRIPLE),
    "product-joining": lambda: product_joining([RotationSystem(F(1, 3)), twist()]),
}


def float_points(arity, n=257, seed=5):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, arity))
    # a few coordinates outside [0, 1) exercise the wrap on both sides
    pts[:8] = rng.uniform(-40.0, 40.0, size=(8, arity))
    pts[8] = -0.0
    return pts


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_array_bitwise_equal_to_concatenate_formula(name, order):
    system = SYSTEMS[name]()
    pts = np.asarray(float_points(len(system.space)), order=order)
    out = system.apply_array(pts)
    assert_same_bits(out, old_apply_array(system, np.ascontiguousarray(pts)))
    if order == "F" and not isinstance(system, RotationSystem):
        # the output keeps the column-major layout the Monte Carlo orbit relies on
        assert out.flags.f_contiguous


def test_shifted_table_cocycle_is_wrapped_sum():
    base = DiracMixture((CIRCLE,), [(F(1, 2), (F(0),)), (F(1, 2), (F(1, 4),))])
    table = TableCocycle((((F(0),), F(7, 8)), ((F(1, 4),), F(1, 3))))
    triple = example1_triple(base, table, F(2, 5))
    shifted = triple.factors[1].cocycle
    pts = np.array([[0.0], [0.25], [0.25], [0.0]])
    assert_same_bits(shifted.evaluate_array(pts),
                     (table.evaluate_array(pts) + float(F(2, 5))) % 1.0)


@pytest.mark.parametrize("k", [(1, 2, -3, 1), (0, -1, 0, 1), (7, -5, 11, 3)])
def test_character_array_does_not_depend_on_layout(k):
    pts = float_points(4, n=4099, seed=11)
    row_major = character_array(k, pts)
    assert_same_bits(character_array(k, np.asfortranarray(pts)).view(np.float64),
                     row_major.view(np.float64))


# ---------------------------------------------------------------------------
# Monte Carlo correlation sequences
# ---------------------------------------------------------------------------

def reference_sampled(system, k, N, center, seed, samples):
    """The Monte Carlo loop on row-major points and the old float maps."""
    kv = np.asarray(k, dtype=np.float64)
    points = system.measure.sample_floats(rng_from_seed(seed), samples)
    f0 = np.exp(2j * np.pi * (points @ kv))
    mean = complex(f0.mean()) if center else 0j
    current = points
    values = np.empty(N + 1, dtype=np.complex128)
    errors = np.empty(N + 1, dtype=np.float64)
    for n in range(N + 1):
        fn = np.exp(2j * np.pi * (current @ kv))
        c_n = complex((fn * np.conj(f0)).mean())
        values[n] = np.conj(c_n)
        errors[n] = math.sqrt(max(0.0, 1.0 - abs(c_n) ** 2) / samples)
        if n < N:
            current = old_apply_array(system, current)
    if center:
        values -= abs(mean) ** 2
    return values, errors


@pytest.mark.parametrize("samples", [1, 7, 64, 300, 2048])
@pytest.mark.parametrize("k", [(0, -1, 0, 1), (1, 2, -3, 1)])
@pytest.mark.parametrize("center", [False, True])
def test_sampled_sequence_bitwise_equal_to_reference_loop(samples, k, center):
    system = build_joining(POWER_TRIPLE)
    seq = correlation_sequence(system, k, 20, center=center, seed=99, samples=samples)
    assert seq.provenance == "monte-carlo"
    values, errors = reference_sampled(system, k, 20, center, 99, samples)
    assert_same_bits(seq.values_nonnegative().view(np.float64), values.view(np.float64))
    assert_same_bits(seq.std_errors, errors)


# ---------------------------------------------------------------------------
# validate_frequencies
# ---------------------------------------------------------------------------

def old_validate_frequencies(space, k, *, field="k"):
    if len(k) != len(space):
        raise SpecValidationError(
            field, f"frequency vector has arity {len(k)}, space has arity {len(space)}"
        )
    if not all(isinstance(v, (int, np.integer)) for v in k):
        raise SpecValidationError(field, "frequencies must be integers")
    return tuple(int(v) for v in k)


def outcome(fn, space, k):
    try:
        return "ok", fn(space, k)
    except SpecValidationError as exc:
        return "error", str(exc)


ENTRIES = st.one_of(
    st.integers(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(arity=st.integers(0, 4), entries=st.lists(ENTRIES, max_size=5),
       as_list=st.booleans())
def test_validate_frequencies_matches_converting_version(arity, entries, as_list):
    space = (CIRCLE,) * arity
    k = list(entries) if as_list else tuple(entries)
    new, old = outcome(validate_frequencies, space, k), outcome(old_validate_frequencies, space, k)
    assert new == old
    if new[0] == "ok":
        assert type(new[1]) is tuple and all(type(v) is int for v in new[1])


def test_validate_frequencies_converts_bools_and_numpy_ints():
    space = (CIRCLE,) * 3
    plain = (1, -2, 3)
    assert validate_frequencies(space, plain) is plain
    for k in [(True, -2, 3), (np.int64(1), -2, 3), [1, -2, 3]]:
        got = validate_frequencies(space, k)
        assert got == (int(k[0]), -2, 3) and all(type(v) is int for v in got)
    with pytest.raises(SpecValidationError, match="arity 2"):
        validate_frequencies(space, (1, 2))
    with pytest.raises(SpecValidationError, match="integers"):
        validate_frequencies(space, (1, 2.0, 3))
