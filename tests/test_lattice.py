"""Exact orbits and atom integrals on the integer lattice.

Oracles, kept here as references: the ``Fraction`` formulas of
``char_pullback`` and ``frequency_shift`` that every system and cocycle used
before the integer step, the per-atom ``character_at`` sum of
``DiracMixture.integrate_character``, the rotated-term ``PhaseSum``
constructor ``detect_eigenvalue`` summed its N terms with, and the shift-then-
reduce form of ``PhaseSum.rotated``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.core import (
    CIRCLE,
    AffineCocycle,
    Character,
    Coord,
    DiracMixture,
    HaarMeasure,
    IdentitySystem,
    ProductSystem,
    RotationSystem,
    SkewProductSystem,
    TableCocycle,
    UnsupportedOperationError,
    build_system,
    factor_slices,
    pullback_orbit,
)
from ergolab.exact import PhaseSum
from ergolab.experiments.identity_disjoint import _stationary_time_average
from ergolab.joinings import _ComposedSystem, product_joining
from ergolab.spectral import correlation_sequence

F = Fraction


def character_at(k, point):
    """Exact e(<k, point>) at a rational point: the oracle for atom sums."""
    return PhaseSum.unit(sum((ki * ti for ki, ti in zip(k, point)), Fraction(0)))


# ---------------------------------------------------------------------------
# the Fraction forms, as the systems computed them before
# ---------------------------------------------------------------------------

def old_frequency_shift(cocycle, kg):
    if isinstance(cocycle, AffineCocycle):
        shift = cocycle.slope * kg
        if shift.denominator != 1:
            return None
        return {cocycle.coord: int(shift)}, (cocycle.intercept * kg) % 1
    return None


def old_pullback(system, k):
    k = tuple(k)
    if isinstance(system, IdentitySystem):
        return k, F(0)
    if isinstance(system, RotationSystem):
        return k, (k[0] * system.angle) % 1
    if isinstance(system, SkewProductSystem):
        b = system.base_arity
        shift = old_frequency_shift(system.cocycle, k[b])
        if shift is None:
            return None
        added, phase = shift
        base_step = old_pullback(system.base, k[:b])
        if base_step is None:
            return None
        kb, base_phase = base_step
        kb = list(kb)
        for coord, extra in added.items():
            kb[coord] += extra
        return tuple(kb) + (k[b],), (phase + base_phase) % 1
    if isinstance(system, ProductSystem):
        out, phase = (), F(0)
        for f, sl in zip(system.factors, factor_slices(system.factors)):
            step = old_pullback(f, k[sl])
            if step is None:
                return None
            out += step[0]
            phase = (phase + step[1]) % 1
        return out, phase
    if isinstance(system, _ComposedSystem):
        phase = F(0)
        for m in system.maps:  # outer to inner
            step = old_pullback(m, k)
            if step is None:
                return None
            k, phase = step[0], (phase + step[1]) % 1
        return k, phase
    return None


def old_integrate_atoms(measure, k):
    total = PhaseSum.zero()
    for w, p in measure.atoms:
        total = total + character_at(k, p) * w
    return total


def old_rotated(s, angle):
    return PhaseSum(tuple(sorted(((a + angle) % 1, w) for a, w in s.terms)))


# ---------------------------------------------------------------------------
# random systems, frequencies and sums
# ---------------------------------------------------------------------------

rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 24))
units = st.builds(lambda p, q: F(p % q, q), st.integers(0, 200), st.integers(1, 24))
# denominators 1-3 make slope * k_g non-integer for some k_g
slopes = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def systems(draw, depth=2):
    kinds = ["identity", "rotation", "table"] + (
        ["skew", "product", "composed"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return IdentitySystem(HaarMeasure(draw(st.integers(1, 2))))
    if kind == "rotation":
        return RotationSystem(draw(rationals))
    if kind == "table":
        cocycle = TableCocycle((((F(0),), F(1, 2)), ((F(1, 2),), F(1, 4))))
        return SkewProductSystem(IdentitySystem(HaarMeasure(1)), cocycle, Coord("cyclic", 4))
    if kind == "skew":
        base = draw(systems(depth=depth - 1))
        coord = draw(st.integers(0, len(base.space) - 1))
        return SkewProductSystem(base, AffineCocycle(draw(slopes), draw(rationals), coord),
                                 CIRCLE)
    if kind == "product":
        return ProductSystem(draw(st.lists(systems(depth=depth - 1), min_size=1, max_size=3)))
    outer = draw(systems(depth=depth - 1))
    inner = draw(st.sampled_from([outer, IdentitySystem(outer.measure)]))
    if isinstance(outer, RotationSystem):
        inner = draw(st.sampled_from([inner, RotationSystem(draw(rationals))]))
    return _ComposedSystem(*[outer] * draw(st.integers(1, 2)), inner)


def frequencies(arity):
    return st.tuples(*[st.integers(-6, 6)] * arity)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_step_matches_the_fraction_pullback(data):
    system = data.draw(systems())
    k = data.draw(frequencies(len(system.space)))
    assert system.char_pullback(k) == old_pullback(system, k)
    step = system.pullback_step(k)
    if step is not None:
        assert 0 <= step[1] < system.phase_modulus
    if isinstance(system, SkewProductSystem):
        cocycle, kg = system.cocycle, k[system.base_arity]
        shift = cocycle.frequency_shift(kg)
        if shift is not None:
            assert 0 <= shift[1] < cocycle.phase_modulus
            shift = shift[0], F(shift[1], cocycle.phase_modulus)
        assert shift == old_frequency_shift(cocycle, kg)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pullback_orbit_matches_iterated_fraction_pullbacks(data):
    system = data.draw(systems())
    k = data.draw(frequencies(len(system.space)))
    n = data.draw(st.integers(1, 12))
    walk = list(pullback_orbit(system, list(k), n))
    expected, current, phase = [], k, F(0)
    for j in range(n):
        expected.append((current, phase))
        step = old_pullback(system, current) if j + 1 < n else None
        if step is None:
            break
        current, phase = step[0], (phase + step[1]) % 1
    Q = system.phase_modulus
    assert [(kn, F(P, Q)) for kn, P in walk] == expected


atom_lists = st.lists(
    st.tuples(st.integers(0, 6), st.tuples(units, units)), min_size=1, max_size=5
).filter(lambda atoms: any(w for w, _ in atoms))


@given(atom_lists, frequencies(2))
@settings(max_examples=200, deadline=None)
def test_lattice_atom_integral_matches_the_character_sum(atoms, k):
    total = sum(w for w, _ in atoms)
    measure = DiracMixture((CIRCLE, CIRCLE), [(F(w, total), p) for w, p in atoms])
    assert measure.integrate_character(k).terms == old_integrate_atoms(measure, k).terms


phase_sums = st.lists(st.tuples(units, rationals), max_size=4).map(PhaseSum)


@given(st.lists(phase_sums, max_size=12), units)
@settings(max_examples=200, deadline=None)
def test_lattice_rotated_sum_matches_the_rotated_terms(sums, angle):
    old = PhaseSum((a + n * angle, w) for n, s in enumerate(sums) for a, w in s.terms)
    assert PhaseSum.sum(sums, angle).terms == old.terms
    assert PhaseSum.sum(sums).terms == PhaseSum(t for s in sums for t in s.terms).terms


@given(phase_sums, rationals, st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_rotated_matches_shift_then_reduce(s, angle, modulus):
    assert s.rotated(angle).terms == old_rotated(s, angle).terms
    assert s.rotated(angle.numerator, modulus).terms == \
        old_rotated(s, F(angle.numerator, modulus)).terms
    assert s.conjugate().terms == \
        PhaseSum(tuple(sorted((-a % 1, w) for a, w in s.terms))).terms


# ---------------------------------------------------------------------------
# Fraction count of the exact correlation path
# ---------------------------------------------------------------------------

def test_exact_sequences_build_one_fraction_per_output_term():
    """Affine-pullback sequences build a Fraction only for a term of the
    output: the orbit and its phases stay integers."""
    created = 0
    original = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        nonlocal created
        created += 1
        return original.__func__(cls, *args, **kwargs)

    cases = [(build_system({"kind": "rotation", "params": {"angle": "2/7"}}), (1,)),
             (build_system({"kind": "twist", "params": {}}), (0, 1))]
    for system, freqs in cases:
        created = 0
        Fraction.__new__ = staticmethod(counting)
        try:
            seq = correlation_sequence(system, Character(freqs), 4096)
        finally:
            Fraction.__new__ = original
        assert seq.provenance == "affine-pullback"
        assert created <= sum(len(p.terms) for p in seq.phases) + 16


# ---------------------------------------------------------------------------
# the stationary time average of identity-disjoint
# ---------------------------------------------------------------------------

TWIST_OVER_ATOMS = {"kind": "twist", "params": {
    "base_measure": {"kind": "atoms", "atoms": [
        {"point": ["0"], "weight": "1/3"}, {"point": ["1/3"], "weight": "2/3"}]},
    "cocycle": {"kind": "affine", "slope": "1", "intercept": "1/5"},
}}


def old_time_average(joining, k, N):
    total, current, phase = PhaseSum.zero(), tuple(k), F(0)
    for _ in range(N):
        total = total + old_rotated(joining.integrate(current), phase)
        current, step_phase = old_pullback(joining, current)
        phase = (phase + step_phase) % 1
    return total * F(1, N)


def test_time_average_of_identity_times_rotation_is_the_orbit_sum():
    atoms = DiracMixture((CIRCLE,), [(F(1, 3), (F(0),)), (F(2, 3), (F(1, 4),))])
    rotation = build_system({"kind": "rotation", "params": {"angle": "2/7"}})
    joining = product_joining([IdentitySystem(atoms), rotation])
    for k in [(1, 1), (2, -3), (0, 1), (3, 0)]:
        average = _stationary_time_average(joining, k, 37)
        assert average.terms == old_time_average(joining, k, 37).terms


def test_time_average_refuses_a_joint_map_that_moves_the_character():
    """identity-disjoint's joint map is Id x R, which fixes every character;
    the twist moves (1, 1) to (2, 1)."""
    rotation = build_system({"kind": "rotation", "params": {"angle": "2/7"}})
    joining = product_joining([build_system(TWIST_OVER_ATOMS), rotation])
    assert joining.char_pullback((1, 1, 2))[0] != (1, 1, 2)
    with pytest.raises(UnsupportedOperationError, match="moves the character"):
        _stationary_time_average(joining, (1, 1, 2), 37)
