"""Tower correlations as integer numerators over one denominator, and exact
Wiener totals summed in integers.

Oracles, kept here as references: the per-lag ``Fraction`` ratios that
``_rank1_indicator_sequence`` built from the lag counts, the
``abs2``/``PhaseSum.sum`` fold that ``wiener_atomic_mass`` used for the prefix
totals of every exact sequence, and the ``PhaseSum.sum`` over one phase per lag
that ``detect_eigenvalue`` used for the rotated sum.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from ergolab.core import Character, LevelIndicator, build_system
from ergolab.exact import PhaseSum
from ergolab.rank1 import Rank1Spec, build_rank1_system, level_lag_counts, word_lengths
from ergolab.schema import SQRT2_ANGLE_40
from ergolab.spectral import (
    correlation_sequence,
    detect_eigenvalue,
    weak_mixing_test,
    wiener_atomic_mass,
)

F = Fraction


def old_tower_ratios(spec, stage, level, depth, N, centered):
    total = word_lengths(depth)
    size = 3 ** (depth - stage)
    counts = level_lag_counts(spec, stage, level, depth, N)
    if centered:
        return [F(c * total - size * size, size * (total - size)) for c in counts]
    return [F(c, total) for c in counts]


def old_wiener_totals(seq):
    """(trace, total, total_exact) by the abs2 / PhaseSum.sum fold."""
    N = seq.N
    prefixes = [max(1, N // 4), max(1, N // 2), N]
    squares = [p.abs2() for p in seq.phases[:N]]
    running, start, totals = PhaseSum.zero(), 0, {}
    for n in prefixes:
        running = PhaseSum.sum([running, *squares[start:n]])
        start = n
        totals[n] = running * F(1, n)
    trace = [(n, totals[n].value().real) for n in prefixes]
    return trace, totals[N].value().real, totals[N].as_rational()


@contextmanager
def counting_fractions():
    """Counts ``Fraction`` constructions in the block, in a one-item list."""
    created = [0]
    original = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        created[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield created
    finally:
        Fraction.__new__ = original


def hexes(trace):
    return [(n, float(v).hex()) for n, v in trace]


TOWER_CASES = [(depth, stage, level, centered)
               for depth in (5, 10)
               for stage in range(6)
               for level in (0, word_lengths(stage) // 2)
               for centered in (False, True)]


@pytest.mark.parametrize("depth, stage, level, centered", TOWER_CASES)
def test_tower_sequence_matches_fraction_ratios(depth, stage, level, centered):
    spec = Rank1Spec.from_rational("1/4", depth)
    N = 300 if depth == 5 else 1024
    expected = old_tower_ratios(spec, stage, level, depth, N, centered)
    seq = correlation_sequence(build_rank1_system(spec),
                               LevelIndicator(stage, level, centered=centered), N)
    assert seq.exact and seq.numerators is not None
    assert [F(c, seq.denominator) for c in seq.numerators] == expected
    values = seq._values
    assert [v.real.hex() for v in values] == [float(x).hex() for x in expected]
    assert not values.imag.any()
    assert seq._phases is None  # not built until asked for
    phases = seq.phases
    assert seq.phases is phases
    assert all(p.terms == PhaseSum.from_rational(x).terms
               for p, x in zip(phases, expected))
    assert all(p == PhaseSum.from_rational(x) for p, x in zip(phases, expected))


def twist_over_atoms():
    return build_system({"kind": "twist", "params": {"base_measure": {
        "kind": "atoms", "atoms": [{"point": ["0"], "weight": "1/6"},
                                   {"point": ["1/3"], "weight": "1/2"},
                                   {"point": ["3/4"], "weight": "1/3"}]}}})


def exact_sequences():
    tower = build_rank1_system(Rank1Spec.from_rational("3/4", 8))
    rotation = build_system({"kind": "rotation", "params": {"angle": "2/7"}})
    decimal = build_system({"kind": "rotation", "params": {
        "angle": "0.4142135623730950488016887242096980785696"}})
    twist = build_system({"kind": "twist", "params": {}})
    yield correlation_sequence(tower, LevelIndicator(2, 4), 500)
    yield correlation_sequence(tower, LevelIndicator(4, 0, centered=False), 64)
    yield correlation_sequence(rotation, Character((3,)), 200)
    yield correlation_sequence(decimal, Character((1,)), 64)
    yield correlation_sequence(twist, Character((0, 1)), 100)
    yield correlation_sequence(twist, Character((1, 2)), 100)
    yield correlation_sequence(twist_over_atoms(), Character((0, 1)), 120)
    yield correlation_sequence(twist_over_atoms(), Character((1, 1)), 120, center=True)


def test_wiener_totals_match_the_phase_sum_fold():
    seqs = list(exact_sequences())
    assert max(len(p.terms) for p in seqs[-1].phases) > 1  # multi-term entries
    for seq in seqs:
        report = wiener_atomic_mass(seq)
        trace, total, total_exact = old_wiener_totals(seq)
        assert hexes(report.trace) == hexes(trace)
        assert report.total_atomic_mass.hex() == total.hex()
        assert report.total_exact == total_exact
        assert type(report.total_exact) is Fraction


def test_weak_mixing_probe_builds_few_fractions():
    """The depth-10 probe builds no Fraction per lag.  With a ratio, a weight
    and a square per lag it built 24,690 for these three stages; what is left
    (about 25 per sequence) is the parameter's digits and the prefix totals."""
    system = build_rank1_system(Rank1Spec.from_rational("1/4", 10))
    family = [LevelIndicator(stage=s, level=0) for s in (3, 4, 5)]
    with counting_fractions() as created:
        report = weak_mixing_test(system, family, N=4096)
    assert report.no_atoms_detected
    assert created[0] <= 32 * len(family)


def depth_10_stage_3_sequence(centered=False):
    system = build_rank1_system(Rank1Spec.from_rational("1/4", 10))
    return system, correlation_sequence(system, LevelIndicator(3, 0), 4096, center=centered)


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("angle", ["0", "1/3", "1/4", SQRT2_ANGLE_40])
def test_rotated_sum_matches_the_phase_sum_fold(angle, centered):
    """The integer lattice sum has the terms of the fold over one PhaseSum per lag."""
    angle = Fraction(angle)
    _, seq = depth_10_stage_3_sequence(centered)
    assert seq.rotated_sum(angle, 4096).terms == PhaseSum.sum(seq.phases[:4096], angle).terms


def test_eigenvalue_query_on_a_tower_builds_few_fractions():
    """One query built a PhaseSum per lag: 4,117 Fractions at angle 1/3 and
    N = 4,096.  Summed per angle n/3 in integers it builds a few per term of
    the sum, and two per term over a 40-digit angle, where every term is distinct."""
    system, seq = depth_10_stage_3_sequence()
    with counting_fractions() as created:
        verdict = detect_eigenvalue(system, None, "1/3", 4096, seq=seq)
    assert not verdict.witnessed and verdict.mass_squared_exact is not None
    assert created[0] <= 32
    angle = Fraction(SQRT2_ANGLE_40)
    with counting_fractions() as created:
        total = seq.rotated_sum(angle, 4096)
    assert created[0] <= 2 * len(total.terms)


def test_depth_30_wiener_total_is_the_integer_sum():
    depth, stage, N = 30, 3, 256
    spec = Rank1Spec.from_rational("1/3", depth)
    system = build_rank1_system(spec)
    seq = correlation_sequence(system, LevelIndicator(stage, 0), N, center=True)
    report = wiener_atomic_mass(seq, grid_max_denominator=1)
    total, size = word_lengths(depth), 3 ** (depth - stage)
    nums = [c * total - size * size for c in level_lag_counts(spec, stage, 0, depth, N)]
    den = size * (total - size)
    assert report.total_exact == F(sum(c * c for c in nums[:N]), den * den * N)
    ratios = old_tower_ratios(spec, stage, 0, depth, N, True)
    assert report.total_exact == sum(x * x for x in ratios[:N]) / N
    probe = weak_mixing_test(system, [LevelIndicator(stage, 0)], N=N)
    assert probe.masses[0][1] == float(report.total_exact)
    assert "map" not in vars(system)  # the depth-30 tower was never built
