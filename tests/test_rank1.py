"""Rank-one cutting-and-stacking: words, maps, dichotomy, continuity."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.core import (
    CIRCLE,
    DepthExceededError,
    DiracMixture,
    HaarMeasure,
    SpecValidationError,
    UndecidableInputError,
    orbit,
    rng_from_seed,
)
from ergolab.rank1 import (
    MAX_TOWER_LEVELS,
    Rank1Map,
    Rank1Spec,
    agreement_stage,
    binary_digits,
    build_rank1_system,
    copy_offsets,
    dyadic_equivalence,
    level_lag_counts,
    rank1_map,
    rank1_word,
    rank1_words,
    stage_level_positions,
    word_lengths,
)

F = Fraction


def text(word: int) -> str:
    """A bit-string word as letters: first letter most significant, T = 1, s = 0."""
    return format(word, "b").replace("1", "T").replace("0", "s")


def letter_words(digits):
    """Reference: the stage words B_0..B_n as text, by the letter recursion."""
    words = ["T"]
    for d in digits:
        b = words[-1]
        words.append(b + "s" + b + b if d == 0 else b + b + "s" + b)
    return words


# ---------------------------------------------------------------------------
# digits
# ---------------------------------------------------------------------------

def test_binary_digit_examples():
    assert binary_digits(F(1, 4), 4) == (0, 1, 0, 0)
    assert binary_digits(F(3, 4), 4) == (1, 1, 0, 0)
    assert binary_digits(F(1, 3), 8) == (0, 1, 0, 1, 0, 1, 0, 1)
    assert binary_digits(F(0), 3) == (0, 0, 0)
    assert binary_digits(F(1), 3) == (1, 1, 1)


@given(num=st.integers(min_value=0, max_value=999), den=st.integers(min_value=1, max_value=999))
@settings(max_examples=60, deadline=None)
def test_binary_digits_reconstruct_the_number(num, den):
    """Oracle: the digit prefix reconstructs a up to 2^-n."""
    a = F(num % (den + 1), den + 1) if num % (den + 1) <= den + 1 else F(0)
    a = a if a <= 1 else F(1)
    digits = binary_digits(a, 20)
    partial = sum(F(d, 2 ** (i + 1)) for i, d in enumerate(digits))
    assert partial <= a < partial + F(1, 2**20) or a == 1


def test_dyadic_rationals_terminate_in_zeros():
    # the convention bans expansions ending in all ones
    assert binary_digits(F(3, 8), 8) == (0, 1, 1, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_word_stage_zero():
    spec = Rank1Spec.from_rational("2/3", 4)
    stage = rank1_word(spec, 0)
    assert stage.word == 0b1 and stage.height == 1 and stage.length == 1


def test_word_lengths_and_heights_table():
    spec = Rank1Spec.from_rational("1/3", 6)
    lengths = [rank1_word(spec, n).length for n in range(4)]
    heights = [rank1_word(spec, n).height for n in range(4)]
    assert lengths == [1, 4, 13, 40]
    assert heights == [1, 3, 9, 27]


def test_word_first_stage_by_digit():
    assert rank1_word(Rank1Spec.from_digits([0]), 1).word == 0b1011  # TsTT
    assert rank1_word(Rank1Spec.from_digits([1]), 1).word == 0b1101  # TTsT


@given(digits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=9))
@settings(max_examples=40, deadline=None)
def test_word_recursion_invariants(digits):
    spec = Rank1Spec.from_digits(digits)
    assert list(rank1_words(spec, len(digits))) == [
        rank1_word(spec, n).word for n in range(len(digits) + 1)]
    prev = rank1_word(spec, 0)
    for n in range(1, len(digits) + 1):
        cur = rank1_word(spec, n)
        assert cur.length == 3 * prev.length + 1
        assert cur.height == 3 * prev.height
        assert text(cur.word).count("s") == cur.length - cur.height
        # exactly three block copies of the previous word plus one new spacer
        if digits[n - 1] == 0:
            assert text(cur.word) == text(prev.word) + "s" + text(prev.word) * 2
        else:
            assert text(cur.word) == text(prev.word) * 2 + "s" + text(prev.word)
        prev = cur


@given(digits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_bit_words_spell_the_letter_recursion(digits):
    """Each walked bit word, read as letters, is the letter recursion's word;
    its bit length and bit count are that word's length and number of T; and
    the map of every depth carries the word walked to that stage."""
    spec = Rank1Spec.from_digits(digits)
    walked = list(rank1_words(spec, len(digits)))
    for d, (word, letters) in enumerate(zip(walked, letter_words(digits), strict=True)):
        assert text(word) == letters
        assert word.bit_length() == len(letters) == word_lengths(d)
        assert word.bit_count() == letters.count("T") == 3**d
        if d >= 1:
            assert rank1_map(spec, d).word == word


def test_word_depth_exceeded():
    spec = Rank1Spec.from_rational("1/3", 3)
    with pytest.raises(DepthExceededError):
        rank1_word(spec, 4)


def test_word_stage_max_14():
    spec = Rank1Spec.from_rational("1/3", 14)
    stage = rank1_word(spec, 14)
    assert stage.length == word_lengths(14) == (3**15 - 1) // 2
    assert stage.height == 3**14


def test_walking_the_words_to_stage_14_holds_two_stages_at_most():
    """Stage n is shifted and or-ed from stage n-1 alone: B_13 (L_13 bits),
    the two-copy and the three-copy temporaries and the result (2, 3 and 3 x
    L_13 bits) peak at 7 x L_13 bits in 30-bit digits of 4 bytes, about
    0.31 x L_14 bytes.  Text words, one byte per letter, peaked at 4/3 x L_14."""
    spec = Rank1Spec.from_rational("1/3", 14)
    tracemalloc.start()
    try:
        for n, word in enumerate(rank1_words(spec, 14)):
            assert word.bit_length() == word_lengths(n) and word.bit_count() == 3**n
        del word
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 14
    assert peak < 0.35 * word_lengths(14)


@pytest.mark.parametrize("depth", [20, 40])
def test_oversized_towers_are_refused_before_allocating(depth, monkeypatch):
    def allocation_reached(self, n):
        raise AssertionError(f"the guard let a depth-{depth} tower through")

    # every function that builds a tower reads the digits right before it allocates
    monkeypatch.setattr(Rank1Spec, "digit_stream", allocation_reached)
    spec = Rank1Spec.from_rational("1/3", depth)
    tracemalloc.start()
    try:
        with pytest.raises(DepthExceededError, match="L_14"):
            rank1_map(spec)
        with pytest.raises(DepthExceededError, match="L_14"):
            rank1_word(spec, depth)
        with pytest.raises(DepthExceededError, match="L_14"):
            rank1_words(spec, depth)  # refused when called, before the first next()
        with pytest.raises(DepthExceededError, match="L_14"):
            stage_level_positions(spec, 3, 0, depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert word_lengths(14) == MAX_TOWER_LEVELS < word_lengths(15)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def test_depth1_map_structure():
    m = rank1_map(Rank1Spec.from_digits([0]))
    assert m.length == 4
    assert m.undefined_measure == F(1, 4)
    # three levels carry a unit translation each; the top level has none
    translations = np.diff(m.level_starts)
    assert len(translations) == 3
    assert list(m.level_starts) == [0, 3, 1, 2]


def concatenated_tower(digits):
    """Reference: int64 level starts and text word rebuilt at every stage by
    concatenating the three scaled columns and the spacer drawn from the reserve."""
    starts = np.array([0], dtype=np.int64)
    word = "T"
    for d in digits:
        scaled = starts * 3
        spacer = np.array([3 * len(starts)], dtype=np.int64)
        if d == 0:
            starts = np.concatenate([scaled, spacer, scaled + 1, scaled + 2])
            word = word + "s" + word + word
        else:
            starts = np.concatenate([scaled, scaled + 1, spacer, scaled + 2])
            word = word + word + "s" + word
    return starts, word


@pytest.mark.parametrize("depth", range(1, 9))
def test_in_place_map_matches_the_concatenated_tower(depth):
    """Every digit stream of the given length."""
    for bits in range(2**depth):
        digits = [(bits >> i) & 1 for i in range(depth)]
        m = rank1_map(Rank1Spec.from_digits(digits))
        starts, word = concatenated_tower(digits)
        assert m.level_starts.dtype == np.int32
        assert np.array_equal(m.level_starts, starts)
        assert text(m.word) == word


def test_map_tables_are_built_on_first_use():
    m = rank1_map(Rank1Spec.from_rational("1/3", 5))
    assert "_level_of_unit" not in vars(m)
    assert m.level_of(F(0)) == 0
    assert m._level_of_unit.dtype == np.int32
    assert np.array_equal(m._level_of_unit[m.level_starts], np.arange(m.length))
    assert m.apply(F(0)) == F(int(m.level_starts[1]), m.length)


def test_level_of_floors_x_times_the_length_exactly():
    """Every unit's left end and midpoint, and the point just below its right
    end, lie in the level that holds the unit; an int argument reads as x."""
    m = rank1_map(Rank1Spec.from_digits([0, 1, 1]))
    L = m.length
    for level, unit in enumerate(int(u) for u in m.level_starts):
        assert m.level_of(F(unit, L)) == level
        assert m.level_of(F(2 * unit + 1, 2 * L)) == level
        assert m.level_of(F(unit + 1, L) - F(1, 10**30)) == level
    assert m.level_of(0) == m.level_of(F(0)) == 0
    with pytest.raises(SpecValidationError):
        m.level_of(1)


def test_map_pieces_partition_support_exactly():
    for depth in range(1, 13):
        m = rank1_map(Rank1Spec.from_rational("1/3", depth))
        starts = sorted(int(s) for s in m.level_starts)
        assert starts == list(range(m.length))  # unit intervals tile the space
        sources = sorted(int(s) for s in m.level_starts[:-1])
        images = sorted(int(s) for s in m.level_starts[1:])
        assert len(set(sources)) == m.length - 1
        assert len(set(images)) == m.length - 1
        # translations preserve piece lengths by construction (all one unit)
        assert m.undefined_measure <= F(1, 3) ** (depth - 1) * F(1, 3)


def test_map_measure_preservation_is_translation():
    m = rank1_map(Rank1Spec.from_rational("2/5", 6))
    for i, t in enumerate(np.diff(m.level_starts)):
        lo, hi = m.level_interval(i)
        assert hi - lo == F(1, m.length)
        assert 0 <= lo + F(int(t), m.length) and hi + F(int(t), m.length) <= 1


def test_map_word_coherence():
    """The level order of the constructed tower spells exactly the stage word."""
    for depth in (1, 2, 3, 6, 9, 12):
        spec = Rank1Spec.from_rational("1/3", depth)
        assert rank1_map(spec, depth).word == rank1_word(spec, depth).word


def test_itinerary_spells_word_small_depth():
    spec = Rank1Spec.from_digits([0, 1, 0])
    m = rank1_map(spec)
    word = text(rank1_word(spec, 3).word)
    x = m.level_interval(0)[0] + F(1, 3 * m.length)
    letters = []
    for step in range(m.length):
        level = m.level_of(x)
        assert level == step
        letters.append(word[level])
        if step < m.length - 1:
            x = m.apply(x)
    assert "".join(letters) == word


def test_map_apply_exact_and_depth_exceeded():
    m = rank1_map(Rank1Spec.from_digits([0]))
    # depth-1, digit 0 tower: levels are [0,1/4) -> [1,5/4)/raw... normalized:
    # level order is starts [0, 3, 1, 2] / 4
    assert m.apply(F(0)) == F(3, 4)
    assert m.apply(F(3, 4)) == F(1, 4)
    assert m.apply(F(1, 4)) == F(2, 4)
    with pytest.raises(DepthExceededError):
        m.apply(F(2, 4))  # top level
    with pytest.raises(SpecValidationError):
        m.apply(F(3, 2))


def test_system_wrapper_orbit_and_depth_error():
    sys_ = build_rank1_system(Rank1Spec.from_digits([0]))
    path = orbit(sys_, ("0",), 4)
    assert [p[0] for p in path] == [F(0), F(3, 4), F(1, 4), F(1, 2)]
    with pytest.raises(DepthExceededError):
        orbit(sys_, ("0",), 5)


def test_map_array_path_matches_exact():
    m = rank1_map(Rank1Spec.from_rational("1/3", 5))
    xs = np.array([0.0, 1 / 8, 1 / 2, 5 / 8])
    out = m.apply_array(xs)
    for x, y in zip(xs, out):
        assert m.apply(F(x)) == pytest.approx(y)


def test_stage_level_positions_consistency():
    """Oracle: positions of stage-k levels inside the depth-d word are exactly
    the letter positions of the corresponding block copies."""
    spec = Rank1Spec.from_rational("1/3", 6)
    for stage in (0, 1, 2):
        width = 3 ** (6 - stage)
        seen = set()
        for level in range(word_lengths(stage)):
            pos = stage_level_positions(spec, stage, level, 6)
            assert pos.size == width
            assert len(set(pos.tolist())) == width
            seen.update(pos.tolist())
        # stage-k levels cover exactly the levels whose mass predates stage k+1
        assert len(seen) == word_lengths(stage) * width


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=8), st.data())
def test_level_positions_come_out_sorted_without_a_sort(digits, data):
    """The offset-major sum equals the level-major sum sorted, dtype included."""
    spec = Rank1Spec.from_digits(digits)
    depth = data.draw(st.integers(0, len(digits)))
    stage = data.draw(st.integers(0, depth))
    level = data.draw(st.integers(0, word_lengths(stage) - 1))
    reference = np.array([level], dtype=np.int32)
    length = word_lengths(stage)
    for d in digits[stage:depth]:
        offs = np.array(copy_offsets(length, d), dtype=np.int32)
        reference = (reference[:, None] + offs[None, :]).ravel()
        length = 3 * length + 1
    reference.sort()
    positions = stage_level_positions(spec, stage, level, depth)
    assert positions.dtype == reference.dtype
    assert np.array_equal(positions, reference)


def test_level_positions_are_int32_and_stop_with_the_towers_at_depth_14():
    """Positions index a depth-d tower, so even three of them are refused past
    depth 14; int32 indices would wrap at depth 20."""
    spec = Rank1Spec.from_rational("1/3", 20)
    top = stage_level_positions(spec, 13, 0, 14)
    assert top.dtype == np.int32
    assert top.tolist() == [0, word_lengths(13), 2 * word_lengths(13) + 1]
    with pytest.raises(DepthExceededError, match="L_14"):
        stage_level_positions(spec, 18, 0, 20)


def test_level_zero_positions_are_base_mass():
    spec = Rank1Spec.from_digits([0, 0])
    pos = stage_level_positions(spec, 0, 0, 2)
    word = text(rank1_word(spec, 2).word)
    assert all(word[p] == "T" for p in pos)
    assert pos.size == 9


def fft_lag_counts(spec, stage, level, depth, N):
    """Reference: circular autocorrelation of the level's 0/1 mask, by FFT and rounding."""
    total = word_lengths(depth)
    mask = np.zeros(total, dtype=np.float64)
    mask[stage_level_positions(spec, stage, level, depth)] = 1.0
    spectrum = np.fft.rfft(mask)
    counts = np.rint(np.fft.irfft(np.abs(spectrum) ** 2, n=total)).astype(np.int64)
    return [int(counts[n % total]) for n in range(N + 1)]


def pair_lag_counts(spec, stage, level, depth, N):
    """Reference: the differences q - p mod L_d of all ordered pairs of positions."""
    total = word_lengths(depth)
    pos = stage_level_positions(spec, stage, level, depth)
    counts = np.bincount(((pos[None, :] - pos[:, None]) % total).ravel(), minlength=total)
    return [int(counts[n % total]) for n in range(N + 1)]


@pytest.mark.parametrize("a", ["1/4", "1/3", "3/4"])
@pytest.mark.parametrize("depth", [5, 10])
def test_level_lag_counts_match_fft(a, depth):
    spec = Rank1Spec.from_rational(a, depth)
    for stage in range(6):
        for level in {0, word_lengths(stage) // 2, word_lengths(stage) - 1}:
            counts = level_lag_counts(spec, stage, level, depth, 4096)
            assert counts == fft_lag_counts(spec, stage, level, depth, 4096), (stage, level)
            assert counts[0] == 3 ** (depth - stage)
            assert all(type(c) is int for c in counts)


@st.composite
def lag_cases(draw):
    digits = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6))
    depth = len(digits)
    stage = draw(st.integers(0, depth))
    level = draw(st.integers(0, word_lengths(stage) - 1))
    N = draw(st.integers(0, 2 * word_lengths(depth) + 3))
    return Rank1Spec.from_digits(digits), stage, level, depth, N


@given(lag_cases())
@settings(max_examples=60, deadline=None)
def test_level_lag_counts_match_all_pairs(case):
    spec, stage, level, depth, N = case
    counts = level_lag_counts(spec, stage, level, depth, N)
    assert counts == pair_lag_counts(spec, stage, level, depth, N)
    assert counts == fft_lag_counts(spec, stage, level, depth, N)


def test_level_lag_counts_validate_their_inputs():
    spec = Rank1Spec.from_rational("1/3", 4)
    with pytest.raises(SpecValidationError):
        level_lag_counts(spec, 2, 13, 4, 8)
    with pytest.raises(SpecValidationError):
        level_lag_counts(spec, 3, 0, 2, 8)
    with pytest.raises(DepthExceededError):
        level_lag_counts(spec, 3, 0, 5, 8)


# ---------------------------------------------------------------------------
# dichotomy and continuity
# ---------------------------------------------------------------------------

def test_dichotomy_table():
    a = Rank1Spec.from_rational("1/4", 4)
    b = Rank1Spec.from_rational("3/4", 4)
    c = Rank1Spec.from_rational("1/3", 4)
    assert dyadic_equivalence(a, b).verdict == "isomorphic-family"
    assert dyadic_equivalence(a, c).verdict == "disjoint-family"
    assert dyadic_equivalence(b, c).verdict == "disjoint-family"
    assert dyadic_equivalence(a, a).verdict == "isomorphic-family"


def test_dichotomy_zero_vs_third():
    zero = Rank1Spec.from_rational("0", 4)
    third = Rank1Spec.from_rational("1/3", 4)
    verdict = dyadic_equivalence(zero, third)
    assert verdict.verdict == "disjoint-family"
    assert verdict.difference == F(1, 3)


@given(
    num=st.integers(min_value=0, max_value=63),
    den_pow=st.integers(min_value=0, max_value=6),
    base_num=st.integers(min_value=0, max_value=30),
    base_den=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_dichotomy_dyadic_shift_is_isomorphic(num, den_pow, base_num, base_den):
    base = F(base_num % (base_den + 1), base_den)
    base = base if base <= 1 else base % 1
    shift = F(num, 2**den_pow) % 1
    other = (base + shift)
    if other > 1:
        other -= 1
    a = Rank1Spec.from_rational(base, 2)
    b = Rank1Spec.from_rational(other, 2)
    assert dyadic_equivalence(a, b).verdict == "isomorphic-family"


def test_dichotomy_rejects_digit_streams():
    a = Rank1Spec.from_digits([0, 1, 0, 1])
    b = Rank1Spec.from_digits([0, 1, 1, 0])
    with pytest.raises(UndecidableInputError) as err:
        dyadic_equivalence(a, b)
    assert err.value.stages_agreeing == 2


def test_agreement_stage_examples():
    quarter = Rank1Spec.from_rational("1/4", 8)
    three_q = Rank1Spec.from_rational("3/4", 8)
    assert agreement_stage(quarter, three_q, 8).first_disagreement == 1
    third = Rank1Spec.from_rational("1/3", 8)
    five_tw = Rank1Spec.from_rational("5/12", 8)
    assert agreement_stage(third, five_tw, 8).first_disagreement == 3
    same = agreement_stage(third, third, 8)
    assert same.first_disagreement is None and same.agrees_through == 8


def test_continuity_prefix_agreement_forces_identical_stages():
    """Exhaustive over digit prefixes of length <= 6."""
    for plen in range(1, 7):
        for bits in range(2**plen):
            digits = tuple((bits >> i) & 1 for i in range(plen))
            s1 = Rank1Spec.from_digits(digits + (0,))
            s2 = Rank1Spec.from_digits(digits + (1,))
            assert rank1_word(s1, plen).word == rank1_word(s2, plen).word
            m1 = rank1_map(s1, plen)
            m2 = rank1_map(s2, plen)
            assert np.array_equal(m1.level_starts, m2.level_starts)


# ---------------------------------------------------------------------------
# sampled parameters
# ---------------------------------------------------------------------------

def sampled_systems(base, depth, seed, n):
    """(a, T_a) at the given depth for parameters a drawn from the base measure:
    each float draw is read as the atom it is the float of, or else exactly."""
    atoms = {float(p[0]): p[0] for _, p in base.enumerate_atoms() or ()}
    draws = base.sample_floats(rng_from_seed(seed), n)[:, 0].tolist()
    return [(a, build_rank1_system(Rank1Spec.from_rational(a, depth)))
            for a in (atoms.get(x, F(x)) for x in draws)]


def test_make_sa_haar_base_fiber_invariants():
    for _, system in sampled_systems(HaarMeasure(1), depth=4, seed=9, n=3):
        m = system.map
        assert sorted(int(s) for s in m.level_starts) == list(range(m.length))
        assert m.undefined_measure == F(1, m.length)


def test_make_sa_dirac_base_single_fiber():
    base = DiracMixture((CIRCLE,), [(F(1), (F(1, 3),))])
    direct = rank1_map(Rank1Spec.from_rational("1/3", 6))
    [(a, system)] = sampled_systems(base, depth=6, seed=0, n=1)
    assert a == F(1, 3)
    assert np.array_equal(system.map.level_starts, direct.level_starts)


def test_make_sa_sampled_fibers_nondyadic_difference_disjoint():
    base = DiracMixture((CIRCLE,), [
        (F(1, 2), (F(1, 3),)),
        (F(1, 2), (F(1, 4),)),
    ])
    systems = dict(sampled_systems(base, depth=4, seed=3, n=16))
    assert set(systems) == {F(1, 3), F(1, 4)}
    verdict = dyadic_equivalence(systems[F(1, 3)].r1spec, systems[F(1, 4)].r1spec)
    assert verdict.verdict == "disjoint-family"


def base_levels(spec, depth):
    return stage_level_positions(spec, 0, 0, depth)


@pytest.mark.parametrize("a", ["1/4", "3/4", "1/3"])
@pytest.mark.parametrize("depth", [1, 2, 5, 10])
def test_itinerary_coherence_holds_on_the_built_tower(a, depth):
    from ergolab.experiments.rank1_family import _itinerary_coherent

    spec = Rank1Spec.from_rational(a, depth)
    assert _itinerary_coherent(rank1_map(spec, depth), rank1_word(spec, depth).word,
                               base_levels(spec, depth))


def test_itinerary_coherence_fails_when_a_base_and_a_spacer_level_swap():
    """Swapping a T level with an s level keeps the map a partition of the
    space, but moves a base unit onto a spacer letter."""
    from ergolab.experiments.rank1_family import _itinerary_coherent

    spec = Rank1Spec.from_rational("1/4", 10)
    m = rank1_map(spec, 10)
    assert (text(m.word)[3], text(m.word)[10]) == ("T", "s")
    starts = m.level_starts.copy()
    starts[[3, 10]] = starts[[10, 3]]
    swapped = Rank1Map(depth=10, level_starts=starts, word=m.word)
    assert sorted(starts.tolist()) == list(range(m.length))
    assert not _itinerary_coherent(swapped, rank1_word(spec, 10).word, base_levels(spec, 10))


@pytest.mark.parametrize("shift", [-1, 1])
def test_itinerary_coherence_fails_on_shifted_base_levels(shift):
    """The map and the word agree; the copy-offset positions one level off do not."""
    from ergolab.experiments.rank1_family import _itinerary_coherent

    spec = Rank1Spec.from_rational("1/3", 6)
    m = rank1_map(spec, 6)
    positions = base_levels(spec, 6)
    assert _itinerary_coherent(m, m.word, positions)
    assert not _itinerary_coherent(m, m.word, positions + shift)


@pytest.mark.parametrize("edit", ["drop", "flip", "append"])
def test_itinerary_coherence_fails_on_a_wrong_word(edit):
    from ergolab.experiments.rank1_family import _itinerary_coherent

    spec = Rank1Spec.from_rational("1/4", 5)
    m = rank1_map(spec, 5)
    letters = text(m.word)
    wrong = {"drop": letters[:-1], "flip": letters.replace("sT", "Ts", 1),
             "append": letters + "T"}[edit]
    assert not _itinerary_coherent(m, int(wrong.replace("T", "1").replace("s", "0"), 2),
                                   base_levels(spec, 5))
