"""Rank-one cutting-and-stacking maps steered by a binary parameter.

Each stage cuts the current tower into three equal-width columns and inserts a
single spacer level: above the first column when the current binary digit of
the parameter is 0, above the second when it is 1.  The stage-n tower therefore
has L_n = 3*L_{n-1} + 1 levels, of which h_n = 3^n carry the original base
mass.

Bookkeeping is purely integral: at depth d every level is one unit of width
3^(-d) in a raw space of exactly L_d units, so the normalized space is [0, 1)
with levels [j/L_d, (j+1)/L_d).  The map is the translation sending level i to
level i+1; the top level stays undefined at a finite stage.

A word is a bit string held in a Python int, letters most significant first,
T = 1 and s = 0; every word starts with T, so its length is ``bit_length()``
and its height ``bit_count()``.  ``rank1_words`` makes B_{n+1} from B_n by
shifts and ors, so reaching stage n holds at most 7 x L_{n-1} bits at once,
about L_n / 3 bytes.  ``rank1_map`` fills one preallocated int32 array of
level starts in place, stage by stage (every level index is below L_14 < 2^31),
and a map computes its one table, int32 unit-to-level, only when first read.

Depth limit: ``rank1_word``, ``rank1_words``, ``rank1_map`` and
``stage_level_positions`` raise DepthExceededError, before allocating anything,
when they would hold or index more than ``MAX_TOWER_LEVELS`` = L_14 = 7,174,453
levels; words, maps and level positions therefore stop at depth 14.
Tower-level correlations need no tower: ``level_lag_counts`` counts level
coincidences from the per-stage copy offsets alone, and runs at depth 30 and
beyond.

The binary-parameter dichotomy: two parameters whose difference is a dyadic
rational give towers whose digit streams eventually agree, hence eventually
identical stage words (one family up to stage bookkeeping); a non-dyadic
difference makes the streams disagree infinitely often (separate families).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from ergolab.core import (
    INTERVAL,
    DepthExceededError,
    HaarMeasure,
    Point,
    SpecValidationError,
    System,
    UndecidableInputError,
    np,
)
from ergolab.exact import parse_scalar

__all__ = [
    "Rank1Spec",
    "TowerStage",
    "Rank1Map",
    "rank1_word",
    "rank1_words",
    "rank1_map",
    "binary_digits",
    "dyadic_equivalence",
    "DichotomyVerdict",
    "agreement_stage",
    "AgreementReport",
    "build_rank1_system",
    "Rank1System",
    "stage_level_positions",
    "level_lag_counts",
    "MAX_TOWER_LEVELS",
    "refuse_oversized_tower",
]


# ---------------------------------------------------------------------------
# parameter and digits
# ---------------------------------------------------------------------------

def binary_digits(a: Fraction, n: int) -> tuple[int, ...]:
    """First n binary digits of a in [0, 1], ties broken toward the expansion
    that does not end in all ones (the greedy expansion; dyadic rationals
    terminate in zeros).  The endpoint 1 only has the all-ones expansion."""
    if not (0 <= a <= 1):
        raise SpecValidationError("a", f"parameter {a} is outside [0, 1]")
    if a == 1:
        return (1,) * n
    digits = []
    x = a
    for _ in range(n):
        x *= 2
        d = int(x)  # floor for x in [0, 2)
        digits.append(d)
        x -= d
    return tuple(digits)


@dataclass(frozen=True)
class Rank1Spec:
    """Parameter of one member of the rank-one family.

    Exactly one of ``a`` (exact rational in [0,1]) and ``digits`` (an explicit
    finite binary stream a_1 a_2 ...) is set.  ``depth`` is the construction
    stage up to which words and maps may be requested.
    """

    a: Fraction | None
    digits: tuple[int, ...] | None
    depth: int

    def __post_init__(self):
        if (self.a is None) == (self.digits is None):
            raise SpecValidationError("a", "give exactly one of 'a' and 'digits'")
        if self.depth < 0:
            raise SpecValidationError("depth", f"depth must be >= 0, got {self.depth}")
        if self.digits is not None:
            if any(d not in (0, 1) for d in self.digits):
                raise SpecValidationError("digits", "digits must be 0 or 1")
            if self.depth > len(self.digits):
                raise SpecValidationError(
                    "depth", f"depth {self.depth} exceeds the {len(self.digits)} declared digits"
                )
        if self.a is not None and not (0 <= self.a <= 1):
            raise SpecValidationError("a", f"parameter {self.a} is outside [0, 1]")

    @classmethod
    def from_rational(cls, a, depth: int) -> "Rank1Spec":
        return cls(a=parse_scalar(a, field="a"), digits=None, depth=depth)

    @classmethod
    def from_digits(cls, digits: Sequence[int], depth: int | None = None) -> "Rank1Spec":
        digits = tuple(int(d) for d in digits)
        return cls(a=None, digits=digits, depth=len(digits) if depth is None else depth)

    def digit_stream(self, n: int) -> tuple[int, ...]:
        """Digits a_1 .. a_n."""
        if self.digits is not None:
            if n > len(self.digits):
                raise DepthExceededError(
                    f"requested {n} digits but only {len(self.digits)} are declared"
                )
            return self.digits[:n]
        return binary_digits(self.a, n)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerStage:
    """Stage-n tower word over {T, s}: T marks base mass, s marks spacer mass."""

    stage: int
    word: int  # bit string, first letter most significant, T = 1, s = 0
    height: int  # number of T letters
    length: int  # total number of levels


def word_lengths(n: int) -> int:
    """L_n = 3 L_{n-1} + 1 with L_0 = 1, i.e. (3^(n+1) - 1) / 2."""
    return (3 ** (n + 1) - 1) // 2


#: Largest number of levels (or level positions) a word or map may allocate: L_14.
MAX_TOWER_LEVELS = word_lengths(14)


def refuse_oversized_tower(levels: int, what: str) -> None:
    """Raise DepthExceededError if ``what`` needs more than MAX_TOWER_LEVELS levels."""
    if levels > MAX_TOWER_LEVELS:
        raise DepthExceededError(
            f"{what} would allocate {levels} levels, above the limit of "
            f"{MAX_TOWER_LEVELS} (L_14)"
        )


def rank1_words(spec: Rank1Spec, n: int) -> Iterator[int]:
    """The stage words B_0, ..., B_n as bit strings (T = 1, s = 0, first letter
    most significant): B_0 = T; B_{k+1} = B_k s B_k B_k when a_{k+1} = 0,
    B_k B_k s B_k when a_{k+1} = 1.

    Each stage is made from the stage before it by shifts and ors, and the
    generator then drops that stage, so a caller that keeps only the current
    word holds about L_n / 3 bytes at stage n.  The stage is checked when this
    is called, before the first word is made."""
    if n < 0:
        raise SpecValidationError("n", f"stage must be >= 0, got {n}")
    if n > spec.depth:
        raise DepthExceededError(f"stage {n} exceeds constructed depth {spec.depth}")
    refuse_oversized_tower(word_lengths(n), f"the stage-{n} word")
    return _stage_words(spec.digit_stream(n))


def _stage_words(digits: tuple[int, ...]) -> Iterator[int]:
    word = 1  # T
    yield word
    for d in digits:
        # B s B (d = 0) or B B, then B or s B: no temporary is longer than
        # the result, so at most 7 x L_k bits are held at once
        length = word.bit_length()
        word = (word << (length + 1 - d) | word) << (length + d) | word
        yield word


def rank1_word(spec: Rank1Spec, n: int) -> TowerStage:
    """The stage-n word, the last of ``rank1_words(spec, n)``."""
    for word in rank1_words(spec, n):
        pass
    return TowerStage(stage=n, word=word, height=word.bit_count(), length=word.bit_length())


def copy_offsets(prev_length: int, digit: int) -> tuple[int, int, int]:
    """Level offsets of the three stage-n copies inside the stage-(n+1) tower."""
    if digit == 0:
        return (0, prev_length + 1, 2 * prev_length + 1)
    return (0, prev_length, 2 * prev_length + 1)


def _check_stage_level(spec: Rank1Spec, stage: int, level: int, depth: int) -> None:
    # depth first: L_stage is a power of 3, too large to take for a huge stage
    if depth < stage:
        raise SpecValidationError("depth", "depth must be >= stage")
    if not 0 <= level < word_lengths(stage):
        raise SpecValidationError("level", f"stage {stage} has levels 0..{word_lengths(stage)-1}")
    if depth > spec.depth:
        raise DepthExceededError(f"depth {depth} exceeds constructed depth {spec.depth}")


def stage_level_positions(spec: Rank1Spec, stage: int, level: int, depth: int) -> np.ndarray:
    """Indices of the depth-d levels that make up the given stage-k level, sorted,
    as int32 like the towers they index: the depth-d tower is refused above
    L_14 < 2^31 levels, whatever the stage."""
    _check_stage_level(spec, stage, level, depth)
    refuse_oversized_tower(word_lengths(depth),
                           f"the depth-{depth} tower of a stage-{stage} level")
    digits = spec.digit_stream(depth)
    positions = np.array([level], dtype=np.int32)
    length = word_lengths(stage)
    for d in digits[stage:]:
        offs = np.array(copy_offsets(length, d), dtype=np.int32)
        # offset-major: positions lie below ``length`` and the offsets are at
        # least ``length`` apart, so the sums come out sorted
        positions = (offs[:, None] + positions[None, :]).ravel()
        length = 3 * length + 1
    return positions


def level_lag_counts(spec: Rank1Spec, stage: int, level: int, depth: int,
                     N: int) -> list[int]:
    """Cyclic lag counts c(n) = #{(p, q) : q - p = n mod L_d}, n = 0..N, over the
    depth-d positions p, q of the given stage-k level.

    The positions are level + sum_j off_j with off_j one of the three copy
    offsets of stage j = k..d-1, so the integer differences q - p form the
    convolution D of the per-stage offset-difference multisets, and
    c(n) = D(n) + D(L_d - n) for n != 0 mod L_d (D is symmetric).  Stages are
    convolved top-down, and a partial difference is kept only while it lies
    within L_j - L_k of [0, N] or of [L_d - N, L_d]: the stages below j move it
    by at most sum_{i<j} (2 L_i + 1) = L_j - L_k.  Counts are Python ints.
    The level shifts every position alike, so it is validated but does not
    change the counts.
    """
    if N < 0:
        raise SpecValidationError("N", f"N must be >= 0, got {N}")
    _check_stage_level(spec, stage, level, depth)
    digits = spec.digit_stream(depth)
    total = word_lengths(depth)
    top = min(N, total - 1)  # largest lag needed mod L_d
    diffs = {0: 1}
    for j in range(depth - 1, stage - 1, -1):
        length = word_lengths(j)
        offsets = copy_offsets(length, digits[j])
        steps: dict[int, int] = {}
        for a in offsets:
            for b in offsets:
                steps[b - a] = steps.get(b - a, 0) + 1
        reach = length - word_lengths(stage)
        low, high = -reach, top + reach
        wrap_low, wrap_high = total - top - reach, total - 1 + reach
        kept: dict[int, int] = {}
        get = kept.get
        for t, count in diffs.items():
            for step, mult in steps.items():
                u = t + step
                if low <= u <= high or wrap_low <= u <= wrap_high:
                    kept[u] = get(u, 0) + count * mult
        diffs = kept
    cyclic = [diffs.get(0, 0)] + [diffs.get(n, 0) + diffs.get(total - n, 0)
                                   for n in range(1, top + 1)]
    return [cyclic[n % total] for n in range(N + 1)]


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

@dataclass
class Rank1Map:
    """Stage-d tower realized as a piecewise translation of [0, 1).

    ``level_starts[i]`` is the raw unit index of level i (bottom to top); raw
    unit j is the normalized interval [j/L, (j+1)/L).  The map translates level
    i onto level i+1, by ``level_starts[i + 1] - level_starts[i]`` units, and
    is undefined on the top level.  Its one table, unit to level, is built on
    first use.
    """

    depth: int
    level_starts: np.ndarray  # int32, length L_d
    word: int  # the stage-d word as a bit string, as ``rank1_word`` gives it

    def __post_init__(self):
        self.length = len(self.level_starts)

    @cached_property
    def _level_of_unit(self) -> np.ndarray:
        """Raw unit index -> level index (int32), built on first use, 2^16 levels at a time."""
        level_of_unit = np.empty(self.length, dtype=np.int32)
        for lo in range(0, self.length, 1 << 16):
            starts = self.level_starts[lo:lo + (1 << 16)]
            level_of_unit[starts] = np.arange(lo, lo + len(starts), dtype=np.int32)
        return level_of_unit

    @property
    def undefined_measure(self) -> Fraction:
        """Normalized measure of the top level, where the map is not yet defined."""
        return Fraction(1, self.length)

    def level_interval(self, i: int) -> tuple[Fraction, Fraction]:
        lo = Fraction(int(self.level_starts[i]), self.length)
        return lo, lo + Fraction(1, self.length)

    def level_of(self, x: Fraction | int) -> int:
        # floor(x L) in integers; the denominator is positive
        num, den = x.numerator, x.denominator
        if not 0 <= num < den:
            raise SpecValidationError("x", f"{x} is outside [0, 1)")
        return int(self._level_of_unit[num * self.length // den])

    def apply(self, x: Fraction) -> Fraction:
        level = self.level_of(x)
        if level == self.length - 1:
            raise DepthExceededError(
                f"point {x} lies in the top level of the depth-{self.depth} tower"
            )
        # x + t / L as one fraction, normalized once
        den = x.denominator
        t = int(self.level_starts[level + 1]) - int(self.level_starts[level])
        return Fraction(x.numerator * self.length + t * den, den * self.length)

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        units = np.floor(xs * self.length).astype(np.int64)
        levels = self._level_of_unit[units]
        if np.any(levels == self.length - 1):
            raise DepthExceededError("some points lie in the top level of the tower")
        starts = self.level_starts
        return np.add(xs, (starts[levels + 1] - starts[levels]) / self.length, out=xs)


def rank1_map(spec: Rank1Spec, depth: int | None = None) -> Rank1Map:
    """Build the stage-``depth`` tower map with exact rational bookkeeping.

    Spacers are drawn from a reserve beyond the current space and the final
    space is renormalized to total measure one, so the invariant measure stays
    a probability measure at every depth.
    """
    depth = spec.depth if depth is None else depth
    if depth < 1:
        raise SpecValidationError("depth", f"depth must be >= 1, got {depth}")
    if depth > spec.depth:
        raise DepthExceededError(f"depth {depth} exceeds constructed depth {spec.depth}")
    refuse_oversized_tower(word_lengths(depth), f"the depth-{depth} map")
    digits = spec.digit_stream(depth)
    starts = np.empty(word_lengths(depth), dtype=np.int32)
    starts[0] = 0
    word = 1  # T
    length = 1  # levels, and raw units, of the tower built so far
    for d in digits:
        # the three columns land at the copy offsets; the spacer comes from the
        # reserve, raw unit 3 * length, between the first two or the last two
        first = starts[:length]
        np.multiply(first, 3, out=first)
        _, second, third = copy_offsets(length, d)
        np.add(first, 1, out=starts[second:second + length])
        np.add(first, 2, out=starts[third:third + length])
        starts[2 * length if d else length] = 3 * length
        # the word's copies at the same offsets, apart from the recursion of
        # ``rank1_words`` that map-partition-exactness compares it with
        word = (word << second | word) << (third - second) | word
        length = 3 * length + 1
    return Rank1Map(depth=depth, level_starts=starts, word=word)


# ---------------------------------------------------------------------------
# dichotomy and continuity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyVerdict:
    verdict: str  # "isomorphic-family" | "disjoint-family"
    difference: Fraction
    reason: str


def _is_dyadic(x: Fraction) -> bool:
    den = x.denominator
    return den & (den - 1) == 0


def dyadic_equivalence(a: Rank1Spec, b: Rank1Spec) -> DichotomyVerdict:
    """Exact dichotomy on the parameter difference.

    The two maps belong to one isomorphism family exactly when |a - b| is a
    dyadic rational k/2^l (equivalently: the binary digit streams eventually
    agree under the fixed expansion convention); otherwise they are disjoint.
    """
    if a.a is None or b.a is None:
        declared = min(
            len(s.digits) for s in (a, b) if s.digits is not None
        )
        stages = agreement_stage(a, b, declared).agrees_through
        raise UndecidableInputError(
            "digit streams of finite declared length cannot certify the dichotomy: "
            f"the expansions agree through stage {stages} but say nothing beyond",
            stages_agreeing=stages,
        )
    diff = abs(a.a - b.a)
    if _is_dyadic(diff):
        return DichotomyVerdict(
            verdict="isomorphic-family",
            difference=diff,
            reason=(
                f"|a-b| = {diff} is dyadic, so the digit streams eventually agree "
                "and the constructions coincide from some stage on"
            ),
        )
    return DichotomyVerdict(
        verdict="disjoint-family",
        difference=diff,
        reason=(
            f"|a-b| = {diff} is not of the form k/2^l, so the spacer placements "
            "differ at infinitely many stages: the two maps are disjoint"
        ),
    )


@dataclass(frozen=True)
class AgreementReport:
    first_disagreement: int | None  # 1-based digit index, None = agree through max_stage
    max_stage: int

    @property
    def agrees_through(self) -> int:
        return self.max_stage if self.first_disagreement is None \
            else self.first_disagreement - 1


def agreement_stage(a: Rank1Spec, b: Rank1Spec, max_stage: int) -> AgreementReport:
    """First digit index where the expansions differ (exact comparison).

    Continuity of the construction in the parameter shows up as: agreement of
    the digit streams through stage n forces identical stage-n words and maps.
    """
    def digits_upto(s: Rank1Spec) -> tuple[int, ...]:
        if s.digits is not None:
            return s.digits[: min(max_stage, len(s.digits))]
        return binary_digits(s.a, max_stage)

    da, db = digits_upto(a), digits_upto(b)
    upto = min(len(da), len(db))
    for i in range(upto):
        if da[i] != db[i]:
            return AgreementReport(first_disagreement=i + 1, max_stage=max_stage)
    # agreement certified only as far as both streams reach
    return AgreementReport(first_disagreement=None, max_stage=upto)


# ---------------------------------------------------------------------------
# system wrapper and the parameterized family
# ---------------------------------------------------------------------------

class Rank1System(System):
    """The stage-d tower map as a System over Lebesgue measure on [0, 1).

    The map is a partial bijection at a finite stage (undefined on the top
    level, measure 1/L_d); points escaping through the top raise
    DepthExceededError rather than silently wrapping.
    """

    def __init__(self, r1spec: Rank1Spec):
        if r1spec.depth < 1:
            raise SpecValidationError("depth", f"depth must be >= 1, got {r1spec.depth}")
        self.r1spec = r1spec
        self.space = (INTERVAL,)
        self.measure = HaarMeasure((INTERVAL,), description="lebesgue on [0,1)")

    @cached_property
    def map(self) -> Rank1Map:
        """The tower map, built on first use: level-indicator correlations never need it."""
        return rank1_map(self.r1spec)

    def apply(self, point: Point) -> Point:
        (x,) = point
        return (self.map.apply(Fraction(x)),)

    def apply_array(self, points: np.ndarray) -> np.ndarray:
        return self.map.apply_array(points)  # elementwise, so in place on the (n, 1) array


def build_rank1_system(r1spec: Rank1Spec) -> Rank1System:
    return Rank1System(r1spec)
