"""rank1-family: the rank-one family T_a built by cutting and stacking.

Word and tower bookkeeping in exact arithmetic, the dyadic dichotomy table,
continuity in the digits, the base point's itinerary, and a finite-stage
weak-mixing probe of level indicators.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ergolab import rank1
from ergolab.core import LevelIndicator, build_system, np
from ergolab.exact import parse_scalar, scalar_str
from ergolab.experiments import Check, ExperimentConfig
from ergolab.spectral import weak_mixing_test

# the runner reads rank1's functions at call time, so a test can plant a defect
# in one of them with monkeypatch


def _itinerary_coherent(m: rank1.Rank1Map, word: int, base_levels: np.ndarray) -> bool:
    """Three independent descriptions of the depth-d levels that carry base
    mass agree: the T letters of the bit string ``word`` (T = 1, first letter
    most significant), the levels whose start is one of the map's 3**depth
    base units, and ``base_levels``, the positions of the stage-0 level by copy
    offsets, marked on a mask of the levels (a position out of range or repeated
    fails the check).  The exact map then ties the levels to normalized
    coordinates at both ends: the midpoint of level 0 lies in level 0 and moves
    onto the midpoint of level 1, and the midpoint of the top level lies in it."""
    if word.bit_length() != m.length:
        return False
    pad = -m.length % 8  # the word's bits, left-aligned in whole bytes
    letters = (word << pad).to_bytes((m.length + pad) // 8, "big")
    is_base = np.unpackbits(np.frombuffer(letters, dtype=np.uint8), count=m.length).view(bool)
    marked = np.zeros_like(is_base)
    if base_levels.size and 0 <= base_levels.min() <= base_levels.max() < m.length:
        marked[base_levels] = True
    levels_agree = (np.array_equal(m.level_starts < 3 ** m.depth, is_base)
                    and base_levels.size == np.count_nonzero(is_base)
                    and np.array_equal(marked, is_base))
    del letters, is_base, marked  # freed before level_of builds its table

    def midpoint(level: int) -> Fraction:
        return Fraction(2 * int(m.level_starts[level]) + 1, 2 * m.length)

    x = m.level_interval(0)[0] + Fraction(1, 2 * m.length)
    return bool(levels_agree and m.level_of(x) == 0 and m.apply(x) == midpoint(1)
                and m.level_of(midpoint(m.length - 1)) == m.length - 1)


def run(config: ExperimentConfig) -> list[Check]:
    knobs = config.knobs
    checks: list[Check] = []
    depth = knobs["depth"]
    for knob in ("depth", "word_stage_max"):
        rank1.refuse_oversized_tower(rank1.word_lengths(knobs[knob]),
                                     f"knobs.{knob} = {knobs[knob]}")
    params = [parse_scalar(p) for p in knobs["parameters"]]
    specs = {scalar_str(p): rank1.Rank1Spec.from_rational(p, depth) for p in params}

    # word table for stages 0..3
    first = next(iter(specs.values()))
    lengths = [rank1.rank1_word(first, n).length for n in range(4)]
    heights = [rank1.rank1_word(first, n).height for n in range(4)]
    table_ok = lengths == [1, 4, 13, 40] and heights == [1, 3, 9, 27]
    checks.append(Check(
        check_id="word-table",
        anchor="rank1-cutting-and-stacking",
        expected="lengths 1,4,13,40 and heights 1,3,9,27 for stages 0-3",
        observed=f"lengths {lengths}, heights {heights}",
        passed=table_ok,
    ))

    # lengths and heights through the requested stage against the closed forms,
    # in one walk over the stages
    rec_ok = True
    probe = rank1.Rank1Spec.from_rational(params[-1], knobs["word_stage_max"])
    for n, word in enumerate(rank1.rank1_words(probe, knobs["word_stage_max"])):
        rec_ok &= word.bit_length() == rank1.word_lengths(n)
        rec_ok &= word.bit_count() == 3 ** n
    del word  # the last stage is the largest word of the run; no later check reads it
    checks.append(Check(
        check_id="word-recursion-invariants",
        anchor="rank1-cutting-and-stacking",
        expected=f"L and h recursions hold through stage {knobs['word_stage_max']}",
        observed="hold" if rec_ok else "violated",
        passed=rec_ok,
    ))

    # dyadic dichotomy table over all pairs
    table = {}
    dich_ok = True
    names = list(specs)
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            verdict = rank1.dyadic_equivalence(specs[na], specs[nb])
            table[f"{na} vs {nb}"] = verdict.verdict
    expected_table = {}
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            diff = abs(parse_scalar(na) - parse_scalar(nb))
            den = diff.denominator
            expected_table[f"{na} vs {nb}"] = (
                "isomorphic-family" if den & (den - 1) == 0 else "disjoint-family"
            )
    dich_ok = table == expected_table
    checks.append(Check(
        check_id="dichotomy-table",
        anchor="rank1-dyadic-dichotomy",
        expected=json.dumps(expected_table, sort_keys=True),
        observed=json.dumps(table, sort_keys=True),
        passed=dich_ok,
    ))

    # continuity: identical digit prefixes force identical words and maps
    cont_ok = True
    plen = knobs["prefix_length"]
    for bits in range(2 ** plen):
        digits = tuple((bits >> i) & 1 for i in range(plen))
        s1 = rank1.Rank1Spec.from_digits(digits + (0,), plen)
        s2 = rank1.Rank1Spec.from_digits(digits + (1,), plen)
        cont_ok &= rank1.rank1_word(s1, plen).word == rank1.rank1_word(s2, plen).word
        m1, m2 = rank1.rank1_map(s1, plen), rank1.rank1_map(s2, plen)
        cont_ok &= np.array_equal(m1.level_starts, m2.level_starts)
    checks.append(Check(
        check_id="continuity-prefixes",
        anchor="rank1-construction-continuity",
        expected=f"digit agreement through n forces identical stage-n words and maps "
                 f"(exhaustive over prefixes of length {plen})",
        observed="holds" if cont_ok else "violated",
        passed=cont_ok,
    ))

    # exact map bookkeeping per depth
    def distinct(units: np.ndarray, length: int) -> bool:
        """No unit of [0, length) is listed twice, by one mark per unit."""
        if units.min() < 0 or units.max() >= length:
            return False
        marks = np.zeros(length, dtype=bool)
        marks[units] = True
        return bool(np.count_nonzero(marks) == len(units))

    map_ok = True
    words = rank1.rank1_words(first, depth)
    next(words)  # maps start at depth 1
    for d, word in enumerate(words, start=1):
        m = rank1.rank1_map(first, d)
        map_ok &= distinct(m.level_starts[:-1], m.length)  # sources
        map_ok &= distinct(m.level_starts[1:], m.length)  # images
        map_ok &= m.undefined_measure <= Fraction(1, 3) ** (d - 1) * Fraction(1, 3)
        map_ok &= m.word == word
    checks.append(Check(
        check_id="map-partition-exactness",
        anchor="rank1-cutting-and-stacking",
        expected="source/image pieces partition their supports; undefined mass "
                 "<= (1/3)^(d-1) * 1/3, all in exact arithmetic",
        observed="exact" if map_ok else "violated",
        passed=map_ok,
        details={"depths": list(range(1, depth + 1))},
    ))

    # the loop left the depth-``depth`` map and word bound
    itinerary_ok = _itinerary_coherent(m, word, rank1.stage_level_positions(first, 0, 0, depth))
    checks.append(Check(
        check_id="itinerary-coherence",
        anchor="rank1-cutting-and-stacking",
        expected=f"the base point crosses all {m.length} levels in word order at depth {depth}",
        observed="coherent" if itinerary_ok else "violated",
        passed=itinerary_ok,
    ))
    del m, word

    # weak mixing consistency probe
    system = build_system({"kind": "rank1-family",
                           "params": {"a": scalar_str(first.a), "depth": depth}})
    family = [LevelIndicator(stage=s, level=0) for s in knobs["wm_stages"]]
    report = weak_mixing_test(system, family, N=knobs["N"],
                              threshold=knobs["threshold"])
    checks.append(Check(
        check_id="weak-mixing-consistency",
        anchor="rank1-weak-mixing-consistency",
        expected=f"all Wiener masses below {knobs['threshold']} "
                 "(finite-stage consistency probe, not a proof)",
        observed=json.dumps({label: round(m, 6) for label, m in report.masses},
                            sort_keys=True),
        passed=report.no_atoms_detected,
        details={"N": knobs["N"], "depth": depth, "caveat": report.caveat},
    ))
    return checks
