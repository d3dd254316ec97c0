"""Named, reproducible experiments with machine-readable reports.

Experiments are data: a config document selects one of the named experiments
and overrides its knobs; every knob default is echoed into the emitted report,
and re-running with identical config bytes yields byte-identical reports
(modulo the wall-clock field).  Per-check seeds are derived from the master
seed by hashing the check id, so checks are independent of execution order.

Statistical protocol: two-sided 4-sigma bounds with sigma = 1/sqrt(samples).
The default sample counts (>= 4096 per estimate, 10^5 for the product-closure
run) make a character-correlation effect of 0.1 detectable with power >= 0.99
(0.1 * sqrt(4096) = 6.4 standard errors against the 4-sigma gate).
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

import numpy as np

from ergolab import __version__
from ergolab.core import (
    Character,
    IdentitySystem,
    LevelIndicator,
    ProductSystem,
    SampledPowerMeasure,
    SpecValidationError,
    build_measure,
    build_observable,
    build_system,
    derive_seed,
    frequency_box,
    orbit,
    pullback_orbit,
)
from ergolab.exact import PhaseSum, parse_scalar, scalar_str
from ergolab.schema import KNOBS, SQRT2_ANGLE_40, parse_knobs  # noqa: F401 (re-exported)
from ergolab.spectral import (
    correlation_sequence,
    detect_eigenvalue,
    weak_mixing_test,
    wiener_atomic_mass,
)

if TYPE_CHECKING:  # rank1 loads in the runner that uses it
    from ergolab.rank1 import Rank1Map

EXPERIMENTS = tuple(KNOBS)
#: master seeds lie in [0, SEED_LIMIT)
SEED_LIMIT = 2**64


# ---------------------------------------------------------------------------
# config and report
# ---------------------------------------------------------------------------

#: each experiment's knob defaults, read off its table in ``ergolab.schema``
DEFAULT_KNOBS: dict[str, dict] = {
    experiment: {key: f.default for key, f in table.items()}
    for experiment, table in KNOBS.items()
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on: experiment name, master seed, resolved knobs.

    ``resolve`` is the one way to make one: it refuses an unknown experiment,
    a seed that is not an int in [0, 2^64) (a bool is not), and knob
    overrides that do not parse, and fills in every default knob."""

    experiment: str
    seed: int
    knobs: dict

    @classmethod
    def resolve(cls, experiment: str, seed: int,
                overrides: Mapping[str, object] = MappingProxyType({})
                ) -> "ExperimentConfig":
        if experiment not in EXPERIMENTS:
            raise SpecValidationError(
                "experiment", f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
            )
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
            raise SpecValidationError("seed", f"seed must be an integer in [0, 2^64), got {seed!r}")
        parse_knobs(experiment, overrides)
        knobs = json.loads(json.dumps(DEFAULT_KNOBS[experiment]))  # deep copy
        knobs.update(overrides)
        return cls(experiment=experiment, seed=seed, knobs=knobs)

    def to_json(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed, "knobs": self.knobs}


@dataclass
class Check:
    """One verifiable statement inside an experiment."""

    check_id: str
    anchor: str  # named mathematical fact being exercised, or "plumbing"
    expected: str
    observed: str
    passed: bool
    sigma: float | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "expected": self.expected,
            "observed": self.observed,
            "passed": self.passed,
            "sigma": self.sigma,
            "details": self.details,
        }


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    checks: list[Check]
    wall_clock_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failing_check_ids(self) -> list[str]:
        return [c.check_id for c in self.checks if not c.passed]

    def to_json(self, *, include_wall_clock: bool = True) -> dict:
        doc = {
            "version": __version__,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
        }
        if include_wall_clock:
            doc["wall_clock_seconds"] = self.wall_clock_seconds
        return doc

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: identical config+seed gives identical bytes."""
        return json.dumps(self.to_json(include_wall_clock=False),
                          sort_keys=True).encode()

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["check_id", "anchor", "expected", "observed", "sigma", "verdict"])
        for c in self.checks:
            writer.writerow([c.check_id, c.anchor, c.expected, c.observed,
                             "" if c.sigma is None else repr(c.sigma),
                             "pass" if c.passed else "fail"])
        return out.getvalue()

    def to_markdown(self) -> str:
        lines = [
            f"# {self.config.experiment}",
            "",
            f"seed: {self.config.seed}  |  overall: "
            f"{'PASS' if self.passed else 'FAIL'}",
            "",
        ]
        for c in self.checks:
            lines += [
                f"## {c.check_id}",
                "",
                f"anchor: {c.anchor}",
                "",
                f"- expected: {c.expected}",
                f"- observed: {c.observed}",
                f"- verdict: {'pass' if c.passed else 'fail'}"
                + (f" (sigma = {c.sigma})" if c.sigma is not None else ""),
                "",
            ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _stationary_time_average(joining: ProductSystem, k: tuple[int, ...], N: int) -> PhaseSum | None:
    """(1/N) sum_{n<N} integral(char_k o P^n) for the joint map P, exact path.

    Fast when the pullback fixes k (our affine product maps): the average is
    integral(char_k) times a geometric mean of unit phases.  Otherwise the
    integrals along the pullback orbit are summed.
    """
    step = joining.char_pullback(k)
    base = joining.integrate(k)
    if step is None or base is None:
        return None
    k1, phase = step
    if k1 == tuple(k):
        if base.is_zero():
            return PhaseSum.zero()
        return base * PhaseSum.sum([PhaseSum.from_rational(Fraction(1, N))] * N, phase)
    Q = joining.phase_modulus
    parts = []
    for kn, P in pullback_orbit(joining, k, N):
        part = joining.integrate(kn)
        if part is None:
            return None
        parts.append(part.rotated(P, Q))
    return PhaseSum.sum(parts) * Fraction(1, N) if len(parts) == N else None


def _fmt(value: float) -> str:
    return f"{value:.3e}"


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _run_identity_disjoint(config: ExperimentConfig) -> list[Check]:
    from ergolab.joinings import product_consistency_test, product_joining, rel_indep_joining

    knobs = config.knobs
    checks: list[Check] = []
    identity = IdentitySystem(build_measure(knobs["identity_measure"],
                                            path="knobs.identity_measure"))
    rotation = build_system({"kind": "rotation",
                             "params": {"angle": knobs["rotation_angle"]}})
    max_freq = knobs["max_freq"]
    N = knobs["N"]

    rel_indep = rel_indep_joining([identity, rotation], [[], []], {"kind": "product"})
    product = product_joining([identity, rotation])
    joinings = [("rel-indep-trivial", rel_indep), ("product", product)]

    # cross-character exactness against the product of marginals
    worst = 0.0
    all_equal = True
    for _, joining in joinings:
        for kg in range(-max_freq, max_freq + 1):
            for kh in range(-max_freq, max_freq + 1):
                if kg == 0 and kh == 0:
                    continue
                joint = joining.integrate((kg, kh))
                prod = joining.product_integral((kg, kh))
                equal = (joint - prod).is_zero()
                all_equal &= equal
                worst = max(worst, abs(joint.value() - prod.value()))
    checks.append(Check(
        check_id="cross-character-exactness",
        anchor="identity-vs-ergodic-disjointness",
        expected="every cross character integral equals the product value exactly",
        observed=f"max deviation {_fmt(worst)} over all tested joinings",
        passed=all_equal,
        details={"max_freq": max_freq, "joinings": [name for name, _ in joinings]},
    ))

    # von Neumann averaging: (1/N) sum_n integral((g - mean g) (x) h o (Id x R)^n)
    bound = 2.0 / N
    worst_avg = 0.0
    ok = True
    for name, joining in joinings:
        for kg in range(-max_freq, max_freq + 1):
            for kh in range(-max_freq, max_freq + 1):
                if kh == 0:
                    continue
                avg_gh = _stationary_time_average(joining, (kg, kh), N)
                avg_h = _stationary_time_average(joining, (0, kh), N)
                mean_g = identity.measure.integrate_character((kg,))
                if avg_gh is None or avg_h is None or mean_g is None:
                    ok = False
                    continue
                centered = avg_gh - mean_g * avg_h
                value = abs(centered.value())
                worst_avg = max(worst_avg, value)
                ok &= value <= bound + 1e-12
    checks.append(Check(
        check_id="von-neumann-averaging",
        anchor="mean-ergodic-averaging",
        expected=f"|(1/N) sum_n integral((g - mean) (x) h o P^n)| <= 2/N = {_fmt(bound)}",
        observed=f"max average {_fmt(worst_avg)}",
        passed=ok,
        details={"N": N, "max_freq": max_freq},
    ))

    # exact product-consistency on the constructible joinings
    verdicts = {}
    for name, joining in joinings:
        outcome = product_consistency_test(joining, degree=knobs["consistency_degree"])
        verdicts[name] = outcome.verdict
    checks.append(Check(
        check_id="product-consistency-exact",
        anchor="identity-vs-ergodic-disjointness",
        expected="consistent-with-product for every constructible joining",
        observed=json.dumps(verdicts, sort_keys=True),
        passed=all(v == "consistent-with-product" for v in verdicts.values()),
        details={"degree": knobs["consistency_degree"]},
    ))

    # the product joining through its sampler, 4-sigma protocol
    outcome = product_consistency_test(
        product, degree=knobs["consistency_degree"], mode="sampled",
        samples=knobs["samples"], seed=derive_seed(config.seed, "sampled-consistency"),
    )
    checks.append(Check(
        check_id="product-consistency-sampled",
        anchor="identity-vs-ergodic-disjointness",
        expected="consistent-with-product at 4 sigma",
        observed=outcome.verdict,
        passed=outcome.verdict == "consistent-with-product",
        sigma=1.0 / np.sqrt(knobs["samples"]),
        details={"samples": knobs["samples"], "degree": knobs["consistency_degree"]},
    ))
    return checks


def _run_example1(config: ExperimentConfig) -> list[Check]:
    from ergolab.joinings import build_joining, invariance_check, product_joining, sample_joining

    knobs = config.knobs
    checks: list[Check] = []
    angle = parse_scalar(knobs["angle"])
    slope = knobs["slope"]
    N = knobs["N"]
    max_freq = knobs["max_freq"]

    triple = build_joining({
        "kind": "example1-triple",
        "params": {
            "base_measure": {"kind": "haar", "arity": 1},
            "cocycle": {"kind": "affine", "slope": slope, "intercept": "0"},
            "angle": knobs["angle"],
        },
    })

    # precondition: the cocycle pushforward of the base measure is atomless
    base = triple.factors[0].measure.factors[0]
    slope_fr = parse_scalar(slope)
    wiener_vals = []
    for n in range(N):
        freq = slope_fr * n
        coeff = base.integrate_character((int(freq),)) if freq.denominator == 1 \
            else PhaseSum.zero()
        wiener_vals.append(coeff.abs2())
    pushforward_mass = sum((v for v in wiener_vals), PhaseSum.zero()) * Fraction(1, N)
    mass_val = pushforward_mass.value().real
    checks.append(Check(
        check_id="pushforward-atomless-precondition",
        anchor="twist-fiber-disjointness-precondition",
        expected=f"Wiener average of the pushforward coefficients <= 2/N = {_fmt(2 / N)}",
        observed=_fmt(mass_val),
        passed=mass_val <= 2 / N + 1e-12,
        details={"N": N},
    ))

    # marginal exactness of the coupled triple
    ok = True
    for factor, offset in zip(triple.factors, (0, 2)):
        for k1 in range(-max_freq, max_freq + 1):
            for k2 in range(-max_freq, max_freq + 1):
                k = [0, 0, 0, 0]
                k[offset], k[offset + 1] = k1, k2
                joint = triple.integrate(tuple(k))
                marginal = factor.measure.integrate_character((k1, k2))
                ok &= (joint - marginal).is_zero()
    checks.append(Check(
        check_id="triple-marginal-exactness",
        anchor="joining-marginals",
        expected="coupled-triple marginals equal the component integrals exactly",
        observed="all equal" if ok else "mismatch",
        passed=ok,
        details={"max_freq": max_freq},
    ))

    # invariance, including the factor observable F = e(z - y)
    family = frequency_box(4, knobs["invariance_degree"], skip_zero=True)
    inv = invariance_check(triple, family)
    f_before = triple.integrate((0, -1, 0, 1))
    step = triple.char_pullback((0, -1, 0, 1))
    f_after = triple.integrate(step[0]).rotated(step[1])
    modulus_equal = (f_before.abs2() - f_after.abs2()).is_zero()
    checks.append(Check(
        check_id="triple-invariance",
        anchor="joining-invariance",
        expected="invariant on the character family; |integral of F o P| = |integral of F|",
        observed=f"family pass = {inv.passed}, modulus equal = {modulus_equal}",
        passed=inv.passed and modulus_equal,
        details={"family_size": len(family), "degree": knobs["invariance_degree"]},
    ))

    # the rotation factor: eigenvalue mass 1 on the triple, ~0 on the product
    F = Character((0, -1, 0, 1))
    verdict = detect_eigenvalue(triple, F, angle, N)
    verdict_prod = detect_eigenvalue(product_joining(triple.factors), F, angle, N)
    eig_ok = abs(verdict.mass - 1.0) <= 1e-9 and verdict.witnessed
    prod_ok = verdict_prod.mass <= 2.0 / N and not verdict_prod.witnessed
    checks.append(Check(
        check_id="rotation-factor-eigenvalue",
        anchor="rotation-factor-obstruction",
        expected=f"mass 1 at the shift angle on the coupled triple; <= 2/N on the product",
        observed=(f"triple mass {verdict.mass!r}, product mass {verdict_prod.mass!r}; "
                  "verdict: rotation-factor-witnessed -- the coupled system has an "
                  "ergodic rotation factor, hence is not disjoint from all ergodic systems"),
        passed=eig_ok and prod_ok,
        details={"N": N, "angle": scalar_str(angle)},
    ))

    # z-coordinate evolution on exact sampled orbits
    pts = sample_joining(triple, derive_seed(config.seed, "z-evolution"), 8,
                         rationals=True)
    evo_ok = True
    for p in pts:
        path = orbit(triple, p, 4)
        for a, b in zip(path, path[1:]):
            expected_z = (a[3] + slope_fr * a[0] + angle) % 1
            evo_ok &= b[3] == expected_z
    checks.append(Check(
        check_id="z-evolution-exact",
        anchor="plumbing",
        expected="z_{n+1} = z_n + beta(x) + angle exactly along sampled orbits",
        observed="exact" if evo_ok else "mismatch",
        passed=evo_ok,
        details={"points": len(pts), "steps": 4},
    ))

    if knobs["statistical"]:
        rho = SampledPowerMeasure(knobs["statistical_exponent"])
        stat_triple = build_joining({
            "kind": "example1-triple",
            "params": {
                "base_measure": {"kind": "power-law-sampled",
                                 "exponent": knobs["statistical_exponent"]},
                "cocycle": {"kind": "affine", "slope": slope, "intercept": "0"},
                "angle": knobs["angle"],
            },
        })
        inv2 = invariance_check(
            stat_triple, frequency_box(4, 1, skip_zero=True),
            seed=derive_seed(config.seed, "statistical-invariance"),
            samples=knobs["statistical_samples"],
        )
        checks.append(Check(
            check_id="statistical-rho-invariance",
            anchor="joining-invariance",
            expected="sampled invariance within 4 sigma for a continuous non-Haar base",
            observed=f"pass = {inv2.passed} ({inv2.mode})",
            passed=inv2.passed,
            sigma=float(np.sqrt(2.0 / knobs["statistical_samples"])),
            details={"samples": knobs["statistical_samples"],
                     "base": rho.description},
        ))
        verdict_stat = detect_eigenvalue(
            stat_triple, F, angle, min(N, 256),
            seed=derive_seed(config.seed, "statistical-eigenvalue"),
            samples=knobs["statistical_samples"],
        )
        checks.append(Check(
            check_id="statistical-rho-eigenvalue",
            anchor="rotation-factor-obstruction",
            expected="eigenvalue mass ~ 1 on the sampled coupled triple",
            observed=f"mass {verdict_stat.mass!r}",
            passed=verdict_stat.mass >= 0.99,
            details={"samples": knobs["statistical_samples"]},
        ))
    return checks


def _run_product_closure(config: ExperimentConfig) -> list[Check]:
    from ergolab.joinings import (invariance_check, product_consistency_test, product_joining,
                                  rel_indep_joining)

    knobs = config.knobs
    checks: list[Check] = []
    samples = knobs["samples"]
    degree = knobs["degree"]

    twist_doc = {"kind": "twist", "params": {}}
    pair = build_system({"kind": "product",
                         "params": {"factors": [twist_doc, twist_doc]}})
    rotation = build_system({
        "kind": "rotation",
        "params": {"angle": knobs["rotation_angle"]},
        "precision": knobs["precision"],
    })

    joinings = {
        "product": product_joining([pair, rotation]),
        "rel-indep-over-bases": rel_indep_joining(
            [pair, rotation], [[0, 2], []], {"kind": "product"}
        ),
    }
    all_ok = True
    for name, joining in joinings.items():
        started = time.perf_counter()
        outcome = product_consistency_test(
            joining, degree=degree, mode="sampled", samples=samples,
            seed=derive_seed(config.seed, f"closure-{name}"),
        )
        elapsed = time.perf_counter() - started
        ok = outcome.verdict == "consistent-with-product"
        all_ok &= ok
        checks.append(Check(
            check_id=f"consistency-{name}",
            anchor="product-closure",
            expected="consistent-with-product at 4 sigma",
            observed=f"{outcome.verdict} ({len(outcome.rows)} characters, "
                     f"{elapsed:.1f}s)",
            passed=ok,
            sigma=1.0 / np.sqrt(samples),
            details={"samples": samples, "degree": degree,
                     "characters": len(outcome.rows)},
        ))
    checks.append(Check(
        check_id="joint-invariance-sampled",
        anchor="joining-invariance",
        expected="sampled invariance of the product joining within 4 sigma",
        observed="pass",
        passed=invariance_check(
            joinings["product"], frequency_box(5, 1, skip_zero=True),
            seed=derive_seed(config.seed, "closure-invariance"), samples=samples,
        ).passed,
        sigma=float(np.sqrt(2.0 / samples)),
        details={"samples": samples},
    ))
    return checks


def _itinerary_coherent(m: Rank1Map, word: int, base_levels: np.ndarray) -> bool:
    """Three independent descriptions of the depth-d levels that carry base
    mass agree: the T letters of the bit string ``word`` (T = 1, first letter
    most significant), the levels whose start is one of the map's 3**depth
    base units, and ``base_levels``, the sorted positions of the stage-0 level
    by copy offsets.  The exact map then ties the levels to normalized
    coordinates at both ends: the midpoint of level 0 lies in level 0 and moves
    onto the midpoint of level 1, and the midpoint of the top level lies in it."""
    if word.bit_length() != m.length:
        return False
    pad = -m.length % 8  # the word's bits, left-aligned in whole bytes
    letters = (word << pad).to_bytes((m.length + pad) // 8, "big")
    is_base = np.unpackbits(np.frombuffer(letters, dtype=np.uint8), count=m.length).view(bool)
    levels_agree = (np.array_equal(m.level_starts < 3 ** m.depth, is_base)
                    and np.array_equal(np.flatnonzero(is_base), base_levels))
    del letters, is_base  # freed before level_of builds its table

    def midpoint(level: int) -> Fraction:
        return Fraction(2 * int(m.level_starts[level]) + 1, 2 * m.length)

    x = m.level_interval(0)[0] + Fraction(1, 2 * m.length)
    return bool(levels_agree and m.level_of(x) == 0 and m.apply(x) == midpoint(1)
                and m.level_of(midpoint(m.length - 1)) == m.length - 1)


def _run_rank1_family(config: ExperimentConfig) -> list[Check]:
    from ergolab.rank1 import (Rank1Spec, dyadic_equivalence, rank1_map, rank1_word,
                               rank1_words, refuse_oversized_tower, stage_level_positions,
                               word_lengths)

    knobs = config.knobs
    checks: list[Check] = []
    depth = knobs["depth"]
    for knob in ("depth", "word_stage_max"):
        refuse_oversized_tower(word_lengths(knobs[knob]), f"knobs.{knob} = {knobs[knob]}")
    params = [parse_scalar(p) for p in knobs["parameters"]]
    specs = {scalar_str(p): Rank1Spec.from_rational(p, depth) for p in params}

    # word table for stages 0..3
    first = next(iter(specs.values()))
    lengths = [rank1_word(first, n).length for n in range(4)]
    heights = [rank1_word(first, n).height for n in range(4)]
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
    probe = Rank1Spec.from_rational(params[-1], knobs["word_stage_max"])
    for n, word in enumerate(rank1_words(probe, knobs["word_stage_max"])):
        rec_ok &= word.bit_length() == word_lengths(n)
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
            verdict = dyadic_equivalence(specs[na], specs[nb])
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
        s1 = Rank1Spec.from_digits(digits + (0,), plen)
        s2 = Rank1Spec.from_digits(digits + (1,), plen)
        cont_ok &= rank1_word(s1, plen).word == rank1_word(s2, plen).word
        m1, m2 = rank1_map(s1, plen), rank1_map(s2, plen)
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
    words = rank1_words(first, depth)
    next(words)  # maps start at depth 1
    for d, word in enumerate(words, start=1):
        m = rank1_map(first, d)
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
    itinerary_ok = _itinerary_coherent(m, word, stage_level_positions(first, 0, 0, depth))
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


def _run_spectral_probe(config: ExperimentConfig) -> list[Check]:
    knobs = config.knobs
    checks: list[Check] = []
    system = build_system(knobs["system"], path="knobs.system")
    observable = build_observable(knobs["observable"], path="knobs.observable")
    N = knobs["N"]
    seed = derive_seed(config.seed, "probe-correlation")
    seq = correlation_sequence(system, observable, N, seed=seed,
                               samples=knobs["samples"], path="knobs")
    size = min(knobs["toeplitz_size"], N + 1)
    min_eig = seq.toeplitz_min_eigenvalue(size)
    checks.append(Check(
        check_id="correlation-positive-definite",
        anchor="herglotz-positive-definiteness",
        expected=f"min Toeplitz eigenvalue >= -1e-9 at size {size}",
        observed=_fmt(min_eig),
        passed=min_eig >= -1e-9,
        details={"exact": seq.exact, "N": N},
    ))
    atom_report = wiener_atomic_mass(seq, candidates=knobs["candidates"])
    checks.append(Check(
        check_id="wiener-atomic-mass",
        anchor="wiener-atomic-mass",
        expected="total squared atomic mass within [0, values(0)^2]",
        observed=f"total {atom_report.total_atomic_mass!r}, "
                 f"{len(atom_report.atoms)} atoms on the grid",
        passed=-1e-9 <= atom_report.total_atomic_mass
               <= abs(seq.value(0)) ** 2 + 1e-9,
        details=atom_report.to_json(),
    ))
    for i, query in enumerate(knobs["eigenvalue_queries"]):
        verdict = detect_eigenvalue(system, observable, query["angle"], N,
                                    seed=derive_seed(config.seed, f"probe-eig-{i}"),
                                    samples=knobs["samples"], seq=seq)
        expect = query.get("expect_witnessed")
        passed = expect is None or verdict.witnessed == expect
        checks.append(Check(
            check_id=f"eigenvalue-query-{i}",
            anchor="eigenvalue-detection",
            expected=f"witnessed = {expect}" if expect is not None else "(reported)",
            observed=f"mass {verdict.mass!r}, witnessed = {verdict.witnessed}",
            passed=passed,
            details=verdict.to_json(),
        ))
    return checks


_RUNNERS: dict[str, Callable[[ExperimentConfig], list[Check]]] = {
    "identity-disjoint": _run_identity_disjoint,
    "example1": _run_example1,
    "product-closure": _run_product_closure,
    "rank1-family": _run_rank1_family,
    "spectral-probe": _run_spectral_probe,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one named experiment; checks use per-check seeds derived from the
    master seed, so the report is deterministic for a fixed config."""
    started = time.perf_counter()
    checks = _RUNNERS[config.experiment](config)
    elapsed = time.perf_counter() - started
    return ExperimentReport(config=config, checks=checks, wall_clock_seconds=elapsed)


def emit_report(report: ExperimentReport, fmt: str, out_dir) -> list[Path]:
    """Write the report in the requested format; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = f"report-{report.config.experiment}"
    paths = []
    if fmt == "json":
        path = out / f"{name}.json"
        path.write_text(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        path = out / f"{name}.csv"
        path.write_text(report.to_csv())
    elif fmt == "markdown":
        path = out / f"{name}.md"
        path.write_text(report.to_markdown())
    else:
        raise SpecValidationError("format", f"unknown format {fmt!r}")
    paths.append(path)
    return paths
