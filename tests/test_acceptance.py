"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Everything here runs at its stated tolerance on exact desk-scale instances;
statistical checks use the 4-sigma protocol with the stated sample counts.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from ergolab.core import (
    Character,
    IdentitySystem,
    build_measure,
    build_system,
    frequency_box,
)
from ergolab.experiments import (
    SQRT2_ANGLE_40,
    ExperimentConfig,
    run_experiment,
)
from ergolab.joinings import (
    build_joining,
    invariance_check,
    product_consistency_test,
    product_joining,
    rel_indep_joining,
)
from ergolab.rank1 import Rank1Spec, dyadic_equivalence, rank1_map, rank1_word
from ergolab.spectral import (
    correlation_sequence,
    detect_eigenvalue,
    wiener_atomic_mass,
)

F = Fraction

MIX_HALVES = {
    "kind": "atoms",
    "atoms": [
        {"point": ["0"], "weight": "1/2"},
        {"point": ["1/2"], "weight": "1/2"},
    ],
}


def record(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


# ---------------------------------------------------------------------------
# criterion 1: the coupled-triple chain
# ---------------------------------------------------------------------------

def test_example1_chain():
    started = time.perf_counter()
    N = 4096
    triple = build_joining({"kind": "example1-triple", "params": {"angle": "1/5"}})

    # (a) marginals exact
    marginals_ok = True
    for factor, offset in zip(triple.factors, (0, 2)):
        for k in frequency_box(2, 8):
            joint_k = [0, 0, 0, 0]
            joint_k[offset], joint_k[offset + 1] = k
            joint = triple.integrate(tuple(joint_k))
            marginal = factor.measure.integrate_character(k)
            marginals_ok &= (joint - marginal).is_zero()

    # (b) invariance of F = e(z - y): modulus exactly preserved
    F_freqs = (0, -1, 0, 1)
    k2, phase = triple.char_pullback(F_freqs)
    before = triple.integrate(F_freqs)
    after = triple.integrate(k2).rotated(phase)
    invariance_ok = (before.abs2() - after.abs2()).is_zero() \
        and invariance_check(triple, [F_freqs]).passed

    # (c) eigenvalue mass 1 exactly on the triple, <= 2/N on the product
    verdict = detect_eigenvalue(triple, Character(F_freqs), "1/5", N)
    prod = product_joining(triple.factors)
    verdict_prod = detect_eigenvalue(prod, Character(F_freqs), "1/5", N)
    eig_ok = (abs(verdict.mass - 1.0) <= 1e-9
              and verdict.mass_squared_exact == 1
              and verdict_prod.mass <= 2.0 / N)

    elapsed = time.perf_counter() - started
    record(
        "example1 chain (marginals, invariance, rotation-factor eigenvalue)",
        marginals_ok and invariance_ok and eig_ok and elapsed < 5.0,
        f"triple mass {verdict.mass}, product mass {verdict_prod.mass:.2e}, "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: spectral engine
# ---------------------------------------------------------------------------

def test_spectral_engine():
    rotation = build_system({"kind": "rotation", "params": {"angle": "1/3"}})
    twist = build_system({"kind": "twist", "params": {}})

    # rotation atom mass exactly 1
    seq_rot = correlation_sequence(rotation, Character((1,)), 64)
    rot_mass = wiener_atomic_mass(seq_rot, grid_max_denominator=1).total_exact
    rotation_ok = rot_mass == 1

    # twist Wiener average exactly 1/N at N in {256, 1024, 4096}
    twist_ok = True
    for N in (256, 1024, 4096):
        seq = correlation_sequence(twist, Character((0, 1)), N)
        twist_ok &= wiener_atomic_mass(seq, grid_max_denominator=1).total_exact \
            == F(1, N)

    # Toeplitz positive semidefiniteness at size 64
    psd_ok = True
    for system, f in ((rotation, Character((1,))), (twist, Character((0, 1))),
                      (twist, Character((1, 1)))):
        seq = correlation_sequence(system, f, 64)
        psd_ok &= seq.toeplitz_min_eigenvalue(64) >= -1e-9

    # mixture affinity of coefficients at w in {0, 1/4, 1/2, 1}
    haar = {"kind": "haar", "arity": 1}
    seqs = {}
    for w in (F(0), F(1, 4), F(1, 2), F(1)):
        measure = (MIX_HALVES if w == 0 else haar if w == 1 else
                   {"kind": "mixture", "components": [
                       {"weight": str(w), "measure": haar},
                       {"weight": str(1 - w), "measure": MIX_HALVES}]})
        system = build_system({"kind": "rotation",
                               "params": {"angle": "1/2", "measure": measure}})
        seqs[w] = correlation_sequence(system, Character((2,)), 32)
    affine_ok = all(
        (seqs[w].phases[n]
         - (seqs[F(1)].phases[n] * w + seqs[F(0)].phases[n] * (1 - w))
         ).is_zero()
        for w in (F(1, 4), F(1, 2)) for n in range(33)
    )

    record(
        "spectral engine (rotation mass, twist 1/N, Toeplitz PSD, mixture affinity)",
        rotation_ok and twist_ok and psd_ok and affine_ok,
        f"rotation mass {rot_mass}, twist masses exact, affinity exact",
    )


# ---------------------------------------------------------------------------
# criterion 3: joinings exactness
# ---------------------------------------------------------------------------

def test_joinings_exactness():
    rot_doc = {"kind": "rotation", "params": {"angle": "1/3"}}
    identity = IdentitySystem(build_measure(MIX_HALVES))
    rotation = build_system(rot_doc)

    # rel-indep over the trivial factor equals the product, degree <= 8
    rel = rel_indep_joining([identity, rotation], [[], []], {"kind": "product"})
    prod = product_joining([identity, rotation])
    rel_ok = all((rel.integrate(k) - prod.integrate(k)).is_zero()
                 for k in frequency_box(2, 8))

    # diagonal equals off-diagonal with power zero
    diag = build_joining({"kind": "diagonal", "params": {"component": rot_doc}})
    off0 = build_joining({"kind": "off-diagonal",
                          "params": {"component": rot_doc, "power": 0}})
    diag_ok = all((diag.integrate(k) - off0.integrate(k)).is_zero()
                  for k in frequency_box(2, 8))

    # graph joining of the rotation with itself refuted, witness e(x - y): 1 vs 0
    outcome = product_consistency_test(diag, degree=1)
    row = next(r for r in outcome.rows if r.character == (1, -1))
    graph_ok = (outcome.refuted
                and abs(row.joint - 1.0) == 0.0
                and abs(row.product) == 0.0)

    record(
        "joinings (rel-indep trivial = product, diagonal = off-diagonal(0), "
        "graph refuted with witness)",
        rel_ok and diag_ok and graph_ok,
        f"witness {outcome.witness}, value 1 vs 0",
    )


# ---------------------------------------------------------------------------
# criterion 4: identity disjointness
# ---------------------------------------------------------------------------

def test_identity_disjointness():
    report = run_experiment(ExperimentConfig.resolve("identity-disjoint", 2024))
    by_id = {c.check_id: c for c in report.checks}
    cross_ok = by_id["cross-character-exactness"].passed
    vn_ok = by_id["von-neumann-averaging"].passed
    cons_ok = by_id["product-consistency-exact"].passed \
        and by_id["product-consistency-sampled"].passed
    record(
        "identity disjointness (cross characters exact, von Neumann averages <= 2/N)",
        cross_ok and vn_ok and cons_ok,
        by_id["von-neumann-averaging"].observed,
    )


# ---------------------------------------------------------------------------
# criterion 5: product closure spot check
# ---------------------------------------------------------------------------

def test_product_closure():
    started = time.perf_counter()
    config = ExperimentConfig.resolve("product-closure", 2718)
    assert config.knobs["samples"] == 100000
    assert config.knobs["rotation_angle"] == SQRT2_ANGLE_40
    report = run_experiment(config)
    elapsed = time.perf_counter() - started
    record(
        "product closure (two twists x decimal-40 rotation, 4 sigma, 1e5 samples)",
        report.passed and elapsed < 60.0,
        f"{elapsed:.1f}s, checks: {[c.check_id for c in report.checks]}",
    )


# ---------------------------------------------------------------------------
# criterion 6: rank-one family
# ---------------------------------------------------------------------------

def test_rank1_family():
    spec = Rank1Spec.from_rational("1/3", 12)

    lengths = [rank1_word(spec, n).length for n in range(4)]
    heights = [rank1_word(spec, n).height for n in range(4)]
    table_ok = lengths == [1, 4, 13, 40] and heights == [1, 3, 9, 27]

    # word/map itinerary coherence through depth 12: the map's level order
    # spells the stage word, and the base point crosses all levels in order
    coherence_ok = True
    for depth in range(1, 13):
        sub = Rank1Spec.from_rational("1/3", depth)
        coherence_ok &= rank1_map(sub).word == rank1_word(sub, depth).word
    deep = rank1_map(spec)
    x = deep.level_interval(0)[0] + F(1, 2 * deep.total_units)
    for step in range(deep.length - 1):
        if deep.level_of(x) != step:
            coherence_ok = False
            break
        x = deep.apply(x)
    coherence_ok &= deep.level_of(x) == deep.length - 1

    # dyadic dichotomy table
    a = Rank1Spec.from_rational("1/4", 4)
    b = Rank1Spec.from_rational("3/4", 4)
    c = Rank1Spec.from_rational("1/3", 4)
    dich_ok = (dyadic_equivalence(a, b).verdict == "isomorphic-family"
               and dyadic_equivalence(a, c).verdict == "disjoint-family"
               and dyadic_equivalence(b, c).verdict == "disjoint-family")

    # digit-prefix agreement forces identical stage words, exhaustive length <= 6
    prefix_ok = True
    for plen in range(1, 7):
        for bits in range(2**plen):
            digits = tuple((bits >> i) & 1 for i in range(plen))
            s1 = Rank1Spec.from_digits(digits + (0,))
            s2 = Rank1Spec.from_digits(digits + (1,))
            prefix_ok &= rank1_word(s1, plen).word == rank1_word(s2, plen).word
            prefix_ok &= np.array_equal(rank1_map(s1, plen).level_starts,
                                        rank1_map(s2, plen).level_starts)

    # map pieces partition their supports exactly (zero-tolerance rationals)
    partition_ok = True
    for depth in range(1, 13):
        m = rank1_map(Rank1Spec.from_rational("1/3", depth))
        partition_ok &= sorted(int(s) for s in m.level_starts) == list(range(m.length))
        partition_ok &= m.undefined_measure == F(1, m.length)

    record(
        "rank-one family (word table, itinerary depth 12, dichotomy, continuity, "
        "exact partitions)",
        table_ok and coherence_ok and dich_ok and prefix_ok and partition_ok,
        f"lengths {lengths}, heights {heights}",
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

#: product-closure writes wall time into its ``consistency-*`` checks'
#: observed text, "... (242 characters, 0.1s)" (ROADMAP O1)
ELAPSED_TOKEN = re.compile(r", [0-9]+\.[0-9]+s\)$")


def _elapsed_masked(canonical: bytes) -> tuple[bytes, int]:
    """The report with each ``consistency-*`` elapsed-seconds token masked, as
    the benchmark's digest masks it, and the number of tokens masked."""
    doc, masked = json.loads(canonical), 0
    for check in doc["checks"]:
        if check["check_id"].startswith("consistency-"):
            check["observed"], hits = ELAPSED_TOKEN.subn(", <elapsed>s)", check["observed"])
            masked += hits
    return (json.dumps(doc, sort_keys=True).encode() if masked else canonical), masked


def test_report_determinism():
    ok = True
    for experiment, overrides in [
        ("identity-disjoint", {"max_freq": 4, "N": 512, "samples": 2048}),
        ("example1", {"N": 512, "max_freq": 4, "invariance_degree": 1,
                      "statistical_samples": 2048}),
        ("rank1-family", {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
                          "wm_stages": [2, 3], "N": 256, "threshold": 0.2}),
        ("spectral-probe", {"N": 256, "toeplitz_size": 16, "eigenvalue_queries": [
            {"angle": "1/3", "expect_witnessed": True}]}),
        ("spectral-probe", {"system": {"kind": "twist", "params": {
            "base_measure": {"kind": "power-law-sampled", "exponent": 2}}},
            "observable": {"freqs": [0, 1], "centered": True}, "N": 256,
            "samples": 1024, "toeplitz_size": 16,
            "eigenvalue_queries": [{"angle": "0"}]}),
        ("product-closure", {"samples": 2048, "degree": 1}),
    ]:
        config_a = ExperimentConfig.resolve(experiment, 99, overrides)
        config_b = ExperimentConfig.resolve(experiment, 99, overrides)
        bytes_a, masked_a = _elapsed_masked(run_experiment(config_a).canonical_bytes())
        bytes_b, masked_b = _elapsed_masked(run_experiment(config_b).canonical_bytes())
        ok &= bytes_a == bytes_b
        # only product-closure's two consistency checks carry the token
        ok &= masked_a == masked_b == (2 if experiment == "product-closure" else 0)
    record("determinism (byte-identical reports modulo wall clock)", ok)
