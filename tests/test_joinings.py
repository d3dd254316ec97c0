"""The joining zoo: construction, marginals, invariance, product consistency."""

import cmath
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.core import (
    Character,
    HaarMeasure,
    IdentitySystem,
    ProductSystem,
    SpecValidationError,
    build_measure,
    build_system,
    character_array,
    derive_seed,
    frequency_box,
    rng_from_seed,
)
from ergolab.exact import PhaseSum
from ergolab.experiments import SQRT2_ANGLE_40
from ergolab.joinings import (
    MEANS_BLOCK_ROWS,
    JoiningConstructionError,
    _character_means,
    _product_characters,
    JoiningMeasure,
    build_joining,
    invariance_check,
    product_consistency_test,
    product_joining,
    rel_indep_joining,
    sample_joining,
)
from ergolab.schema import parse
from ergolab.spectral import correlation_sequence, detect_eigenvalue

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

ROT_THIRD = {"kind": "rotation", "params": {"angle": "1/3"}}
TWIST = {"kind": "twist", "params": {}}
MIX_HALVES = {
    "kind": "atoms",
    "atoms": [
        {"point": ["0"], "weight": "1/2"},
        {"point": ["1/2"], "weight": "1/2"},
    ],
}


def diag_third():
    return build_joining({"kind": "diagonal", "params": {"component": ROT_THIRD}})


def product_third_pair():
    return build_joining({"kind": "product",
                          "params": {"components": [ROT_THIRD, ROT_THIRD]}})


# ---------------------------------------------------------------------------
# construction and integrators
# ---------------------------------------------------------------------------

def test_product_of_rotation_with_itself():
    assert product_third_pair().integrate((1, -1)).is_zero()


def test_diagonal_of_rotation():
    assert diag_third().integrate((1, -1)).as_rational() == 1


def test_diagonal_samples_have_equal_coordinates():
    pts = sample_joining(diag_third(), seed=4, count=50, rationals=True)
    assert all(p[0] == p[1] for p in pts)
    floats = sample_joining(diag_third(), seed=4, count=50)
    assert np.array_equal(floats[:, 0], floats[:, 1])


def test_graph_joining_with_commuting_rotation():
    joining = build_joining({
        "kind": "graph",
        "params": {"component": ROT_THIRD,
                   "map": {"kind": "rotation", "params": {"angle": "1/7"}}},
    })
    # integral of e(x - y) over (x, x + 1/7) is e(-1/7)
    value = joining.integrate((1, -1))
    assert (value - PhaseSum.unit(F(-1, 7))).is_zero()


def test_graph_joining_rejects_non_preserving_map():
    with pytest.raises((JoiningConstructionError, SpecValidationError)):
        build_joining({
            "kind": "graph",
            "params": {
                "component": {"kind": "identity",
                              "params": {"measure": MIX_HALVES}},
                # a rotation by 1/3 does not preserve the two-atom measure
                "map": ROT_THIRD,
            },
        })


def test_graph_joining_rejects_non_commuting_map():
    # the twist does not commute with rotating only the base coordinate
    base_rot = {
        "kind": "product",
        "params": {"factors": [
            {"kind": "rotation", "params": {"angle": "1/5"}},
            {"kind": "identity", "params": {"measure": {"kind": "haar", "arity": 1}}},
        ]},
    }
    with pytest.raises(JoiningConstructionError) as err:
        build_joining({"kind": "graph",
                       "params": {"component": TWIST, "map": base_rot}})
    assert err.value.character is not None


def test_off_diagonal_zero_equals_diagonal():
    off0 = build_joining({"kind": "off-diagonal",
                          "params": {"component": ROT_THIRD, "power": 0}})
    diag = diag_third()
    for k in frequency_box(2, 4):
        assert (off0.integrate(k) - diag.integrate(k)).is_zero()


def test_off_diagonal_powers_and_negative_powers():
    for power in (1, 2, -1):
        off = build_joining({"kind": "off-diagonal",
                             "params": {"component": ROT_THIRD, "power": power}})
        expected = PhaseSum.unit(F(-power, 3))  # integral of e(x - y), y = x + p/3
        assert (off.integrate((1, -1)) - expected).is_zero()


def test_joining_spec_round_trip_and_validation():
    spec = parse({"kind": "diagonal", "params": {"component": ROT_THIRD}}, "joining")
    assert parse(json.loads(json.dumps(spec)), "joining") == spec
    with pytest.raises(SpecValidationError):
        parse({"kind": "nope", "params": {}}, "joining")


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("builder", [
    diag_third,
    product_third_pair,
    lambda: build_joining({"kind": "example1-triple", "params": {"angle": "1/5"}}),
])
def test_marginal_exactness(builder):
    joining = builder()
    lo = 0
    for i, factor in enumerate(joining.factors):
        arity = len(factor.space)
        for k in frequency_box(arity, 3):
            joint_k = [0] * len(joining.space)
            joint_k[lo:lo + arity] = list(k)
            joint = joining.integrate(tuple(joint_k))
            marginal = factor.measure.integrate_character(k)
            assert (joint - marginal).is_zero(), f"factor {i}, character {k}"
        lo += arity


def test_sampled_marginals_within_4_sigma():
    joining = product_third_pair()
    n = 1000
    pts = sample_joining(joining, seed=8, count=n)
    emp = np.exp(2j * np.pi * pts[:, 0]).mean()
    assert abs(emp - 0) <= 4 / np.sqrt(n)


# ---------------------------------------------------------------------------
# rel-indep
# ---------------------------------------------------------------------------

def test_rel_indep_over_trivial_factor_equals_product_exactly():
    identity = IdentitySystem(build_measure(MIX_HALVES))
    rotation = build_system(ROT_THIRD)
    rel = rel_indep_joining([identity, rotation], [[], []], {"kind": "product"})
    prod = product_joining([identity, rotation])
    for k in frequency_box(2, 8):
        assert (rel.integrate(k) - prod.integrate(k)).is_zero(), k


def test_rel_indep_trivial_factor_sampled_cross_average():
    identity = IdentitySystem(HaarMeasure(1))
    rotation = build_system(ROT_THIRD)
    rel = rel_indep_joining([identity, rotation], [[], []], {"kind": "product"})
    n = 4096
    pts = sample_joining(rel, seed=13, count=n)
    emp = np.exp(2j * np.pi * (pts[:, 0] - pts[:, 1])).mean()
    assert abs(emp) <= 4 / np.sqrt(n)


def test_rel_indep_over_twist_bases_diagonal_coupling():
    """Coupling the bases diagonally leaves fiber coordinates independent."""
    t1 = build_system(TWIST)
    t2 = build_system(TWIST)
    rel = rel_indep_joining([t1, t2], [[0], [0]], {"kind": "diagonal"})
    # base coordinates coupled: e(x1 - x2) integrates to 1
    assert rel.integrate((1, 0, -1, 0)).as_rational() == 1
    # fiber coordinates independent Haar: e(y1 - y2) integrates to 0
    assert rel.integrate((0, 1, 0, -1)).is_zero()
    pts = sample_joining(rel, seed=2, count=32, rationals=True)
    assert all(p[0] == p[2] for p in pts)


def test_rel_indep_conditional_atom_fibers():
    atoms = {
        "kind": "atoms",
        "atoms": [
            {"point": ["0", "0"], "weight": "1/2"},
            {"point": ["1/2", "1/4"], "weight": "1/2"},
        ],
    }
    ident = IdentitySystem(build_measure(atoms))
    other = IdentitySystem(build_measure(MIX_HALVES))
    rel = rel_indep_joining([ident, other], [[0], []], {"kind": "product"})
    # marginal on the first component must reproduce the atom coupling
    for k in frequency_box(2, 2):
        joint = rel.integrate(tuple(k) + (0,))
        marginal = ident.measure.integrate_character(k)
        assert (joint - marginal).is_zero()


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------

def test_invariance_diagonal_exact():
    report = invariance_check(diag_third(), [(1, -1), (2, 0), (1, 1)])
    assert report.passed and report.mode == "exact"


def test_invariance_product_exact():
    report = invariance_check(product_third_pair(), frequency_box(2, 3, skip_zero=True))
    assert report.passed and report.mode == "exact"


def test_invariance_example1_modulus_preserved():
    triple = build_joining({"kind": "example1-triple", "params": {"angle": "1/5"}})
    report = invariance_check(triple, [(0, -1, 0, 1)])
    assert report.passed
    step = triple.char_pullback((0, -1, 0, 1))
    # e(z - y) o P = e(z - y + x2 - x1 + 1/5) with slope 1
    assert step == ((-1, -1, 1, 1), F(1, 5))
    k2, phase = step
    before = triple.integrate((0, -1, 0, 1))
    after = triple.integrate(k2).rotated(phase)
    assert (before.abs2() - after.abs2()).is_zero()


def test_invariance_sampled_path():
    identity = IdentitySystem(HaarMeasure(1))
    rotation = build_system(ROT_THIRD)
    # the product joining, given only by its samplers
    sampled = ProductSystem([identity, rotation], measure=JoiningMeasure(
        identity.space + rotation.space, lambda k: None,
        lambda rng, n: [p + q for p, q in zip(identity.measure.sample_rationals(rng, n),
                                              rotation.measure.sample_rationals(rng, n))],
        lambda rng, n: np.concatenate([identity.measure.sample_floats(rng, n),
                                       rotation.measure.sample_floats(rng, n)], axis=1),
        description="sampled product", exact_flag=False))
    report = invariance_check(sampled, [(1, 0), (0, 1), (1, -1)],
                              seed=21, samples=8192)
    assert report.passed and report.mode == "sampled"


# ---------------------------------------------------------------------------
# product consistency
# ---------------------------------------------------------------------------

def test_consistency_graph_of_rotation_refuted_with_witness():
    outcome = product_consistency_test(diag_third(), degree=1)
    assert outcome.refuted
    assert outcome.witness in ((1, -1), (-1, 1))
    row = next(r for r in outcome.rows if r.character == (1, -1))
    assert row.joint == pytest.approx(1.0)
    assert row.product == pytest.approx(0.0)


def test_consistency_product_passes():
    outcome = product_consistency_test(product_third_pair(), degree=2)
    assert outcome.verdict == "consistent-with-product"
    assert "one-sided" in outcome.note


def test_consistency_sampled_mode():
    identity = IdentitySystem(HaarMeasure(1))
    rotation = build_system(ROT_THIRD)
    prod = product_joining([identity, rotation])
    outcome = product_consistency_test(prod, degree=2, mode="sampled",
                                       samples=4096, seed=77)
    assert outcome.verdict == "consistent-with-product"
    assert all(r.sigma == pytest.approx(1 / np.sqrt(4096)) for r in outcome.rows)


def test_consistency_sampled_detects_diagonal():
    outcome = product_consistency_test(diag_third(), degree=1, mode="sampled",
                                       samples=4096, seed=5)
    assert outcome.refuted


def test_consistency_csv_row_count():
    """One row per nonzero character of the degree-1 box, in box order."""
    outcome = product_consistency_test(diag_third(), degree=1)
    assert [r.character for r in outcome.rows] == frequency_box(2, 1, skip_zero=True)


# ---------------------------------------------------------------------------
# the coupled triple
# ---------------------------------------------------------------------------

def test_example1_triple_z_evolution_exact_at_declared_precision():
    angle = "0.7071067811865475244008443621048490392848"
    triple = build_joining({"kind": "example1-triple", "params": {"angle": angle}})
    pts = sample_joining(triple, seed=31, count=4, rationals=True)
    alpha = F(7071067811865475244008443621048490392848, 10**40)
    for p in pts:
        q = triple.apply(p)
        assert q[3] == (p[3] + p[0] + alpha) % 1
        assert q[1] == (p[1] + p[0]) % 1
        assert q[0] == p[0] and q[2] == p[2]


def test_example1_time_zero_factor_integral_vanishes():
    triple = build_joining({"kind": "example1-triple", "params": {"angle": "1/5"}})
    assert triple.integrate((0, -1, 0, 1)).is_zero()


def test_example1_eigenvalue_route_refutes_product():
    """The factor observable has full eigenvalue mass on the coupled triple and
    none on the product: the refutation route for the coupled joining."""
    triple = build_joining({"kind": "example1-triple", "params": {"angle": "1/5"}})
    F_obs = Character((0, -1, 0, 1))
    mass_triple = detect_eigenvalue(triple, F_obs, "1/5", 4096)
    assert mass_triple.mass_squared_exact == 1 and mass_triple.witnessed
    mass_prod = detect_eigenvalue(product_joining(triple.factors), F_obs, "1/5", 4096)
    assert mass_prod.mass <= 2 / 4096
    assert not mass_prod.witnessed


def test_example1_correlation_sequence_is_rotation_like():
    triple = build_joining({"kind": "example1-triple", "params": {"angle": "1/5"}})
    seq = correlation_sequence(triple, Character((0, -1, 0, 1)), 10)
    for n in range(11):
        assert seq.value(n) == pytest.approx(
            cmath.exp(-2j * cmath.pi * n / 5), abs=1e-12)


def test_example1_statistical_base_sampler():
    triple = build_joining({
        "kind": "example1-triple",
        "params": {"base_measure": {"kind": "power-law-sampled", "exponent": 2},
                   "angle": "1/5"},
    })
    assert not triple.measure.exact
    pts = sample_joining(triple, seed=11, count=100)
    assert np.array_equal(pts[:, 0], pts[:, 2])
    report = invariance_check(triple, [(1, 0, -1, 0), (0, 1, 0, -1)],
                              seed=3, samples=8192)
    assert report.passed


# ---------------------------------------------------------------------------
# character-mean kernel and marginal memo
# ---------------------------------------------------------------------------

@st.composite
def points_and_family(draw):
    arity = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 3))
    n = draw(st.sampled_from([1, 2, 7, MEANS_BLOCK_ROWS - 1, MEANS_BLOCK_ROWS,
                              MEANS_BLOCK_ROWS + 1, 2 * MEANS_BLOCK_ROWS + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # coordinates outside [0, 1) too: characters are periodic
    points = rng.uniform(-2.0, 3.0, size=(n, arity))
    key = st.tuples(*[st.integers(-degree, degree)] * arity)
    family = draw(st.lists(key, min_size=1, max_size=40))
    if draw(st.booleans()):
        family.append((0,) * arity)
    return points, family


@settings(max_examples=60, deadline=None)
@given(points_and_family())
def test_character_means_match_per_character_means(case):
    points, family = case
    means = _character_means(points, family)
    assert set(means) == set(family)
    for k in family:
        assert abs(means[k] - complex(character_array(k, points).mean())) <= 1e-12
    if (0,) * points.shape[1] in family:
        assert means[(0,) * points.shape[1]] == pytest.approx(1.0, abs=1e-15)


def _box_means_by_recursion(points, degree):
    """Reference: one running partial product per node of the box's enumeration tree."""
    n, arity = points.shape
    cols = []
    for c in range(arity):
        base = np.exp(2j * np.pi * points[:, c])
        per = {0: np.ones(n, dtype=np.complex128)}
        acc = np.ones(n, dtype=np.complex128)
        for v in range(1, degree + 1):
            acc = acc * base
            per[v] = acc
            per[-v] = np.conj(acc)
        cols.append(per)
    means = {}

    def rec(c, partial, prefix):
        if c == arity:
            means[prefix] = complex(partial.mean())
            return
        for v in range(-degree, degree + 1):
            rec(c + 1, partial * cols[c][v] if v else partial, prefix + (v,))

    rec(0, np.ones(n, dtype=np.complex128), ())
    return means


@pytest.mark.parametrize("arity, degree", [(1, 3), (2, 2), (4, 1), (5, 2)])
def test_box_means_equal_the_recursion_and_sub_families(arity, degree):
    points = np.random.default_rng(arity).random((2 * MEANS_BLOCK_ROWS + 5, arity))
    box = frequency_box(arity, degree)
    means = _character_means(points, box)
    reference = _box_means_by_recursion(points, degree)
    assert set(means) == set(reference)
    assert max(abs(means[k] - reference[k]) for k in box) <= 1e-12
    nonzero = frequency_box(arity, degree, skip_zero=True)
    sparse = box[::3]
    for family in (nonzero, sparse):
        sub = _character_means(points, family)
        assert max(abs(sub[k] - means[k]) for k in family) <= 1e-12


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_a_key_and_its_negative_read_exact_conjugates(arity):
    points = np.random.default_rng(arity).uniform(-2.0, 3.0, (MEANS_BLOCK_ROWS + 9, arity))
    box = frequency_box(arity, 2)
    means = _character_means(points, box)
    for k in box:
        assert means[tuple(-v for v in k)] == means[k].conjugate(), k
    # every key's first right-half coordinate negative: every mean is read
    # as the conjugate of its negative's, which is not in the family
    half = arity // 2
    family = [k for k in box if k[half] < 0]
    means = _character_means(points, family)
    assert set(means) == set(family)
    for k in family:
        assert abs(means[k] - complex(character_array(k, points).mean())) <= 1e-12


def test_character_means_of_the_closure_box_peak_below_3_mib():
    """One call on product-closure's shape: 30,000 samples, 3,124 characters.
    Per block of ``MEANS_BLOCK_ROWS`` samples the tables are (columns, samples):
    25 left columns, and 75 right ones, as the right table holds only the keys
    whose first right-half coordinate is >= 0.  Measured peak: 2.5 MiB."""
    points = np.random.default_rng(5).random((30000, 5))
    box = frequency_box(5, 2, skip_zero=True)
    tracemalloc.start()
    try:
        _character_means(points, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


#: prints the bytes that one kernel call on product-closure's shape leaves allocated
FIRST_CALL = """
import tracemalloc
import numpy as np
from ergolab.core import frequency_box
from ergolab.joinings import _character_means
points = np.random.default_rng(5).random((30000, 5))
box = frequency_box(5, 2, skip_zero=True)
tracemalloc.start()
before, _ = tracemalloc.get_traced_memory()
_character_means(points, box)
after, _ = tracemalloc.get_traced_memory()
print(after - before)
"""


def test_a_first_character_means_call_leaves_at_most_64_kib_allocated():
    """In a fresh interpreter, so that a module the kernel's first call imports
    lazily (``np.unique`` keeps about 1 MiB so) is counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FIRST_CALL], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.splitlines()[-1]) <= 64 * 2**10


def _closure_joinings():
    twist_doc = {"kind": "twist", "params": {}}
    pair = build_system({"kind": "product", "params": {"factors": [twist_doc, twist_doc]}})
    rotation = build_system({"kind": "rotation", "params": {"angle": SQRT2_ANGLE_40},
                             "precision": 40})
    return [product_joining([pair, rotation]),
            rel_indep_joining([pair, rotation], [[0, 2], []], {"kind": "product"})]


def _count_factor_integrals(joining, calls: list) -> None:
    """Append (factor index, frequency) to ``calls`` at every integral of a
    factor's measure."""
    for i, factor in enumerate(joining.factors):
        def counted(k, i=i, integrate=factor.measure.integrate_character):
            calls.append((i, tuple(k)))
            return integrate(k)
        factor.measure.integrate_character = counted


def test_memoized_product_integral_equals_uncached_product():
    # the last joining's factors share an arity but not their integrals
    joinings = _closure_joinings() + [product_joining(
        [IdentitySystem(build_measure(MIX_HALVES)), build_system(ROT_THIRD)])]
    for joining in joinings:
        boxes = [frequency_box(len(c.space), 2) for c in joining.factors]
        characters = _product_characters(boxes)
        for k in characters:
            uncached = PhaseSum.one()
            for factor, sl in zip(joining.factors, joining._slices):
                uncached = uncached * factor.measure.integrate_character(k[sl])
            assert joining.product_integral(k).terms == uncached.terms, k


def test_product_integral_computes_each_marginal_once():
    joining = _closure_joinings()[0]
    calls = []
    _count_factor_integrals(joining, calls)
    characters = _product_characters([frequency_box(len(c.space), 2)
                                      for c in joining.factors])
    first = [joining.product_integral(k).terms for k in characters]
    assert len(calls) == len(set(calls)) == 5**4 + 5
    second = [joining.product_integral(k).terms for k in characters]
    assert second == first
    assert len(calls) == 5**4 + 5


@pytest.mark.parametrize("which", [0, 1])
def test_sampled_closure_rows_hold_the_exact_product(which):
    """product-closure's sampled check: one product_integral call per row,
    each marginal integrated once, and every row's product is its value."""
    joining = _closure_joinings()[which]
    product_calls, marginal_calls = [], []
    product_integral = joining.product_integral

    def counted_product(k):
        product_calls.append(k)
        return product_integral(k)

    joining.product_integral = counted_product
    _count_factor_integrals(joining, marginal_calls)
    outcome = product_consistency_test(joining, degree=2, mode="sampled",
                                       samples=257, seed=2024)
    assert len(outcome.rows) == 5**5 - 1
    assert len(product_calls) == len(outcome.rows)
    assert len(marginal_calls) == len(set(marginal_calls)) == 5**4 + 5
    for row in outcome.rows:
        assert row.product == product_integral(row.character).value(), row.character
    assert len(marginal_calls) == 5**4 + 5


def _sampled_product_value_per_character(joining, k, seed, samples):
    """Reference: draw every marginal sample again for each character."""
    total = 1.0 + 0j
    for i, (factor, sl) in enumerate(zip(joining.factors, joining._slices)):
        rng = rng_from_seed(derive_seed(seed, f"marginal-{i}"))
        pts = factor.measure.sample_floats(rng, samples)
        total *= complex(character_array(k[sl], pts).mean())
    return total


def test_sampled_marginals_drawn_once_and_match_per_character_draws():
    triple = build_joining({
        "kind": "example1-triple",
        "params": {"base_measure": {"kind": "power-law-sampled", "exponent": 2},
                   "angle": "1/5"},
    })
    draws = []
    for i, factor in enumerate(triple.factors):
        def counted(rng, n, i=i, sample=factor.measure.sample_floats):
            draws.append(i)
            return sample(rng, n)
        factor.measure.sample_floats = counted
    seed, samples = 41, MEANS_BLOCK_ROWS + 11
    outcome = product_consistency_test(triple, degree=1, mode="sampled",
                                       samples=samples, seed=seed)
    assert sorted(draws) == [0, 1]
    sampled_rows = 0
    for row in outcome.rows:
        exact = triple.product_integral(row.character)
        if exact is not None:
            assert row.product == exact.value()
            continue
        sampled_rows += 1
        reference = _sampled_product_value_per_character(triple, row.character,
                                                         seed, samples)
        assert abs(row.product - reference) <= 1e-12
    assert sampled_rows > 0


def test_sampled_checks_refuse_an_empty_sample():
    with pytest.raises(SpecValidationError, match="samples"):
        product_consistency_test(diag_third(), degree=1, mode="sampled", samples=0, seed=1)
    triple = build_joining({
        "kind": "example1-triple",
        "params": {"base_measure": {"kind": "power-law-sampled", "exponent": 2}},
    })
    with pytest.raises(SpecValidationError, match="samples"):
        invariance_check(triple, [(1, 0, -1, 0)], seed=1, samples=0)


def test_negative_power_over_a_rotation_is_exact():
    """The off-diagonal joining of a group extension over the rotation 2/7
    with its inverse integrates exactly.  Oracle: the mean of the character
    over an M x M grid of rational points (x, g) and their images, which is
    the Haar integral for every frequency below M."""
    component = {"kind": "group-extension", "params": {
        "base": {"kind": "rotation", "params": {"angle": "2/7"}},
        "cocycle": {"kind": "affine", "slope": "3", "intercept": "1/5"}}}
    system = build_system(component)
    M = 16
    grid = [(Fraction(i, M), Fraction(j, M)) for i in range(M) for j in range(M)]
    for power in (-1, -2, 1):
        joining = build_joining({"kind": "off-diagonal",
                                 "params": {"component": component, "power": power}})
        assert joining.measure.exact
        step = system.inverse() if power < 0 else system
        images = grid
        for _ in range(abs(power)):
            images = [step.apply(p) for p in images]
        for k in [(1, 1, 0, 0), (-3, 1, 0, -1), (-6, 1, 0, -1), (3, 1, 0, -1),
                  (0, 1, 0, -1), (2, -1, 1, 1), (1, 0, -1, 0)]:
            brute = PhaseSum((sum(a * b for a, b in zip(k, p + q)), Fraction(1, M * M))
                             for p, q in zip(grid, images))
            assert joining.integrate(k) == brute
    off = build_joining({"kind": "off-diagonal",
                         "params": {"component": component, "power": -1}})
    # the graph of T^-1: e(-3x + g - g') integrates to e(-(3 * 2/7 - 1/5))
    assert off.integrate((-3, 1, 0, -1)) == PhaseSum.unit(Fraction(-23, 35))
