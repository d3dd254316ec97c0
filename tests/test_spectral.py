"""Spectral engine: correlation sequences, Wiener averaging, eigenvalue detection.

Oracles: correlation values are cross-checked against midpoint quadrature on a
grid (exact for trigonometric polynomials up to the grid size) and rotated
averages against direct summation, both computed independently of the
pullback machinery.
"""

import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab.core import (
    Character,
    IdentitySystem,
    LevelIndicator,
    RotationSystem,
    SpecValidationError,
    build_measure,
    build_system,
    pullback_orbit,
    rng_from_seed,
)
from ergolab.rank1 import (
    Rank1Spec,
    build_rank1_system,
    stage_level_positions,
    word_lengths,
)
from ergolab.exact import PhaseSum, parse_scalar, scalar_str
from ergolab.spectral import (
    CorrelationSeq,
    _atom_grid,
    _autocorrelation,
    _grid_screen,
    _rotated_average,
    correlation_sequence,
    detect_eigenvalue,
    weak_mixing_test,
    wiener_atomic_mass,
)

F = Fraction


def rotation(angle, measure=None):
    params = {"angle": angle}
    if measure is not None:
        params["measure"] = measure
    return build_system({"kind": "rotation", "params": params})


def twist():
    return build_system({"kind": "twist", "params": {}})


MIX_HALVES = {
    "kind": "atoms",
    "atoms": [
        {"point": ["0"], "weight": "1/2"},
        {"point": ["1/2"], "weight": "1/2"},
    ],
}


@pytest.mark.parametrize("system, k", [
    (twist(), (0, 1)),
    (rotation("1/2", MIX_HALVES), (1,)),
    (build_system({"kind": "group-extension", "params": {
        "base": {"kind": "rotation", "params": {"angle": "2/7"}},
        "cocycle": {"kind": "affine", "slope": 2, "intercept": "1/5"}}}), (1, 1)),
])
def test_exact_phases_follow_the_pullback_formula(system, k):
    """Each affine-pullback phase is conj(mu_hat(k_n - k)) * e(-P_n / Q), built
    here term by term; an exactly zero integral is kept as it is."""
    N = 12
    seq = correlation_sequence(system, Character(k), N)
    assert seq.provenance == "affine-pullback"
    Q = system.phase_modulus
    orbit = list(pullback_orbit(system, k, N + 1))
    assert len(seq._phases) == len(orbit) == N + 1
    for phase, (kn, P) in zip(seq._phases, orbit):
        mu = system.measure.integrate_character(tuple(a - b for a, b in zip(kn, k)))
        assert phase.terms == PhaseSum((-t - F(P, Q), w) for t, w in mu.terms).terms


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def quadrature_correlation(apply_n, freqs, n, grid=64):
    """<f o T^(-n), f> by midpoint quadrature: exact for trig polynomials of
    degree < grid because the midpoint sums of e^(2*pi*i*m*x) vanish unless
    grid | m.  ``apply_n(point, n)`` must return T^n(point)."""
    arity = len(freqs)
    axes = [(np.arange(grid) + 0.5) / grid for _ in range(arity)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    forward = np.array([apply_n(p, n) for p in points])
    f_fwd = np.exp(2j * np.pi * (forward @ np.array(freqs)))
    f0 = np.exp(2j * np.pi * (points @ np.array(freqs)))
    # <f o T^(-n), f> = conj(<f o T^n, f>)
    return complex((f_fwd * np.conj(f0)).mean()).conjugate()


def direct_rotated_sum(values, angle, N):
    """Oracle for eigenvalue mass: plain python summation of values(n) * alpha^n."""
    total = 0j
    for n in range(N):
        total += values[n] * cmath.exp(2j * cmath.pi * float(angle) * n)
    return abs(total) / N


# ---------------------------------------------------------------------------
# correlation sequences
# ---------------------------------------------------------------------------

def test_rotation_correlation_closed_form_and_quadrature():
    angle = F(1, 3)
    sys_ = rotation("1/3")
    seq = correlation_sequence(sys_, Character((1,)), 8)
    assert seq.exact

    def apply_n(p, n):
        return [(p[0] + n * float(angle)) % 1.0]

    for n in range(9):
        expected = cmath.exp(-2j * cmath.pi * n / 3)
        assert seq.value(n) == pytest.approx(expected, abs=1e-12)
        assert seq.value(n) == pytest.approx(
            quadrature_correlation(apply_n, (1,), n), abs=1e-12)
        assert seq.value(-n) == pytest.approx(expected.conjugate(), abs=1e-12)


def test_rotation_correlation_frozen_values():
    # frozen from the quadrature oracle at angle 1/3, k = 1
    frozen = [
        1.0 + 0.0j,
        -0.5 - 0.8660254037844386j,
        -0.5 + 0.8660254037844386j,
        1.0 + 0.0j,
    ]
    seq = correlation_sequence(rotation("1/3"), Character((1,)), 4)
    for n, expected in enumerate(frozen):
        assert seq.value(n) == pytest.approx(expected, abs=1e-12)


def test_twist_correlation_is_base_fourier():
    seq = correlation_sequence(twist(), Character((0, 1)), 16)
    assert seq.exact
    assert seq.phases[0].as_rational() == 1
    for n in range(1, 17):
        assert seq.phases[n].is_zero()

    def apply_n(p, n):
        return [p[0], (p[1] + n * p[0]) % 1.0]

    for n in range(4):
        assert seq.value(n) == pytest.approx(
            quadrature_correlation(apply_n, (0, 1), n, grid=32), abs=1e-12)


def test_identity_correlation_is_constant_one():
    sys_ = IdentitySystem(build_measure(MIX_HALVES))
    seq = correlation_sequence(sys_, Character((3,)), 8)
    for n in range(-8, 9):
        assert seq.value(n) == pytest.approx(1.0, abs=1e-14)


def test_centered_correlation_subtracts_squared_mean():
    sys_ = IdentitySystem(build_measure(MIX_HALVES))
    seq = correlation_sequence(sys_, Character((2,)), 8, center=True)
    # e(2x) has mean 1 on the two-atom mixture, so the centered sequence vanishes
    for n in range(9):
        assert seq.phases[n].is_zero()
    seq1 = correlation_sequence(sys_, Character((1,)), 8, center=True)
    # e(x) has mean 0 there, so centering changes nothing
    for n in range(9):
        assert seq1.value(n) == pytest.approx(1.0, abs=1e-14)


def test_finite_support_path_matches_pullback_path():
    sys_ = rotation("1/2", measure=MIX_HALVES)
    via_pullback = correlation_sequence(sys_, Character((1,)), 8)
    atoms = sys_.measure.enumerate_atoms()
    assert atoms is not None
    for n in range(9):
        points = [p for _, p in atoms]
        for _ in range(n):
            points = [sys_.apply(p) for p in points]
        c_n = sum(
            float(w) * cmath.exp(2j * cmath.pi * float(q[0] - p[0]))
            for (w, p), q in zip(atoms, points)
        )
        assert via_pullback.value(n) == pytest.approx(
            complex(c_n).conjugate(), abs=1e-12)


def test_atom_orbit_path_matches_pushed_atoms():
    """A table cocycle has no pullback, so a finite-support measure takes the
    atom-orbit path; its phases equal sum_p w * e(<k, p - T^n p>) exactly."""
    sys_ = build_system({"kind": "group-extension", "params": {
        "base": {"kind": "identity", "params": {"measure": {"kind": "atoms", "atoms": [
            {"point": ["0"], "weight": "1/3"}, {"point": ["1/2"], "weight": "2/3"}]}}},
        "cocycle": {"kind": "table", "entries": [
            {"point": ["0"], "value": "1/4"}, {"point": ["1/2"], "value": "3/4"}]},
        "group": {"kind": "cyclic", "order": 4},
    }})
    atoms = sys_.measure.enumerate_atoms()
    # e(x + 4g) has mean 1/3 - 2/3 = -1/3 on these atoms, so centering moves it
    for k, center, shift in [((1, 1), False, 0), ((0, 3), False, 0),
                             ((1, 4), True, Fraction(1, 9))]:
        seq = correlation_sequence(sys_, Character(k), 9, center=center)
        assert seq.provenance == "atom-orbits" and seq.exact
        points = [p for _, p in atoms]
        for n in range(10):
            expected = PhaseSum(
                (sum(ki * (a - b) for ki, a, b in zip(k, p, q)), w)
                for (w, p), q in zip(atoms, points)) - shift
            assert (seq.phases[n] - expected).is_zero()
            assert seq.value(n) == pytest.approx(expected.value(), abs=1e-14)
            points = [sys_.apply(q) for q in points]


def test_sampled_correlation_tracks_exact():
    from ergolab.spectral import _sampled_sequence

    sys_ = twist()
    exact = correlation_sequence(sys_, Character((0, 1)), 8)
    seq = _sampled_sequence(sys_, (0, 1), 8, False, seed=3, samples=20000)
    assert not seq.exact and seq.std_errors is not None
    for n in range(9):
        assert abs(seq.value(n) - exact.value(n)) < 4 * seq.std_errors[n] + 1e-3


def test_hermitian_symmetry_and_cauchy_schwarz():
    for sys_, f in [
        (rotation("2/7"), Character((1,))),
        (twist(), Character((1, 1))),
        (IdentitySystem(build_measure(MIX_HALVES)), Character((1,))),
    ]:
        seq = correlation_sequence(sys_, f, 32)
        for n in range(33):
            assert seq.value(-n) == pytest.approx(seq.value(n).conjugate(), abs=1e-14)
            assert abs(seq.value(n)) <= abs(seq.value(0)) + 1e-12


@pytest.mark.parametrize("system_builder, f", [
    (lambda: rotation("1/3"), Character((1,))),
    (lambda: rotation("2/7"), Character((2,))),
    (lambda: twist(), Character((1, 1))),
    (lambda: IdentitySystem(build_measure(MIX_HALVES)), Character((1,))),
])
def test_toeplitz_positive_semidefinite(system_builder, f):
    seq = correlation_sequence(system_builder(), f, 64)
    assert seq.toeplitz_min_eigenvalue(64) >= -1e-9


def test_mixture_affinity_of_coefficients():
    """Coefficients are exactly affine in the mixture weight (shared dynamics)."""
    haar = {"kind": "haar", "arity": 1}
    seq_ends = {}
    for w in (F(0), F(1, 4), F(1, 2), F(1)):
        if w == 0:
            measure = MIX_HALVES
        elif w == 1:
            measure = haar
        else:
            measure = {"kind": "mixture", "components": [
                {"weight": str(w), "measure": haar},
                {"weight": str(1 - w), "measure": MIX_HALVES},
            ]}
        sys_ = rotation("1/2", measure=measure)
        seq_ends[w] = correlation_sequence(sys_, Character((2,)), 16)
    for n in range(17):
        p0 = seq_ends[F(0)].phases[n]
        p1 = seq_ends[F(1)].phases[n]
        for w in (F(1, 4), F(1, 2)):
            pw = seq_ends[w].phases[n]
            assert (pw - (p1 * w + p0 * (1 - w))).is_zero()


# ---------------------------------------------------------------------------
# Wiener averaging
# ---------------------------------------------------------------------------

def test_wiener_identity_mass_one():
    seq = correlation_sequence(IdentitySystem(build_measure(MIX_HALVES)),
                               Character((1,)), 64)
    report = wiener_atomic_mass(seq, grid_max_denominator=4)
    assert report.total_exact == 1


def test_wiener_rotation_mass_one_with_flat_trace():
    seq = correlation_sequence(rotation("1/3"), Character((1,)), 64)
    report = wiener_atomic_mass(seq, grid_max_denominator=8)
    assert report.total_exact == 1
    assert [m for _, m in report.trace] == pytest.approx([1.0, 1.0, 1.0])
    # the spectral atom of the rotation by a sits at e(-a): angle 2/3 here
    assert report.atoms[0]["angle"] == "2/3"
    assert report.atoms[0]["weight"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("N", [256, 1024, 4096])
def test_wiener_twist_mass_is_one_over_N(N):
    seq = correlation_sequence(twist(), Character((0, 1)), N)
    report = wiener_atomic_mass(seq, grid_max_denominator=1)
    assert report.total_exact == F(1, N)
    assert report.total_atomic_mass <= 2 / N
    expected_trace = [F(4, N), F(2, N), F(1, N)]
    assert [m for _, m in report.trace] == pytest.approx(
        [float(t) for t in expected_trace])


def test_wiener_requires_minimum_order():
    seq = correlation_sequence(rotation("1/3"), Character((1,)), 8)
    with pytest.raises(SpecValidationError):
        wiener_atomic_mass(seq)


def test_atom_masses_bounded_by_total():
    seq = correlation_sequence(rotation("1/3"), Character((1,)), 256)
    report = wiener_atomic_mass(seq, grid_max_denominator=16)
    assert -1e-9 <= report.total_atomic_mass <= abs(seq.value(0)) ** 2 + 1e-9
    for atom in report.atoms:
        assert atom["squared_weight"] <= report.total_atomic_mass + 1e-9


def reference_atoms(seq, candidates=(), grid_max_denominator=64, atom_floor=0.05):
    """The atom scan before screening: ``_rotated_average`` at every grid angle."""
    grid = sorted({F(p, q) for q in range(1, grid_max_denominator + 1) for p in range(q)})
    atoms, seen = [], set()
    for angle in [parse_scalar(c, field="candidates") for c in candidates] + grid:
        angle %= 1
        if angle in seen:
            continue
        seen.add(angle)
        weight = _rotated_average(seq, angle, seq.N, sign=-1)
        if weight >= atom_floor:
            atoms.append({"angle": scalar_str(angle), "weight": weight,
                          "squared_weight": weight ** 2})
    atoms.sort(key=lambda a: -a["weight"])
    return atoms


def float_sequence(values) -> CorrelationSeq:
    values = np.asarray(values, dtype=np.complex128)
    return CorrelationSeq(N=len(values) - 1, observable=Character((1,)), exact=False,
                          _values=values)


def planted(N, atoms, noise=0.0, seed=0):
    """values(n) = sum of weight * e(n * angle) over the atoms, plus noise."""
    n = np.arange(N + 1)
    values = sum(w * np.exp(2j * np.pi * float(a) * n) for a, w in atoms)
    rng = np.random.default_rng(seed)
    return values + noise * (rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))


def test_atom_grid_is_the_sorted_farey_set():
    for n in range(-1, 65):
        expected = sorted({F(p, q) for q in range(1, n + 1) for p in range(q)})
        assert [F(p, q) for p, q in _atom_grid(n)] == expected
        assert all(F(p, q).denominator == q for p, q in _atom_grid(n))


@pytest.mark.parametrize("system, freqs, N, candidates", [
    ("rotation-1/5", (1,), 1024, []),
    ("rotation-1/5", (1,), 256, ["4/5", "1/7", "0.8", "1/3"]),
    ("twist", (0, 1), 4096, []),
    ("twist", (0, 1), 256, ["0", "1/2"]),
])
def test_wiener_atoms_equal_the_unscreened_scan(system, freqs, N, candidates):
    sys_ = rotation("1/5") if system == "rotation-1/5" else twist()
    seq = correlation_sequence(sys_, Character(freqs), N)
    report = wiener_atomic_mass(seq, candidates=candidates)
    assert report.atoms == reference_atoms(seq, candidates)


@pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
@pytest.mark.parametrize("angle", [F(3, 7), F(0), F(17, 64), F(1, 3), F(2, 3)])
@pytest.mark.parametrize("N", [512, 4096])
def test_wiener_atoms_planted_at_the_floor(offset, angle, N):
    # values(n) = w * e(n * a) has its atom at angle a; the floor is set within
    # 1e-12 of the weight the direct formula gives at the planted angle
    seq = float_sequence(planted(N, [(angle, 0.3), (F(1, 3), 0.5)], noise=0.01))
    weight = _rotated_average(seq, angle, seq.N, sign=-1)
    floor = weight + offset
    report = wiener_atomic_mass(seq, atom_floor=floor)
    assert report.atoms == reference_atoms(seq, atom_floor=floor)
    found = scalar_str(angle) in {a["angle"] for a in report.atoms}
    assert found == (offset <= 0)


def test_wiener_atoms_with_a_nan_entry():
    values = planted(128, [(F(1, 4), 0.9)])
    values[5] = complex("nan+nanj")
    seq = float_sequence(values)
    report = wiener_atomic_mass(seq, candidates=["1/3"])
    assert report.atoms == reference_atoms(seq, ["1/3"]) == []


def test_wiener_screen_evaluates_few_grid_angles(monkeypatch):
    import ergolab.spectral as spectral

    calls = []
    direct = spectral._rotated_average

    def counted(seq, angle, N, sign):
        calls.append(angle)
        return direct(seq, angle, N, sign)

    monkeypatch.setattr(spectral, "_rotated_average", counted)
    seq = correlation_sequence(rotation("1/5"), Character((1,)), 1024)
    report = wiener_atomic_mass(seq, candidates=["1/7"])
    assert report.atoms[0]["angle"] == "4/5"
    # the candidate, then only the grid angles that reach the floor (the atom
    # and its Fejer side lobes), not all 1,260
    assert calls[0] == F(1, 7)
    assert sorted(calls[1:]) == sorted(parse_scalar(a["angle"]) for a in report.atoms)
    assert len(calls) < 20


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(16, 300),
    atoms=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40),
                             st.floats(-1.0, 1.0, allow_nan=False)), max_size=4),
    noise=st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    floor=st.floats(0.0, 0.6, allow_nan=False),
    grid=st.integers(0, 64),
    candidates=st.lists(st.fractions(0, 3, max_denominator=200).map(str), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_wiener_atoms_equal_the_unscreened_scan_on_drawn_sequences(
        N, atoms, noise, scale, floor, grid, candidates, seed):
    values = scale * planted(N, [(F(p, q), w) for p, q, w in atoms], noise, seed)
    seq = float_sequence(values)
    report = wiener_atomic_mass(seq, candidates=candidates, grid_max_denominator=grid,
                                atom_floor=floor * scale)
    assert report.atoms == reference_atoms(seq, candidates, grid, floor * scale)


def fraction_screened_atoms(seq, candidates=(), grid_max_denominator=64, atom_floor=0.05):
    """The screened atom scan with every grid angle a ``Fraction``: each angle
    is reduced, deduplicated and looked up in the screen before evaluation."""
    N = seq.N
    grid = sorted({F(p, q) for q in range(1, grid_max_denominator + 1) for p in range(q)})
    candidate_angles = [parse_scalar(c, field="candidates") for c in candidates]
    vals = seq._values[:N]
    screen = _grid_screen(vals, grid_max_denominator)
    margin = 100 * (N + 3) * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(vals))))
    atoms, seen = [], set()
    for i, angle in enumerate(candidate_angles + grid):
        angle %= 1
        if angle in seen:
            continue
        seen.add(angle)
        if i >= len(candidate_angles) and \
                screen[angle.denominator][angle.numerator] < atom_floor - margin:
            continue
        weight = _rotated_average(seq, angle, N, sign=-1)
        if weight >= atom_floor:
            atoms.append({"angle": scalar_str(angle), "weight": weight,
                          "squared_weight": weight ** 2})
    atoms.sort(key=lambda a: -a["weight"])
    return atoms


@st.composite
def screened_sequences(draw):
    """A sampled sequence of planted atoms and noise, possibly with NaN
    entries, or an exact one: rational numerators, or the affine pullback of
    a character under a rotation by p/q."""
    N = draw(st.integers(16, 300))
    kind = draw(st.sampled_from(["sampled", "numerators", "rotation"]))
    if kind == "rotation":
        angle = F(draw(st.integers(0, 40)), draw(st.integers(1, 40)))
        return correlation_sequence(rotation(str(angle)), Character((draw(st.integers(1, 3)),)), N)
    atoms = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40),
                                    st.sampled_from([0.05, 0.25, 0.5, 1.0])), max_size=4))
    values = planted(N, [(F(p, q), w) for p, q, w in atoms],
                     draw(st.sampled_from([0.0, 1e-3, 0.1])), draw(st.integers(0, 2**32 - 1)))
    if kind == "numerators":
        den = draw(st.sampled_from([1, 7, 1000]))
        nums = [round(den * v.real) for v in values]
        return CorrelationSeq(N=N, observable=None, exact=True,
                              _values=np.array([c / den for c in nums], dtype=np.complex128),
                              numerators=nums, denominator=den)
    for n in draw(st.lists(st.integers(0, N), max_size=2)):
        values[n] = complex("nan+nanj")
    return float_sequence(values)


@settings(max_examples=60, deadline=None)
@given(seq=screened_sequences(),
       grid=st.sampled_from([0, 1, 2, 7, 64]),
       floor=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5]),
       candidates=st.lists(st.sampled_from(["1/3", "4/3", "2/6", "-1/2", "0", "1", "0.25",
                                            "17/64", "3/200"]), max_size=4))
def test_the_integer_grid_walk_equals_the_fraction_screen(seq, grid, floor, candidates):
    """Candidates that repeat a grid angle (or each other) are evaluated once,
    first; a NaN screen keeps every angle; atoms, ties included, come out in
    the order of the screened scan over ``Fraction`` grid angles."""
    report = wiener_atomic_mass(seq, candidates=candidates, grid_max_denominator=grid,
                                atom_floor=floor)
    assert report.atoms == fraction_screened_atoms(seq, candidates, grid, floor)


# ---------------------------------------------------------------------------
# eigenvalue detection
# ---------------------------------------------------------------------------

def test_detect_eigenvalue_rotation_true_angle():
    verdict = detect_eigenvalue(rotation("1/3"), Character((1,)), "1/3", 64)
    assert verdict.mass == pytest.approx(1.0, abs=1e-12)
    assert verdict.mass_squared_exact == 1
    assert verdict.witnessed


def test_detect_eigenvalue_rotation_wrong_angles():
    seq = correlation_sequence(rotation("1/3"), Character((1,)), 4096)
    values = [seq.value(n) for n in range(4096)]
    for angle in (F(0), F(1, 2), F(2, 3), F(1, 5)):
        verdict = detect_eigenvalue(rotation("1/3"), Character((1,)), angle, 4096,
                                    seq=seq)
        oracle = direct_rotated_sum(values, angle, 4096)
        assert verdict.mass == pytest.approx(oracle, abs=1e-9)
        assert not verdict.witnessed
        # sharp geometric bound 1 / (N |sin(pi delta)|), delta the angle offset
        delta = float(angle - F(1, 3))
        bound = 1.0 / (4096 * abs(np.sin(np.pi * delta)))
        assert verdict.mass <= bound + 1e-12
        if abs(np.sin(np.pi * delta)) >= 0.5:
            assert verdict.mass <= 2 / 4096


def test_detect_eigenvalue_via_second_frequency():
    # e(2x) witnesses the eigenvalue at angle 2a
    verdict = detect_eigenvalue(rotation("1/3"), Character((2,)), "2/3", 64)
    assert verdict.mass == pytest.approx(1.0, abs=1e-12)
    assert verdict.witnessed


def test_decimal_probe_at_4096_squares_no_product(monkeypatch):
    """|sum|^2 of the 40-digit rotation's 4,096-term sum takes the Fejer closed
    form; the N^2 lattice product it replaces is never entered.  The verdict is
    the one the product gave."""
    calls = []

    def refuse(self, other):
        calls.append(len(self) * len(other))
        raise AssertionError("quadratic product")

    monkeypatch.setattr(PhaseSum, "_product", refuse)
    system = build_system({"kind": "rotation", "precision": 40,
                           "params": {"angle": "0.4142135623730950488016887242096980785697"}})
    verdict = detect_eigenvalue(system, Character((1,)), "1/3", 4096)
    assert calls == []
    assert repr(verdict.mass) == "0.0007587903021242287"
    assert verdict.witnessed is False
    assert verdict.mass_squared_exact is None


SQRT2_40 = "0.4142135623730950488016887242096980785697"


@st.composite
def numerator_queries(draw):
    """(seq, angle, N): signed integer numerators in runs of one sign (zeros
    included) of up to 31 digits over a denominator, and a rational angle
    over a small denominator (Q < N), a denominator from N to 4N, or a
    40-digit decimal."""
    nums = []
    for sign, length in draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]),
                                                st.integers(1, 40)), min_size=1, max_size=6)):
        size = draw(st.sampled_from([10, 1000, 10**30]))
        nums += [sign * draw(st.integers(1, size)) for _ in range(length)]
    N = draw(st.integers(1, len(nums)))
    den = draw(st.sampled_from([1, 3, 10**6]))
    Q = draw(st.one_of(st.integers(1, 12), st.integers(N, 4 * N), st.just(10**40)))
    angle = F(draw(st.integers(0, Q - 1)), Q)
    seq = CorrelationSeq(N=len(nums) - 1, observable=None, exact=True,
                         _values=np.array([c / den for c in nums], dtype=np.complex128),
                         numerators=nums, denominator=den)
    return seq, angle, N


@settings(deadline=None)
@given(numerator_queries())
def test_the_autocorrelation_square_is_the_product(drawn):
    """|sum|^2 of rational entries over the lags equals ``total.abs2()`` term for
    term, and replaces it exactly when the sum has more than sqrt(2N - 1)
    terms; the big-int autocorrelation is the plain double loop."""
    seq, angle, N = drawn
    c = seq.numerators[:N]
    assert _autocorrelation(c) == [sum(c[n] * c[n + d] for n in range(N - d)) for d in range(N)]
    total = seq.rotated_sum(angle, N)
    calls = []
    original = PhaseSum.abs2
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PhaseSum, "abs2", lambda self: calls.append(self) or original(self))
        square = seq.rotated_abs2(angle, N, total)
    assert square.terms == total.abs2().terms
    assert (calls == []) == (len(total.terms) ** 2 > 2 * N - 1)


@pytest.mark.parametrize("centered, mass", [(False, "0.00018345184372623686"),
                                            (True, "0.0009280360589792343")])
def test_rank1_decimal_query_squares_no_product(monkeypatch, centered, mass):
    """A level's 1,024 numerators rotated by a 40-digit decimal fall on 968
    (1,024 when centered) distinct angles: |sum|^2 comes from their integer
    autocorrelation, and neither the N^2 lattice product nor ``abs2`` is
    entered.  The verdict is the one the product gave."""
    system = build_rank1_system(Rank1Spec.from_rational("1/3", 8))
    f = LevelIndicator(1, 0, centered=centered)
    seq = correlation_sequence(system, f, 1024)

    def refuse(*args):
        raise AssertionError("quadratic product")

    monkeypatch.setattr(PhaseSum, "_product", refuse)
    monkeypatch.setattr(PhaseSum, "abs2", refuse)
    verdict = detect_eigenvalue(system, f, SQRT2_40, 1024, seq=seq)
    assert repr(verdict.mass) == mass
    assert verdict.witnessed is False
    assert verdict.mass_squared_exact is None


def test_detect_eigenvalue_reports_exactness():
    verdict = detect_eigenvalue(rotation("1/3"), Character((1,)), "1/3", 64)
    assert verdict.exact
    assert verdict.to_json()["mass_squared_exact"] == "1"


# ---------------------------------------------------------------------------
# weak mixing probe
# ---------------------------------------------------------------------------

def test_weak_mixing_identity_detects_atoms():
    """Centered characters on an identity have constant correlation, hence mass.

    Oracle: the centered sequence is values(n) = 1 - |mean|^2, so the Wiener
    average equals (1 - |mean|^2)^2.
    """
    sys_ = IdentitySystem(build_measure({
        "kind": "atoms",
        "atoms": [{"point": ["0"], "weight": "1/2"},
                  {"point": ["1/3"], "weight": "1/2"}],
    }))
    report = weak_mixing_test(sys_, [Character((1,))], N=64)
    assert not report.no_atoms_detected
    mean = 0.5 + 0.5 * cmath.exp(2j * cmath.pi / 3)
    assert report.masses[0][1] == pytest.approx((1 - abs(mean) ** 2) ** 2, abs=1e-12)
    assert report.verdict == "atoms-detected"


def test_weak_mixing_identity_on_lebesgue():
    # e(x) is already mean-zero on Haar, so its centered correlation is
    # constantly one: full atomic mass, not weakly mixing
    sys_ = IdentitySystem(build_measure({"kind": "haar", "arity": 1}))
    report = weak_mixing_test(sys_, [Character((1,))], N=64)
    assert report.verdict == "atoms-detected"
    assert report.masses[0][1] == pytest.approx(1.0, abs=1e-12)


def test_weak_mixing_rotation_not_weakly_mixing():
    report = weak_mixing_test(rotation("1/3"), [Character((1,)), Character((2,))], N=256)
    assert report.verdict == "atoms-detected"
    assert all(m == pytest.approx(1.0, abs=1e-12) for _, m in report.masses)


def test_weak_mixing_rank1_probe():
    sys_ = build_rank1_system(Rank1Spec.from_rational("1/3", 12))
    family = [LevelIndicator(stage=s, level=0) for s in (3, 4, 5)]
    report = weak_mixing_test(sys_, family, N=4096)
    assert report.no_atoms_detected
    assert all(m < 0.05 for _, m in report.masses)
    assert "finite" in report.caveat


@pytest.mark.parametrize("center", [False, True])
def test_tower_correlation_phases_from_pair_counts(center):
    """Oracle: counts from all pairs of level positions, and the phases formed
    as overlap, or (overlap - mass^2) / (mass (1 - mass)) when centered."""
    depth, stage, level, N = 7, 3, 5, 700
    spec = Rank1Spec.from_rational("3/4", depth)
    total = word_lengths(depth)
    pos = stage_level_positions(spec, stage, level, depth)
    counts = np.bincount(((pos[None, :] - pos[:, None]) % total).ravel(), minlength=total)
    mass = F(pos.size, total)
    expected = []
    for n in range(N + 1):
        overlap = F(int(counts[n % total]), total)
        expected.append((overlap - mass * mass) / (mass * (1 - mass)) if center else overlap)
    seq = correlation_sequence(build_rank1_system(spec),
                               LevelIndicator(stage, level, centered=center), N)
    assert seq.exact and seq.provenance == f"tower-level-counting (cyclic closure, depth {depth})"
    assert [p.as_rational() for p in seq.phases] == expected
    report = wiener_atomic_mass(seq, grid_max_denominator=1)
    assert report.total_exact == sum(x * x for x in expected[:N]) / N
    assert [n for n, _ in report.trace] == [N // 4, N // 2, N]


def test_tower_correlation_at_depth_30_needs_no_tower():
    system = build_rank1_system(Rank1Spec.from_rational("1/3", 30))
    tracemalloc.start()
    try:
        seq = correlation_sequence(system, LevelIndicator(3, 0, centered=False), 1024)
        centered = correlation_sequence(system, LevelIndicator(3, 0), 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024
    assert "map" not in vars(system)  # the depth-30 tower was never built
    assert seq.exact and all(p.as_rational() is not None for p in seq.phases)
    assert seq.phases[0].as_rational() == F(3**27, word_lengths(30))
    assert centered.phases[0].as_rational() == 1


def test_weak_mixing_caveat_serialized():
    report = weak_mixing_test(rotation("1/3"), [Character((1,))], N=64)
    assert "does not certify" in report.caveat


# ---------------------------------------------------------------------------
# fibers of a twist
# ---------------------------------------------------------------------------

TWIST_FIBER, TWIST_FLAT = Character((1,)), Character((0, 1))


def fiber_verdicts(system, alpha, samples, seed):
    """Probe alpha on the rotation by phi(p) that a twist induces on the circle
    over each sampled base point p: a float draw read as the atom it is the
    float of, or else exactly."""
    measure = system.base.measure
    atoms = {tuple(map(float, p)): p for _, p in measure.enumerate_atoms() or ()}
    draws = measure.sample_floats(rng_from_seed(seed), samples).tolist()
    points = [atoms.get(tuple(row), tuple(map(F, row))) for row in draws]
    return [detect_eigenvalue(RotationSystem(system.cocycle(p)), TWIST_FIBER, alpha, 64)
            for p in points]


def test_fiber_scan_twist_over_haar_measure_zero_witness():
    system = twist()
    assert not any(v.witnessed for v in fiber_verdicts(system, "1/7", 20, seed=101))
    assert not detect_eigenvalue(system, TWIST_FLAT, "1/7", 64).witnessed


def test_fiber_scan_constant_fiber():
    system = build_system({"kind": "twist", "params": {
        "cocycle": {"kind": "affine", "slope": "0", "intercept": "1/3"}}})
    assert all(v.witnessed for v in fiber_verdicts(system, "1/3", 10, seed=5))
    assert detect_eigenvalue(system, TWIST_FLAT, "1/3", 64).witnessed


def test_fiber_scan_dirac_base():
    system = build_system({
        "kind": "twist",
        "params": {"base_measure": {
            "kind": "atoms", "atoms": [{"point": ["1/3"], "weight": "1"}]}},
    })
    assert all(v.witnessed for v in fiber_verdicts(system, "1/3", 10, seed=5))
    assert detect_eigenvalue(system, TWIST_FLAT, "1/3", 64).witnessed


# ---------------------------------------------------------------------------
# the exact path against the sampled one
# ---------------------------------------------------------------------------

def atoms_docs():
    return st.lists(st.tuples(st.integers(1, 3), st.integers(0, 7), st.integers(1, 8)),
                    min_size=1, max_size=3).map(lambda atoms: {"kind": "atoms", "atoms": [
                        {"weight": str(F(w, sum(a[0] for a in atoms))),
                         "point": [str(F(j % q, q))]} for w, j, q in atoms]})


def simple_base_docs():
    return st.one_of(st.just({"kind": "haar", "arity": 1}), atoms_docs(),
                     st.sampled_from([2, 3]).map(
                         lambda e: {"kind": "power-law-sampled", "exponent": e}))


def base_docs():
    mixture = st.tuples(st.integers(1, 3), simple_base_docs(), simple_base_docs()).map(
        lambda t: {"kind": "mixture", "components": [
            {"weight": str(F(t[0], 4)), "measure": t[1]},
            {"weight": str(1 - F(t[0], 4)), "measure": t[2]}]})
    return st.one_of(simple_base_docs(), mixture)


@st.composite
def skew_products(draw):
    """A twist over a random base, or a group extension of a rotation or of the
    identity over one: the circle with an affine cocycle, or a cyclic group
    with a constant one."""
    fraction = st.builds(F, st.integers(0, 11), st.sampled_from([1, 2, 3, 5, 12]))
    base = draw(base_docs())
    kind = draw(st.sampled_from(["twist", "circle", "cyclic"]))
    if kind == "cyclic":
        order = draw(st.integers(2, 6))
        cocycle = {"kind": "affine", "slope": "0",
                   "intercept": str(F(draw(st.integers(0, order - 1)), order))}
    else:
        cocycle = {"kind": "affine", "slope": str(draw(st.sampled_from([0, 1, 2, F(1, 2)]))),
                   "intercept": str(draw(fraction) % 1)}
    if kind == "twist":
        return {"kind": "twist", "params": {"base_measure": base, "cocycle": cocycle}}
    base_system = draw(st.sampled_from([
        {"kind": "identity", "params": {"measure": base}},
        {"kind": "rotation", "params": {"angle": str(draw(fraction) % 1)}}]))
    group = {"kind": "cyclic", "order": order} if kind == "cyclic" else {"kind": "circle"}
    return {"kind": "group-extension",
            "params": {"base": base_system, "cocycle": cocycle, "group": group}}


#: a twist over the atoms {1/3, 0}: with k = (1, 0) every centred lag is
#: 1 - |mean|^2 = 3/4, and its only error is that of the sampled mean
TWIST_OVER_TWO_ATOMS = {"kind": "twist", "params": {"base_measure": {"kind": "atoms", "atoms": [
    {"point": ["1/3"], "weight": "1/2"}, {"point": ["0"], "weight": "1/2"}]}}}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(skew_products(), st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.booleans())
@example(TWIST_OVER_TWO_ATOMS, (1, 0), True)
def test_an_exact_sequence_agrees_with_the_sampled_one(doc, k, center):
    """Wherever auto mode decides a sequence exactly, the Monte Carlo sequence
    of the same character at a fixed seed lies within 4 of its standard errors
    (plus 1e-9 for rounding) at every lag, centred or not."""
    system = build_system(doc)
    exact = correlation_sequence(system, k, 8, center, seed=5, samples=2048)
    if not exact.exact:
        return
    sampled = correlation_sequence(system, k, 8, center, seed=5, samples=2048, mode="sampled")
    assert sampled.provenance == "monte-carlo"
    gap = np.abs(exact._values - sampled._values)
    assert np.all(gap <= 4 * sampled.std_errors + 1e-9), (gap, sampled.std_errors)
