"""Spectral invariants: correlation sequences, Wiener averaging, eigenvalue detection.

The correlation sequence of an observable f under a system T is

    values(n) = <f o T^(-n), f>_{L^2(mu)}      for n in [-N, N],

the Fourier transform of the spectral measure sigma_f on the unit circle.  Sign
convention, fixed once: with this transform an eigenfunction f o T = c * f puts
the atom of sigma_f at conj(c).  ``detect_eigenvalue`` therefore asks about the
*eigenvalue* c directly via (1/N) |sum_n values(n) * c^n|, which converges to
sigma_f({conj(c)}) -- mass 1 exactly when f witnesses the eigenvalue c.
``wiener_atomic_mass`` reports the classical one-sided Cesaro average of
|values|^2, which converges to the total squared atomic mass of sigma_f.

Exactness: affine systems with exact measures go through character pullback;
finite-support measures go through direct orbit summation; anything else is
seeded Monte Carlo with per-entry standard errors.  Rank-one level indicators
go through tower-level counting on the cyclic closure of the finite tower (a
genuine periodic system, so positive-definiteness is exact): the level's
positions are sums of per-stage copy offsets, so the lag counts are a
convolution of the per-stage offset-difference multisets, computed in integers
and pruned to the lags asked for (``rank1.level_lag_counts``).  No tower, mask
or FFT is built, so depth 30 costs about what depth 10 does.  The correlations
stay integer numerators over one denominator; their ``PhaseSum``s are built
only when asked for, their exact Wiener totals are integer sums of squared
numerators with one ``Fraction`` per prefix, and an eigenvalue query sums the
numerators per angle n * a mod 1 in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ergolab.core import (
    Character,
    FreqVector,
    LevelIndicator,
    SpecValidationError,
    System,
    UnsupportedOperationError,
    character_array,
    pullback_orbit,
    rng_from_seed,
    validate_frequencies,
)
from ergolab.exact import PhaseSum, parse_scalar, scalar_str

DEFAULT_ORDER = 4096
EIGENVALUE_THRESHOLD = 0.5
WEAK_MIXING_THRESHOLD = 0.05
ATOM_GRID_MAX_DENOMINATOR = 64
PSD_TOLERANCE = 1e-9

FINITE_FAMILY_CAVEAT = (
    "finite-family, finite-N approximation: absence of detected atoms among the "
    "tested observables does not certify that every spectral measure is continuous"
)


# ---------------------------------------------------------------------------
# correlation sequences
# ---------------------------------------------------------------------------

@dataclass
class CorrelationSeq:
    """values(n) = <f o T^(-n), f> for n in [-N, N], with conjugate symmetry.

    Entries for n >= 0 are stored; negative indices are served by conjugation.
    When ``exact`` is set every entry carries its PhaseSum alongside floats.  A
    rational sequence stores the entries as ``numerators[n] / denominator``
    and builds its PhaseSums on first access to ``phases``.
    """

    N: int
    observable: object
    exact: bool
    _values: np.ndarray  # complex, index n = 0..N
    _phases: list[PhaseSum] | None = None
    std_errors: np.ndarray | None = None
    n_samples: int = 0
    seed: int | None = None
    provenance: str = ""
    numerators: list[int] | None = None
    denominator: int = 1

    @property
    def phases(self) -> list[PhaseSum] | None:
        if self._phases is None and self.numerators is not None:
            den = self.denominator
            self._phases = [PhaseSum.from_rational(Fraction(c, den)) for c in self.numerators]
        return self._phases

    def rotated_sum(self, angle: Fraction, N: int) -> PhaseSum | None:
        """sum_{n<N} e(n * angle) * phases[n] exactly; None for a sampled sequence.
        Rational entries c_n / d are summed per n * angle mod 1 in integers."""
        if self.numerators is not None:
            Q, S, acc = angle.denominator, angle.numerator, {}
            for n, c in enumerate(self.numerators[:N]):
                key = n * S % Q
                acc[key] = acc.get(key, 0) + c
            return PhaseSum._from_lattice(acc, Q, self.denominator)
        if self.exact and self.phases is not None:
            return PhaseSum.sum(self.phases[:N], angle)
        return None

    def rotated_abs2(self, angle: Fraction, N: int,
                     total: PhaseSum | None = None) -> PhaseSum | None:
        """|rotated_sum(angle, N)|^2 exactly; None for a sampled sequence.
        ``total`` is that rotated sum, if the caller has it already.

        An eigenfunction has c_n = w * e(a + n * beta), and then
        |sum_{n<N} e(n * angle) * c_n|^2 = w^2 * sum_{|d|<N} (N - |d|) * e(d * phi)
        with phi = angle + beta: N times the Fejer kernel at phi (Katznelson,
        *An Introduction to Harmonic Analysis*, I.2), 2N - 1 terms in O(N),
        equal term for term to ``total.abs2()``.  The closed form is taken when
        every phase is one term of one weight w, the angle numerators over the
        lcm Q of all angle denominators step by one B mod Q, and the product
        would have more than 2N - 1 terms.  Any other sequence, rational
        numerators included, falls back to ``total.abs2()``."""
        if total is None:
            total = self.rotated_sum(angle, N)
        if total is None:
            return None
        if self.numerators is not None:
            return total.abs2()
        phases = self.phases[:N]
        N, size = len(phases), len(total.terms)
        if size < 2 or size * size <= 2 * N - 1:
            return total.abs2()
        terms = [p.terms[0] for p in phases if len(p.terms) == 1]
        if len(terms) < N or len({w for _, w in terms}) > 1:
            return total.abs2()
        w = terms[0][1]
        Q = math.lcm(angle.denominator, *(a.denominator for a, _ in terms))
        A = [a.numerator * (Q // a.denominator) for a, _ in terms]
        B = (A[1] - A[0]) % Q
        if any((A[n] - A[0] - n * B) % Q for n in range(2, N)):
            return total.abs2()
        step = (angle.numerator * (Q // angle.denominator) + B) % Q
        W2, acc = w.numerator ** 2, {}
        for d in range(1 - N, N):
            key = d * step % Q
            acc[key] = acc.get(key, 0) + W2 * (N - abs(d))
        return PhaseSum._from_lattice(acc, Q, w.denominator ** 2)

    def value(self, n: int) -> complex:
        if abs(n) > self.N:
            raise SpecValidationError("n", f"|n| must be <= {self.N}")
        v = self._values[abs(n)]
        return complex(v) if n >= 0 else complex(v).conjugate()

    def values_nonnegative(self) -> np.ndarray:
        return self._values.copy()

    def toeplitz(self, size: int) -> np.ndarray:
        """Hermitian Toeplitz matrix M[i, j] = values(i - j)."""
        if size > self.N + 1:
            raise SpecValidationError("size", f"size must be <= {self.N + 1}")
        idx = np.arange(size)
        diff = idx[:, None] - idx[None, :]
        mat = self._values[np.abs(diff)]
        return np.where(diff >= 0, mat, np.conj(mat))

    def toeplitz_min_eigenvalue(self, size: int) -> float:
        return float(np.linalg.eigvalsh(self.toeplitz(size))[0])


def describe_observable(f: object) -> str:
    if isinstance(f, (Character, LevelIndicator)):
        return f.label()
    return str(f)


def _as_observable(f) -> Character | LevelIndicator:
    if isinstance(f, (Character, LevelIndicator)):
        return f
    if isinstance(f, (tuple, list)):
        return Character(tuple(int(v) for v in f))
    raise SpecValidationError("f", f"cannot interpret {f!r} as an observable")


def correlation_sequence(system: System, f, N: int, center: bool = False, *,
                         seed: int | None = None, samples: int = 4096) -> CorrelationSeq:
    """Compute values(n) = <f o T^(-n), f> for n = 0..N (negatives by symmetry).

    Exact whenever the system supports exact integration of the relevant
    characters (affine pullback or finite-support orbit sums); the rank-one
    level-indicator path is exact by tower-level counting.  Otherwise a seeded
    Monte Carlo estimate with per-entry standard errors.
    """
    if N < 1:
        raise SpecValidationError("N", f"order must be >= 1, got {N}")
    f = _as_observable(f)
    if isinstance(f, LevelIndicator):
        return _rank1_indicator_sequence(system, f, N, center)
    k = validate_frequencies(system.space, f.freqs)
    center = center or f.centered

    exact = _exact_sequence(system, k, N, center)
    if exact is not None:
        return exact
    if seed is None:
        raise UnsupportedOperationError(
            "system has no exact path for this observable; pass a seed to sample"
        )
    return _sampled_sequence(system, k, N, center, seed, samples)


def _exact_sequence(system: System, k: FreqVector, N: int,
                    center: bool) -> CorrelationSeq | None:
    measure = system.measure
    mean = measure.integrate_character(k) if measure.exact else None

    # path A: affine pullback against an exact integrator
    if measure.exact:
        Q = system.phase_modulus
        phases: list[PhaseSum] = []
        for kn, P in pullback_orbit(system, k, N + 1):
            integral = measure.integrate_character(tuple(a - b for a, b in zip(kn, k)))
            if integral is None:
                break
            # c_n = e(P / Q) * mu_hat(k_n - k);  values(n) = conj(c_n)
            phases.append(integral.conjugate().rotated(-P, Q))
        if len(phases) == N + 1:
            return _finish_exact(phases, k, N, center, mean, "affine-pullback")

    # path B: finite-support orbit summation, values(n) = sum_p w e(<k, p - T^n p>)
    atoms = measure.enumerate_atoms()
    if atoms is not None:
        points = [p for _, p in atoms]
        phases = []
        for _ in range(N + 1):
            phases.append(PhaseSum((sum(ki * (a - b) for ki, a, b in zip(k, p, q)), w)
                                   for (w, p), q in zip(atoms, points)))
            points = [system.apply(q) for q in points]
        return _finish_exact(phases, k, N, center, mean, "atom-orbits")

    return None


def _finish_exact(phases: list[PhaseSum], k: FreqVector, N: int, center: bool,
                  mean: PhaseSum | None, provenance: str) -> CorrelationSeq:
    observable = Character(tuple(k), centered=center)
    if center:
        if mean is None:
            raise UnsupportedOperationError("cannot center: the mean is not exact")
        shift = mean.abs2()
        phases = [p - shift for p in phases]
    values = np.array([p.value() for p in phases], dtype=np.complex128)
    return CorrelationSeq(
        N=N, observable=observable, exact=True, _values=values, _phases=phases,
        provenance=provenance,
    )


def _sampled_sequence(system: System, k: FreqVector, N: int, center: bool,
                      seed: int, samples: int) -> CorrelationSeq:
    """Monte Carlo correlations along the orbits of ``samples`` seeded points.

    The orbit is stepped on a column-major (Fortran-order) copy of the points,
    so each coordinate column that ``apply_array`` slices is contiguous; the
    float maps keep that layout and ``character_array`` does not depend on it.
    """
    rng = rng_from_seed(seed)
    points = system.measure.sample_floats(rng, samples)
    f0 = character_array(k, points)
    mean = complex(f0.mean()) if center else 0j
    current = np.asfortranarray(points)
    values = np.empty(N + 1, dtype=np.complex128)
    errors = np.empty(N + 1, dtype=np.float64)
    for n in range(N + 1):
        fn = character_array(k, current) if n else f0
        prods = fn * np.conj(f0)
        c_n = complex(prods.mean())
        values[n] = np.conj(c_n)
        errors[n] = math.sqrt(max(0.0, 1.0 - abs(c_n) ** 2) / samples)
        if n < N:
            current = system.apply_array(current)
    if center:
        values -= abs(mean) ** 2
    return CorrelationSeq(
        N=N, observable=Character(tuple(k), centered=center), exact=False,
        _values=values, std_errors=errors, n_samples=samples, seed=seed,
        provenance="monte-carlo",
    )


def _rank1_indicator_sequence(system: System, f: LevelIndicator, N: int,
                              center: bool) -> CorrelationSeq:
    """Exact correlations of a tower-level indicator via level counting.

    Uses the cyclic closure of the finite tower (top level mapped back to the
    base), which is a genuine measure-preserving interval exchange; the finite
    construction stage is recorded in the provenance.  With L = L_d levels,
    s = 3^(d - stage) of them in the indicated level, and c(n) the integer lag
    counts of ``level_lag_counts``, values(n) = c(n) / L, or
    (c(n) L - s^2) / (s (L - s)) when centered and normalized.
    """
    from ergolab.rank1 import Rank1System, level_lag_counts, word_lengths

    if not isinstance(system, Rank1System):
        raise UnsupportedOperationError(
            "level-indicator observables apply to rank-one tower systems only"
        )
    depth = system.r1spec.depth
    total = word_lengths(depth)
    counts = level_lag_counts(system.r1spec, f.stage, f.level, depth, N)
    size = 3 ** (depth - f.stage)
    centered = center or f.centered
    if centered:
        nums, den = [c * total - size * size for c in counts], size * (total - size)
    else:
        nums, den = counts, total
    # int true division rounds correctly, as float(Fraction(c, den)) does
    values = np.array([c / den for c in nums], dtype=np.complex128)
    return CorrelationSeq(
        N=N, observable=LevelIndicator(f.stage, f.level, centered), exact=True,
        _values=values, numerators=nums, denominator=den,
        provenance=f"tower-level-counting (cyclic closure, depth {depth})",
    )


# ---------------------------------------------------------------------------
# Wiener averaging and atoms
# ---------------------------------------------------------------------------

@dataclass
class AtomReport:
    """Total squared atomic mass of sigma_f by one-sided Cesaro averaging.

    total_atomic_mass is (1/N) sum_{i<N} |values(i)|^2, with its convergence
    trace over the dyadic prefixes N/4, N/2, N.  Detected atoms carry the
    location (as an angle: the atom sits at e^(2*pi*i*angle)), the estimated
    atom weight sigma({.}), and the squared weight -- the quantity that sums to
    the total.
    """

    total_atomic_mass: float
    total_exact: Fraction | None
    trace: list[tuple[int, float]]
    atoms: list[dict]
    params: dict

    def to_json(self) -> dict:
        return {
            "total_atomic_mass": self.total_atomic_mass,
            "total_exact": scalar_str(self.total_exact) if self.total_exact is not None else None,
            "trace": [[n, m] for n, m in self.trace],
            "atoms": self.atoms,
            "params": self.params,
        }


def _atom_grid(max_denominator: int) -> list[Fraction]:
    """Every angle p/q in [0, 1) with q <= max_denominator, in increasing order.

    This is the Farey sequence of that order without its last term 1/1, built
    term by term: after neighbours a/b < c/d the next term is
    (j*c - a)/(j*d - b) with j = (max_denominator + b) // d."""
    grid: list[Fraction] = []
    if max_denominator < 1:
        return grid
    a, b, c, d = 0, 1, 1, max_denominator
    while a < b:
        grid.append(Fraction(a, b))
        j = (max_denominator + b) // d
        a, b, c, d = c, d, j * c - a, j * d - b
    return grid


def _grid_screen(vals: np.ndarray, max_denominator: int) -> dict[int, np.ndarray]:
    """q -> (1/N) |sum_{n<N} vals[n] e(-n p/q)| for p = 0..q-1, each q <= the bound.

    e(-n p/q) only depends on n mod q, so vals is folded into q residue
    classes and one q x q DFT matrix, with entries e(-(p*r mod q)/q), gives
    every p at once.  The matrix is applied elementwise: ``@`` (BLAS zgemv)
    and ``np.fft`` each added 0.3-0.5 MiB of peak RSS on first use."""
    N = len(vals)
    screen = {}
    for q in range(1, max_denominator + 1):
        padded = np.zeros(-(-N // q) * q, dtype=np.complex128)
        padded[:N] = vals
        folded = padded.reshape(-1, q).sum(axis=0)
        r = np.arange(q)
        roots = np.exp(-2j * np.pi * r / q)
        screen[q] = np.abs((roots[np.outer(r, r) % q] * folded).sum(axis=1)) / N
    return screen


def require_wiener_length(N: int, field: str = "N") -> None:
    """Refuse a Wiener average, plain or rotated, over fewer than 16 terms."""
    if N < 16:
        raise SpecValidationError(field, f"Wiener averaging needs N >= 16, got {N}")


def wiener_atomic_mass(seq: CorrelationSeq, *, candidates: Sequence = (),
                       grid_max_denominator: int = ATOM_GRID_MAX_DENOMINATOR,
                       atom_floor: float = 0.05) -> AtomReport:
    """One-sided Cesaro average of |values|^2 with a dyadic convergence trace.

    Atom locations are searched on the rational grid p/q, q <= the given
    denominator bound, plus any user-supplied candidate angles.  Every
    reported weight is ``_rotated_average`` at its angle.  Candidates are
    always evaluated; grid angles are first screened all at once
    (``_grid_screen``), and only those whose screened weight is at least
    atom_floor - margin, or NaN, are evaluated.  The two computations of a
    weight differ by at most about 4*pi*(N + 3)*eps*max|values| (the float
    angle's phase error grows with n), and the margin is
    100*(N + 3)*eps*max(1, max|values|), so no angle that would reach the
    floor is screened out.
    """
    N = seq.N
    require_wiener_length(N)

    prefixes = [max(1, N // 4), max(1, N // 2), N]
    if seq.numerators is not None:
        # entries c_n / d: each prefix total is sum c_n^2 / (d^2 m), summed in ints
        squares, den2 = [c * c for c in seq.numerators[:N]], seq.denominator ** 2
        exact_totals = [Fraction(sum(squares[:n]), den2 * n) for n in prefixes]
        trace = [(n, float(t)) for n, t in zip(prefixes, exact_totals)]
        total_exact = exact_totals[-1]
        total = float(total_exact)
    elif seq.exact and seq.phases is not None:
        squares = [p.abs2() for p in seq.phases[:N]]
        running, start = PhaseSum.zero(), 0
        totals = {}
        for n in prefixes:
            running = PhaseSum.sum([running, *squares[start:n]])
            start = n
            totals[n] = running * Fraction(1, n)
        trace = [(n, totals[n].value().real) for n in prefixes]
        total_ps = totals[N]
        total_exact = total_ps.as_rational()
        total = total_ps.value().real
    else:
        sq = np.abs(seq.values_nonnegative()[:N]) ** 2
        csum = np.cumsum(sq)
        trace = [(n, float(csum[n - 1] / n)) for n in prefixes]
        total = float(csum[N - 1] / N)
        total_exact = None

    atoms = []
    seen = set()
    candidate_angles = [parse_scalar(c, field="candidates") for c in candidates]
    vals = seq.values_nonnegative()[:N]
    screen = _grid_screen(vals, grid_max_denominator)
    margin = 100 * (N + 3) * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(vals))))
    for i, angle in enumerate(candidate_angles + _atom_grid(grid_max_denominator)):
        angle %= 1
        if angle in seen:
            continue
        seen.add(angle)
        if i >= len(candidate_angles) and \
                screen[angle.denominator][angle.numerator] < atom_floor - margin:
            continue
        weight = _rotated_average(seq, angle, N, sign=-1)
        if weight >= atom_floor:
            atoms.append({
                "angle": scalar_str(angle),
                "weight": weight,
                "squared_weight": weight ** 2,
            })
    atoms.sort(key=lambda a: -a["weight"])
    return AtomReport(
        total_atomic_mass=total,
        total_exact=total_exact,
        trace=trace,
        atoms=atoms,
        params={
            "N": N,
            "grid_max_denominator": grid_max_denominator,
            "atom_floor": atom_floor,
            "candidates": [scalar_str(c) for c in candidate_angles],
        },
    )


def _rotated_average(seq: CorrelationSeq, angle: Fraction, N: int, sign: int) -> float:
    """(1/N) |sum_{n<N} values(n) e^(sign * 2*pi*i*n*angle)| as a float."""
    vals = seq.values_nonnegative()[:N]
    n = np.arange(N)
    factor = np.exp(sign * 2j * np.pi * float(angle) * n)
    return float(abs((vals * factor).sum()) / N)


# ---------------------------------------------------------------------------
# eigenvalue detection
# ---------------------------------------------------------------------------

@dataclass
class EigenvalueVerdict:
    angle: Fraction            # the query eigenvalue is e^(2*pi*i*angle)
    mass: float
    witnessed: bool
    threshold: float
    N: int
    exact: bool
    mass_squared_exact: Fraction | None = None
    observable: str = ""

    def to_json(self) -> dict:
        return {
            "angle": scalar_str(self.angle),
            "point": [math.cos(2 * math.pi * float(self.angle)),
                      math.sin(2 * math.pi * float(self.angle))],
            "mass": self.mass,
            "witnessed": self.witnessed,
            "threshold": self.threshold,
            "N": self.N,
            "exact": self.exact,
            "mass_squared_exact": (scalar_str(self.mass_squared_exact)
                                   if self.mass_squared_exact is not None else None),
            "observable": self.observable,
        }


def detect_eigenvalue(system: System, f, alpha, N: int = DEFAULT_ORDER, *,
                      threshold: float = EIGENVALUE_THRESHOLD,
                      seed: int | None = None, samples: int = 4096,
                      seq: CorrelationSeq | None = None) -> EigenvalueVerdict:
    """Rotated Wiener average (1/N) |sum_{n<N} values(n) * alpha^n|.

    ``alpha`` is the *eigenvalue* being probed, given as a rational or decimal
    angle a (the circle point e^(2*pi*i*a)).  The average converges to the mass
    of sigma_f at conj(alpha), which is exactly the extent to which f witnesses
    alpha as an eigenvalue; it equals 1 when f o T = alpha * f.

    On an exact sequence the squared mass is also decided exactly, from
    ``seq.rotated_abs2``: for an eigenfunction, c_n = w * e(b + n * beta), that is
    w^2 * sum_{|d|<N} (N - |d|) * e(d * (a + beta)), N times the Fejer kernel,
    built in O(N); any other sequence, or one whose sum has at most
    sqrt(2N - 1) terms, takes the product of the sum with its conjugate.
    """
    angle = parse_scalar(alpha, field="alpha") % 1
    require_wiener_length(N)
    if seq is None:
        seq = correlation_sequence(system, f, N, seed=seed, samples=samples)
    if seq.N < N - 1:
        raise SpecValidationError("N", "provided sequence is shorter than N")

    mass_sq_exact = None
    total = seq.rotated_sum(angle, N)
    if total is not None:
        mass = float(abs(total.value()) / N)
        ms = seq.rotated_abs2(angle, N, total).as_rational()
        if ms is not None:
            mass_sq_exact = ms / (N * N)
            mass = math.sqrt(float(mass_sq_exact)) if mass_sq_exact >= 0 else mass
    else:
        mass = _rotated_average(seq, angle, N, sign=+1)
    return EigenvalueVerdict(
        angle=angle,
        mass=mass,
        witnessed=mass > threshold,
        threshold=threshold,
        N=N,
        exact=seq.exact,
        mass_squared_exact=mass_sq_exact,
        observable=describe_observable(seq.observable),
    )


# ---------------------------------------------------------------------------
# weak mixing probe
# ---------------------------------------------------------------------------

@dataclass
class WeakMixingReport:
    masses: list[tuple[str, float]]
    verdict: str
    threshold: float
    N: int
    caveat: str = FINITE_FAMILY_CAVEAT

    @property
    def no_atoms_detected(self) -> bool:
        return self.verdict == "no-atoms-detected"


def weak_mixing_test(system: System, family: Sequence, N: int = DEFAULT_ORDER,
                     threshold: float = WEAK_MIXING_THRESHOLD, *,
                     seed: int | None = None, samples: int = 4096) -> WeakMixingReport:
    """Wiener atomic mass of every mean-centered observable in the family.

    Verdict "no-atoms-detected" iff every mass stays below the threshold; the
    report carries the standing caveat that only the tested finite family at
    finite N was examined.
    """
    if not family:
        raise SpecValidationError("family", "observable family must be nonempty")
    masses = []
    for f in family:
        f = _as_observable(f)
        seq = correlation_sequence(system, f, N, center=True, seed=seed, samples=samples)
        report = wiener_atomic_mass(seq, grid_max_denominator=1)
        masses.append((describe_observable(seq.observable), report.total_atomic_mass))
    ok = all(m < threshold for _, m in masses)
    return WeakMixingReport(
        masses=masses,
        verdict="no-atoms-detected" if ok else "atoms-detected",
        threshold=threshold,
        N=N,
    )
