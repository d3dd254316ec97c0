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

Exactness: a character sequence is exact when every integral it needs is
exact -- through character pullback on affine systems, or by direct orbit
summation on finite-support measures; anything else is seeded Monte Carlo
with per-entry standard errors.  Rank-one level indicators
go through tower-level counting on the cyclic closure of the finite tower (a
genuine periodic system, so positive-definiteness is exact): the level's
positions are sums of per-stage copy offsets, so the lag counts are a
convolution of the per-stage offset-difference multisets, computed in integers
and pruned to the lags asked for (``rank1.level_lag_counts``).  No tower, mask
or FFT is built, so depth 30 costs about what depth 10 does.  The correlations
stay integer numerators over one denominator; their ``PhaseSum``s are built
only when asked for, their exact Wiener totals are integer sums of squared
numerators with one ``Fraction`` per prefix, and an eigenvalue query sums the
numerators per angle n * a mod 1 in integers and squares that sum through
their integer autocorrelation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from ergolab.core import (
    Character,
    FreqVector,
    LevelIndicator,
    SpecValidationError,
    System,
    UnsupportedOperationError,
    character_array,
    np,
    pullback_orbit,
    rng_from_seed,
    validate_frequencies,
)
from ergolab.exact import PhaseSum, parse_scalar, scalar_str
from ergolab.schema import require_wiener_length

DEFAULT_ORDER = 4096
EIGENVALUE_THRESHOLD = 0.5
WEAK_MIXING_THRESHOLD = 0.05
ATOM_GRID_MAX_DENOMINATOR = 64
PSD_TOLERANCE = 1e-9
#: largest samples x (N + 1) of a sampled correlation sequence: 55-80 ns each
#: (4,096 x 4,097 took 0.98 s, 16,384 x 4,097 3.7 s, 1,024 x 16,385 1.4 s), so
#: 15-21 s at the bound, about example1's statistical part at MAX_SAMPLES
#: (10^6 x 257); 2^16 x 65,537 would take about 5 minutes
MAX_SAMPLED_WORK = 2**28

FINITE_FAMILY_CAVEAT = (
    "finite-family, finite-N approximation: absence of detected atoms among the "
    "tested observables does not certify that every spectral measure is continuous"
)


# ---------------------------------------------------------------------------
# correlation sequences
# ---------------------------------------------------------------------------

class CorrelationSeq:
    """values(n) = <f o T^(-n), f> for n in [-N, N], with conjugate symmetry.

    Entries for n >= 0 are stored; negative indices are served by conjugation.
    When ``exact`` is set every entry carries its PhaseSum alongside floats.  A
    rational sequence stores the entries as ``numerators[n] / denominator``
    and builds its PhaseSums on first access to ``phases``.
    """

    __slots__ = ("N", "observable", "exact", "_values", "_phases", "std_errors", "n_samples",
                 "seed", "provenance", "numerators", "denominator")

    def __init__(self, N: int, observable: object, exact: bool, _values: np.ndarray,
                 _phases: list[PhaseSum] | None = None, std_errors: np.ndarray | None = None,
                 n_samples: int = 0, seed: int | None = None, provenance: str = "",
                 numerators: list[int] | None = None, denominator: int = 1):
        self.N, self.observable, self.exact = N, observable, exact
        self._values, self._phases = _values, _phases  # complex values, index n = 0..N
        self.std_errors, self.n_samples, self.seed = std_errors, n_samples, seed
        self.provenance, self.numerators, self.denominator = provenance, numerators, denominator

    @property
    def phases(self) -> list[PhaseSum] | None:
        if self._phases is None and self.numerators is not None:
            den = self.denominator
            self._phases = [PhaseSum.from_lattice({0: c}, 1, den) for c in self.numerators]
        return self._phases

    def rotated_sum(self, angle: Fraction, N: int) -> PhaseSum | None:
        """sum_{n<N} e(n * angle) * phases[n] exactly; None for a sampled sequence.
        Rational entries c_n / d are summed per n * angle mod 1 in integers."""
        if self.numerators is not None:
            Q, S, acc = angle.denominator, angle.numerator, {}
            for n, c in enumerate(self.numerators[:N]):
                key = n * S % Q
                acc[key] = acc.get(key, 0) + c
            return PhaseSum.from_lattice(acc, Q, self.denominator)
        if self.exact and self.phases is not None:
            return PhaseSum.sum(self.phases[:N], angle)
        return None

    def rotated_abs2(self, angle: Fraction, N: int, total: PhaseSum | None = None
                     ) -> PhaseSum | None:
        """|rotated_sum(angle, N)|^2 exactly; None for a sampled sequence.
        ``total`` is that rotated sum, if the caller has it.

        A sum of more than sqrt(2N - 1) terms is squared over the 2N - 1 lags d,
        as sum_{|d|<N} r_d * e(d * phi) (Katznelson, *An Introduction to Harmonic
        Analysis*, I.2 and I.7), in O(N) once r is known:
        - rational entries c_n / den give r_d = sum_n c_n * c_(n+d), the integer
          autocorrelation (``_autocorrelation``), and phi = angle;
        - an eigenfunction has c_n = w * e(a + n * beta), and then r_d is
          w^2 * (N - |d|) with phi = angle + beta (``PhaseSum.geometric_abs2``).
        Either equals ``total.abs2()`` term for term; any other sequence, or a
        smaller sum, takes that product."""
        if total is None:
            total = self.rotated_sum(angle, N)
        if total is None:
            return None
        entries = (self.numerators if self.numerators is not None else self.phases)[:N]
        N, size = len(entries), len(total)
        if size < 2 or size * size <= 2 * N - 1:
            return total.abs2()
        if self.numerators is not None:
            return PhaseSum.from_lags(_autocorrelation(entries), angle, self.denominator ** 2)
        square = PhaseSum.geometric_abs2(entries, angle)
        return total.abs2() if square is None else square

    def value(self, n: int) -> complex:
        if abs(n) > self.N:
            raise SpecValidationError("n", f"|n| must be <= {self.N}")
        v = self._values[abs(n)]
        return complex(v) if n >= 0 else complex(v).conjugate()

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


def _autocorrelation(c: list[int]) -> list[int]:
    """r_d = sum_n c_n * c_(n+d) for 0 <= d < len(c), by one exact product.

    Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): with fields
    of k decimal digits, Cr = sum_n c_n * 10^(k(N-1-n)) packs the sequence and
    C its reversal, so field N - 1 + d of Cr * C is r_d.  Each packing is that
    of the positive part minus that of the negative part; |r_d| < 10^k / 2, so
    adding 10^k / 2 to every field keeps each one in its k digits.  ``decimal``
    multiplies by number-theoretic transforms: for a depth-100 level at
    N = 65,536 the product of packed ints (Karatsuba) took 38 s, this 2.1 s,
    on one CPU of a 2-CPU VM."""
    from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext

    N = len(c)
    k = len(str(N * max(map(abs, c)) ** 2)) + 1
    half = 5 * 10 ** (k - 1)

    def pack(xs):
        return Decimal("".join(str(x).zfill(k) for x in xs))

    pos, neg = [max(x, 0) for x in c], [max(-x, 0) for x in c]
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        product = (pack(pos) - pack(neg)) * (pack(pos[::-1]) - pack(neg[::-1])) \
            + pack([half] * (2 * N - 1))
    digits = str(product).zfill((2 * N - 1) * k)
    return [int(digits[(N - 1 - d) * k:(N - d) * k]) - half for d in range(N)]


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
                         seed: int | None = None, samples: int = 4096,
                         path: str = "", mode: str = "auto") -> CorrelationSeq:
    """Compute values(n) = <f o T^(-n), f> for n = 0..N (negatives by symmetry).

    In ``auto`` mode exact when every integral needed is exact (affine pullback
    or finite-support orbit sums, and the mean when centered); the rank-one
    level-indicator path is exact by tower-level counting.  Otherwise, or in
    ``sampled`` mode, a seeded Monte Carlo estimate with per-entry standard
    errors, refused before any point is drawn if samples x (N + 1) exceeds
    ``MAX_SAMPLED_WORK``; ``path`` prefixes the fields that refusal names.
    """
    if N < 1:
        raise SpecValidationError("N", f"order must be >= 1, got {N}")
    if mode not in ("auto", "sampled"):
        raise SpecValidationError("mode", f"unknown mode {mode!r}")
    f = _as_observable(f)
    if isinstance(f, LevelIndicator):
        if mode == "sampled":
            raise UnsupportedOperationError("a level indicator has no sampled path")
        return _rank1_indicator_sequence(system, f, N, center)
    k = validate_frequencies(system.space, f.freqs)
    center = center or f.centered

    exact = _exact_sequence(system, k, N, center) if mode == "auto" else None
    if exact is not None:
        return exact
    if seed is None:
        raise UnsupportedOperationError(
            "system has no exact path for this observable; pass a seed to sample"
        )
    if samples * (N + 1) > MAX_SAMPLED_WORK:
        at = f"{path}." if path else ""
        raise SpecValidationError(f"{at}samples", f"a sampled sequence needs samples x ({at}N + 1) "
                                                  f"<= {MAX_SAMPLED_WORK}, got {samples} x {N + 1}")
    return _sampled_sequence(system, k, N, center, seed, samples)


def _exact_sequence(system: System, k: FreqVector, N: int,
                    center: bool) -> CorrelationSeq | None:
    """The exact sequence, or None when some integral it needs is not exact."""
    measure = system.measure
    mean = measure.integrate_character(k) if center else None
    if center and mean is None:
        return None

    # path A: affine pullback, while every integral along the orbit is exact
    Q = system.phase_modulus
    phases: list[PhaseSum] = []
    for kn, P in pullback_orbit(system, k, N + 1):
        # the orbit's tuples are validated already: integrate them as they are
        integral = measure._integrate(tuple(a - b for a, b in zip(kn, k)))
        if integral is None:
            break
        # c_n = e(P / Q) * mu_hat(k_n - k);  values(n) = conj(c_n), 0 where mu_hat is
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
        shift = mean.abs2()
        phases = [p - shift for p in phases]
    values = np.array([p.value() for p in phases], dtype=np.complex128)
    return CorrelationSeq(
        N=N, observable=observable, exact=True, _values=values, _phases=phases,
        provenance=provenance,
    )


def _sampled_sequence(system: System, k: FreqVector, N: int, center: bool,
                      seed: int, samples: int) -> CorrelationSeq:
    """Monte Carlo correlations along the orbits of ``samples`` seeded points,
    stepped in place on one row-major array."""
    rng = rng_from_seed(seed)
    points = np.ascontiguousarray(system.measure.sample_floats(rng, samples))
    f0 = character_array(k, points)
    mean = complex(f0.mean()) if center else 0j
    if center:
        # delta method for c_n - |mean|^2: the influence of |mean|^2 on each
        # sample is 2 Re(conj(mean) f0) - 2 |mean|^2 (Asmussen and Glynn, III.3)
        influence = 2 * (np.conj(mean) * f0).real - 2 * abs(mean) ** 2
        influence_var = float(influence @ influence) / samples
    values = np.empty(N + 1, dtype=np.complex128)
    errors = np.empty(N + 1, dtype=np.float64)
    for n in range(N + 1):
        fn = character_array(k, points) if n else f0
        # as written: numpy's temporary elision and FMA fix this product's last bits
        prods = fn * np.conj(f0)
        c_n = complex(prods.mean())
        values[n] = np.conj(c_n)
        var = 1.0 - abs(c_n) ** 2  # every product has modulus 1
        if center:
            var += influence_var - 2 * float(influence @ prods.real) / samples
        errors[n] = math.sqrt(max(0.0, var) / samples)
        if n < N:
            system.apply_array(points)
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

class AtomReport(NamedTuple):
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


def _atom_grid(max_denominator: int) -> list[tuple[int, int]]:
    """Every angle p/q in [0, 1) with q <= max_denominator, as the pair (p, q)
    in lowest terms, in increasing order of p/q.

    This is the Farey sequence of that order without its last term 1/1, built
    term by term: after neighbours a/b < c/d the next term is
    (j*c - a)/(j*d - b) with j = (max_denominator + b) // d."""
    grid: list[tuple[int, int]] = []
    if max_denominator < 1:
        return grid
    a, b, c, d = 0, 1, 1, max_denominator
    while a < b:
        grid.append((a, b))
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


def wiener_atomic_mass(seq: CorrelationSeq, *, candidates: Sequence = (),
                       grid_max_denominator: int = ATOM_GRID_MAX_DENOMINATOR,
                       atom_floor: float = 0.05) -> AtomReport:
    """One-sided Cesaro average of |values|^2 with a dyadic convergence trace.

    Atom locations are searched on the rational grid p/q, q <= the given
    denominator bound, plus any user-supplied candidate angles.  Every
    reported weight is ``_rotated_average`` at its angle.  Candidates are
    always evaluated; grid angles are first screened all at once
    (``_grid_screen``) and walked as integer pairs; only those whose screened
    weight is at least atom_floor - margin, or NaN, become ``Fraction``s and
    are evaluated.  The two computations of a weight differ by at most about
    4*pi*(N + 3)*eps*max|values| (the float angle's phase error grows with n),
    and the margin is 100*(N + 3)*eps*max(1, max|values|), so no angle that
    would reach the floor is screened out.
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
        sq = np.abs(seq._values[:N]) ** 2
        csum = np.cumsum(sq)
        trace = [(n, float(csum[n - 1] / n)) for n in prefixes]
        total = float(csum[N - 1] / N)
        total_exact = None

    atoms = []
    seen = set()
    candidate_angles = [parse_scalar(c, field="candidates") for c in candidates]
    vals = seq._values[:N]
    margin = 100 * (N + 3) * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(vals))))
    kept = {q: (~(row < atom_floor - margin)).tolist()
            for q, row in _grid_screen(vals, grid_max_denominator).items()}
    grid = [Fraction(p, q) for p, q in _atom_grid(grid_max_denominator) if kept[q][p]]
    for angle in [c % 1 for c in candidate_angles] + grid:
        if angle in seen:
            continue
        seen.add(angle)
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
    vals = seq._values[:N]
    n = np.arange(N)
    factor = np.exp(sign * 2j * np.pi * float(angle) * n)
    return float(abs((vals * factor).sum()) / N)


# ---------------------------------------------------------------------------
# eigenvalue detection
# ---------------------------------------------------------------------------

class EigenvalueVerdict(NamedTuple):
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

    On an exact sequence the squared mass is also decided exactly, as the
    ``as_rational`` of ``seq.rotated_abs2``: for an eigenfunction,
    c_n = w * e(b + n * beta), that is
    w^2 * sum_{|d|<N} (N - |d|) * e(d * (a + beta)), N times the Fejer kernel,
    and for rational entries the sum over lags of their integer
    autocorrelation, each built in O(N) once the lags are known; any other
    sequence, or one whose sum has at most sqrt(2N - 1) terms, takes the
    product of the sum with its conjugate.
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

class WeakMixingReport(NamedTuple):
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
