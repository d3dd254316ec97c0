"""example1: the twist joined to a rotation through the coupled triple.

The coupled system has an ergodic rotation factor (eigenvalue mass 1 at the
shift angle), so it is not disjoint from all ergodic systems, while the
product joining of the same factors shows no such eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction

from ergolab.core import Character, SampledPowerMeasure, derive_seed, frequency_box, np, orbit
from ergolab.exact import PhaseSum, parse_scalar, scalar_str
from ergolab.experiments import Check, ExperimentConfig, _fmt
from ergolab.joinings import build_joining, invariance_check, product_joining, sample_joining
from ergolab.spectral import correlation_sequence, detect_eigenvalue


def run(config: ExperimentConfig) -> list[Check]:
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
    pushforward_mass = PhaseSum.sum(wiener_vals) * Fraction(1, N)
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

    # z-coordinate evolution on exact orbits of sampled points: each float is a
    # dyadic rational, and Fraction lifts it exactly
    pts = sample_joining(triple, derive_seed(config.seed, "z-evolution"), 8)
    evo_ok = True
    for p in pts:
        path = orbit(triple, tuple(map(Fraction, p.tolist())), 4)
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
        # sampled by request: this check exercises the Monte Carlo eigenvalue path
        stat_seq = correlation_sequence(
            stat_triple, F, min(N, 256), mode="sampled",
            seed=derive_seed(config.seed, "statistical-eigenvalue"),
            samples=knobs["statistical_samples"],
        )
        verdict_stat = detect_eigenvalue(stat_triple, F, angle, min(N, 256), seq=stat_seq)
        checks.append(Check(
            check_id="statistical-rho-eigenvalue",
            anchor="rotation-factor-obstruction",
            expected="eigenvalue mass ~ 1 on the sampled coupled triple",
            observed=f"mass {verdict_stat.mass!r}",
            passed=verdict_stat.mass >= 0.99,
            details={"samples": knobs["statistical_samples"]},
        ))
    return checks
