"""identity-disjoint: an identity system and an ergodic rotation are disjoint.

Every constructible joining of the two has the product's character integrals
(decided exactly), the von Neumann averages of the joint map vanish at rate
2/N, and the product joining passes the sampled consistency test.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ergolab.core import (
    IdentitySystem,
    MeasureHandle,
    ProductSystem,
    SpecValidationError,
    UnsupportedOperationError,
    build_measure,
    build_system,
    derive_seed,
    np,
)
from ergolab.exact import PhaseSum
from ergolab.experiments import Check, ExperimentConfig, _fmt
from ergolab.joinings import product_consistency_test, product_joining, rel_indep_joining


def _stationary_time_average(joining: ProductSystem, k: tuple[int, ...], N: int) -> PhaseSum:
    """(1/N) sum_{n<N} integral(char_k o P^n) for the joint map P, exact path.

    P is Id x R, whose pullback fixes every character: the average is
    integral(char_k) times a geometric mean of unit phases.
    """
    k1, phase = joining.char_pullback(k)
    if k1 != tuple(k):
        raise UnsupportedOperationError(f"the joint map moves the character {k} to {k1}")
    base = joining.integrate(k)
    if base.is_zero():
        return PhaseSum.zero()
    return base * PhaseSum.sum([PhaseSum.from_rational(Fraction(1, N))] * N, phase)


def _require_exact_circle_measure(measure: MeasureHandle, top: int) -> None:
    """Refuse an identity measure that is not on the circle, or one of whose
    characters -top..top has no exact integral: the cross-character, averaging
    and exact consistency checks are decided in exact arithmetic only."""
    path = "knobs.identity_measure"
    if measure.arity != 1:
        raise SpecValidationError(path, f"must be a measure on the circle (arity 1), "
                                        f"got arity {measure.arity}")
    for k in sorted(range(-top, top + 1), key=abs):
        if measure.integrate_character((k,)) is None:
            raise SpecValidationError(path, f"identity-disjoint decides its checks exactly, "
                                            f"but character {k} of this measure has no "
                                            f"exact integral ({measure.description})")


def run(config: ExperimentConfig) -> list[Check]:
    knobs = config.knobs
    checks: list[Check] = []
    identity = IdentitySystem(build_measure(knobs["identity_measure"],
                                            path="knobs.identity_measure"))
    _require_exact_circle_measure(identity.measure,
                                  max(knobs["max_freq"], knobs["consistency_degree"]))
    rotation = build_system({"kind": "rotation",
                             "params": {"angle": knobs["rotation_angle"]}})
    max_freq = knobs["max_freq"]
    N = knobs["N"]

    rel_indep = rel_indep_joining([identity, rotation], [[], []], {"kind": "product"})
    product = product_joining([identity, rotation])
    joinings = [("rel-indep-trivial", rel_indep), ("product", product)]

    # cross-character exactness against the product of marginals
    outcomes = [product_consistency_test(joining, degree=max_freq) for _, joining in joinings]
    worst = max(abs(row.joint - row.product) for outcome in outcomes for row in outcome.rows)
    all_equal = all(outcome.witness is None for outcome in outcomes)
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
    freqs = range(-max_freq, max_freq + 1)
    mean_g = {kg: identity.measure.integrate_character((kg,)) for kg in freqs}
    for name, joining in joinings:
        avg_h = {kh: _stationary_time_average(joining, (0, kh), N) for kh in freqs if kh}
        for kg in freqs:
            for kh in avg_h:
                avg_gh = _stationary_time_average(joining, (kg, kh), N)
                centered = avg_gh - mean_g[kg] * avg_h[kh]
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
