"""product-closure: a product of two members of Erg^perp, joined with an
ergodic rotation, is consistent with the product joining (sampled, 4 sigma).
"""

from __future__ import annotations

import time

from ergolab.core import build_system, derive_seed, frequency_box, np
from ergolab.experiments import Check, ExperimentConfig
from ergolab.joinings import (invariance_check, product_consistency_test, product_joining,
                              rel_indep_joining)


def run(config: ExperimentConfig) -> list[Check]:
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
    for name, joining in joinings.items():
        started = time.perf_counter()
        outcome = product_consistency_test(
            joining, degree=degree, mode="sampled", samples=samples,
            seed=derive_seed(config.seed, f"closure-{name}"),
        )
        elapsed = time.perf_counter() - started
        # keep what the check reports, not the rows: no two verdicts are alive at once
        verdict, characters = outcome.verdict, len(outcome.rows)
        del outcome
        checks.append(Check(
            check_id=f"consistency-{name}",
            anchor="product-closure",
            expected="consistent-with-product at 4 sigma",
            observed=f"{verdict} ({characters} characters, {elapsed:.1f}s)",
            passed=verdict == "consistent-with-product",
            sigma=1.0 / np.sqrt(samples),
            details={"samples": samples, "degree": degree, "characters": characters},
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
