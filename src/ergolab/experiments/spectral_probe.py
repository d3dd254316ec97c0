"""spectral-probe: the correlation sequence of one observable under one
system, its Toeplitz positivity, Wiener atomic mass and eigenvalue queries.
"""

from __future__ import annotations

from ergolab.core import build_observable, build_system, derive_seed
from ergolab.experiments import Check, ExperimentConfig, _fmt
from ergolab.spectral import (
    correlation_sequence,
    detect_eigenvalue,
    wiener_atomic_mass,
)


def run(config: ExperimentConfig) -> list[Check]:
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
