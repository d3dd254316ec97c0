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

Layout: this package holds the config, check and report types and the
dispatch; each experiment's checks live in a module of their own
(``identity_disjoint``, ``example1``, ``product_closure``, ``rank1_family``,
``spectral_probe``), whose ``run(config)`` returns its checks.
``run_experiment`` imports only the module of the experiment it runs, and
that module imports the layers it needs (``joinings``, ``rank1``,
``spectral``), so resolving a config compiles none of them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from ergolab import __version__
from ergolab.core import SpecValidationError
from ergolab.schema import KNOBS, SQRT2_ANGLE_40, parse_knobs  # noqa: F401 (re-exported)

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
        import csv
        import io

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
# dispatch
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    """A float as the runners print it in ``Check.observed`` and ``expected``."""
    return f"{value:.3e}"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one named experiment; checks use per-check seeds derived from the
    master seed, so the report is deterministic for a fixed config."""
    started = time.perf_counter()
    module = importlib.import_module(f"{__name__}.{config.experiment.replace('-', '_')}")
    checks = module.run(config)
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


#: the spectral functions the runners call, read through from ``ergolab.spectral``
#: (which loads on the first read); ``perfbench/test_harness.py`` reads
#: ``correlation_sequence`` under this name
_SPECTRAL = ("correlation_sequence", "detect_eigenvalue", "weak_mixing_test",
             "wiener_atomic_mass")


def __getattr__(name: str):
    if name in _SPECTRAL:
        from ergolab import spectral
        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
