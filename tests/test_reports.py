"""Report surfaces: atom and verdict JSON, result records, pinned canonical bytes."""

import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from ergolab.core import Character, SpecValidationError, build_system
from ergolab.experiments import ExperimentConfig, run_experiment
from ergolab.joinings import build_joining, product_consistency_test
from ergolab.spectral import (
    correlation_sequence,
    detect_eigenvalue,
    weak_mixing_test,
    wiener_atomic_mass,
)

F = Fraction


def rotation_seq(N=32):
    system = build_system({"kind": "rotation", "params": {"angle": "1/3"}})
    return correlation_sequence(system, Character((1,)), N)


def test_atom_report_json():
    doc = wiener_atomic_mass(rotation_seq(64), grid_max_denominator=8).to_json()
    assert doc["total_exact"] == "1"
    assert doc["trace"][-1][0] == 64
    json.dumps(doc)


def test_eigenvalue_verdict_json():
    system = build_system({"kind": "rotation", "params": {"angle": "1/3"}})
    doc = detect_eigenvalue(system, Character((1,)), "1/3", 64).to_json()
    assert doc["witnessed"] is True
    assert doc["point"] == pytest.approx([-0.5, np.sqrt(3) / 2])
    json.dumps(doc)


def test_weak_mixing_report_json():
    system = build_system({"kind": "rotation", "params": {"angle": "1/3"}})
    report = weak_mixing_test(system, [Character((1,))], N=64)
    assert report.verdict == "atoms-detected"


def test_consistency_verdict_json_witness_as_frequency_vector():
    diag = build_joining({"kind": "diagonal", "params": {
        "component": {"kind": "rotation", "params": {"angle": "1/3"}}}})
    report = product_consistency_test(diag, degree=1)
    assert report.verdict == "refuted"
    assert isinstance(report.witness, tuple) and len(report.witness) == 2
    assert all(type(v) is int for v in report.witness)


def test_fibered_rank1_parameter_spec_kind():
    """The fibered kind is gone: its rotation fiber is a twist with that
    cocycle, and its rank-one parameter fiber is refused as an unknown kind."""
    with pytest.raises(SpecValidationError, match="unknown system kind 'fibered'"):
        build_system({
            "kind": "fibered",
            "params": {
                "base_measure": {"kind": "haar", "arity": 1},
                "fiber": {"kind": "rank1-parameter", "depth": 3},
            },
        })


RANK1_DEPTH_6 = {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
                 "wm_stages": [2, 3], "N": 256, "threshold": 0.2}


@pytest.mark.parametrize("seed, knobs, digest", [
    (99, RANK1_DEPTH_6, "b4611dde5e606c041591b4893c1547fcb48a1c3d79c936c9e5d18c5ab1dd7082"),
    (2024, RANK1_DEPTH_6, "233ea12e1dab47ca998d0224206ae93ac69c99cc65ae4c27fc30fb3432acb0f1"),
    (99, {"depth": 10}, "920a45126ea21fb9668467dcf6b7d8e88d802e7129c6cc41a6ae563c77a78a1f"),
    (2024, {"depth": 10}, "87933ba4e1ee9b815caf3f1cfadcc22474e7cd3a43404baa3fda03372797ee8a"),
])
def test_rank1_family_canonical_bytes_are_pinned(seed, knobs, digest):
    """sha256 of the rank1-family report: tower correlations, Wiener totals
    and every printed mass stay byte for byte what they were."""
    report = run_experiment(ExperimentConfig.resolve("rank1-family", seed, knobs))
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == digest


#: the small knobs of test_report_determinism; product-closure at 5,000 samples
JOINING_REPORTS = {
    "identity-disjoint": {"max_freq": 4, "N": 512, "samples": 2048},
    "example1": {"N": 512, "max_freq": 4, "invariance_degree": 1,
                 "statistical_samples": 2048},
    "product-closure": {"samples": 5000},
    "spectral-probe": {"system": {"kind": "twist", "params": {
        "base_measure": {"kind": "power-law-sampled", "exponent": 2}}},
        "observable": {"freqs": [0, 1], "centered": True}, "N": 256,
        "samples": 1024, "toeplitz_size": 16, "eigenvalue_queries": [{"angle": "0"}]},
}
#: product-closure prints the seconds its consistency checks took
ELAPSED_TOKEN = re.compile(r", [0-9]+\.[0-9]+s\)$")


def masked_canonical_bytes(report) -> bytes:
    doc = json.loads(report.canonical_bytes())
    if doc["config"]["experiment"] == "product-closure":
        for check in doc["checks"]:
            if check["check_id"].startswith("consistency-"):
                check["observed"] = ELAPSED_TOKEN.sub(", <elapsed>s)", check["observed"])
    return json.dumps(doc, sort_keys=True).encode()


@pytest.mark.parametrize("experiment, seed, digest", [
    ("identity-disjoint", 99, "82a2e7710a50a596f99e576e421a62e8f70bb74236b611d792aa1e1492732e2e"),
    ("example1", 99, "030bf6a0b3972e8cea24ebab8f10333e01a5f58f4a9d59b50651186362b55359"),
    ("product-closure", 99, "d9f3aac73ebf7414786335b56d8d8352eb05ee755e05102f13bfbd5bdfe0a3e5"),
    ("spectral-probe", 99, "7bc2642bd9d15fb082dbbf664210f69f7143b3bbd5136bac47a0b38fcbf71ea9"),
    ("identity-disjoint", 2024,
     "3c1a029399feefa33d459e4f07f818c5455f14b95d1eb2d55ffd32f45cf354ab"),
    ("example1", 2024, "05ce3387a70c3ba99e3e964dd3623e108efc4ef9df4123d133ce49b9ac189dee"),
    ("product-closure", 2024,
     "fa4026289f1e8ac66551b4f71b5f79e5b5894784f79f832b428e454232698502"),
    ("spectral-probe", 2024, "3a5337179e6241f7481000980c2d4d79178da40882be29442982cccdd89c9e25"),
])
def test_joining_report_canonical_bytes_are_pinned(experiment, seed, digest):
    """sha256 of the reports that build joinings (and the sampled twist
    probe), with product-closure's elapsed seconds masked."""
    report = run_experiment(ExperimentConfig.resolve(experiment, seed,
                                                     JOINING_REPORTS[experiment]))
    assert hashlib.sha256(masked_canonical_bytes(report)).hexdigest() == digest
