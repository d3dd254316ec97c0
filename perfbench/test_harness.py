"""Tests of the benchmark harness itself; the tier-1 suite does not collect them.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, install_ergolab  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_config_generation_is_deterministic_per_seed():
    from ergolab.experiments import ExperimentConfig

    for workload in run.load_workloads()["workloads"].values():
        configs = run.generate_configs(workload, 7)
        assert configs == run.generate_configs(workload, 7)
        assert configs != run.generate_configs(workload, 8)
        assert [c["seed"] for c in configs] == [7] * len(workload["items"])
        configs[0]["knobs"]["mutated"] = True
        assert run.generate_configs(workload, 7)[0]["knobs"].get("mutated") is None
        for doc in run.generate_configs(workload, 7):
            ExperimentConfig.resolve(doc["experiment"], doc["seed"], doc["knobs"])


def test_oracle_accepts_a_matching_item_and_rejects_a_tampered_digest():
    good = "0123456789abcdef" * 4
    result = {"failing_checks": [], "report_matches": True, "digest": good}
    assert run.judge(result, good) is None
    assert run.judge(result, None) is None
    tampered = good[:-1] + "0"
    assert "digest" in run.judge(result, tampered)
    assert run.judge(None, good) is not None
    assert "c-1" in run.judge({**result, "failing_checks": ["c-1"]}, good)
    assert run.judge({**result, "report_matches": False}, good) is not None


def test_every_item_has_a_reference_digest():
    for workload in run.load_workloads()["workloads"].values():
        for item in workload["items"]:
            digest = item["digest_2024"]
            assert isinstance(digest, str) and len(digest) == 64
            int(digest, 16)


def _report(experiment: str, observed: list[str]) -> bytes:
    checks = [{"check_id": f"consistency-{i}", "observed": o} for i, o in enumerate(observed)]
    checks.append({"check_id": "joint-invariance-sampled", "observed": "took 2.0s)"})
    return json.dumps({"config": {"experiment": experiment}, "checks": checks},
                      sort_keys=True).encode()


def test_mask_hides_only_the_elapsed_seconds_of_product_closure():
    fast = _report("product-closure", ["consistent-with-product (3124 characters, 2.0s)"])
    slow = _report("product-closure", ["consistent-with-product (3124 characters, 13.4s)"])
    assert fast != slow
    assert child.masked_canonical(fast) == child.masked_canonical(slow)
    masked = json.loads(child.masked_canonical(fast))
    assert masked["checks"][0]["observed"] == \
        "consistent-with-product (3124 characters, <elapsed>s)"
    assert masked["checks"][1]["observed"] == "took 2.0s)"
    refuted = _report("product-closure", ["refuted (3124 characters, 2.0s)"])
    assert child.masked_canonical(refuted) != child.masked_canonical(fast)
    other = _report("example1", ["consistent-with-product (3124 characters, 2.0s)"])
    assert child.masked_canonical(other) == other


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x)

    def body():
        inner(1)
        inner(2)

    tracer.wrap("outer", body)()
    assert tracer.summary() == {"outer": {"calls": 1, "self_s": 5.5},
                                "inner": {"calls": 2, "self_s": 4.5}}
    assert list(tracer.span_parent) == [-1, 0, 0]


def test_wrapper_returns_the_callee_result_unchanged_and_keeps_exceptions():
    tracer = Tracer()
    sentinel = object()
    assert tracer.wrap("f", lambda: sentinel)() is sentinel

    def fails():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("g", fails)()
    assert tracer.summary()["g"]["calls"] == 1
    assert tracer.wrap("h", lambda: 3)() == 3
    assert list(tracer.span_parent) == [-1, -1, -1]


def test_install_replaces_every_alias_and_uninstall_restores_them():
    import ergolab.cli  # noqa: F401
    from ergolab import exact, experiments, spectral

    modules = [m for name, m in sys.modules.items()
               if name == "ergolab" or name.startswith("ergolab.")]
    original = spectral.correlation_sequence
    original_mul = vars(exact.PhaseSum)["__mul__"]
    a = exact.PhaseSum.unit(Fraction(1, 3))
    expected = a * a.conjugate()

    tracer = install_ergolab(Tracer())
    try:
        assert not any(value is original or value is original_mul
                       for m in modules for value in vars(m).values())
        assert experiments.correlation_sequence is spectral.correlation_sequence
        assert vars(exact.PhaseSum)["__rmul__"] is vars(exact.PhaseSum)["__mul__"]
        product = a * a.conjugate()
        assert product.terms == expected.terms
        assert product.as_rational() == 1
        assert (product - 1).is_zero()
        counts = tracer.summary()
        assert counts["exact.phasesum_mul"]["calls"] == 1
        assert tracer.counters["exact.as_rational.decided"] == 1
        assert tracer.counters["exact.is_zero.cyclotomic_calls"] == 1
    finally:
        tracer.uninstall()
    assert spectral.correlation_sequence is original
    assert experiments.correlation_sequence is original
    assert vars(exact.PhaseSum)["__mul__"] is original_mul
    assert vars(exact.PhaseSum)["__rmul__"] is original_mul


def test_benchmark_json_names_what_the_harness_computes():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["cpu_ref_s", "setup_s", "peak_rss_mb"]
    assert BENCHMARK["paths"] == ["perfbench"]
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    spec = run.load_workloads()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec["workloads"])
    for workload in spec["workloads"].values():
        assert set(workload["expect_nonzero"]) <= per_layer
    empty = {"spans": {}, "counters": {}}
    for name in per_layer:
        assert run.layer_value(name, empty) == 0


def test_reference_scale_is_the_reference_chunk_over_the_mean_chunk_in_the_interval():
    chunk = run.REFERENCE_CHUNK_S
    reference = run.Reference(Path("unused"))
    reference.load(np.array([0.0, 1.0, 2.0, 3.0] + [chunk, 2 * chunk, 2 * chunk, chunk]))
    assert reference.scale(0.5, 2.5) == pytest.approx(0.5)
    assert reference.scale(0.0, 4.0) == pytest.approx(2 / 3)
    with pytest.raises(RuntimeError):
        reference.scale(3.5, 3.9)


def test_reference_loop_records_chunks_until_stopped(tmp_path):
    with run.Reference(tmp_path / "reference.bin") as reference:
        time.sleep(0.3)
    assert reference.proc.returncode == 0
    assert len(reference.starts) > 10
    assert np.all(np.diff(reference.starts) > 0)
    assert 0 < reference.scale(reference.starts[0], reference.starts[-1])
