"""Experiment harness: configs, determinism, emitters, CLI contract."""

import json
import subprocess
import sys
import tracemalloc

import pytest

from ergolab.core import SpecValidationError
from ergolab.experiments import (
    DEFAULT_KNOBS,
    EXPERIMENTS,
    ExperimentConfig,
    emit_report,
    run_experiment,
)


def small_config(experiment: str, seed: int = 31415) -> ExperimentConfig:
    """Down-sized knobs so the harness tests stay fast."""
    overrides = {
        "identity-disjoint": {"max_freq": 3, "N": 256, "samples": 1024,
                              "consistency_degree": 2},
        "example1": {"N": 256, "max_freq": 3, "invariance_degree": 1,
                     "statistical_samples": 2048},
        "product-closure": {"samples": 4096, "degree": 1},
        "rank1-family": {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
                         "wm_stages": [2, 3], "N": 256, "threshold": 0.2},
        "spectral-probe": {"N": 256, "eigenvalue_queries": [
            {"angle": "1/3", "expect_witnessed": True}]},
    }[experiment]
    return ExperimentConfig.resolve(experiment, seed, overrides)


def as_text(word: int) -> str:
    """A rank-one bit word as letters: first letter most significant, T = 1, s = 0."""
    return format(word, "b").replace("1", "T").replace("0", "s")


def as_bits(letters: str) -> int:
    return int(letters.replace("T", "1").replace("s", "0"), 2)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_experiment_rejected():
    with pytest.raises(SpecValidationError):
        ExperimentConfig.resolve("nope", 1)


def test_unknown_knob_rejected():
    with pytest.raises(SpecValidationError):
        ExperimentConfig.resolve("example1", 1, {"bogus": 2})


@pytest.mark.parametrize("overrides", [None, [["N", 512]], "N=512"])
def test_overrides_that_are_not_a_mapping_rejected(overrides, tmp_path, capsys):
    from ergolab.cli import main

    with pytest.raises(SpecValidationError):
        ExperimentConfig.resolve("example1", 1, overrides)
    config = _config_file(tmp_path, {"experiment": "example1", "seed": 1, "knobs": overrides})
    assert main(["run", "example1", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert "config error: knobs: expected an object" in capsys.readouterr().err


def test_seed_is_mandatory(tmp_path, monkeypatch, capsys):
    from ergolab.cli import main

    with pytest.raises(SpecValidationError, match="seed"):
        ExperimentConfig.resolve("example1", None)
    monkeypatch.delenv("ERGOLAB_SEED", raising=False)
    config = _config_file(tmp_path, {"experiment": "example1"})
    assert main(["run", "example1", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert "config error: seed is mandatory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed, accepted", [
    (True, False), (-1, False), (2**64, False), (2**70, False), (0, True), (2**64 - 1, True),
])
def test_resolve_accepts_exactly_the_u64_seeds(seed, accepted):
    if accepted:
        assert ExperimentConfig.resolve("example1", seed).seed == seed
    else:
        with pytest.raises(SpecValidationError, match="seed"):
            ExperimentConfig.resolve("example1", seed)


def test_defaults_are_echoed():
    config = ExperimentConfig.resolve("example1", 7)
    assert config.knobs == DEFAULT_KNOBS["example1"]
    assert config.to_json()["knobs"]["N"] == 4096


# ---------------------------------------------------------------------------
# running and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiments_pass_with_small_knobs(experiment):
    report = run_experiment(small_config(experiment))
    assert report.passed, report.failing_check_ids


def test_reports_are_byte_deterministic():
    a = run_experiment(small_config("identity-disjoint"))
    b = run_experiment(small_config("identity-disjoint"))
    assert a.canonical_bytes() == b.canonical_bytes()
    # wall clock differs but is excluded from the canonical form
    assert "wall_clock_seconds" not in json.loads(a.canonical_bytes())


def test_reports_change_with_seed():
    a = run_experiment(small_config("identity-disjoint", seed=1))
    b = run_experiment(small_config("identity-disjoint", seed=2))
    assert json.loads(a.canonical_bytes())["config"]["seed"] == 1
    assert json.loads(b.canonical_bytes())["config"]["seed"] == 2


def test_every_check_carries_an_anchor():
    for experiment in EXPERIMENTS:
        report = run_experiment(small_config(experiment))
        for check in report.checks:
            assert check.anchor, f"{experiment}:{check.check_id} missing anchor"


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_emit_json_round_trips(tmp_path):
    report = run_experiment(small_config("spectral-probe"))
    (path,) = emit_report(report, "json", tmp_path)
    loaded = json.loads(path.read_text())
    assert loaded["config"] == report.config.to_json()
    assert len(loaded["checks"]) == len(report.checks)
    assert loaded["passed"] is True


def test_emit_csv_row_count(tmp_path):
    report = run_experiment(small_config("spectral-probe"))
    (path,) = emit_report(report, "csv", tmp_path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(report.checks) + 1
    assert lines[0] == "check_id,anchor,expected,observed,sigma,verdict"


def test_csv_quotes_commas_and_quotes():
    """A field holding a comma or a quote reads back unchanged."""
    import csv

    from ergolab.experiments import Check, ExperimentReport

    observed = 'mass 0.5, witnessed = "no"'
    check = Check(check_id="c", anchor="plumbing", expected="a,b", observed=observed,
                  passed=False)
    report = ExperimentReport(config=small_config("spectral-probe"), checks=[check],
                              wall_clock_seconds=0.0)
    rows = list(csv.reader(report.to_csv().splitlines()))
    assert rows[0] == ["check_id", "anchor", "expected", "observed", "sigma", "verdict"]
    assert rows[1] == ["c", "plumbing", "a,b", observed, "", "fail"]


def test_word_recursion_check_fails_on_a_dropped_letter(monkeypatch):
    """A rank1_words that loses one letter at one stage fails the check that
    compares each word with the closed forms L_n and 3^n."""
    from ergolab import rank1

    real = rank1.rank1_words

    def dropping(spec, n):
        for stage, word in enumerate(real(spec, n)):
            # only the recursion check reaches stage 7 at these knobs
            yield as_bits(as_text(word)[1:]) if stage == 7 else word

    monkeypatch.setattr(rank1, "rank1_words", dropping)  # read by the runner at call time
    checks = {c.check_id: c for c in run_experiment(small_config("rank1-family")).checks}
    assert not checks["word-recursion-invariants"].passed
    assert [cid for cid, c in checks.items() if not c.passed] == ["word-recursion-invariants"]


def test_map_partition_check_fails_on_a_map_whose_word_is_permuted(monkeypatch):
    """A map whose word swaps one spacer with the base level above it, at a
    depth only the map-partition check builds, fails that check alone."""
    from ergolab import rank1

    real = rank1.rank1_map

    def swapping(spec, depth=None):
        m = real(spec, depth)
        if m.depth == 5:  # continuity builds depth 4, the itinerary depth 6
            m.word = as_bits(as_text(m.word).replace("sT", "Ts", 1))
        return m

    monkeypatch.setattr(rank1, "rank1_map", swapping)  # read by the runner at call time
    checks = {c.check_id: c for c in run_experiment(small_config("rank1-family")).checks}
    assert [cid for cid, c in checks.items() if not c.passed] == ["map-partition-exactness"]


def test_itinerary_check_fails_on_a_map_with_a_base_and_a_spacer_level_swapped(monkeypatch):
    """A depth-6 map whose level starts swap a T level with the s level below
    it still partitions the space and keeps its word, so only the itinerary
    check, which reads the map at that depth, fails."""
    from ergolab import rank1

    real = rank1.rank1_map

    def swapping(spec, depth=None):
        m = real(spec, depth)
        if m.depth == 6:
            letters = as_text(m.word)
            spacer = letters.index("s")
            base = letters.index("T", spacer)
            m.level_starts[[spacer, base]] = m.level_starts[[base, spacer]]
        return m

    monkeypatch.setattr(rank1, "rank1_map", swapping)
    checks = {c.check_id: c for c in run_experiment(small_config("rank1-family")).checks}
    assert [cid for cid, c in checks.items() if not c.passed] == ["itinerary-coherence"]
    assert checks["itinerary-coherence"].observed == "violated"


def test_itinerary_check_fails_on_base_levels_shifted_by_one(monkeypatch):
    """The copy-offset positions of the base levels, one level up, disagree
    with the word and the map, which still agree with each other."""
    from ergolab import rank1

    real = rank1.stage_level_positions
    monkeypatch.setattr(rank1, "stage_level_positions", lambda *args: real(*args) + 1)
    checks = {c.check_id: c for c in run_experiment(small_config("rank1-family")).checks}
    assert [cid for cid, c in checks.items() if not c.passed] == ["itinerary-coherence"]


@pytest.mark.parametrize("plant", ["repeat", "outside"])
def test_map_partition_check_fails_on_a_map_that_repeats_or_leaves_a_unit(plant, monkeypatch):
    """A depth-5 map whose level starts list one unit twice, or a unit past
    the space, fails the map-partition check alone."""
    from ergolab import rank1

    real = rank1.rank1_map

    def corrupting(spec, depth=None):
        m = real(spec, depth)
        if m.depth == 5:
            m.level_starts[7] = m.level_starts[8] if plant == "repeat" else m.length
        return m

    monkeypatch.setattr(rank1, "rank1_map", corrupting)
    checks = {c.check_id: c for c in run_experiment(small_config("rank1-family")).checks}
    assert [cid for cid, c in checks.items() if not c.passed] == ["map-partition-exactness"]


@pytest.mark.parametrize("depth, mib", [(10, 3), (12, 13)])
def test_rank1_family_peaks_below_its_bound(depth, mib):
    """At depth 12 the itinerary check sets the peak, 11.5 MiB: the map's
    int32 level starts (4 x L_d bytes), the int32 copy-offset base levels
    (4 x 3^d), the word's letters as bools (L_d) and the int64 indices of its
    T letters (8 x 3^d), compared while all are held.  At depth 10 these are
    1.1 MiB, and the stage-14 bit word walk sets the peak at 2.2 MiB.  Walking
    the base point's orbit through int32 units, levels and a clipped copy of
    the units, with a translation table, peaked at 18.6 MiB at depth 12; with
    text words and int64 towers the word walk set the depth-10 peak at 9.1 MiB
    and that walk the depth-12 peak at 34.3 MiB."""
    config = ExperimentConfig.resolve("rank1-family", 2024, {"depth": depth})
    tracemalloc.start()
    try:
        report = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in report.checks)
    assert peak <= mib * 2**20


def test_emit_markdown_sections(tmp_path):
    report = run_experiment(small_config("spectral-probe"))
    (path,) = emit_report(report, "markdown", tmp_path)
    text = path.read_text()
    for check in report.checks:
        assert f"## {check.check_id}" in text
        assert check.anchor in text


def test_emit_rejects_unknown_format(tmp_path):
    report = run_experiment(small_config("spectral-probe"))
    with pytest.raises(SpecValidationError):
        emit_report(report, "yaml", tmp_path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_cli(*args, env_seed=None, cwd=None):
    import os

    env = dict(os.environ)
    env.pop("ERGOLAB_SEED", None)
    if env_seed is not None:
        env["ERGOLAB_SEED"] = str(env_seed)
    return subprocess.run(
        [sys.executable, "-m", "ergolab.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def test_cli_run_pass_and_report(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "spectral-probe",
        "knobs": {"N": 256},
    }))
    proc = _run_cli("run", "spectral-probe", "--config", str(config),
                    "--seed", "5", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report-spectral-probe.json").exists()
    assert "all" in proc.stdout and "checks passed" in proc.stdout


def test_cli_env_seed_fallback(tmp_path):
    proc = _run_cli("run", "spectral-probe", "--out", str(tmp_path / "out"),
                    env_seed=9)
    assert proc.returncode == 0, proc.stderr


def test_cli_missing_seed_is_config_error(tmp_path):
    proc = _run_cli("run", "spectral-probe", "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert "seed" in proc.stderr


def test_cli_failing_check_exits_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "knobs": {"N": 256, "eigenvalue_queries": [
            {"angle": "1/2", "expect_witnessed": True}]},
    }))
    proc = _run_cli("run", "spectral-probe", "--config", str(config),
                    "--seed", "5", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "failing checks" in proc.stderr


def test_cli_wrong_experiment_in_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "example1", "seed": 3}))
    proc = _run_cli("run", "spectral-probe", "--config", str(config),
                    "--out", str(tmp_path / "out"))
    assert proc.returncode == 3


def test_cli_spec_validate(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"system": {"kind": "rotation", "params": {"angle": "1/3"}}}))
    assert _run_cli("spec", "validate", str(good)).returncode == 0

    joining = tmp_path / "joining.json"
    joining.write_text(json.dumps({"joining": {
        "kind": "diagonal",
        "params": {"component": {"kind": "rotation", "params": {"angle": "1/3"}}},
    }}))
    assert _run_cli("spec", "validate", str(joining)).returncode == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"kind": "rotation",
                                          "params": {"angle": "sqrt2"}}}))
    proc = _run_cli("spec", "validate", str(bad))
    assert proc.returncode == 3
    assert "angle" in proc.stderr


@pytest.mark.parametrize("doc", [5, [1], "rotation"])
def test_cli_spec_validate_refuses_a_document_that_is_not_an_object(doc, tmp_path, capsys):
    from ergolab.cli import main

    assert main(["spec", "validate", _config_file(tmp_path, doc)]) == 3
    assert "invalid:" in capsys.readouterr().err


def test_cli_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        proc = _run_cli("run", "identity-disjoint", "--seed", "17",
                        "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    doc1 = json.loads((out1 / "report-identity-disjoint.json").read_text())
    doc2 = json.loads((out2 / "report-identity-disjoint.json").read_text())
    doc1.pop("wall_clock_seconds")
    doc2.pop("wall_clock_seconds")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


@pytest.mark.parametrize("source", ["env", "config"])
def test_cli_non_integer_seed_is_config_error(source, tmp_path, monkeypatch, capsys):
    from ergolab.cli import main

    args = ["run", "spectral-probe", "--out", str(tmp_path / "out")]
    monkeypatch.delenv("ERGOLAB_SEED", raising=False)
    if source == "env":
        monkeypatch.setenv("ERGOLAB_SEED", "abc")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": "x"}))
        args += ["--config", str(config)]
    assert main(args) == 3
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("source, value", [
    ("config", 1.5),
    ("config", True),
    ("config", "7"),
    ("config", None),
    ("config", 99999999999999999999999),
    ("config", 2**64),
    ("config", -1),
    ("flag", "-5"),
    ("flag", "1.5"),
    ("flag", "18446744073709551616"),
    ("env", "-5"),
    ("env", "1e3"),
    ("env", "18446744073709551616"),
])
def test_cli_seed_outside_u64_is_config_error(source, value, tmp_path, monkeypatch, capsys):
    from ergolab.cli import main

    args = ["run", "spectral-probe", "--out", str(tmp_path / "out")]
    monkeypatch.delenv("ERGOLAB_SEED", raising=False)
    if source == "config":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": value}))
        args += ["--config", str(config)]
    elif source == "flag":
        args += ["--seed", value]
    else:
        monkeypatch.setenv("ERGOLAB_SEED", value)
    assert main(args) == 3
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "flag", "env"])
def test_cli_accepts_the_largest_u64_seed(source, tmp_path, monkeypatch):
    from ergolab.cli import main

    seed = 2**64 - 1
    config = tmp_path / "cfg.json"
    doc = {"knobs": {"N": 64, "samples": 256}}
    if source == "config":
        doc["seed"] = seed
    config.write_text(json.dumps(doc))
    args = ["run", "spectral-probe", "--config", str(config), "--out", str(tmp_path / "out")]
    monkeypatch.delenv("ERGOLAB_SEED", raising=False)
    if source == "flag":
        args += ["--seed", str(seed)]
    elif source == "env":
        monkeypatch.setenv("ERGOLAB_SEED", str(seed))
    assert main(args) == 0
    report = json.loads((tmp_path / "out" / "report-spectral-probe.json").read_text())
    assert report["config"]["seed"] == seed


@pytest.mark.parametrize("knobs", [{"depth": 20}, {"depth": 40}, {"word_stage_max": 15}])
def test_cli_refuses_towers_above_depth_14(knobs, tmp_path, capsys, monkeypatch):
    from ergolab.cli import main
    from ergolab.rank1 import Rank1Spec

    def allocation_reached(self, n):
        raise AssertionError("a tower was started before the depth was refused")

    # every function that builds a tower reads the digits right before it allocates
    monkeypatch.setattr(Rank1Spec, "digit_stream", allocation_reached)

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "knobs": knobs}))
    args = ["run", "rank1-family", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert "L_14" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _config_file(tmp_path, doc) -> str:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    return str(config)


@pytest.mark.parametrize("doc", [
    [1, 2],
    "spectral-probe",
    7,
    {"seed": 1, "knobs": [["N", 64]]},
    {"seed": 1, "knobs": "N=64"},
    {"seed": 1, "knobs": 64},
    {"seed": 1, "knobs": None},
])
def test_cli_config_that_is_not_an_object_is_config_error(doc, tmp_path, capsys):
    from ergolab.cli import main

    args = ["run", "spectral-probe", "--seed", "1", "--config", _config_file(tmp_path, doc),
            "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, knob, value", [
    ("spectral-probe", "N", "64"),
    ("spectral-probe", "N", 64.0),
    ("spectral-probe", "N", True),
    ("spectral-probe", "N", None),
    ("example1", "statistical", 1),
    ("example1", "statistical", "true"),
    ("rank1-family", "threshold", True),
    ("rank1-family", "threshold", "0.1"),
    ("product-closure", "rotation_angle", 7),
    ("spectral-probe", "candidates", {}),
    ("spectral-probe", "system", []),
    ("rank1-family", "parameters", "1/4"),
])
def test_cli_knob_of_the_wrong_type_is_config_error(experiment, knob, value, tmp_path, capsys):
    from ergolab.cli import main

    config = _config_file(tmp_path, {"seed": 1, "knobs": {knob: value}})
    args = ["run", experiment, "--config", config, "--out", str(tmp_path / "out")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "config error:" in err and f"knobs.{knob}" in err
    assert not (tmp_path / "out").exists()


def test_cli_empty_sample_is_config_error(tmp_path, capsys):
    from ergolab.cli import main

    config = _config_file(tmp_path, {"seed": 1, "knobs": {"samples": 0}})
    assert main(["run", "product-closure", "--config", config,
                 "--out", str(tmp_path / "out")]) == 3
    assert "config error: knobs.samples: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, knob, value", [
    ("spectral-probe", "toeplitz_size", 0),
    ("spectral-probe", "toeplitz_size", -5),
    ("identity-disjoint", "max_freq", -1),
    ("identity-disjoint", "max_freq", 0),
    ("example1", "max_freq", -1),
    ("example1", "max_freq", 0),
    ("identity-disjoint", "N", 0),
    ("identity-disjoint", "N", -5),
    ("example1", "N", 0),
    ("example1", "N", -1),
    ("spectral-probe", "samples", 0),
    ("spectral-probe", "samples", -4),
    ("rank1-family", "prefix_length", -2),
    ("rank1-family", "prefix_length", 0),
    ("rank1-family", "depth", 0),
    ("rank1-family", "word_stage_max", 0),
    ("example1", "statistical_samples", 0),
    ("example1", "statistical_samples", -3),
])
def test_cli_knob_below_its_minimum_is_config_error(experiment, knob, value, tmp_path,
                                                     capsys, monkeypatch):
    from ergolab import experiments
    from ergolab.cli import main

    def runner_reached(config):
        raise AssertionError("the experiment started before the knob was refused")

    monkeypatch.setitem(experiments._RUNNERS, experiment, runner_reached)
    config = _config_file(tmp_path, {"seed": 1, "knobs": {knob: value}})
    args = ["run", experiment, "--config", config, "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert f"config error: knobs.{knob}: must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weights, code", [(["2", "-1"], 3), (["1", "0"], 0)])
def test_cli_mixture_weights(weights, code, tmp_path):
    """Negative weights are a config error; a zero last weight is never drawn."""
    from ergolab.cli import main

    haar = {"kind": "haar", "arity": 1}
    measure = {"kind": "mixture", "components": [
        {"weight": w, "measure": haar} for w in weights]}
    config = _config_file(tmp_path, {"seed": 1, "knobs": {
        "identity_measure": measure, "N": 64, "max_freq": 1, "samples": 256,
        "consistency_degree": 1}})
    assert main(["run", "identity-disjoint", "--config", config,
                 "--out", str(tmp_path / "out")]) == code


def test_cli_accepts_the_smallest_averaging_length(tmp_path):
    from ergolab.cli import main

    config = _config_file(tmp_path, {"seed": 1, "knobs": {
        "N": 1, "max_freq": 1, "samples": 256, "consistency_degree": 1}})
    assert main(["run", "identity-disjoint", "--config", config,
                 "--out", str(tmp_path / "out")]) == 0


def test_cli_accepts_the_smallest_toeplitz_size(tmp_path):
    from ergolab.cli import main

    config = _config_file(tmp_path, {"seed": 1, "knobs": {"N": 64, "toeplitz_size": 1}})
    assert main(["run", "spectral-probe", "--config", config,
                 "--out", str(tmp_path / "out")]) == 0


RANK1_SMALL = {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
               "wm_stages": [2, 3], "N": 256}


@pytest.mark.parametrize("experiment, knobs, typed", [
    ("example1", {"statistical": False, "N": 64, "max_freq": 1,
                  "invariance_degree": 1}, "statistical"),
    ("spectral-probe", {"N": 64, "samples": 256}, "N"),
    ("rank1-family", {**RANK1_SMALL, "threshold": 0.2}, "threshold"),
    ("rank1-family", {**RANK1_SMALL, "threshold": 1}, "threshold"),
    ("product-closure", {"rotation_angle": "1/7", "samples": 256, "degree": 1},
     "rotation_angle"),
    ("spectral-probe", {"N": 64, "candidates": ["1/5"]}, "candidates"),
    ("spectral-probe", {"N": 64, "system": {"kind": "rotation",
                                            "params": {"angle": "1/5"}}}, "system"),
])
def test_cli_accepts_an_override_of_each_knob_type(experiment, knobs, typed, tmp_path):
    from ergolab.cli import main

    config = _config_file(tmp_path, {"seed": 1, "knobs": knobs})
    assert main(["run", experiment, "--config", config, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / f"report-{experiment}.json").read_text())
    assert report["config"]["knobs"][typed] == knobs[typed]


@pytest.mark.parametrize("args", [
    ["run", "bogus", "--seed", "1"],
    ["run", "spectral-probe", "--seed", "1", "--format", "yaml"],
    ["run", "spectral-probe", "--seed", "1", "--bogus"],
    ["run"],
    [],
    ["spec"],
    ["spec", "validate"],
])
def test_cli_usage_errors_exit_3(args, capsys):
    from ergolab.cli import main

    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == 3
    err = capsys.readouterr().err
    assert "usage:" in err and "config error:" in err


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["spec", "validate", "-h"]])
def test_cli_help_exits_0(args, capsys):
    from ergolab.cli import main

    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_file_that_is_not_utf8_is_config_error(command, tmp_path, capsys):
    """The bytes ff fe ended in a UnicodeDecodeError traceback with exit 1."""
    from ergolab.cli import main

    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe")
    args = {"run": ["run", "spectral-probe", "--seed", "1", "--config", str(path),
                    "--out", str(tmp_path / "out")],
            "validate": ["spec", "validate", str(path)]}[command]
    assert main(args) == 3
    assert f"config error: cannot read {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_out_naming_an_existing_file_is_refused_before_the_run(tmp_path, capsys,
                                                                   monkeypatch):
    """It ran the whole experiment and then ended in a FileExistsError traceback."""
    from ergolab import experiments
    from ergolab.cli import main

    def runner_reached(config):
        raise AssertionError("the experiment started although --out cannot be written")

    monkeypatch.setitem(experiments._RUNNERS, "spectral-probe", runner_reached)
    out = tmp_path / "out"
    out.write_text("kept")
    assert main(["run", "spectral-probe", "--seed", "1", "--out", str(out)]) == 3
    assert f"config error: cannot write {out}: " in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_cli_out_below_an_existing_file_is_config_error(tmp_path, capsys):
    from ergolab.cli import main

    (tmp_path / "file").write_text("kept")
    out = tmp_path / "file" / "out"
    config = _config_file(tmp_path, {"seed": 1, "knobs": {"N": 64}})
    assert main(["run", "spectral-probe", "--config", config, "--out", str(out)]) == 3
    assert f"config error: cannot write {out}: " in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "kept"
