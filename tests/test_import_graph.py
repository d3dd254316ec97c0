"""Module layers: ``import ergolab.cli`` loads core, exact, schema, the
experiments package and cli.  A run loads the module of its own experiment and
no other, and ``joinings``, ``rank1`` and ``spectral`` load only where that
module uses them, so product-closure and identity-disjoint never load
``spectral``.  numpy's package code runs on the first array use, so ``--help``,
usage errors and ``spec validate`` of systems and joinings never run it.  No
ergolab class is a dataclass, so no command loads ``dataclasses``, and the CLI
path loads neither ``inspect`` nor ``hashlib`` (OpenSSL) either.  Each case
runs in a fresh interpreter, so the modules this test process has already
imported do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CLI_LAYERS = {"ergolab", "ergolab.cli", "ergolab.core", "ergolab.exact",
              "ergolab.experiments", "ergolab.schema"}

#: prints [exit code of ``ergolab`` with the child's arguments, or None, loaded ergolab
#: modules, whether numpy's package code had run after the import, and after the
#: command, and which of ``dataclasses``, ``hashlib`` and ``inspect`` are loaded]
CHILD = """
import json, sys
import ergolab.cli
numpy_at_import = "numpy._core" in sys.modules
try:
    code = ergolab.cli.main(sys.argv[1:]) if sys.argv[1:] else None
except SystemExit as exit:  # --help and usage errors
    code = exit.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "ergolab"),
                  numpy_at_import, "numpy._core" in sys.modules,
                  [m for m in ("dataclasses", "hashlib", "inspect") if m in sys.modules]]))
"""

SMALL_KNOBS = {
    "identity-disjoint": {"max_freq": 3, "N": 256, "samples": 1024, "consistency_degree": 2},
    "example1": {"N": 256, "max_freq": 3, "invariance_degree": 1, "statistical_samples": 2048},
    "product-closure": {"samples": 4096, "degree": 1},
    "rank1-family": {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
                     "wm_stages": [2, 3], "N": 256, "threshold": 0.2},
    "spectral-probe": {"system": {"kind": "rotation", "params": {"angle": "1/3"}}, "N": 16},
}


def run_child(*argv) -> tuple[int | None, set[str], bool, bool, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("ERGOLAB_SEED", None)
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules, numpy_at_import, numpy_after, stdlib = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules), numpy_at_import, numpy_after, set(stdlib)


def loaded_after(*argv) -> tuple[int | None, set[str]]:
    return run_child(*argv)[:2]


def run_argv(experiment: str, tmp_path) -> list[str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "knobs": SMALL_KNOBS[experiment]}))
    return ["run", experiment, "--config", str(config), "--seed", "7",
            "--out", str(tmp_path / "out")]


def own_module(experiment: str) -> str:
    return "ergolab.experiments." + experiment.replace("-", "_")


def run_small(experiment: str, tmp_path) -> set[str]:
    code, modules = loaded_after(*run_argv(experiment, tmp_path))
    assert code == 0
    return modules


def validate_argv(doc: dict, tmp_path) -> list[str]:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return ["spec", "validate", str(spec)]


def validate(doc: dict, tmp_path) -> tuple[int, set[str]]:
    return loaded_after(*validate_argv(doc, tmp_path))


def test_cli_import_loads_exactly_the_cli_layers():
    assert loaded_after() == (None, CLI_LAYERS)


@pytest.mark.parametrize("argv, exit_code", [(["--help"], 0), (["run", "no-such-experiment"], 3)],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_load_only_the_cli_layers(argv, exit_code):
    assert loaded_after(*argv) == (exit_code, CLI_LAYERS)


@pytest.mark.parametrize("experiment", list(SMALL_KNOBS))
def test_each_run_loads_its_own_experiment_module_and_no_other(experiment, tmp_path):
    code, loaded, *_, stdlib = run_child(*run_argv(experiment, tmp_path))
    assert code == 0 and "dataclasses" not in stdlib, stdlib
    assert {m for m in loaded if m.startswith("ergolab.experiments.")} == {own_module(experiment)}


def test_spectral_probe_of_a_rotation_loads_neither_joinings_nor_rank1(tmp_path):
    assert run_small("spectral-probe", tmp_path) == CLI_LAYERS | {
        "ergolab.spectral", own_module("spectral-probe")}


def test_validating_a_system_spec_loads_neither_joinings_nor_rank1(tmp_path):
    doc = {"system": {"kind": "twist", "params": {"shift": "1/3"}}}
    assert validate(doc, tmp_path) == (0, CLI_LAYERS)


def test_rank1_family_leaves_joinings_unloaded(tmp_path):
    assert run_small("rank1-family", tmp_path) == CLI_LAYERS | {
        "ergolab.rank1", "ergolab.spectral", own_module("rank1-family")}


@pytest.mark.parametrize("experiment", ["identity-disjoint", "product-closure"])
def test_joining_experiments_leave_rank1_unloaded(experiment, tmp_path):
    """Neither needs a correlation sequence, so neither loads ``spectral``."""
    assert run_small(experiment, tmp_path) == CLI_LAYERS | {
        "ergolab.joinings", own_module(experiment)}


def test_validating_a_joining_spec_loads_joinings_and_passes(tmp_path):
    doc = {"joining": {"kind": "diagonal",
                       "params": {"component": {"kind": "rotation",
                                                "params": {"angle": "1/5"}}}}}
    assert validate(doc, tmp_path) == (0, CLI_LAYERS | {"ergolab.joinings"})


ROTATION = {"kind": "rotation", "params": {"angle": "1/5"}}
TWIST = {"kind": "twist", "params": {"shift": "1/3"}}
UNIFORM_THIRDS = {"kind": "rotation", "params": {"angle": "1/3", "measure": {
    "kind": "atoms", "atoms": [{"point": [p], "weight": "1/3"} for p in ("0", "1/3", "2/3")]}}}


@pytest.mark.parametrize("argv, exit_code", [
    ([], None), (["--help"], 0), (["run", "no-such-experiment"], 3),
], ids=["import", "help", "usage-error"])
def test_the_cli_runs_no_numpy_before_an_array_is_used(argv, exit_code):
    code, _, _, numpy_ran, stdlib = run_child(*argv)
    assert (code, numpy_ran, stdlib) == (exit_code, False, set())


@pytest.mark.parametrize("doc", [
    {"system": ROTATION},
    {"system": TWIST},
    {"system": UNIFORM_THIRDS},
    {"joining": {"kind": "diagonal", "params": {"component": ROTATION}}},
    {"joining": {"kind": "product", "params": {"components": [TWIST, ROTATION]}}},
    {"system": {"kind": "rank1-family", "params": {"a": "1/3"}}},
], ids=["rotation", "twist", "uniform-thirds", "diagonal-joining", "product-joining",
        "rank1-family"])
def test_validating_a_spec_runs_no_numpy(doc, tmp_path):
    code, _, _, numpy_ran, stdlib = run_child(*validate_argv(doc, tmp_path))
    assert (code, numpy_ran, stdlib) == (0, False, set())


def test_numpy_loads_on_the_first_array_use_of_a_run(tmp_path):
    code, _, numpy_at_import, numpy_after, _ = run_child(*run_argv("spectral-probe", tmp_path))
    assert (code, numpy_at_import, numpy_after) == (0, False, True)

