"""Module layers: ``import ergolab.cli`` loads core, exact, schema, spectral,
experiments and cli, and ``joinings`` and ``rank1`` load only where a run
uses them.  Each case runs in a fresh interpreter, so the modules this test
process has already imported do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CLI_LAYERS = {"ergolab", "ergolab.cli", "ergolab.core", "ergolab.exact",
              "ergolab.experiments", "ergolab.schema", "ergolab.spectral"}

#: prints [exit code of ``ergolab`` with the child's arguments, or None, loaded ergolab modules]
CHILD = """
import json, sys
import ergolab.cli
code = ergolab.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "ergolab")]))
"""

SMALL_KNOBS = {
    "identity-disjoint": {"max_freq": 3, "N": 256, "samples": 1024, "consistency_degree": 2},
    "product-closure": {"samples": 4096, "degree": 1},
    "rank1-family": {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
                     "wm_stages": [2, 3], "N": 256, "threshold": 0.2},
    "spectral-probe": {"system": {"kind": "rotation", "params": {"angle": "1/3"}}, "N": 16},
}


def loaded_after(*argv) -> tuple[int | None, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("ERGOLAB_SEED", None)
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


def run_small(experiment: str, tmp_path) -> set[str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "knobs": SMALL_KNOBS[experiment]}))
    code, modules = loaded_after("run", experiment, "--config", str(config), "--seed", "7",
                                 "--out", str(tmp_path / "out"))
    assert code == 0
    return modules


def validate(doc: dict, tmp_path) -> tuple[int, set[str]]:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return loaded_after("spec", "validate", str(spec))


def test_cli_import_loads_exactly_the_cli_layers():
    assert loaded_after() == (None, CLI_LAYERS)


def test_spectral_probe_of_a_rotation_loads_neither_joinings_nor_rank1(tmp_path):
    assert run_small("spectral-probe", tmp_path) == CLI_LAYERS


def test_validating_a_system_spec_loads_neither_joinings_nor_rank1(tmp_path):
    doc = {"system": {"kind": "twist", "params": {"shift": "1/3"}}}
    assert validate(doc, tmp_path) == (0, CLI_LAYERS)


def test_rank1_family_leaves_joinings_unloaded(tmp_path):
    assert run_small("rank1-family", tmp_path) == CLI_LAYERS | {"ergolab.rank1"}


@pytest.mark.parametrize("experiment", ["identity-disjoint", "product-closure"])
def test_joining_experiments_leave_rank1_unloaded(experiment, tmp_path):
    assert run_small(experiment, tmp_path) == CLI_LAYERS | {"ergolab.joinings"}


def test_validating_a_joining_spec_loads_joinings_and_passes(tmp_path):
    doc = {"joining": {"kind": "diagonal",
                       "params": {"component": {"kind": "rotation",
                                                "params": {"angle": "1/5"}}}}}
    assert validate(doc, tmp_path) == (0, CLI_LAYERS | {"ergolab.joinings"})
