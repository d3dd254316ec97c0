"""Every benchmark item, run as the benchmark's traced child runs it.

For each workload of ``perfbench/workloads.json``, each item goes through
``perfbench/child.py --trace`` in a fresh interpreter on this checkout's
``src/``: its checks must pass, its emitted report must equal
``canonical_bytes()``, its masked digest must be the item's ``digest_2024``,
and every ``expect_nonzero`` metric of the workload, summed over its items as
``perfbench/run.py`` sums a traced repetition, must be nonzero.  A change that
sends a traced path to zero calls fails here, before the benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

SPEC = run.load_workloads()
REFERENCE_SEED = SPEC["oracle"]["reference_seed"]


def _traced_child(doc: dict, name: str, tmp_path: Path) -> dict:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--config", str(config),
         "--out", str(tmp_path / "out" / name), "--src", str(ROOT / "src"),
         "--trace", str(tmp_path / "spans" / f"{name}.npz")],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_traced_items_are_correct_and_reach_every_expected_layer(workload, tmp_path):
    spec = SPEC["workloads"][workload]
    results = []
    for item, doc in zip(spec["items"], run.generate_configs(spec, REFERENCE_SEED)):
        result = _traced_child(doc, item["name"], tmp_path)
        assert result["failing_checks"] == [], item["name"]
        assert result["report_matches"], item["name"]
        assert result["digest"] == item["digest_2024"], item["name"]
        results.append(result)
    layers = run.rep_layers({"items": results})
    zero = [name for name in spec["expect_nonzero"] if not run.layer_value(name, layers)]
    assert zero == []
