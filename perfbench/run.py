"""The ergolab benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the items of one workload (``perfbench/workloads.json``) in order, each
in a fresh Python process (``perfbench/child.py``), one process at a time, on
the ``src/`` tree of the checkout this file lies in.  The master seed of every
item is ``--seed`` (default 2024).  A repetition runs every item once;
repetitions continue while another one still fits in ``--seconds``, and there
is always at least one.

The benchmark pins itself, its children and a reference loop
(``perfbench/reference.py``) to one CPU.  The shared hosts it is made for
switch each CPU between a fast and a roughly twice slower state many times a
second, for stretches of seconds to minutes, so neither wall time nor CPU
time repeats between runs.  The reference loop takes turns on the CPU with
the children in slices of a few milliseconds and records how much CPU time
each of its fixed chunks of work took; a child's CPU time divided by the mean
chunk time while it ran, times ``REFERENCE_CHUNK_S``, is its CPU time on an
uncontended core, in seconds.  Times below are such reference seconds.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each the
median over the repetitions:

- ``cpu_ref_s``: the summed CPU time of the workload's children from their
  start to their report being written.  With one child at a time and no
  waiting, this is the workload's wall time on an uncontended core;
- ``setup_s``: the summed CPU time the children spend before
  ``run_experiment`` starts (interpreter start, ``import ergolab.cli``,
  config resolve).  Set-up-only children are added until there are at least
  ``SETUP_SAMPLES`` samples;
- ``peak_rss_mb``: the highest ``ru_maxrss`` of any child, in MiB.

The raw wall time (shared with the reference loop) and the raw CPU time are
printed beside them.

``--trace 1`` alternates a plain and a traced repetition and reports the
per-layer metrics of ``BENCHMARK.json`` from the traced ones (see
``tracer.py``; spans are timed in the child's CPU time, not normalised);
``trace.overhead_s`` is the traced minus the plain ``cpu_ref_s``.

Every item is checked: it fails if its process raised, if a check failed, if
the emitted report differs from ``canonical_bytes()``, or if its digest does
not match (see ``workloads.json``, key ``oracle``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The environment and every measurement are also written to
``.perfbench/results/``; spans of traced children go to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 2024
SETUP_SAMPLES = 5
#: every child must have ended this many seconds after the benchmark started
DEADLINE_S = 170
#: CPU time of one reference chunk on an uncontended core of the host the
#: benchmark was tuned on (2-CPU Intel Xeon, Python 3.11.7)
REFERENCE_CHUNK_S = 570e-6


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def generate_configs(workload: dict, seed: int) -> list[dict]:
    """The config documents the program receives for one repetition."""
    return [{"experiment": item["experiment"], "seed": seed,
             "knobs": copy.deepcopy(item["knobs"])}
            for item in workload["items"]]


def judge(result: dict | None, expected_digest: str | None) -> str | None:
    """Why an item failed, or None if it passed.

    ``result`` is the child's output (None if the process failed) and
    ``expected_digest`` the digest it must reproduce (None: nothing to match).
    """
    if result is None:
        return "the child process failed"
    if result["failing_checks"]:
        return "failing checks: " + ", ".join(result["failing_checks"])
    if not result["report_matches"]:
        return "the emitted report differs from canonical_bytes()"
    if expected_digest is not None and result["digest"] != expected_digest:
        return f"digest {result['digest']} != expected {expected_digest}"
    return None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "sympy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Reference:
    """The reference loop, run beside the children on their CPU."""

    def __init__(self, path: Path):
        self.path = path
        self.proc: subprocess.Popen | None = None
        self.starts = self.cumulative = None

    def __enter__(self) -> "Reference":
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py"),
                                      "--out", str(self.path)], cwd=ROOT)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if exc[0] is None:
            self.load(np.fromfile(self.path, dtype=np.float64))

    def load(self, records: np.ndarray) -> None:
        """Take the loop's records: every chunk's start time, then its CPU time."""
        starts, cpus = np.split(records, 2)
        self.starts = starts
        self.cumulative = np.concatenate([[0.0], np.cumsum(cpus)])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per CPU second between ``start`` and ``end``."""
        first, last = np.searchsorted(self.starts, [start, end])
        if last <= first:
            raise RuntimeError("the reference loop ran no chunk while a child ran")
        mean_chunk = (self.cumulative[last] - self.cumulative[first]) / (last - first)
        return REFERENCE_CHUNK_S / mean_chunk


class Workload:
    """Spawns the children of one workload and keeps what they report."""

    def __init__(self, name: str, spec: dict, seed: int, reference_seed: int):
        self.name = name
        self.items = spec["items"]
        self.use_reference = seed == reference_seed
        self.dir = WORK / "run" / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for item, doc in zip(self.items, generate_configs(spec, seed)):
            path = self.dir / f"{item['name']}.json"
            path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            self.config_paths.append(path)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.first_digest: dict[int, str] = {}
        self.raw_digests: dict[int, set[str]] = {}
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.log: list[dict] = []

    def spawn(self, index: int, *, setup_only: bool = False, trace: bool = False):
        """Run one child; returns its output (with ``spawned`` added) and an error."""
        item = self.items[index]
        out = self.dir / "out" / item["name"]
        command = [sys.executable, str(HERE / "child.py"),
                   "--config", str(self.config_paths[index]), "--out", str(out),
                   "--src", str(ROOT / "src")]
        if setup_only:
            command.append("--setup-only")
        if trace:
            command += ["--trace", str(WORK / "spans" / f"{self.name}-{item['name']}.npz")]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=max(0.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return None, f"still running {DEADLINE_S} s after the start"
        if proc.returncode != 0 or not proc.stdout.strip():
            return None, proc.stderr.strip()[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["spawned"] = spawned
        self.log.append({"item": item["name"], "setup_only": setup_only, "trace": trace,
                         **{k: v for k, v in result.items() if k not in ("spans", "counters")}})
        return result, None

    def repetition(self, *, trace: bool = False) -> dict:
        """Run every item once; returns the children's outputs and the raw wall time."""
        results = []
        start = time.monotonic()
        for index, item in enumerate(self.items):
            result, error = self.spawn(index, trace=trace)
            self.attempted += 1
            expected = None
            if result is not None:
                self.raw_digests.setdefault(index, set()).add(result["digest_raw"])
                expected = (item["digest_2024"] if self.use_reference
                            else self.first_digest.setdefault(index, result["digest"]))
            failure = f"raised: {error}" if error is not None else judge(result, expected)
            if failure:
                self.failures.append(f"{item['name']}: {failure}")
            if result is not None:
                results.append(result)
        return {"wall_s": time.monotonic() - start, "items": results}

    def setup_sample(self) -> dict:
        """Set-up-only children, one per item."""
        results = []
        for index, item in enumerate(self.items):
            result, error = self.spawn(index, setup_only=True)
            if result is None:
                raise RuntimeError(f"{item['name']}: set-up failed: {error}")
            results.append(result)
        return {"items": results}

    def unstable_items(self) -> int:
        """Items whose raw canonical bytes differed between repetitions."""
        return sum(1 for digests in self.raw_digests.values() if len(digests) > 1)


def repeat(step, seconds: float) -> list:
    """Call ``step`` at least once, and again while one more call fits in ``seconds``."""
    out = []
    start = time.monotonic()
    while True:
        out.append(step())
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def cpu_ref(rep: dict, reference: Reference) -> float:
    """Reference seconds the children of one repetition took up to their reports."""
    return sum(r["cpu_s"] * reference.scale(r["spawned"], r["written"]) for r in rep["items"])


def setup_ref(rep: dict, reference: Reference) -> float:
    """Reference seconds the children of one repetition took before ``run_experiment``."""
    return sum(r["setup_cpu_s"] * reference.scale(r["spawned"], r["run_start"])
               for r in rep["items"])


def plain_samples(reps: list[dict], setups: list[dict],
                  reference: Reference) -> dict[str, list[float]]:
    return {"cpu_ref_s": [cpu_ref(rep, reference) for rep in reps],
            "setup_s": [setup_ref(rep, reference) for rep in reps + setups],
            "peak_rss_mb": [max((r["maxrss_kb"] for r in rep["items"]), default=0) / 1024
                            for rep in reps],
            "wall_s": [rep["wall_s"] for rep in reps],
            "cpu_s": [sum(r["cpu_s"] for r in rep["items"]) for rep in reps]}


def rep_layers(rep: dict) -> dict:
    """Spans and counters of one traced repetition, summed over its items."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for item in rep["items"]:
        for name, span in item.get("spans", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += span["calls"]
            acc["self_s"] += span["self_s"]
        for name, count in item.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + count
    return {"spans": spans, "counters": counters}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_value(name: str, layers: dict) -> float:
    """One per-layer metric of one traced repetition, from its spans and counters."""
    spans, counters = layers["spans"], layers["counters"]
    if name == "spectral.detect_eigenvalue.exact_mass_ratio":
        return _ratio(counters.get("spectral.detect_eigenvalue.exact_mass", 0),
                      spans.get("spectral.detect_eigenvalue", {}).get("calls", 0))
    if name == "exact.as_rational.decided_ratio":
        return _ratio(counters.get("exact.as_rational.decided", 0),
                      spans.get("exact.as_rational", {}).get("calls", 0))
    prefix, _, field = name.rpartition(".")
    if field in ("calls", "self_s"):
        return spans.get(prefix, {}).get(field, 0)
    return counters.get(name, 0)


def traced_samples(pairs: list[tuple[dict, dict]], names: list[str], workload: Workload,
                   reference: Reference, problems: list[str]) -> dict[str, list[float]]:
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layers = [rep_layers(rep) for rep in traced]
    calls = [{n: s["calls"] for n, s in layer["spans"].items()} for layer in layers]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("call counts differ between traced repetitions")
    overhead = (statistics.median(cpu_ref(rep, reference) for rep in traced)
                - statistics.median(cpu_ref(rep, reference) for rep in plain))
    special = {
        "cli.import_s": [sum(r["import_s"] for r in rep["items"]) for rep in plain + traced],
        "trace.overhead_s": [overhead],
        "experiments.canonical_bytes_unstable": [workload.unstable_items()],
    }
    return {name: special.get(name) or [layer_value(name, layer) for layer in layers]
            for name in names}


def main(argv=None) -> int:
    spec = load_workloads()
    parser = argparse.ArgumentParser(description="the ergolab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps its child when an exception unwinds it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if not (ROOT / "src" / "ergolab" / "__init__.py").is_file():
        print(f"no ergolab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    workload_spec = spec["workloads"][args.workload]

    env = environment()
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})  # children and the reference loop inherit it
    workload = Workload(args.workload, workload_spec, args.seed,
                        spec["oracle"]["reference_seed"])
    problems: list[str] = []
    try:
        with Reference(WORK / "reference.bin") as reference:
            # Warm-up: compiles the bytecode caches, which a user pays only once.
            workload.setup_sample()
            if args.trace:
                pairs = repeat(lambda: (workload.repetition(), workload.repetition(trace=True)),
                               args.seconds)
            else:
                reps = repeat(workload.repetition, args.seconds)
                setups = [workload.setup_sample() for _ in range(SETUP_SAMPLES - len(reps))]
        if args.trace:
            samples = traced_samples(pairs, [m["name"] for m in wanted], workload,
                                     reference, problems)
            for name in workload_spec["expect_nonzero"]:
                if not statistics.median(samples[name]):
                    problems.append(f"{name} is 0 on {args.workload}")
        else:
            samples = plain_samples(reps, setups, reference)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for metric in wanted:
        values = samples[metric["name"]]
        value = statistics.median(values)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        shown = value if isinstance(value, int) else f"{value:.6g}"
        line = f"{metric['name']} = {shown} {metric['unit']} (median of {len(values)})"
        tail = tail_percentile(values)
        if tail:
            line += f", p{tail[0]:.0f} = {tail[1]:.6g}"
        print(line)
    if not args.trace:
        for name, what in (("wall_s", "wall time, the CPU shared with the reference loop"),
                           ("cpu_s", "CPU time, not normalised")):
            values = samples[name]
            print(f"{name} = {statistics.median(values):.6g} s (median of {len(values)}; "
                  f"raw {what}; not a metric)")
    failed = len(workload.failures)
    correct = not workload.failures and not problems
    print(f"error_rate = {failed / workload.attempted:.6g} ({failed} of {workload.attempted} items failed)")
    for problem in workload.failures + problems:
        print(f"FAILED: {problem}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "samples": samples,
        "failures": workload.failures, "problems": problems, "children": workload.log,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": workload.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
