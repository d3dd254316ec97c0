"""Run one benchmark item in a fresh interpreter and print its measurements.

    python3 child.py --config ITEM.json --out DIR --src SRC [--trace SPANS] [--setup-only]

The item goes through the same public calls as ``ergolab run``:
``ExperimentConfig.resolve``, ``run_experiment`` and ``emit_report`` (JSON).
Times of day are ``time.monotonic()``, which is system wide, so the parent
can compare them with its own.  CPU times are the process's own
(``time.process_time()``, which counts from the process's start, so the
set-up CPU time includes interpreter start); spans of a traced run are timed
in CPU time as well.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

#: ``product-closure`` writes elapsed seconds into the observed text of its
#: ``consistency-*`` checks, e.g. "consistent-with-product (3124 characters, 2.0s)".
ELAPSED_TOKEN = re.compile(r", [0-9]+\.[0-9]+s\)$")
ELAPSED_MASK = ", <elapsed>s)"


def masked_canonical(canonical: bytes) -> bytes:
    """The canonical report bytes with the elapsed-seconds token masked.

    Only ``product-closure``'s ``consistency-*`` checks are touched; other
    reports come back unchanged.
    """
    doc = json.loads(canonical)
    if doc["config"]["experiment"] != "product-closure":
        return canonical
    for check in doc["checks"]:
        if check["check_id"].startswith("consistency-"):
            check["observed"] = ELAPSED_TOKEN.sub(ELAPSED_MASK, check["observed"])
    return json.dumps(doc, sort_keys=True).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_start = time.process_time()
    import ergolab.cli  # noqa: F401  (the CLI import is what a user pays)
    import_s = time.process_time() - import_start
    from ergolab import experiments

    src = args.src.resolve()
    if src not in Path(experiments.__file__).resolve().parents:
        print(f"ergolab was imported from {experiments.__file__}, not from {src}",
              file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        from tracer import Tracer, install_ergolab
        tracer = install_ergolab(Tracer(clock=time.process_time))

    doc = json.loads(args.config.read_text())
    config = experiments.ExperimentConfig.resolve(doc["experiment"], doc["seed"], doc["knobs"])
    setup_cpu_s = time.process_time()
    run_start = time.monotonic()
    result = {"import_s": import_s, "setup_cpu_s": setup_cpu_s, "run_start": run_start}
    if not args.setup_only:
        report = experiments.run_experiment(config)
        paths = experiments.emit_report(report, "json", args.out)
        written = time.monotonic()
        cpu_s = time.process_time()
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        canonical = report.canonical_bytes()
        emitted = json.loads(paths[0].read_text())
        emitted.pop("wall_clock_seconds", None)
        result.update({
            "written": written,
            "run_s": written - run_start,
            "cpu_s": cpu_s,
            "maxrss_kb": maxrss_kb,
            "checks": len(report.checks),
            "failing_checks": report.failing_check_ids,
            "report_matches": json.dumps(emitted, sort_keys=True).encode() == canonical,
            "digest_raw": digest(canonical),
            "digest": digest(masked_canonical(canonical)),
        })
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
