"""Record golden.json: SHA-256 digests of the sample histograms, the scan
counts and the recipe CSVs for the first passes of workload seeds 0-9.

    python3 perfbench/golden.py

run.py checks every pass whose seed has a digest byte for byte.  Re-record
only in a change that announces an RNG-stream change and says why.
"""

from __future__ import annotations

import json
import shutil

import prepare
import run

SEEDS = range(10)
PASSES = 8  # the warm-up pass and the first seven timed passes


def main() -> None:
    objects, _ = prepare.prepare()
    import tracing
    import workloads

    tmp = run.RUNS_DIR / "tmp-golden"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(objects["mux"], tmp)
    tracer, checker = tracing.Tracer(), tracing.Checker()
    golden = {}
    try:
        for name in ("sample", "scan", "recipes"):
            workload = workloads.combine(name)
            digests = golden[name] = {}
            for seed in SEEDS:
                for index in range(PASSES):
                    s = run.pass_seed(seed, index)
                    done = run.run_pass(
                        workload, ctx, s, index, tracer, checker, {}, False
                    )
                    digests[str(s)] = done.digests[name]
            print(f"{name}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if checker.failed:
        raise SystemExit(f"checks failed, golden.json not written: {checker.failures}")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
