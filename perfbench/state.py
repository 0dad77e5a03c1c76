"""Regenerate the ROADMAP "State" layer numbers with one command.

    python3 perfbench/state.py

Prints, on the machine it runs on:
* sampler ns per sample-gate at L = 20/100/500 on 6 and 7 wires, from
  traced chunk-range calls, two full CHUNK_SIZE chunks per length (seed 0);
* GA ms per generation and hill-climber us per evaluation, from a traced
  run of the experiments workload (seed 0);
* the wall time of the 6-wire six-multiplexor scan up to length 4, one
  call (about a minute and a half on the numpy path).

Takes about two minutes.  The last stdout line is all numbers as JSON.
"""

from __future__ import annotations

import json
import time

import prepare
import run

SEARCH_SECONDS = 15
SAMPLER_CHUNKS = 2
SCAN_DEPTH = 4


def main() -> int:
    objects, _ = prepare.prepare()
    import tracing
    import workloads
    from revcirc import ExperimentConfig, exhaustive_min_scan
    from revcirc.sampling import CHUNK_SIZE

    mux = objects["mux"]
    numbers = {}

    tracer = tracing.Tracer()
    tracer.enabled, tracer.pass_id = True, 0
    for wires in workloads.SAMPLE_WIRES:
        config = ExperimentConfig(
            wires=wires, lengths=workloads.SAMPLE_LENGTHS,
            samples_per_length=SAMPLER_CHUNKS * CHUNK_SIZE, target=mux, seed=0,
        )
        for length in config.lengths:
            hist = workloads.chunked_histogram(tracer, config, length)
            if hist.total != config.samples_per_length:
                raise SystemExit(f"sampler returned {hist.total} circuits")
    numbers.update(workloads.sampler_ns_per_gate(tracer))

    search = run.measure("experiments", 0, SEARCH_SECONDS, trace=True)
    if not search["correct"]:
        raise SystemExit(f"experiments checks failed: {search['failures']}")
    numbers.update(
        {
            k: m["value"] for k, m in search["metrics"].items()
            if "ms_per_generation" in k or "us_per_eval" in k
        }
    )

    start = time.perf_counter()
    counts = exhaustive_min_scan(6, SCAN_DEPTH, mux)
    wall = time.perf_counter() - start
    if any(counts.values()):
        raise SystemExit(f"six-multiplexor solutions below length 5: {counts}")
    numbers[f"scan.w6.d{SCAN_DEPTH}.wall_s"] = wall
    seqs = sum(90**k for k in range(1, SCAN_DEPTH + 1))
    numbers[f"scan.w6.d{SCAN_DEPTH}.seqs_per_s"] = seqs / wall

    for name, value in numbers.items():
        print(f"{name:44s} {value:12.4f}")
    print(
        "Not measured: the RNG draw / kernel / reduce split inside a sampler "
        "chunk and the GA's mutation / scoring split; they need spans inside "
        "revcirc."
    )
    print(json.dumps({"environment": run.environment(0), "numbers": numbers}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
