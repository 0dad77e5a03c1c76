"""revcirc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload engines --seed 0 --seconds 45 --trace 0

Workloads: engines (sample + scan) and experiments (search + recipes); see
workloads.py and README.md.
After one untimed warm-up pass, the run repeats timed passes until
`--seconds` have elapsed (at least MIN_PASSES); pass p draws its inputs from
seed * 1000 + p.  Every output is checked, and outputs with a recorded
digest in golden.json must match it byte for byte.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every pass twice,
untraced and then traced with a span around each call into revcirc, and
prints the per-layer metrics and the tracing overhead.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is the environment stamp.  The full record, spans included, is
written under perfbench_runs/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import prepare

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
RUNS_DIR = prepare.ROOT / "perfbench_runs"
# workloads.WORKLOADS, named here because workloads.py imports revcirc.
WORKLOAD_NAMES = ("engines", "experiments")
MIN_PASSES = 3
# Fresh interpreters timed for setup_s, besides this process's own set-up.
SETUP_PROBES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "sample_gates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(eq=False)
class Pass:
    seed: int
    wall: float
    circuits: int
    gates: int
    digests: dict[str, str]
    inputs: object
    outputs: object


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def probe_setup() -> dict:
    """One cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "prepare.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "engine": "numba" if numba else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "workload_seed": seed,
    }


def run_pass(workload, ctx, seed, index, tracer, checker, golden, traced) -> Pass:
    """Draw a pass's inputs, time the calls into revcirc, check the outputs
    and, where golden.json has a part's digest for this seed, the digest."""
    inputs = workload.inputs(ctx, seed)
    tracer.enabled, tracer.pass_id = traced, index
    start = time.perf_counter()
    outputs = workload.execute(ctx, inputs, tracer)
    wall = time.perf_counter() - start
    digests = workload.verify(ctx, inputs, outputs, checker, tracer)
    tracer.enabled = False
    for part, digest in digests.items():
        expected = golden.get(part, {}).get(str(seed))
        if expected is not None:
            checker.op(
                f"{part} pass seed {seed}: output digest matches golden.json",
                digest == expected,
            )
    circuits, gates = workload.work(inputs, outputs)
    return Pass(seed, wall, circuits, gates, digests, inputs, outputs)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run `name`'s passes for `seconds`, check them and return the
    full record (metrics, environment, passes, spans)."""
    objects, own_setup = prepare.prepare()
    # Imported after the timed set-up so that set-up starts cold.
    import tracing
    import workloads

    setups = [own_setup] + [probe_setup() for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[name]
    tmp = RUNS_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(objects["mux"], tmp)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tracer, checker = tracing.Tracer(), tracing.Checker()
    untraced, traced = [], []
    try:
        # Pass 0 warms caches and allocations; it is checked but not timed.
        run_pass(workload, ctx, pass_seed(seed, 0), 0, tracer, checker, golden, False)
        start = time.perf_counter()
        index = 1
        while index <= MIN_PASSES or time.perf_counter() - start < seconds:
            s = pass_seed(seed, index)
            modes = (False, True) if trace else (False,)
            # Alternate which mode runs first so warm-up effects do not
            # bias the tracing overhead.
            done = {
                mode: run_pass(workload, ctx, s, index, tracer, checker, golden, mode)
                for mode in (modes[::-1] if index % 2 else modes)
            }
            untraced.append(done[False])
            if trace:
                traced.append(done[True])
                checker.op(
                    f"{name} pass seed {s}: traced output equals untraced output",
                    done[True].digests == done[False].digests,
                )
            index += 1
        if trace:
            metrics = dict.fromkeys(workloads.LAYER_UNITS, 0.0)
            metrics.update(workload.layers(tracer, traced))
            metrics.update(workloads.theory_layer(tracer, traced))
            metrics["core.setup_s"] = own_setup["core_setup_s"]
            metrics["trace.overhead_s"] = statistics.median(
                t.wall - u.wall for u, t in zip(untraced, traced)
            )
            units = workloads.LAYER_UNITS
        else:
            # Totals over the timed passes, not medians: the machine's speed
            # moves in phases of several seconds, and a median of passes
            # flips between the phases' speeds where a total averages them.
            timed = sum(p.wall for p in untraced)
            metrics = {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "wall_s": timed / len(untraced),
                "evals_per_s": sum(p.circuits for p in untraced) / timed,
                "sample_gates_per_s": sum(p.gates for p in untraced) / timed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "setups": setups,
        "passes": [
            {
                "seed": p.seed, "wall_s": p.wall, "circuits": p.circuits,
                "gates": p.gates, "digests": p.digests, "traced": p in traced,
            }
            for p in untraced + traced
        ],
        "spans": tracer.export(),
    }


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare.sources_present():
        print(
            f"perfbench: no revcirc sources under {prepare.SRC}; "
            "run from the root of a revcirc checkout",
            file=sys.stderr,
        )
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RUNS_DIR.mkdir(exist_ok=True)
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": record["environment"]}))
    print(
        json.dumps(
            {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
