"""The benchmark workloads, built from four parts.

A part draws a pass's inputs from a pass seed (`inputs`, untimed), calls
revcirc's public functions (`execute`, the timed part), then checks every
output (`verify`, untimed) and returns a digest of the outputs that must
stay byte-identical, or None.

* sample  - the sampler kernel on 6 and 7 wires, plus one checkpoint write
            and resume.
* scan    - exhaustive enumeration only; no RNG in the program.
* search  - GA and hill climber on the six-multiplexor; mutation and
            per-genome scoring, no sampler chunks.
* recipes - four CLI pipelines in sequence; the only part whose sample
            draws repeat (fig5 redraws fig4, fig7's grid is inside fig8's)
            and the only one that measures cli, theory and CSV writes.

A workload runs two parts in turn on the same pass seed, in one process
(workers=1):

* engines     - sample + scan: the two kernels, with no repeated draws and
                no search.
* experiments - search + recipes: the repeated draws, the search operators
                and the CLI; no scan.

Each mechanism an optimisation may target is then exercised by one workload
and bypassed by the other, except the sampler, which both use.  Two
workloads, not four, so that each run can be long enough to average over
the measuring machine's speed phases (see README.md, "Noise").
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from revcirc import (
    DEFAULT_OUTPUT,
    Circuit,
    ExperimentConfig,
    FitnessHistogram,
    GAConfig,
    OutputMap,
    TargetTable,
    binomial_limit,
    convergence_series,
    enumerate_gates,
    evaluate,
    evolve,
    exhaustive_min_scan,
    hamming_fitness_scalar,
    hill_climb,
    parity_shifted_limit,
    random_circuit,
    sample_distribution,
    sample_fitness_histogram,
    wire_patterns,
)
from revcirc.cli import run_recipe
from revcirc.sampling import CHUNK_SIZE

# Per-layer metrics and their units.  Every traced run prints all of them;
# a layer the workload does not exercise reads 0.  Counts are per pass.
LAYER_UNITS = {
    **{
        f"sampling.ns_per_sample_gate.w{w}.L{length}": "ns"
        for w in (6, 7)
        for length in (20, 100, 500)
    },
    "sampling.chunks": "count",
    "sampling.samples": "count",
    "sampling.checkpoint_write_s": "s",
    "sampling.checkpoint_bytes": "bytes",
    "sampling.resume_s": "s",
    **{f"sampling.scan_s.d{d}": "s" for d in (1, 2, 3, 4)},
    "sampling.scan.seqs_covered": "count",
    "sampling.scan.solutions": "count",
    "search.ga.ms_per_generation.w12g20": "ms",
    "search.ga.ms_per_generation.w6g5": "ms",
    "search.ga.generations": "count",
    "search.ga.solved": "count",
    "search.hc.us_per_eval.w6g5": "us",
    "search.hc.us_per_eval.w12g20": "us",
    "search.hc.evals": "count",
    "search.hc.solved": "count",
    "search.hc.improvements": "count",
    "fitness.verify_s": "s",
    "fitness.verify.calls": "count",
    "theory.limit_s": "s",
    **{f"cli.recipe_s.{r}": "s" for r in ("fig4", "fig5", "fig7", "fig8")},
    "cli.artifact_bytes": "bytes",
    "cli.redundant_sample_gates": "share",
    "core.setup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Context:
    mux: TargetTable
    tmp: Path


@dataclass(frozen=True)
class Workload:
    inputs: Callable  # (ctx, seed) -> inputs
    execute: Callable  # (ctx, inputs, tracer) -> outputs; the timed part
    verify: Callable  # (ctx, inputs, outputs, checker, tracer) -> digest | None
    work: Callable  # (inputs, outputs) -> (circuits scored, circuit-gates scored)
    layers: Callable  # (tracer, traced passes) -> {per-layer metric: value}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _chunks(samples: int) -> int:
    return -(-samples // CHUNK_SIZE)


def _histogram_lines(tag: str, hists) -> list[str]:
    return [
        f"{tag},{h.length},{f},{int(c)}"
        for h in hists
        for f, c in enumerate(h.counts)
        if c
    ]


def _theory_checks(ctx, hists, checker, tracer, what):
    """Limit pmfs and convergence series of 6-wire histograms.

    Fitness on 6 wires is even, so the TVD to Binomial(64, 1/2), whose odd
    mass is exactly 1/2, is at least 1/2.
    """
    with tracer.span("theory.limit"):
        parity, binomial = parity_shifted_limit(), binomial_limit(ctx.mux.n_inputs)
    with tracer.span("sampling.convergence_series"):
        to_parity = convergence_series(hists, parity)
        to_binomial = convergence_series(hists, binomial)
    checker.op(
        f"{what}: convergence series totals and means",
        all(
            r[5] == h.total and r[1] == h.mean() and r[2] == h.sd()
            for r, h in zip(to_parity.rows, hists)
        ),
    )
    checker.op(
        f"{what}: TVD of even-only fitness to the binomial limit >= 1/2",
        all(t >= 0.5 - 1e-12 for t in to_binomial.tvds()),
    )
    return to_parity


# ---------------------------------------------------------------- sample

SAMPLE_WIRES = (6, 7)
SAMPLE_LENGTHS = (20, 100, 500)
# Circuits per length.  L=20 spans two full sampler chunks, so a traced pass
# carries counts from one chunk range into the next and the checkpoint leg
# writes a partial state; L=100 and L=500 stay inside one chunk, which keeps
# a pass near two seconds.
SAMPLES = {20: 2 * CHUNK_SIZE, 100: 8192, 500: 8192}
CHECKPOINT_WIRES = 6


@dataclass
class SampleInputs:
    seed: int
    # Per wire count, one config per distinct sample count.
    configs: dict[int, list[ExperimentConfig]]
    checkpoints: list[Path]

    def legs(self) -> list[ExperimentConfig]:
        """Every config the pass samples: the plain legs, then the
        checkpointed one (its resume samples nothing)."""
        plain = [c for configs in self.configs.values() for c in configs]
        return plain + self.configs[CHECKPOINT_WIRES]


def sample_inputs(ctx, seed):
    by_size: dict[int, list[int]] = {}
    for length in SAMPLE_LENGTHS:
        by_size.setdefault(SAMPLES[length], []).append(length)
    configs = {
        w: [
            ExperimentConfig(
                wires=w, lengths=tuple(lengths), samples_per_length=n,
                target=ctx.mux, seed=seed,
            )
            for n, lengths in by_size.items()
        ]
        for w in SAMPLE_WIRES
    }
    checkpoints = [
        ctx.tmp / f"checkpoint-{seed}-{i}.json"
        for i in range(len(configs[CHECKPOINT_WIRES]))
    ]
    for path in checkpoints:
        path.unlink(missing_ok=True)
    return SampleInputs(seed, configs, checkpoints)


def chunked_histogram(tracer, config, length):
    """One length's histogram, drawn one chunk range per call."""
    counts = None
    for c in range(_chunks(config.samples_per_length)):
        batch = min(CHUNK_SIZE, config.samples_per_length - c * CHUNK_SIZE)
        with tracer.span(
            "sampling.sample_fitness_histogram",
            wires=config.wires, length=length, batch=batch,
        ):
            hist = sample_fitness_histogram(
                config.wires, length, config.samples_per_length, config.seed,
                config.target, first_chunk=c, stop_chunk=c + 1,
                initial_counts=counts,
            )
        counts = hist.counts
    return hist


def sample_execute(ctx, inp, tracer):
    hists = {}
    for w, configs in inp.configs.items():
        hists[w] = []
        for config in configs:
            if tracer.enabled:
                hists[w] += [chunked_histogram(tracer, config, L) for L in config.lengths]
            else:
                hists[w] += sample_distribution(config)
    legs = list(zip(inp.configs[CHECKPOINT_WIRES], inp.checkpoints))
    checkpointed, resumed = [], []
    for config, path in legs:
        with tracer.span("sampling.sample_distribution", leg="checkpoint"):
            checkpointed += sample_distribution(
                config, checkpoint_path=path, checkpoint_every=CHUNK_SIZE
            )
    checkpoint_bytes = sum(path.stat().st_size for path in inp.checkpoints)
    for config, path in legs:
        with tracer.span("sampling.sample_distribution", leg="resume"):
            resumed += sample_distribution(
                config, checkpoint_path=path, checkpoint_every=CHUNK_SIZE
            )
    return {
        "hists": hists,
        "checkpointed": checkpointed,
        "resumed": resumed,
        "checkpoint_bytes": checkpoint_bytes,
    }


def sample_verify(ctx, inp, out, checker, tracer):
    what = f"sample seed {inp.seed}"
    for w, hists in out["hists"].items():
        for h in hists:
            checker.op(
                f"{what}: w{w} L{h.length} histogram total",
                h.total == SAMPLES[h.length] == int(h.counts.sum()),
            )
            if w == ctx.mux.n_inputs:
                checker.op(
                    f"{what}: w{w} L{h.length} has no odd-fitness mass",
                    int(h.counts[1::2].sum()) == 0,
                )
    plain = out["hists"][CHECKPOINT_WIRES]
    for leg in ("checkpointed", "resumed"):
        checker.op(
            f"{what}: {leg} histograms equal the uncheckpointed ones",
            len(out[leg]) == len(plain)
            and all(
                a.length == b.length and np.array_equal(a.counts, b.counts)
                for a, b in zip(out[leg], plain)
            ),
        )
    _theory_checks(ctx, plain, checker, tracer, what)
    for path in inp.checkpoints:
        path.unlink(missing_ok=True)
    return _digest(
        line for w, hists in out["hists"].items()
        for line in _histogram_lines(f"w{w}", hists)
    )


def sample_work(inp, out):
    legs = inp.legs()
    circuits = sum(len(c.lengths) * c.samples_per_length for c in legs)
    gates = sum(sum(c.lengths) * c.samples_per_length for c in legs)
    return circuits, gates


def sampler_ns_per_gate(tracer) -> dict[str, float]:
    """Chunk-range span time per sample-gate, by wire count and length."""
    metrics = {}
    for w in SAMPLE_WIRES:
        for length in SAMPLE_LENGTHS:
            match = {"wires": w, "length": length}
            gates = sum(
                s["attrs"]["batch"] * length
                for s in tracer.select("sampling.sample_fitness_histogram", **match)
            )
            metrics[f"sampling.ns_per_sample_gate.w{w}.L{length}"] = (
                tracer.total("sampling.sample_fitness_histogram", **match) / gates * 1e9
            )
    return metrics


def sample_layers(tracer, passes):
    metrics = sampler_ns_per_gate(tracer)
    legs = [p.inputs.legs() for p in passes]
    metrics["sampling.chunks"] = _mean(
        sum(len(c.lengths) * _chunks(c.samples_per_length) for c in ls) for ls in legs
    )
    metrics["sampling.samples"] = _mean(
        sum(len(c.lengths) * c.samples_per_length for c in ls) for ls in legs
    )
    for leg, name in (("checkpoint", "checkpoint_write_s"), ("resume", "resume_s")):
        metrics[f"sampling.{name}"] = _median(
            tracer.per_pass("sampling.sample_distribution", leg=leg).values()
        )
    metrics["sampling.checkpoint_bytes"] = _median(
        p.outputs["checkpoint_bytes"] for p in passes
    )
    return metrics


# ---------------------------------------------------------------- search

GA_POPULATION = 500
GA_TOURNAMENT = 7
GA_GENERATIONS = 30
HC_BUDGET = 5000
# (method, wires, gates, scoring): "best" reads the best single wire,
# "wire0" the default output map.
SEARCH_LEGS = (
    ("ga", 12, 20, "best"),
    ("ga", 6, 5, "wire0"),
    ("hc", 6, 5, "wire0"),
    ("hc", 12, 20, "best"),
)


@dataclass
class SearchLeg:
    method: str
    key: str
    gates: int
    scoring: object
    config: GAConfig | None = None
    start: Circuit | None = None
    rng: np.random.Generator | None = None


def search_inputs(ctx, seed):
    legs = []
    for i, (method, wires, gates, scoring) in enumerate(SEARCH_LEGS):
        ss = np.random.SeedSequence([seed, i])
        leg = SearchLeg(
            method, f"w{wires}g{gates}", gates,
            "best" if scoring == "best" else DEFAULT_OUTPUT,
        )
        if method == "ga":
            leg.config = GAConfig(
                wires=wires, length=gates, target=ctx.mux,
                seed=int(ss.generate_state(1)[0]), population=GA_POPULATION,
                tournament=GA_TOURNAMENT, generations=GA_GENERATIONS,
                scoring=leg.scoring,
            )
        else:
            leg.rng = np.random.default_rng(ss)
            leg.start = random_circuit(
                wires, gates, leg.rng, n_inputs=ctx.mux.n_inputs
            )
        legs.append(leg)
    return seed, legs


def search_execute(ctx, inp, tracer):
    records = []
    for leg in inp[1]:
        if leg.method == "ga":
            with tracer.span("search.evolve", key=leg.key) as attrs:
                record = evolve(leg.config)
                attrs["generations"] = len(record.best_fitness_per_generation)
        else:
            with tracer.span("search.hill_climb", key=leg.key) as attrs:
                record = hill_climb(
                    leg.start, HC_BUDGET, leg.rng, target=ctx.mux,
                    scoring=leg.scoring,
                )
                attrs["evaluations"] = record.evaluations
        records.append(record)
    return records


def search_verify(ctx, inp, records, checker, tracer):
    seed, legs = inp
    for leg, rec in zip(legs, records):
        what = f"search seed {seed}: {leg.method} {leg.key}"
        trajectory = rec.best_fitness_per_generation
        if leg.method == "ga":
            count_ok = rec.evaluations == GA_POPULATION * len(trajectory)
        else:
            count_ok = rec.evaluations == len(trajectory) <= HC_BUDGET
        checker.op(f"{what}: evaluation count", count_ok)
        checker.op(
            f"{what}: solved flag matches the trajectory",
            rec.solved == (trajectory[-1] == ctx.mux.max_fitness),
        )
        if rec.solved:
            outputs = (
                OutputMap((rec.solution_output_wire,))
                if leg.scoring == "best" else leg.scoring
            )
            with tracer.span("fitness.hamming_fitness_scalar", key=leg.key):
                value = hamming_fitness_scalar(rec.solution, ctx.mux, outputs)
            checker.op(
                f"{what}: solution passes the scalar oracle",
                value.solved and len(rec.solution) == leg.gates,
            )
    return None


def search_work(inp, records):
    legs = inp[1]
    circuits = sum(r.evaluations for r in records)
    gates = sum(r.evaluations * leg.gates for leg, r in zip(legs, records))
    return circuits, gates


def _improvements(trajectory) -> int:
    return sum(b > a for a, b in zip(trajectory, trajectory[1:]))


def search_layers(tracer, passes):
    metrics = {}
    for key in ("w12g20", "w6g5"):
        generations = sum(
            s["attrs"]["generations"] for s in tracer.select("search.evolve", key=key)
        )
        metrics[f"search.ga.ms_per_generation.{key}"] = (
            tracer.total("search.evolve", key=key) / generations * 1e3
        )
        evals = sum(
            s["attrs"]["evaluations"] for s in tracer.select("search.hill_climb", key=key)
        )
        metrics[f"search.hc.us_per_eval.{key}"] = (
            tracer.total("search.hill_climb", key=key) / evals * 1e6
        )

    def per_pass(method, count):
        return _mean(
            sum(count(r) for leg, r in zip(p.inputs[1], p.outputs) if leg.method == method)
            for p in passes
        )

    metrics["search.ga.generations"] = per_pass(
        "ga", lambda r: len(r.best_fitness_per_generation)
    )
    metrics["search.ga.solved"] = per_pass("ga", lambda r: int(r.solved))
    metrics["search.hc.evals"] = per_pass("hc", lambda r: r.evaluations)
    metrics["search.hc.solved"] = per_pass("hc", lambda r: int(r.solved))
    metrics["search.hc.improvements"] = per_pass(
        "hc", lambda r: _improvements(r.best_fitness_per_generation)
    )
    metrics["fitness.verify_s"] = tracer.total("fitness.hamming_fitness_scalar") / len(passes)
    metrics["fitness.verify.calls"] = len(tracer.select("fitness.hamming_fitness_scalar")) / len(passes)
    return metrics


# ---------------------------------------------------------------- scan

MUX_SCAN_DEPTH = 3
SMALL_WIRES = 4
SMALL_GATES = 3
SMALL_SCAN_DEPTH = 4
BRUTE_FORCE_DEPTH = 3


def _small_target(seed) -> TargetTable:
    """The function one wire of a random 3-gate, 4-wire circuit computes:
    the last gate's target wire, redrawn while it equals an input row."""
    rng = np.random.default_rng(seed)
    inputs = wire_patterns(SMALL_WIRES, SMALL_WIRES)
    while True:
        circuit = random_circuit(SMALL_WIRES, SMALL_GATES, rng)
        row = evaluate(circuit).wire_rows[circuit.gates[-1].target]
        if row not in inputs:
            return TargetTable(SMALL_WIRES, 1, [row])


def scan_inputs(ctx, seed):
    # (name, wires, target, depths): one exhaustive_min_scan call per depth.
    return seed, (
        ("mux", 6, ctx.mux, range(1, MUX_SCAN_DEPTH + 1)),
        ("small", SMALL_WIRES, _small_target(seed), range(1, SMALL_SCAN_DEPTH + 1)),
    )


def scan_execute(ctx, inp, tracer):
    results = []
    for name, wires, target, depths in inp[1]:
        for depth in depths:
            with tracer.span("sampling.exhaustive_min_scan", target=name, depth=depth):
                counts = exhaustive_min_scan(wires, depth, target)
            results.append((name, wires, depth, counts))
    return results


def _brute_force_counts(wires, max_length, target) -> dict[int, int]:
    """(circuit, wire) pairs matching the target, by core.evaluate over every
    sequence without an adjacent equal pair (the scan's pruning rule)."""
    gates = enumerate_gates(wires)
    row = target.rows[0]
    counts = dict.fromkeys(range(1, max_length + 1), 0)

    def walk(prefix):
        if prefix:
            trace = evaluate(Circuit(wires, prefix, target.n_inputs))
            counts[len(prefix)] += sum(r == row for r in trace.wire_rows)
        if len(prefix) < max_length:
            for g in gates:
                if not prefix or prefix[-1] != g:
                    walk(prefix + [g])

    walk([])
    return counts


def scan_verify(ctx, inp, results, checker, tracer):
    seed, scans = inp
    deepest = {name: counts for name, _, _, counts in results}
    for name, wires, depth, counts in results:
        checker.op(
            f"scan seed {seed}: {name} depth {depth} agrees with the deepest call",
            counts == {k: v for k, v in deepest[name].items() if k <= depth},
        )
    checker.op(
        f"scan seed {seed}: no six-multiplexor solution up to depth {MUX_SCAN_DEPTH}",
        all(v == 0 for v in deepest["mux"].values()),
    )
    small = scans[1][2]
    expected = _brute_force_counts(SMALL_WIRES, BRUTE_FORCE_DEPTH, small)
    checker.op(
        f"scan seed {seed}: small-bus counts equal the brute force",
        all(deepest["small"][k] == v for k, v in expected.items())
        and sum(expected.values()) > 0,
    )
    lines = [f"small target {small.rows[0]}"] + [
        f"{name},{depth},{k},{v}"
        for name, _, depth, counts in results
        for k, v in sorted(counts.items())
    ]
    return _digest(lines)


def _sequences(wires, depth) -> tuple[int, int]:
    """(sequences, sequence-gates) of lengths 1..depth: sum of G^k and k*G^k."""
    g = len(enumerate_gates(wires))
    return (
        sum(g**k for k in range(1, depth + 1)),
        sum(k * g**k for k in range(1, depth + 1)),
    )


def scan_work(inp, results):
    covered = [_sequences(wires, depth) for _, wires, depth, _ in results]
    return sum(c[0] for c in covered), sum(c[1] for c in covered)


def scan_layers(tracer, passes):
    metrics = {
        f"sampling.scan_s.d{d}": _median(
            tracer.per_pass("sampling.exhaustive_min_scan", depth=d).values()
        )
        for d in range(1, max(MUX_SCAN_DEPTH, SMALL_SCAN_DEPTH) + 1)
    }
    metrics["sampling.scan.seqs_covered"] = _mean(
        scan_work(p.inputs, p.outputs)[0] for p in passes
    )
    metrics["sampling.scan.solutions"] = _mean(
        sum(sum(counts.values()) for _, _, _, counts in p.outputs) for p in passes
    )
    return metrics


# ---------------------------------------------------------------- recipes

RECIPES = ("fig4", "fig5", "fig7", "fig8")
RECIPE_SAMPLES = 4096


def recipes_inputs(ctx, seed):
    out = ctx.tmp / f"recipes-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    return seed, out


def recipes_execute(ctx, inp, tracer):
    seed, out = inp
    manifests = {}
    for recipe in RECIPES:
        with tracer.span("cli.run_recipe", recipe=recipe):
            manifests[recipe] = run_recipe(
                recipe, seed=seed, out_dir=out / recipe, samples=RECIPE_SAMPLES
            )
    return manifests


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _artifacts(out, manifests):
    return [out / r / name for r, m in manifests.items() for name in m["artifacts"]]


def recipes_verify(ctx, inp, manifests, checker, tracer):
    seed, out = inp
    what = f"recipes seed {seed}"
    n = RECIPE_SAMPLES
    fig4 = {}
    for row in _read_csv(out / "fig4" / "fig4_hist_w6.csv"):
        fig4[int(row["length"]), int(row["fitness"])] = int(row["count"])
    lengths = manifests["fig4"]["parameters"]["lengths"]
    checker.op(
        f"{what}: fig4 totals and even-only fitness",
        all(sum(c for (L, _), c in fig4.items() if L == length) == n for length in lengths)
        and all(f % 2 == 0 for (_, f) in fig4),
    )
    fig5 = {
        (int(r["length"]), int(r["fitness"])): float(r["probability"])
        for r in _read_csv(out / "fig5" / "fig5_prob_w6.csv")
    }
    checker.op(
        f"{what}: fig5 probabilities x samples reproduce fig4 counts",
        {k for k, p in fig5.items() if p} == set(fig4)
        and all(round(p * n) == fig4.get(k, 0) for k, p in fig5.items()),
    )
    fig7 = {
        (w, int(r["length"])): r
        for w in manifests["fig7"]["parameters"]["wires"]
        for r in _read_csv(out / "fig7" / f"fig7_series_w{w}.csv")
    }
    fig8 = {
        (int(r["wires"]), int(r["length"])): r
        for r in _read_csv(out / "fig8" / "fig8_mean_sd.csv")
    }
    checker.op(
        f"{what}: fig7 mean/sd equal fig8's at shared (wires, length)",
        set(fig7) <= set(fig8)
        and all(fig7[k][c] == fig8[k][c] for k in fig7 for c in ("mean", "sd")),
    )
    shared = [L for L in lengths if (6, L) in fig7]
    hists = []
    for length in shared:
        counts = np.zeros(ctx.mux.max_fitness + 1, dtype=np.int64)
        for (L, f), c in fig4.items():
            if L == length:
                counts[f] = c
        hists.append(FitnessHistogram(length, counts, int(counts.sum())))
    series = _theory_checks(ctx, hists, checker, tracer, what)
    checker.op(
        f"{what}: fig7 6-wire series equals the series of fig4's histograms",
        all(
            [fig7[6, row[0]][c] for c in ("mean", "sd", "tvd", "solutions", "total")]
            == [str(v) for v in row[1:]]
            for row in series.rows
        ),
    )
    digest = hashlib.sha256()
    for path in sorted(_artifacts(out, manifests)):
        digest.update(f"{path.relative_to(out)}\n".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _recipe_draws(manifests):
    """(wires, length, seed, chunk, circuits) of every chunk the recipes
    asked the sampler for, in order."""
    for m in manifests.values():
        params, n = m["parameters"], m["samples_per_length"]
        wires = params["wires"] if isinstance(params["wires"], list) else [params["wires"]]
        for w in wires:
            for length in params["lengths"]:
                for c in range(_chunks(n)):
                    yield w, length, m["seed"], c, min(CHUNK_SIZE, n - c * CHUNK_SIZE)


def recipes_work(inp, manifests):
    draws = list(_recipe_draws(manifests))
    return sum(d[4] for d in draws), sum(d[1] * d[4] for d in draws)


def _redundant_share(manifests) -> float:
    seen, redundant, total = set(), 0, 0
    for w, length, seed, c, circuits in _recipe_draws(manifests):
        total += length * circuits
        if (w, length, seed, c) in seen:
            redundant += length * circuits
        seen.add((w, length, seed, c))
    return redundant / total


def recipes_layers(tracer, passes):
    metrics = {
        f"cli.recipe_s.{r}": _median(tracer.per_pass("cli.run_recipe", recipe=r).values())
        for r in RECIPES
    }
    metrics["cli.artifact_bytes"] = _mean(
        sum(path.stat().st_size for path in _artifacts(p.inputs[1], p.outputs))
        for p in passes
    )
    metrics["cli.redundant_sample_gates"] = _mean(_redundant_share(p.outputs) for p in passes)
    draws = [list(_recipe_draws(p.outputs)) for p in passes]
    metrics["sampling.chunks"] = _mean(len(d) for d in draws)
    metrics["sampling.samples"] = _mean(sum(x[4] for x in d) for d in draws)
    return metrics


def theory_layer(tracer, passes):
    seconds = tracer.total("theory.limit") + tracer.total("sampling.convergence_series")
    return {"theory.limit_s": seconds / len(passes)}


PARTS = {
    "sample": Workload(sample_inputs, sample_execute, sample_verify, sample_work, sample_layers),
    "scan": Workload(scan_inputs, scan_execute, scan_verify, scan_work, scan_layers),
    "search": Workload(search_inputs, search_execute, search_verify, search_work, search_layers),
    "recipes": Workload(recipes_inputs, recipes_execute, recipes_verify, recipes_work, recipes_layers),
}


def combine(*names: str) -> Workload:
    """A workload whose pass runs the named parts in turn on the same pass
    seed.  Its verify returns {part: digest} for the parts that have one;
    its work and per-layer metrics are the parts' together."""
    parts = [PARTS[n] for n in names]

    def inputs(ctx, seed):
        return [part.inputs(ctx, seed) for part in parts]

    def execute(ctx, inp, tracer):
        return [part.execute(ctx, i, tracer) for part, i in zip(parts, inp)]

    def verify(ctx, inp, out, checker, tracer):
        digests = {}
        for name, part, i, o in zip(names, parts, inp, out):
            digest = part.verify(ctx, i, o, checker, tracer)
            if digest is not None:
                digests[name] = digest
        return digests

    def work(inp, out):
        done = [part.work(i, o) for part, i, o in zip(parts, inp, out)]
        return sum(d[0] for d in done), sum(d[1] for d in done)

    def layers(tracer, passes):
        metrics = {}
        for k, part in enumerate(parts):
            views = [SimpleNamespace(inputs=p.inputs[k], outputs=p.outputs[k]) for p in passes]
            metrics.update(part.layers(tracer, views))
        return metrics

    return Workload(inputs, execute, verify, work, layers)


WORKLOADS = {
    "engines": combine("sample", "scan"),
    "experiments": combine("search", "recipes"),
}
