"""`revcirc` — experiment runner for reversible-circuit studies.

Subcommands
-----------
sample     fitness histograms of uniform random circuits (CSV)
converge   per-length mean/sd/TVD against the limiting law (CSV)
density    perfect-solution counts with exact Poisson intervals (CSV)
minscan    exhaustive counts of solving (circuit, output wire) pairs (CSV)
hillclimb  mutation hill-climber runs (JSON-lines log + solution circuits)
ga         generational GA runs (JSON-lines log + solution circuits)
target     print the six-multiplexor truth table
limit      export a limiting distribution (CSV)
recipe     run a named, fully seeded experiment pipeline with a manifest

All CSV output is UTF-8 with a header row.  `--seed` falls back to the
REVCIRC_SEED environment variable, then to 0.  Every command is
deterministic given its seed; `recipe` additionally writes a manifest
recording the seed and parameters so re-runs reproduce its CSVs
byte-for-byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .core import format_circuit, random_circuit
from .fitness import (
    DEFAULT_OUTPUT,
    OutputMap,
    TargetTable,
    hamming_fitness_scalar,
    six_multiplexor_target,
)
from .sampling import (
    ExperimentConfig,
    convergence_series,
    exhaustive_min_scan,
    sample_distribution,
)
from .search import GAConfig, RunRecord, evolve, hill_climb, koza_effort
from .theory import (
    binomial_limit, limit_for, normalized_limit, parity_shifted_limit, poisson_interval, rms_limit,
)

_SIX_MUX_LENGTHS = (5, 10, 20, 50, 100, 500)
# Sampling recipes on the six-multiplexor: id -> (bus widths, lengths,
# artifact kind).  Each kind's rows come from `_sampling_rows`.
_SAMPLING_RECIPES = {
    "fig4": ((6,), _SIX_MUX_LENGTHS, "hist"),
    "fig5": ((6,), _SIX_MUX_LENGTHS, "prob"),
    "fig6": ((7,), _SIX_MUX_LENGTHS, "hist"),
    "fig7": ((6, 7, 12), (20, 50, 100, 200, 500), "series"),
    "fig8": ((6, 7, 12), (5, 10, 20, 50, 100, 200, 500), "mean_sd"),
    "fig10": ((6,), (5, 6, 7, 8, 9, 10, 12, 15, 20, 30, 50), "density"),
}
RECIPE_IDS = (*_SAMPLING_RECIPES, "table1", "table3")
CI_SAMPLES = 10**6
FULL_SAMPLES = 10**8
HILL_CLIMB_BUDGET = 5000
SEARCH_RUNS = 10


# ---------------------------------------------------------------- helpers


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("REVCIRC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"REVCIRC_SEED must be an integer, got {env!r}")
    return 0


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--lengths expects comma-separated integers, got {text!r}")
    if not lengths:
        raise ValueError("--lengths must name at least one length")
    return lengths


def _parse_output_wire(text: str) -> OutputMap | str:
    if text == "best":
        return "best"
    try:
        return OutputMap((int(text),))
    except ValueError:
        raise ValueError(f"--output-wire expects a wire index or 'best', got {text!r}")


def _load_target(path: str | None) -> TargetTable:
    if path is None:
        return six_multiplexor_target()
    return TargetTable.from_text(Path(path).read_text())


def _output(path: str | Path | None):
    """A text stream to `path`, its directory made first, or to stdout when
    None.  The one place a command creates a file or a directory."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def _write_csv(path: str | Path | None, header: list[str], rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_lines(path: str | Path | None, lines: list[str]) -> None:
    with _output(path) as fh:
        fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------- sampling commands


def _sampling_rows(kind: str, config: ExperimentConfig, checkpoint=None, keep_zeros=False):
    """(header, rows) of one sampling CSV for one bus width.  Kinds: hist
    (counts per fitness), prob (probabilities next to the limit law's),
    series (moments and TVD per length), mean_sd (moments next to the
    limit's) and density (solution rates with exact Poisson 95% intervals).
    Only prob, series and mean_sd read a limit law."""
    limit = None
    if kind in ("prob", "series", "mean_sd"):
        limit = limit_for(config.wires, config.target, config.constant_fill)
    hists = sample_distribution(config, checkpoint_path=checkpoint)
    if kind == "hist":
        return ["length", "fitness", "count"], [
            (h.length, f, int(c)) for h in hists for f, c in enumerate(h.counts) if c or keep_zeros
        ]
    if kind == "density":
        return ["length", "count", "rate", "ci_lo", "ci_hi"], [
            (h.length, h.solutions(), h.solutions() / h.total,
             *(bound / h.total for bound in poisson_interval(h.solutions())))
            for h in hists
        ]
    if kind == "prob":
        return ["length", "fitness", "probability", "limit_probability"], [
            (h.length, f, p, float(limit.pmf[f]))
            for h in hists
            for f, p in enumerate(h.distribution())
            if p or limit.pmf[f]
        ]
    if kind == "series":
        header = ["length", "mean", "sd", "tvd", "solutions", "total"]
        return header, convergence_series(hists, limit).rows
    return ["length", "mean", "sd", "limit_mean", "limit_sd"], [
        (h.length, h.mean(), h.sd(), limit.mean, limit.sd) for h in hists
    ]


def _cmd_sampling(args) -> int:
    """`sample`, `converge` and `density`: one CSV of `args.kind`."""
    config = ExperimentConfig(
        target=_load_target(args.target),
        wires=args.wires,
        lengths=_parse_lengths(args.lengths),
        samples_per_length=args.samples,
        outputs=OutputMap((args.output_wire,)),
        seed=_resolve_seed(args.seed),
        workers=args.workers,
        constant_fill=args.fill,
    )
    _write_csv(args.out, *_sampling_rows(args.kind, config, args.checkpoint, args.keep_zeros))
    return 0


def _cmd_minscan(args) -> int:
    target = _load_target(args.target)
    max_length = max(_parse_lengths(args.lengths))
    counts = exhaustive_min_scan(
        args.wires, max_length, target, constant_fill=args.fill, prune=not args.no_prune
    )
    _write_csv(args.out, ["length", "count"], sorted(counts.items()))
    shortest = next((n for n, c in sorted(counts.items()) if c), None)
    if shortest is None:
        print(f"no solutions with <= {max_length} gates", file=sys.stderr)
    else:
        print(f"shortest solution: {shortest} gates", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- search commands


def _campaign(method, seed_prefix, runs, wires, gates, target, scoring, label, log, *,
              budget=HILL_CLIMB_BUDGET, accept_equal=True, ga=None):
    """`runs` runs of `method`, run r seeded by [*seed_prefix, r]: a hill climb
    of `budget` evaluations from a random circuit, or a GA run of `ga` seeded
    from that sequence.  Returns the records, the JSON lines of each run's
    `log(run, record)` entries, and the solution lines headed by `label`.  A
    claimed solution is re-checked case by case on the wires it was scored
    on, independent of the bit-parallel scorer; a wrong claim raises."""
    _check_runs(runs)
    records, log_lines, solution_lines = [], [], []
    for r in range(runs):
        seed_sequence = np.random.SeedSequence([*seed_prefix, r])
        if method == "hillclimb":
            rng = np.random.default_rng(seed_sequence)
            start = random_circuit(wires, gates, rng, n_inputs=target.n_inputs)
            record = hill_climb(start, budget, rng, target, scoring, accept_equal)
        else:
            record = evolve(dataclasses.replace(ga, seed=int(seed_sequence.generate_state(1)[0])))
        records.append(record)
        log_lines += (json.dumps(entry, sort_keys=True) for entry in log(r, record))
        if not record.solved:
            continue
        wire = record.solution_output_wire
        outputs = scoring if wire is None else OutputMap((wire,))
        check = hamming_fitness_scalar(record.solution, target, outputs)
        if not check.solved:
            raise AssertionError(
                f"solution failed independent re-verification: {check.raw}/{check.max_raw}"
            )
        wires_text = ",".join(str(w) for w in outputs.wire_of_output)
        solution_lines += [
            f"# {label} run={r} output_wire={wires_text} evaluations={record.evaluations}",
            format_circuit(record.solution),
        ]
    return records, log_lines, solution_lines


def _outcome(run: int, record: RunRecord) -> dict:
    """The log entry every run ends with."""
    return {"run": run, "evaluations": record.evaluations,
            "best": record.best_fitness_per_generation[-1], "solved": record.solved}


def _hillclimb_log(run: int, record: RunRecord):
    for fit, ev in sorted(record.first_hit_evaluations.items()):
        yield {"run": run, "evaluations": ev, "best": fit}
    yield _outcome(run, record)


def _ga_log(run: int, record: RunRecord):
    means = record.mean_fitness_per_generation
    last = len(record.best_fitness_per_generation) - 1
    for g, best in enumerate(record.best_fitness_per_generation):
        yield {"run": run, "generation": g, "best": best, "mean": round(means[g], 4),
               "solved": record.solved and g == last}


def _check_runs(runs: int | None) -> None:
    if runs is not None and runs < 0:
        raise ValueError(f"--runs must be >= 0, got {runs}")


def _finish_search(summary: str, log_lines, solution_lines, out_dir) -> None:
    """The log to `runs.jsonl` under `out_dir`, else stdout, written once
    every run has succeeded; the summary on stderr; solved circuits to
    `out_dir`, else to stderr too."""
    _write_lines(None if out_dir is None else out_dir / "runs.jsonl", log_lines)
    print(summary, file=sys.stderr)
    if out_dir is None:
        sys.stderr.writelines(line + "\n" for line in solution_lines)
    else:
        _write_lines(out_dir / "solutions.txt", solution_lines)


def _cmd_hillclimb(args) -> int:
    target = _load_target(args.target)
    seed = _resolve_seed(args.seed)
    scoring = _parse_output_wire(args.output_wire)
    compare = None
    if args.compare_random:  # checked here so a bad request fails before any run
        if scoring == "best":
            raise ValueError("--compare-random needs a fixed output wire")
        compare = ExperimentConfig(
            wires=args.wires, lengths=(args.gates,), samples_per_length=args.samples,
            target=target, outputs=scoring, seed=seed + 1, workers=args.workers,
        )
    out_dir = None if args.out is None else Path(args.out)
    records, log_lines, solution_lines = _campaign(
        "hillclimb", (seed,), args.runs, args.wires, args.gates, target, scoring, "hillclimb",
        _hillclimb_log, budget=args.budget, accept_equal=not args.strict,
    )
    solved = sum(r.solved for r in records)
    finals = [r.best_fitness_per_generation[-1] for r in records]
    summary = f"hillclimb: {solved}/{args.runs} solved; final fitness {sorted(finals)}"
    _finish_search(summary, log_lines, solution_lines, out_dir)
    if compare is not None:
        _compare_random(compare, records, out_dir)
    return 0


def _compare_random(config, records, out_dir) -> None:
    """Hill-climber hitting times next to the expected number of uniform
    random samples (drawn per `config`) needed to match each fitness level."""
    hist = sample_distribution(config)[0]
    tail = np.cumsum(hist.counts[::-1])[::-1]  # samples with fitness >= f
    rows = []
    levels = sorted({f for r in records for f in r.first_hit_evaluations})
    for f in levels:
        hits = [r.first_hit_evaluations[f] for r in records if f in r.first_hit_evaluations]
        expected = math.inf if tail[f] == 0 else hist.total / int(tail[f])
        shown = "inf" if expected == math.inf else round(expected, 3)
        rows.append((f, len(hits), statistics.median(hits), shown))
    _write_csv(
        None if out_dir is None else out_dir / "random_comparison.csv",
        ["fitness", "hc_runs_reaching", "hc_median_evaluations", "random_expected_evaluations"],
        rows,
    )


def _cmd_ga(args) -> int:
    target = _load_target(args.target)
    seed = _resolve_seed(args.seed)
    scoring = _parse_output_wire(args.output_wire)
    ga = GAConfig(wires=args.wires, length=args.gates, target=target, seed=seed,
                  population=args.pop, tournament=args.tournament, generations=args.gens,
                  scoring=scoring)  # each run replaces the seed
    out_dir = None if args.out is None else Path(args.out)
    records, log_lines, solution_lines = _campaign(
        "ga", (seed,), args.runs, args.wires, args.gates, target, scoring, "ga", _ga_log, ga=ga
    )
    solved = sum(r.solved for r in records)
    summary = {
        "runs": args.runs,
        "solved": solved,
        "generations": [len(r.best_fitness_per_generation) - 1 for r in records],
        "effort": koza_effort(records, args.pop) if solved else None,
    }
    if out_dir is not None:
        _write_lines(out_dir / "summary.json", [json.dumps(summary, sort_keys=True, indent=2)])
    effort = f"; effort {summary['effort']}" if solved else ""
    _finish_search(f"ga: {solved}/{args.runs} solved{effort}", log_lines, solution_lines, out_dir)
    return 0


# ---------------------------------------------------------------- small commands


def _cmd_target(args) -> int:
    with _output(args.out) as fh:
        fh.write(six_multiplexor_target().to_text())
    return 0


def _cmd_limit(args) -> int:
    if args.kind == "binomial":
        _write_csv(args.out, ["fitness", "probability"], binomial_limit(args.n, args.m).csv_rows())
    elif args.kind == "parity-shifted":
        _write_csv(args.out, ["fitness", "probability"], parity_shifted_limit().csv_rows())
    elif args.kind == "normalized":
        _write_csv(args.out, ["mean", "sd"], [normalized_limit(args.n, args.m)])
    else:  # rms
        _write_csv(args.out, ["mean", "sd"], [rms_limit(args.m, args.regime)])
    return 0


# ---------------------------------------------------------------- recipes


def run_recipe(
    recipe_id: str,
    scale: str = "ci",
    seed: int = 0,
    out_dir: str | Path = ".",
    samples: int | None = None,
    runs: int | None = None,
    generations: int | None = None,
    workers: int = 1,
) -> dict:
    """Run one named pipeline; write its CSVs plus `manifest.json`.

    Every recipe is deterministic in (recipe_id, scale, seed, overrides):
    re-running with the manifest's recorded values reproduces each CSV
    byte-for-byte (the manifest itself carries the wall time and so
    differs).  Returns the manifest dict.
    """
    if recipe_id not in RECIPE_IDS:
        raise ValueError(f"unknown recipe {recipe_id!r}; choose from {RECIPE_IDS}")
    if scale not in ("ci", "full"):
        raise ValueError(f"unknown scale {scale!r}; choose 'ci' or 'full'")
    _check_runs(runs)
    out_dir = Path(out_dir)
    n_samples = samples if samples is not None else (
        CI_SAMPLES if scale == "ci" else FULL_SAMPLES
    )
    started = time.perf_counter()
    if recipe_id in _SAMPLING_RECIPES:
        parameters, artifacts = _sampling_recipe(recipe_id, seed, n_samples, workers, out_dir)
    elif recipe_id == "table1":
        parameters, artifacts = _recipe_table1(seed, runs, generations, out_dir)
    else:
        parameters, artifacts = _recipe_table3(out_dir)
    manifest = {
        "recipe": recipe_id,
        "scale": scale,
        "seed": seed,
        "samples_per_length": n_samples,
        "workers": workers,
        "parameters": parameters,
        "artifacts": sorted(a.name for a in artifacts),
        "wall_time_seconds": round(time.perf_counter() - started, 3),
    }
    if runs is not None:
        manifest["runs"] = runs
    if generations is not None:
        manifest["generations"] = generations
    _write_lines(out_dir / "manifest.json", [json.dumps(manifest, sort_keys=True, indent=2)])
    return manifest


def _sampling_recipe(recipe_id, seed, samples, workers, out_dir):
    """Write one `_SAMPLING_RECIPES` entry.  Kinds hist, prob, series and
    density write one CSV per bus width; series adds the TVDs of every width
    in one file, and mean_sd writes every width to one file."""
    all_wires, lengths, kind = _SAMPLING_RECIPES[recipe_id]
    target = six_multiplexor_target()
    artifacts, combined = [], []
    for wires in all_wires:
        config = ExperimentConfig(
            wires=wires, lengths=lengths, samples_per_length=samples,
            target=target, seed=seed, workers=workers,
        )
        header, rows = _sampling_rows(kind, config)
        if kind == "series":
            combined += [(wires, r[0], r[3]) for r in rows]
        elif kind == "mean_sd":  # one file for every width, written below
            combined += [(wires, *r) for r in rows]
            continue
        artifacts.append(out_dir / f"{recipe_id}_{kind}_w{wires}.csv")
        _write_csv(artifacts[-1], header, rows)
    if kind == "series":
        artifacts.append(out_dir / f"{recipe_id}_tvd.csv")
        _write_csv(artifacts[-1], ["wires", "length", "tvd"], combined)
    elif kind == "mean_sd":
        artifacts.append(out_dir / f"{recipe_id}_mean_sd.csv")
        _write_csv(artifacts[-1], ["wires", *header], combined)
    wires_param = all_wires[0] if len(all_wires) == 1 else list(all_wires)
    return {"wires": wires_param, "lengths": list(lengths)}, artifacts


def _recipe_table1(seed, runs, generations, out_dir):
    n_runs = runs if runs is not None else SEARCH_RUNS
    gens = generations if generations is not None else GAConfig.generations
    target = six_multiplexor_target()
    configs = ((6, 5), (12, 20))
    scorings = (("wire0", DEFAULT_OUTPUT), ("best", "best"))
    # every GA configuration is built, and so checked, before the first climb
    ga = {(wires, gates, scoring): GAConfig(wires=wires, length=gates, target=target, seed=seed,
                                            generations=gens, scoring=scoring)
          for wires, gates in configs for _, scoring in scorings}
    success_rows, run_lines, solution_lines = [], [], []
    for (method_idx, method), (cfg_idx, (wires, gates)), (score_idx, (score_name, scoring)) in (
        itertools.product(enumerate(("hillclimb", "ga")), enumerate(configs), enumerate(scorings))
    ):
        cell = {"method": method, "wires": wires, "gates": gates, "scoring": score_name}
        records, logs, solutions = _campaign(
            method, (seed, method_idx, cfg_idx, score_idx), n_runs, wires, gates, target,
            scoring, f"{method} {score_name} {wires}w/{gates}g",
            lambda r, record: [{**cell, **_outcome(r, record)}], ga=ga[wires, gates, scoring],
        )
        run_lines += logs
        solution_lines += solutions
        solved = sum(r.solved for r in records)
        success_rows.append((method, wires, gates, score_name, n_runs, solved))
    success_path = out_dir / "table1_success.csv"
    header = ["method", "wires", "gates", "scoring", "runs", "solved"]
    _write_csv(success_path, header, success_rows)
    runs_path = out_dir / "table1_runs.jsonl"
    _write_lines(runs_path, run_lines)
    solutions_path = out_dir / "table1_solutions.txt"
    _write_lines(solutions_path, solution_lines)
    params = {
        "configs": [list(c) for c in configs],
        "runs": n_runs,
        "hill_climb_budget": HILL_CLIMB_BUDGET,
        "ga": {k: getattr(ga[6, 5, "best"], k) for k in ("population", "tournament", "generations")},
    }
    return params, [success_path, runs_path, solutions_path]


def _recipe_table3(out_dir):
    n, m_bits = 6, 6
    raw = binomial_limit(n)
    rows = [
        ("hamming-raw", n, 1, raw.mean, raw.sd),
        ("hamming-normalized", n, 1, *normalized_limit(n, 1)),
        ("rms-small-T", "", m_bits, *rms_limit(m_bits, "small-T")),
        ("rms-exhaustive-uniform", "", m_bits, *rms_limit(m_bits, "exhaustive-uniform")),
    ]
    path = out_dir / "table3_theory.csv"
    _write_csv(path, ["quantity", "n", "m", "mean", "sd"], rows)
    return {"n": n, "m_bits": m_bits}, [path]


def _cmd_recipe(args) -> int:
    manifest = run_recipe(
        args.id,
        scale=args.scale,
        seed=_resolve_seed(args.seed),
        out_dir=args.out,
        samples=args.samples,
        runs=args.runs,
        generations=args.gens,
        workers=args.workers,
    )
    print(
        f"recipe {args.id} ({args.scale}): wrote {len(manifest['artifacts'])} "
        f"artifact(s) to {args.out} in {manifest['wall_time_seconds']}s",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- parser


def _add_bus_flags(p):
    """Flags of every command that writes one CSV over a bus and lengths."""
    p.add_argument("--wires", type=int, required=True, help="bus width")
    p.add_argument("--lengths", required=True, help="comma-separated gate counts")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.add_argument("--target", default=None, help="target truth-table file (default: six-multiplexor)")
    p.add_argument("--fill", type=int, choices=(0, 1), default=1, help="spare-wire constant")


def _add_search_flags(p):
    p.add_argument("--wires", type=int, required=True, help="bus width")
    p.add_argument("--gates", type=int, required=True, help="circuit length")
    p.add_argument("--runs", type=int, default=SEARCH_RUNS, help="independent runs")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: REVCIRC_SEED or 0)")
    p.add_argument("--out", default=None, help="output directory (default: log to stdout)")
    p.add_argument("--target", default=None, help="target truth-table file (default: six-multiplexor)")
    p.add_argument("--output-wire", default="0", dest="output_wire",
                   help="wire index to score, or 'best' for the best wire per circuit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revcirc",
        description="Reversible CCNOT gate-array experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, kind, help_text in (
        ("sample", "hist", "fitness histograms of random circuits"),
        ("converge", "series", "mean/sd/TVD per length against the limit law"),
        ("density", "density", "solution rates with exact Poisson intervals"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_bus_flags(p)
        p.add_argument("--samples", type=int, default=CI_SAMPLES, help="samples per length")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: REVCIRC_SEED or 0)")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help="parallel processes")
        p.add_argument("--output-wire", type=int, default=0, dest="output_wire")
        p.set_defaults(func=_cmd_sampling, kind=kind, checkpoint=None, keep_zeros=False)
        if kind == "hist":
            p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
            p.add_argument("--keep-zeros", action="store_true", help="emit zero-count rows")

    p = sub.add_parser("minscan", help="exhaustive solving (circuit, output wire) pair counts")
    _add_bus_flags(p)
    p.add_argument("--no-prune", action="store_true", help="count reducible circuits too")
    p.set_defaults(func=_cmd_minscan)

    p = sub.add_parser("hillclimb", help="single-mutant hill-climber runs")
    _add_search_flags(p)
    p.add_argument("--budget", type=int, default=HILL_CLIMB_BUDGET, help="fitness evaluations per run")
    p.add_argument("--strict", action="store_true", help="accept strict improvements only")
    p.add_argument("--compare-random", action="store_true",
                   help="also report expected random-search times per fitness level")
    p.add_argument("--samples", type=int, default=CI_SAMPLES,
                   help="random circuits for --compare-random")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_hillclimb)

    p = sub.add_parser("ga", help="generational GA runs")
    _add_search_flags(p)
    p.add_argument("--pop", type=int, default=GAConfig.population, help="population size")
    p.add_argument("--tournament", type=int, default=GAConfig.tournament, help="tournament size")
    p.add_argument("--gens", type=int, default=GAConfig.generations, help="generation cap")
    p.set_defaults(func=_cmd_ga)

    p = sub.add_parser("target", help="print the six-multiplexor truth table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_target)

    p = sub.add_parser("limit", help="export a limiting distribution")
    p.add_argument("--kind", choices=("binomial", "parity-shifted", "normalized", "rms"),
                   default="binomial")
    p.add_argument("--n", type=int, default=6, help="input bits")
    p.add_argument("--m", type=int, default=1, help="output bits")
    p.add_argument("--regime", choices=("small-T", "exhaustive-uniform"), default="small-T")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("recipe", help="run a named experiment pipeline")
    p.add_argument("id", choices=RECIPE_IDS)
    p.add_argument("--scale", choices=("ci", "full"), default="ci")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="artifact directory")
    p.add_argument("--samples", type=int, default=None, help="override samples per length")
    p.add_argument("--runs", type=int, default=None, help="override search runs (table1)")
    p.add_argument("--gens", type=int, default=None, help="override GA generations (table1)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_recipe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"revcirc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
