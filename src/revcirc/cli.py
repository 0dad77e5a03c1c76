"""`revcirc` — experiment runner for reversible-circuit studies.

Subcommands
-----------
sample     fitness histograms of uniform random circuits (CSV)
converge   per-length mean/sd/TVD against the limiting law (CSV)
density    perfect-solution counts with exact Poisson intervals (CSV)
minscan    exhaustive solution counts for all short circuits (CSV)
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
import csv
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
    solution_density,
)
from .search import GAConfig, RunRecord, evolve, hill_climb, koza_effort
from .theory import (
    LimitModel,
    binomial_limit,
    normalized_limit,
    parity_shifted_limit,
    rms_limit,
)

RECIPE_IDS = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "table1", "table3")
CI_SAMPLES = 10**6
FULL_SAMPLES = 10**8
HILL_CLIMB_BUDGET = 5000


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


def _limit_for(wires: int, target: TargetTable) -> LimitModel:
    """The limiting law for this bus width: parity-shifted when the target
    uses every wire (no spares), binomial once spare wires exist."""
    if wires == target.n_inputs:
        if (target.n_inputs, target.m_outputs) != (6, 1):
            raise ValueError(
                "the no-spare limit law is implemented for 6-input single-output "
                "targets with balanced truth tables"
            )
        return parity_shifted_limit()
    return binomial_limit(target.n_inputs, target.m_outputs)


def _write_csv(path_or_file, header: list[str], rows) -> None:
    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, header, rows)
        return
    writer = csv.writer(path_or_file, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _out_stream(path: str | None):
    if path is None:
        return sys.stdout
    return open(path, "w", newline="", encoding="utf-8")


# ---------------------------------------------------------------- sampling commands


def _experiment_config(args, target: TargetTable) -> ExperimentConfig:
    return ExperimentConfig(
        wires=args.wires,
        lengths=_parse_lengths(args.lengths),
        samples_per_length=args.samples,
        target=target,
        outputs=OutputMap((args.output_wire,)) if hasattr(args, "output_wire") else DEFAULT_OUTPUT,
        seed=_resolve_seed(args.seed),
        workers=args.workers,
        constant_fill=args.fill,
    )


def _cmd_sample(args) -> int:
    target = _load_target(args.target)
    config = _experiment_config(args, target)
    hists = sample_distribution(config, checkpoint_path=args.checkpoint)
    rows = [
        (h.length, f, int(c))
        for h in hists
        for f, c in enumerate(h.counts)
        if c or args.keep_zeros
    ]
    stream = _out_stream(args.out)
    try:
        _write_csv(stream, ["length", "fitness", "count"], rows)
    finally:
        if args.out is not None:
            stream.close()
    return 0


def _cmd_converge(args) -> int:
    target = _load_target(args.target)
    config = _experiment_config(args, target)
    limit = _limit_for(config.wires, target)
    series = convergence_series(sample_distribution(config), limit)
    stream = _out_stream(args.out)
    try:
        _write_csv(
            stream,
            ["length", "mean", "sd", "tvd", "solutions", "total"],
            series.rows,
        )
    finally:
        if args.out is not None:
            stream.close()
    return 0


def _cmd_density(args) -> int:
    target = _load_target(args.target)
    config = _experiment_config(args, target)
    rows = solution_density(config)
    stream = _out_stream(args.out)
    try:
        _write_csv(stream, ["length", "count", "rate", "ci_lo", "ci_hi"], rows)
    finally:
        if args.out is not None:
            stream.close()
    return 0


def _cmd_minscan(args) -> int:
    target = _load_target(args.target)
    max_length = max(_parse_lengths(args.lengths))
    counts = exhaustive_min_scan(
        args.wires,
        max_length,
        target,
        constant_fill=args.fill,
        prune=not args.no_prune,
    )
    stream = _out_stream(args.out)
    try:
        _write_csv(stream, ["length", "count"], sorted(counts.items()))
    finally:
        if args.out is not None:
            stream.close()
    shortest = next((n for n, c in sorted(counts.items()) if c), None)
    if shortest is None:
        print(f"no solutions with <= {max_length} gates", file=sys.stderr)
    else:
        print(f"shortest solution: {shortest} gates", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- search commands


def _search_paths(out: str | None) -> tuple:
    if out is None:
        return None, None, None
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, out_dir / "runs.jsonl", out_dir / "solutions.txt"


def _jsonl(fh, record: dict) -> None:
    fh.write(json.dumps(record, sort_keys=True) + "\n")


def _record_outputs(record: RunRecord, scoring) -> OutputMap:
    """Output wires a solved record was scored on.

    Best-wire runs store the winning wire on the record; fixed-wire runs
    leave it unset, so the configured map applies.
    """
    if record.solution_output_wire is not None:
        return OutputMap((record.solution_output_wire,))
    if scoring == "best":
        raise AssertionError("best-wire solution lost its output wire")
    return scoring


def _solution_lines(method: str, run: int, record: RunRecord, scoring) -> list[str]:
    assert record.solution is not None
    wires = ",".join(str(w) for w in _record_outputs(record, scoring).wire_of_output)
    return [
        f"# {method} run={run} output_wire={wires} "
        f"evaluations={record.evaluations}",
        format_circuit(record.solution),
    ]


def _verify_solution(record: RunRecord, target: TargetTable, scoring) -> None:
    """Re-check a claimed solution case by case (independent of the
    bit-parallel scorer); raises if the claim is wrong."""
    check = hamming_fitness_scalar(
        record.solution, target, _record_outputs(record, scoring)
    )
    if not check.solved:
        raise AssertionError(
            f"solution failed independent re-verification: {check.raw}/{check.max_raw}"
        )


def _cmd_hillclimb(args) -> int:
    target = _load_target(args.target)
    seed = _resolve_seed(args.seed)
    scoring = _parse_output_wire(args.output_wire)
    out_dir, runs_path, solutions_path = _search_paths(args.out)
    runs_fh = open(runs_path, "w", encoding="utf-8") if runs_path else sys.stdout
    solution_lines: list[str] = []
    records: list[RunRecord] = []
    try:
        for r in range(args.runs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
            start = random_circuit(
                args.wires, args.gates, rng, n_inputs=target.n_inputs
            )
            rec = hill_climb(
                start, args.budget, rng, target=target, scoring=scoring,
                accept_equal=not args.strict,
            )
            records.append(rec)
            best = rec.best_fitness_per_generation[-1]
            for fit, ev in sorted(rec.first_hit_evaluations.items()):
                _jsonl(runs_fh, {"run": r, "evaluations": ev, "best": fit})
            _jsonl(
                runs_fh,
                {
                    "run": r,
                    "evaluations": rec.evaluations,
                    "best": best,
                    "solved": rec.solved,
                },
            )
            if rec.solved:
                _verify_solution(rec, target, scoring)
                solution_lines += _solution_lines("hillclimb", r, rec, scoring)
    finally:
        if runs_path:
            runs_fh.close()
    if solutions_path:
        solutions_path.write_text("\n".join(solution_lines) + ("\n" if solution_lines else ""))
    solved = sum(r.solved for r in records)
    finals = [r.best_fitness_per_generation[-1] for r in records]
    print(
        f"hillclimb: {solved}/{args.runs} solved; final fitness "
        f"{sorted(finals)}",
        file=sys.stderr,
    )
    if args.compare_random:
        _compare_random(args, target, scoring, records, out_dir, seed)
    return 0


def _compare_random(args, target, scoring, records, out_dir, seed) -> None:
    """Hill-climber hitting times next to the expected number of uniform
    random samples needed to match each fitness level."""
    if scoring == "best":
        raise ValueError("--compare-random needs a fixed output wire")
    config = ExperimentConfig(
        wires=args.wires,
        lengths=(args.gates,),
        samples_per_length=args.samples,
        target=target,
        outputs=scoring,
        seed=seed + 1,
        workers=args.workers,
    )
    hist = sample_distribution(config)[0]
    tail = np.cumsum(hist.counts[::-1])[::-1]  # samples with fitness >= f
    rows = []
    levels = sorted({f for r in records for f in r.first_hit_evaluations})
    for f in levels:
        hits = [r.first_hit_evaluations[f] for r in records if f in r.first_hit_evaluations]
        expected = math.inf if tail[f] == 0 else hist.total / int(tail[f])
        rows.append(
            (
                f,
                len(hits),
                statistics.median(hits),
                "inf" if expected == math.inf else round(expected, 3),
            )
        )
    dest = (out_dir / "random_comparison.csv") if out_dir else sys.stdout
    _write_csv(
        dest,
        ["fitness", "hc_runs_reaching", "hc_median_evaluations", "random_expected_evaluations"],
        rows,
    )


def _cmd_ga(args) -> int:
    target = _load_target(args.target)
    seed = _resolve_seed(args.seed)
    scoring = _parse_output_wire(args.output_wire)
    out_dir, runs_path, solutions_path = _search_paths(args.out)
    runs_fh = open(runs_path, "w", encoding="utf-8") if runs_path else sys.stdout
    solution_lines: list[str] = []
    records: list[RunRecord] = []
    try:
        for r in range(args.runs):
            run_seed = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
            config = GAConfig(
                wires=args.wires,
                length=args.gates,
                target=target,
                seed=run_seed,
                population=args.pop,
                tournament=args.tournament,
                generations=args.gens,
                scoring=scoring,
            )
            rec = evolve(config)
            records.append(rec)
            means = rec.mean_fitness_per_generation
            for g, b in enumerate(rec.best_fitness_per_generation):
                _jsonl(
                    runs_fh,
                    {
                        "run": r,
                        "generation": g,
                        "best": b,
                        "mean": round(means[g], 4),
                        "solved": rec.solved
                        and g == len(rec.best_fitness_per_generation) - 1,
                    },
                )
            if rec.solved:
                _verify_solution(rec, target, scoring)
                solution_lines += _solution_lines("ga", r, rec, scoring)
    finally:
        if runs_path:
            runs_fh.close()
    if solutions_path:
        solutions_path.write_text("\n".join(solution_lines) + ("\n" if solution_lines else ""))
    solved = sum(r.solved for r in records)
    summary = {
        "runs": args.runs,
        "solved": solved,
        "generations": [len(r.best_fitness_per_generation) - 1 for r in records],
        "effort": koza_effort(records, args.pop) if solved else None,
    }
    if out_dir:
        (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(
        f"ga: {solved}/{args.runs} solved"
        + (f"; effort {summary['effort']}" if solved else ""),
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- small commands


def _cmd_target(args) -> int:
    text = six_multiplexor_target().to_text()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_limit(args) -> int:
    if args.kind == "binomial":
        model = binomial_limit(args.n, args.m)
        header, rows = ["fitness", "probability"], model.csv_rows()
    elif args.kind == "parity-shifted":
        model = parity_shifted_limit()
        header, rows = ["fitness", "probability"], model.csv_rows()
    elif args.kind == "normalized":
        mean, sd = normalized_limit(args.n, args.m)
        header, rows = ["mean", "sd"], [(mean, sd)]
    else:  # rms
        mean, sd = rms_limit(args.m, args.regime)
        header, rows = ["mean", "sd"], [(mean, sd)]
    stream = _out_stream(args.out)
    try:
        _write_csv(stream, header, rows)
    finally:
        if args.out is not None:
            stream.close()
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_samples = samples if samples is not None else (
        CI_SAMPLES if scale == "ci" else FULL_SAMPLES
    )
    started = time.perf_counter()
    builder = _RECIPE_BUILDERS[recipe_id]
    parameters, artifacts = builder(
        seed=seed,
        samples=n_samples,
        runs=runs,
        generations=generations,
        workers=workers,
        out_dir=out_dir,
    )
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
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def _histogram_artifact(path, hists) -> None:
    _write_csv(
        path,
        ["length", "fitness", "count"],
        [(h.length, f, int(c)) for h in hists for f, c in enumerate(h.counts) if c],
    )


def _recipe_fig4(seed, samples, runs, generations, workers, out_dir):
    lengths = (5, 10, 20, 50, 100, 500)
    target = six_multiplexor_target()
    config = ExperimentConfig(
        wires=6, lengths=lengths, samples_per_length=samples, target=target,
        seed=seed, workers=workers,
    )
    path = out_dir / "fig4_hist_w6.csv"
    _histogram_artifact(path, sample_distribution(config))
    return {"wires": 6, "lengths": list(lengths)}, [path]


def _recipe_fig5(seed, samples, runs, generations, workers, out_dir):
    # Same data as fig4 (identical seed and draws), expressed as
    # probabilities next to the no-spare limit law for tail comparison.
    lengths = (5, 10, 20, 50, 100, 500)
    target = six_multiplexor_target()
    config = ExperimentConfig(
        wires=6, lengths=lengths, samples_per_length=samples, target=target,
        seed=seed, workers=workers,
    )
    limit = parity_shifted_limit()
    rows = []
    for h in sample_distribution(config):
        probs = h.distribution()
        for f in range(len(probs)):
            if probs[f] or limit.pmf[f]:
                rows.append((h.length, f, probs[f], float(limit.pmf[f])))
    path = out_dir / "fig5_prob_w6.csv"
    _write_csv(path, ["length", "fitness", "probability", "limit_probability"], rows)
    return {"wires": 6, "lengths": list(lengths)}, [path]


def _recipe_fig6(seed, samples, runs, generations, workers, out_dir):
    lengths = (5, 10, 20, 50, 100, 500)
    target = six_multiplexor_target()
    config = ExperimentConfig(
        wires=7, lengths=lengths, samples_per_length=samples, target=target,
        seed=seed, workers=workers,
    )
    path = out_dir / "fig6_hist_w7.csv"
    _histogram_artifact(path, sample_distribution(config))
    return {"wires": 7, "lengths": list(lengths)}, [path]


def _recipe_fig7(seed, samples, runs, generations, workers, out_dir):
    lengths = (20, 50, 100, 200, 500)
    target = six_multiplexor_target()
    artifacts = []
    tvd_rows = []
    for wires in (6, 7, 12):
        config = ExperimentConfig(
            wires=wires, lengths=lengths, samples_per_length=samples,
            target=target, seed=seed, workers=workers,
        )
        series = convergence_series(
            sample_distribution(config), _limit_for(wires, target)
        )
        path = out_dir / f"fig7_series_w{wires}.csv"
        _write_csv(
            path, ["length", "mean", "sd", "tvd", "solutions", "total"], series.rows
        )
        artifacts.append(path)
        tvd_rows += [(wires, r[0], r[3]) for r in series.rows]
    combined = out_dir / "fig7_tvd.csv"
    _write_csv(combined, ["wires", "length", "tvd"], tvd_rows)
    artifacts.append(combined)
    return {"wires": [6, 7, 12], "lengths": list(lengths)}, artifacts


def _recipe_fig8(seed, samples, runs, generations, workers, out_dir):
    lengths = (5, 10, 20, 50, 100, 200, 500)
    target = six_multiplexor_target()
    rows = []
    for wires in (6, 7, 12):
        limit = _limit_for(wires, target)
        config = ExperimentConfig(
            wires=wires, lengths=lengths, samples_per_length=samples,
            target=target, seed=seed, workers=workers,
        )
        for h in sample_distribution(config):
            rows.append((wires, h.length, h.mean(), h.sd(), limit.mean, limit.sd))
    path = out_dir / "fig8_mean_sd.csv"
    _write_csv(
        path, ["wires", "length", "mean", "sd", "limit_mean", "limit_sd"], rows
    )
    return {"wires": [6, 7, 12], "lengths": list(lengths)}, [path]


def _recipe_fig10(seed, samples, runs, generations, workers, out_dir):
    lengths = (5, 6, 7, 8, 9, 10, 12, 15, 20, 30, 50)
    target = six_multiplexor_target()
    config = ExperimentConfig(
        wires=6, lengths=lengths, samples_per_length=samples, target=target,
        seed=seed, workers=workers,
    )
    path = out_dir / "fig10_density_w6.csv"
    _write_csv(
        path, ["length", "count", "rate", "ci_lo", "ci_hi"], solution_density(config)
    )
    return {"wires": 6, "lengths": list(lengths)}, [path]


def _recipe_table1(seed, samples, runs, generations, workers, out_dir):
    n_runs = runs if runs is not None else 10
    gens = generations if generations is not None else 500
    target = six_multiplexor_target()
    configs = ((6, 5), (12, 20))
    scorings = (("wire0", DEFAULT_OUTPUT), ("best", "best"))
    success_rows = []
    run_lines = []
    solution_lines = []
    for method_idx, method in enumerate(("hillclimb", "ga")):
        for cfg_idx, (wires, gates) in enumerate(configs):
            for score_idx, (score_name, scoring) in enumerate(scorings):
                records = []
                for r in range(n_runs):
                    ss = np.random.SeedSequence(
                        [seed, method_idx, cfg_idx, score_idx, r]
                    )
                    if method == "hillclimb":
                        rng = np.random.default_rng(ss)
                        start = random_circuit(wires, gates, rng, n_inputs=6)
                        rec = hill_climb(
                            start, HILL_CLIMB_BUDGET, rng, target=target,
                            scoring=scoring,
                        )
                    else:
                        rec = evolve(
                            GAConfig(
                                wires=wires, length=gates, target=target,
                                seed=int(ss.generate_state(1)[0]),
                                generations=gens, scoring=scoring,
                            )
                        )
                    records.append(rec)
                    run_lines.append(
                        json.dumps(
                            {
                                "method": method,
                                "wires": wires,
                                "gates": gates,
                                "scoring": score_name,
                                "run": r,
                                "best": rec.best_fitness_per_generation[-1],
                                "evaluations": rec.evaluations,
                                "solved": rec.solved,
                            },
                            sort_keys=True,
                        )
                    )
                    if rec.solved:
                        _verify_solution(rec, target, scoring)
                        solution_lines += _solution_lines(
                            f"{method} {score_name} {wires}w/{gates}g", r, rec, scoring
                        )
                solved = sum(rec.solved for rec in records)
                success_rows.append(
                    (method, wires, gates, score_name, n_runs, solved)
                )
    success_path = out_dir / "table1_success.csv"
    _write_csv(
        success_path,
        ["method", "wires", "gates", "scoring", "runs", "solved"],
        success_rows,
    )
    runs_path = out_dir / "table1_runs.jsonl"
    runs_path.write_text("\n".join(run_lines) + "\n")
    solutions_path = out_dir / "table1_solutions.txt"
    solutions_path.write_text(
        "\n".join(solution_lines) + ("\n" if solution_lines else "")
    )
    params = {
        "configs": [list(c) for c in configs],
        "runs": n_runs,
        "hill_climb_budget": HILL_CLIMB_BUDGET,
        "ga": {"population": 500, "tournament": 7, "generations": gens},
    }
    return params, [success_path, runs_path, solutions_path]


def _recipe_table3(seed, samples, runs, generations, workers, out_dir):
    n, m_bits = 6, 6
    raw_mean, raw_sd = (1 << n) / 2, math.sqrt(1 << n) / 2
    norm_mean, norm_sd = normalized_limit(n, 1)
    small_mean, small_sd = rms_limit(m_bits, "small-T")
    exh_mean, exh_sd = rms_limit(m_bits, "exhaustive-uniform")
    rows = [
        ("hamming-raw", n, 1, raw_mean, raw_sd),
        ("hamming-normalized", n, 1, norm_mean, norm_sd),
        ("rms-small-T", "", m_bits, small_mean, small_sd),
        ("rms-exhaustive-uniform", "", m_bits, exh_mean, exh_sd),
    ]
    path = out_dir / "table3_theory.csv"
    _write_csv(path, ["quantity", "n", "m", "mean", "sd"], rows)
    return {"n": n, "m_bits": m_bits}, [path]


_RECIPE_BUILDERS = {
    "fig4": _recipe_fig4,
    "fig5": _recipe_fig5,
    "fig6": _recipe_fig6,
    "fig7": _recipe_fig7,
    "fig8": _recipe_fig8,
    "fig10": _recipe_fig10,
    "table1": _recipe_table1,
    "table3": _recipe_table3,
}


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


def _add_sampling_flags(p, with_output_wire=False):
    p.add_argument("--wires", type=int, required=True, help="bus width")
    p.add_argument("--lengths", required=True, help="comma-separated gate counts")
    p.add_argument("--samples", type=int, default=CI_SAMPLES, help="samples per length")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: REVCIRC_SEED or 0)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help="parallel processes")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.add_argument("--target", default=None, help="target truth-table file (default: six-multiplexor)")
    p.add_argument("--fill", type=int, choices=(0, 1), default=1, help="spare-wire constant")
    if with_output_wire:
        p.add_argument("--output-wire", type=int, default=0, dest="output_wire")


def _add_search_flags(p):
    p.add_argument("--wires", type=int, required=True, help="bus width")
    p.add_argument("--gates", type=int, required=True, help="circuit length")
    p.add_argument("--runs", type=int, default=10, help="independent runs")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: REVCIRC_SEED or 0)")
    p.add_argument("--out", default=None, help="output directory (default: log to stdout)")
    p.add_argument("--target", default=None, help="target truth-table file (default: six-multiplexor)")
    p.add_argument(
        "--output-wire", default="0", dest="output_wire",
        help="wire index to score, or 'best' for the best wire per circuit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revcirc",
        description="Reversible CCNOT gate-array experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="fitness histograms of random circuits")
    _add_sampling_flags(p, with_output_wire=True)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file for resumable runs")
    p.add_argument("--keep-zeros", action="store_true", help="emit zero-count rows")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("converge", help="mean/sd/TVD per length against the limit law")
    _add_sampling_flags(p, with_output_wire=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("density", help="solution rates with exact Poisson intervals")
    _add_sampling_flags(p, with_output_wire=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("minscan", help="exhaustive solution counts for short circuits")
    _add_sampling_flags(p)
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
    p.add_argument("--pop", type=int, default=500, help="population size")
    p.add_argument("--tournament", type=int, default=7, help="tournament size")
    p.add_argument("--gens", type=int, default=500, help="generation cap")
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
