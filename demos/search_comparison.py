"""Hill climbing vs a genetic algorithm on the six-multiplexor.

Both searches mutate one wire of one gate at a time.  The fitness landscape
they walk is dominated by a huge plateau: most circuits score 40 (the
fitness of passing data input D0 straight through, as wire 0 of the empty
circuit does on 6 or 12 wires; a constant output scores only 32), and the
best non-solutions cluster at 56.

* The hill climber accepts equal-or-better neighbours (neutral walks are
  essential here: strict improvement strands it at the first plateau), but
  with a single thread of search it almost always ends boxed in at 56.
* The GA (population 500, tournament 7, non-elitist) keeps enough spread
  to cross the plateau; on a roomy 12-wire/20-gate representation it
  usually finds an exact solution within a few hundred generations.

The wide representation matters for both: more wires and gates mean more
neutral moves per point, i.e. more ways around a ridge.
"""

import numpy as np

from revcirc import (
    GAConfig,
    evolve,
    hill_climb,
    koza_effort,
    random_circuit,
    six_multiplexor_target,
)

RUNS = 6
HC_BUDGET = 5000
GENERATIONS = 500


def hill_climb_row(target, wires, gates, seed_base):
    finals, solved = [], 0
    for r in range(RUNS):
        rng = np.random.default_rng(np.random.SeedSequence([seed_base, r]))
        start = random_circuit(wires, gates, rng, n_inputs=target.n_inputs)
        rec = hill_climb(start, HC_BUDGET, rng, target=target)
        finals.append(rec.best_fitness_per_generation[-1])
        solved += rec.solved
    return solved, finals


def ga_rows(target, wires, gates, seed_base):
    records = []
    for r in range(RUNS):
        records.append(
            evolve(
                GAConfig(
                    wires=wires, length=gates, target=target,
                    seed=seed_base + r, scoring="best",
                    generations=GENERATIONS,
                )
            )
        )
    return records


def main() -> None:
    target = six_multiplexor_target()
    print(f"{RUNS} runs per row; perfect fitness is 64\n")
    print(f"{'method':<12} {'wires/gates':<12} {'solved':<8} outcome")

    for wires, gates, base in ((6, 5, 7000), (12, 20, 7100)):
        solved, finals = hill_climb_row(target, wires, gates, base)
        print(
            f"{'hillclimb':<12} {f'{wires}w/{gates}g':<12} {solved}/{RUNS:<6} "
            f"final fitness {sorted(finals)}"
        )

    for wires, gates, base in ((6, 5, 500), (12, 20, 400)):
        records = ga_rows(target, wires, gates, base)
        solved = sum(r.solved for r in records)
        gens = [
            r.solve_generation(target.max_fitness)
            for r in records
            if r.solved
        ]
        note = f"solve generations {sorted(gens)}" if gens else "never solves"
        print(
            f"{'ga':<12} {f'{wires}w/{gates}g':<12} {solved}/{RUNS:<6} {note}"
        )
        if solved:
            effort = koza_effort(records, population=500)
            print(f"{'':<12} {'':<12} {'':<8} "
                  f"effort ≈ {effort:,} evaluations for 99% success")

    print(
        "\nThe 6-wire/5-gate rows are a guaranteed loss for both methods:\n"
        "no 5-gate circuit computes the six-multiplexor at all (see\n"
        "demos/minimal_circuit_scan.py), so searches there measure how\n"
        "gracefully an impossible representation fails — they plateau at 56."
    )


if __name__ == "__main__":
    main()
