"""Single-wire mutation, hill climbing, and the generational GA.

Both searches run genomes here and score their final rows with
`fitness.Scorer`, the scoring the sampler and the fitness functions share.

The mutation operator changes exactly one wire of one gate.  The hill
climber samples one mutant per step; by default it also accepts mutants of
equal fitness (neutral drift).  Measured on the six-multiplexor at 6 wires
x 5 gates, strict better-only acceptance strands almost every run at the
first strict local optimum (modally fitness 40, ~1% of runs reaching 56),
while neutral drift reproduces the characteristic plateau at 56; the
`accept_equal` flag selects between the two.

The GA is generational and non-elitist: each child is a once-mutated copy
of a tournament winner, with per-tournament uniform tie-breaking (breaking
ties with a single per-individual key instead measurably slows neutral
exploration of fitness plateaus).  It mutates the whole population in one
draw (`_mutate_population`, the same move distribution as the scalar
operator).  The hill climber and `mutate` keep the scalar operator, one
mutant at a time.  Batching them does not pay: one batched mutate-and-score
call costs 130-220 us for 1 to 16 mutants, a sequential evaluation 15-20
us, and the neutral climber accepts 31% (6 wires x 5 gates) to 56% (12 x 20)
of its mutants, so a speculative batch holds only 1.8-3.2 useful ones
(2-core Xeon, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Circuit, Gate, enumerate_gates, evaluate_batch, gate_arrays
from .fitness import (
    DEFAULT_OUTPUT,
    Scorer,
    TargetTable,
    WireScoring,
    six_multiplexor_target,
)

__all__ = [
    "GAConfig",
    "RunRecord",
    "mutate",
    "neighborhood_size",
    "hill_climb",
    "evolve",
    "koza_effort",
    "coupon_collector_expected",
]

def mutate(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """One uniform single-wire mutation; never returns the input circuit."""
    if len(circuit) < 1:
        raise ValueError("cannot mutate an empty circuit")
    genome = _FitnessEngine.circuit_to_genome(circuit)
    gi = _mutate_genome_inplace(genome, circuit.wires, rng)
    return circuit.replace_gate(gi, Gate(*genome[gi].tolist()))


def neighborhood_size(circuit: Circuit) -> int:
    """Number of single-mutation neighbours, summed per gate and per slot.

    Per gate with distinct controls: (wires-3) target choices plus
    2*(wires-2) control choices; with equal controls the target gains one
    more choice.  Control slots are counted separately even though for an
    equal-controls gate the two slots generate the same set of circuits, so
    this matches neighbour accounting at the genome level (e.g. 580 vs 600
    for 20 gates on 12 wires).
    """
    w = circuit.wires
    total = 0
    for g in circuit.gates:
        t_alts = w - 3 if g.control_a != g.control_b else w - 2
        total += t_alts + 2 * (w - 2)
    return total


@dataclass
class RunRecord:
    """Trajectory and outcome of one search run."""

    best_fitness_per_generation: list[int]
    solved: bool
    evaluations: int
    solution: Circuit | None = None
    solution_output_wire: int | None = None
    mean_fitness_per_generation: list[float] | None = None
    first_hit_evaluations: dict[int, int] = field(default_factory=dict)

    def solve_generation(self, max_fitness: int) -> int | None:
        """Index of the first generation whose best fitness is perfect."""
        for i, b in enumerate(self.best_fitness_per_generation):
            if b == max_fitness:
                return i
        return None


class _FitnessEngine:
    """Genome running for hill climbing and the GA, scored by `fitness.Scorer`:
    a population runs through `core.evaluate_batch` when the cases fit one
    machine word (n <= 6), else genome by genome on Python-int rows."""

    def __init__(self, wires: int, n_inputs: int, constant_fill: int,
                 target: TargetTable, scoring: WireScoring):
        self.scorer = Scorer(wires, n_inputs, constant_fill, target, scoring)
        self.wires = wires
        self.constant_fill = constant_fill
        self._gate_code = None
        if target.case_count <= 64:
            self._init_rows = np.array(self.scorer.wire_patterns, dtype=np.uint64)
            # Gate code of every (target, control, control) slot triple, in
            # either control order, flattened as (t * W + a) * W + b.
            tg, ca, cb = gate_arrays(wires)
            codes = np.arange(len(tg))
            self._gate_code = np.zeros(wires**3, dtype=np.intp)
            self._gate_code[(tg * wires + ca) * wires + cb] = codes
            self._gate_code[(tg * wires + cb) * wires + ca] = codes

    def score_population(self, genomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fitness of every genome; genomes is (pop, length, 3) slot arrays.

        Returns (fitness, best_wire) where best_wire is -1 under fixed
        scoring.
        """
        if self._gate_code is None:
            scores = [self.score_genome(genome) for genome in genomes]
            return tuple(np.array(col, dtype=np.int64) for col in zip(*scores))
        t, a, b = genomes[..., 0], genomes[..., 1], genomes[..., 2]
        codes = self._gate_code.take((t * self.wires + a) * self.wires + b)
        return self.scorer.score_words(evaluate_batch(codes, self._init_rows))

    def score_genome(self, genome: np.ndarray) -> tuple[int, int]:
        rows = list(self.scorer.wire_patterns)
        for t, a, b in genome.tolist():
            rows[t] ^= rows[a] & rows[b]
        return self.scorer.score_rows(rows)

    def genome_to_circuit(self, genome: np.ndarray) -> Circuit:
        gates = [Gate(int(t), int(a), int(b)) for t, a, b in genome]
        target = self.scorer.target
        return Circuit(self.wires, gates, target.n_inputs, target.m_outputs, self.constant_fill)

    @staticmethod
    def circuit_to_genome(circuit: Circuit) -> np.ndarray:
        return np.array(
            [[g.target, g.control_a, g.control_b] for g in circuit.gates],
            dtype=np.int64,
        )


def _mutate_genome_inplace(
    genome: np.ndarray, wires: int, rng: np.random.Generator
) -> int:
    """Rewrite one wire of one gate of a (length, 3) slot array in place.

    Picks a gate uniformly, then one of its three slots, then a legal
    different wire for that slot: the target (slot 0) must avoid both
    controls; a control (slot 1 or 2) must avoid the target and may match
    the other control.  A slot with no legal wire is dropped and another
    drawn.  Returns the index of the changed gate.
    """
    gi = int(rng.integers(0, genome.shape[0]))
    t, a, b = genome[gi].tolist()
    slots = [0, 1, 2]
    while slots:
        slot = slots[int(rng.integers(0, len(slots)))]
        if slot == 0:
            banned = {t, a, b}
        elif slot == 1:
            banned = {a, t}
        else:
            banned = {b, t}
        alts = [w for w in range(wires) if w not in banned]
        if alts:
            genome[gi, slot] = alts[int(rng.integers(0, len(alts)))]
            return gi
        slots.remove(slot)
    raise ValueError("gate has no legal single-wire mutants")


def _mutate_population(
    genomes: np.ndarray, wires: int, rng: np.random.Generator
) -> None:
    """Apply `_mutate_genome_inplace`'s move to every (length, 3) genome of a
    (pop, length, 3) array at once, with the same distribution.

    Three vector draws: a gate per genome, a slot per genome (a target slot
    with no legal wire, that of a 3-wire gate with distinct controls, is
    never drawn, so its gate picks one of its two control slots uniformly),
    and a rank among the slot's legal wires, shifted past the banned ones.
    """
    pop, length = genomes.shape[:2]
    rows = np.arange(pop)
    gi = rng.integers(0, length, size=pop)
    t, a, b = genomes[rows, gi].T
    distinct = a != b
    target_alts = wires - 2 - distinct
    slot = rng.integers(target_alts == 0, 3)
    on_target = slot == 0
    # Banned wires, sorted per row; `wires` pads a row, as no rank reaches it.
    banned = np.empty((pop, 3), dtype=genomes.dtype)
    banned[:, 0] = t
    banned[:, 1] = np.where(slot == 2, b, a)
    banned[:, 2] = np.where(on_target & distinct, b, wires)
    banned.sort(axis=1)
    new = rng.integers(0, np.where(on_target, target_alts, wires - 2))
    for k in range(3):
        new += new >= banned[:, k]
    genomes[rows, gi, slot] = new


def hill_climb(
    start: Circuit,
    budget: int,
    rng: np.random.Generator,
    target: TargetTable | None = None,
    scoring: WireScoring = DEFAULT_OUTPUT,
    accept_equal: bool = True,
) -> RunRecord:
    """Mutate one wire of one gate per step, keeping the mutant when its
    fitness improves (or matches, when `accept_equal`).

    Stops at perfect fitness or after `budget` fitness evaluations
    (the initial evaluation counts).  The trajectory records the current
    fitness after every evaluation; `first_hit_evaluations` maps each
    fitness level to the evaluation that first reached it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if target is None:
        target = six_multiplexor_target()
    engine = _FitnessEngine(
        start.wires, start.n_inputs, start.constant_fill, target, scoring
    )
    genome = engine.circuit_to_genome(start)
    if genome.shape[0] == 0:
        raise ValueError("hill climbing needs at least one gate")
    fit, wire = engine.score_genome(genome)
    evaluations = 1
    trajectory = [fit]
    first_hit = {fit: 1}
    while evaluations < budget and fit < target.max_fitness:
        gi_backup = genome.copy()
        _mutate_genome_inplace(genome, start.wires, rng)
        cand_fit, cand_wire = engine.score_genome(genome)
        evaluations += 1
        if cand_fit > fit or (accept_equal and cand_fit == fit):
            fit, wire = cand_fit, cand_wire
            if fit not in first_hit:
                first_hit[fit] = evaluations
        else:
            genome = gi_backup
        trajectory.append(fit)
    solved = fit == target.max_fitness
    return RunRecord(
        best_fitness_per_generation=trajectory,
        solved=solved,
        evaluations=evaluations,
        solution=engine.genome_to_circuit(genome) if solved else None,
        solution_output_wire=(wire if solved and wire >= 0 else None),
        first_hit_evaluations=first_hit,
    )


@dataclass(frozen=True)
class GAConfig:
    """Generational GA parameters: non-elitist, tournament selection with
    replacement, every child mutated exactly once."""

    wires: int
    length: int
    target: TargetTable
    seed: int
    population: int = 500
    tournament: int = 7
    generations: int = 500
    scoring: WireScoring = DEFAULT_OUTPUT
    n_inputs: int | None = None
    constant_fill: int = 1

    def __post_init__(self):
        if self.population < 1 or self.tournament < 1 or self.generations < 0:
            raise ValueError("population and tournament must be >= 1, generations >= 0")
        if self.length < 1:
            raise ValueError("genome length must be >= 1")


def evolve(config: GAConfig) -> RunRecord:
    """Run the GA: generation 0 is uniformly random circuits of fixed
    length; each next generation draws, for every slot, a tournament of
    `tournament` uniformly (with replacement) and mutates the winner once.
    Ties are broken uniformly per tournament.  Non-elitist; stops at the
    first generation containing a perfect circuit or after `generations`.
    Each generation mutates the whole population in one vectorised draw;
    the hill climber keeps the one-at-a-time operator (module docstring).
    """
    rng = np.random.default_rng(config.seed)
    n_inputs = config.target.n_inputs if config.n_inputs is None else config.n_inputs
    engine = _FitnessEngine(
        config.wires, n_inputs, config.constant_fill, config.target, config.scoring
    )
    every_gate = Circuit(config.wires, enumerate_gates(config.wires))
    gate_slots = engine.circuit_to_genome(every_gate)
    pop, length = config.population, config.length
    genomes = gate_slots[rng.integers(0, len(gate_slots), size=(pop, length))]
    fits, wires_out = engine.score_population(genomes)
    best_per_gen = [int(fits.max())]
    mean_per_gen = [float(fits.mean())]
    evaluations = pop
    generation = 0
    while fits.max() < config.target.max_fitness and generation < config.generations:
        entries = rng.integers(0, pop, size=(pop, config.tournament))
        keys = fits[entries] + rng.random((pop, config.tournament))
        winners = entries[np.arange(pop), np.argmax(keys, axis=1)]
        genomes = genomes[winners]
        _mutate_population(genomes, config.wires, rng)
        fits, wires_out = engine.score_population(genomes)
        evaluations += pop
        best_per_gen.append(int(fits.max()))
        mean_per_gen.append(float(fits.mean()))
        generation += 1
    solved = bool(fits.max() == config.target.max_fitness)
    solution = solution_wire = None
    if solved:
        idx = int(np.argmax(fits))
        solution = engine.genome_to_circuit(genomes[idx])
        w = int(wires_out[idx])
        solution_wire = w if w >= 0 else None
    return RunRecord(
        best_fitness_per_generation=best_per_gen,
        solved=solved,
        evaluations=evaluations,
        solution=solution,
        solution_output_wire=solution_wire,
        mean_fitness_per_generation=mean_per_gen,
    )


def koza_effort(
    runs: Sequence[RunRecord], population: int, z: float = 0.99
) -> int:
    """Minimum individuals processed for probability `z` of one success.

    I(M, i, z) = M * (i+1) * R(i) minimized over generations i, where
    P(M, i) is the fraction of runs whose best fitness was perfect by
    generation i and R(i) = ceil(ln(1-z) / ln(1-P(M,i))) independent runs
    (1 when P = 1).
    """
    if not runs:
        raise ValueError("koza_effort needs at least one run")
    max_fit = max(max(r.best_fitness_per_generation) for r in runs)
    solve_gens = []
    any_solved = False
    for r in runs:
        g = r.solve_generation(max_fit) if r.solved else None
        solve_gens.append(g)
        any_solved = any_solved or (g is not None)
    if not any_solved:
        raise ValueError("koza_effort is undefined when no run solved")
    horizon = max(len(r.best_fitness_per_generation) for r in runs)
    best = None
    for i in range(horizon):
        p = sum(1 for g in solve_gens if g is not None and g <= i) / len(runs)
        if p == 0:
            continue
        r_needed = 1 if p >= 1 else math.ceil(math.log(1 - z) / math.log(1 - p))
        effort = population * (i + 1) * max(1, r_needed)
        if best is None or effort < best:
            best = effort
    assert best is not None
    return best


def coupon_collector_expected(k: int) -> float:
    """Expected uniform draws to see all k items at least once: k * H_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k * sum(1.0 / i for i in range(1, k + 1))
