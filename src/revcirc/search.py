"""Single-wire mutation, hill climbing, and the generational GA.

A genome is a list of genes: ordered slot triples s = (t*W + a)*W + b,
the control order kept because it decides which wire a control-slot draw
rewrites.  One cached table (`_gene_tables`) gives each gene its gate code,
its slots and its moves (one wire of one slot changed).  The hill climber
and `mutate` draw one move at a time (`_mutate_genes`; the hill climber
from blocks of generator words, `_WordDraws`, with the same stream), the GA
one per genome for the whole population (`_mutate_population`, the same
move distribution), and `neighborhood_size` counts them.  Search scores only
through `fitness.Scorer`, as the sampler does: the hill climber one genome
by `score_gates`, the GA a population by `score_codes`, at any case count.

The hill climber samples one mutant per step; by default it also accepts
mutants of equal fitness (neutral drift).  Measured on the six-multiplexor
at 6 wires x 5 gates, strict better-only acceptance strands almost every
run at the first strict local optimum (modally fitness 40, ~1% of runs
reaching 56), while neutral drift reproduces the characteristic plateau at
56; the `accept_equal` flag selects between the two.

The GA is generational and non-elitist: each child is a once-mutated copy
of a tournament winner, with per-tournament uniform tie-breaking (breaking
ties with a single per-individual key instead measurably slows neutral
exploration of fitness plateaus).  The hill climber does not batch its
mutants: one batched mutate-and-score call costs 130-220 us for 1 to 16
mutants, a sequential evaluation 15-20 us, and the neutral climber accepts
31% (6 wires x 5 gates) to 56% (12 x 20) of its mutants, so a speculative
batch holds only 1.8-3.2 useful ones (2-core Xeon, numpy 2.4).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import Circuit, Gate, gate_arrays
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


class _GeneTables(NamedTuple):
    code: np.ndarray  # (W^3,) gate code of each gene, -1 for an illegal triple
    slots: np.ndarray  # (W^3, 3) its (t, a, b)
    moves: np.ndarray  # (W^3, 3, W-1) per slot, the genes one legal change away
    count: np.ndarray  # (W^3, 3) per slot, how many of `moves` are real


@cache
def _gene_tables(wires: int) -> _GeneTables:
    """Gene tables on `wires` wires; gate codes index gate_arrays(wires).

    The one statement of the legal-move rule: rewriting one slot of a gene
    to another wire is a move when the new triple is a gate, so the target
    avoids both controls and a control avoids the target (it may match the
    other control).  A slot's moves are listed ascending by the new wire.
    """
    tg, ca, cb = gate_arrays(wires)
    genes = np.arange(wires**3)
    code = np.full(len(genes), -1, dtype=np.intp)
    code[(tg * wires + ca) * wires + cb] = np.arange(len(tg))
    code[(tg * wires + cb) * wires + ca] = np.arange(len(tg))
    place = wires ** np.arange(2, -1, -1)  # weight of t, a, b in a gene
    slots = genes[:, None] // place % wires
    new = np.arange(wires)
    rewrites = genes[:, None, None] + (new - slots[..., None]) * place[:, None]
    legal = (code[rewrites] >= 0) & (new != slots[..., None])
    first = np.argsort(~legal, axis=-1, kind="stable")[..., : wires - 1]
    moves = np.take_along_axis(rewrites, first, axis=-1)
    return _GeneTables(code, slots, moves, legal.sum(axis=-1))


def _genes(circuit: Circuit) -> list[int]:
    w = circuit.wires
    return [(g.target * w + g.control_a) * w + g.control_b for g in circuit.gates]


def _mutate_genes(genes, wires: int, rng: np.random.Generator) -> int:
    """Make one move on one gene of a gene list (or array) in place.

    Picks a gene uniformly, then one of its three slots, then one of that
    slot's moves; a slot with no move (the target of a 3-wire gate with
    distinct controls) is dropped and another drawn.  Returns the index of
    the changed gene.
    """
    tables = _gene_tables(wires)
    gi = int(rng.integers(0, len(genes)))
    gene = genes[gi]
    slots = [0, 1, 2]
    while True:
        slot = slots[int(rng.integers(0, len(slots)))]
        n = int(tables.count[gene, slot])
        if n:
            genes[gi] = int(tables.moves[gene, slot, rng.integers(0, n)])
            return gi
        slots.remove(slot)


class _WordDraws:
    """`integers(0, n)` exactly as the scalar `Generator.integers(0, n)`
    would draw it from `rng`, served from blocks of the generator's 32-bit
    words: one numpy call per block instead of one per draw.

    For 1 < n <= 2^32 the scalar draw is numpy's Lemire rule on the next
    32-bit words, and n == 1 draws nothing; `integers(0, 2**32, size=k,
    dtype=np.uint32)` yields the same words.  On exit the generator goes
    back to where the current block started and redraws the words used
    from it, so it ends where the scalar calls would have left it.
    """

    BLOCK = 512

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._words: list[int] = []
        self._next = 0
        self._block_start = None  # the generator's state before the block

    def _word(self) -> int:
        if self._next == len(self._words):
            self._block_start = self._rng.bit_generator.state
            self._words = self._rng.integers(0, 1 << 32, size=self.BLOCK, dtype=np.uint32).tolist()
            self._next = 0
        self._next += 1
        return self._words[self._next - 1]

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"bound {n} is outside 1..2^32")
        if n == 1:
            return low
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return low + (m >> 32)

    def __enter__(self) -> "_WordDraws":
        return self

    def __exit__(self, *exc) -> None:
        if self._next < len(self._words):
            self._rng.bit_generator.state = self._block_start
            self._rng.integers(0, 1 << 32, size=self._next, dtype=np.uint32)


def _mutate_population(genes: np.ndarray, wires: int, rng: np.random.Generator) -> None:
    """Make `_mutate_genes`'s move on every row of a (pop, length) gene
    array at once, with the same distribution: a gene per row, a slot per
    row (a slot with no move is the target's, so its row picks one of the
    two control slots uniformly), and one of that slot's moves.
    """
    tables = _gene_tables(wires)
    rows = np.arange(len(genes))
    gi = rng.integers(0, genes.shape[1], size=len(genes))
    gene = genes[rows, gi]
    count = tables.count[gene]
    slot = rng.integers(count[:, 0] == 0, 3)
    genes[rows, gi] = tables.moves[gene, slot, rng.integers(0, count[rows, slot])]


def mutate(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """One uniform single-wire mutation; never returns the input circuit."""
    if len(circuit) < 1:
        raise ValueError("cannot mutate an empty circuit")
    genes = _genes(circuit)
    gi = _mutate_genes(genes, circuit.wires, rng)
    t, a, b = _gene_tables(circuit.wires).slots[genes[gi]].tolist()
    return circuit.replace_gate(gi, Gate(t, a, b))


def neighborhood_size(circuit: Circuit) -> int:
    """Number of single-mutation neighbours: the moves of every gate's
    three slots.

    Control slots are counted separately even though for an equal-controls
    gate the two slots generate the same set of circuits, so this matches
    neighbour accounting at the genome level (e.g. 580 vs 600 for 20 gates
    on 12 wires).
    """
    if len(circuit) == 0:
        return 0
    return int(_gene_tables(circuit.wires).count[_genes(circuit)].sum())


class _Climb(Sequence):
    """A hill climb's fitness after each evaluation, read from its first hits.

    The climber's fitness never falls, so entry e is the last level first
    reached at or before evaluation e + 1: the climb is held once, as one
    (evaluation, level) pair per level.  It reads as the list it stands for
    (slices are lists, `==` holds against any equal sequence).
    """

    __slots__ = ("_hits", "_levels", "_len")

    def __init__(self, first_hit: dict[int, int], evaluations: int):
        pairs = sorted((ev, fit) for fit, ev in first_hit.items())
        self._hits = tuple(ev for ev, _ in pairs)
        self._levels = tuple(fit for _, fit in pairs)
        self._len = evaluations

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("list index out of range")
        return self._levels[bisect_right(self._hits, i + 1) - 1]

    def __iter__(self):
        ends = self._hits[1:] + (self._len + 1,)
        for level, start, end in zip(self._levels, self._hits, ends):
            yield from repeat(level, end - start)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class RunRecord:
    """Trajectory and outcome of one search run.

    A GA run lists its best fitness per generation.  A hill climb's
    `best_fitness_per_generation` is a read-only view of its fitness after
    each evaluation, read from `first_hit_evaluations`, so a record holds
    one entry per fitness level reached, not one per evaluation.
    """

    best_fitness_per_generation: Sequence[int]
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


def _circuit(genes: Sequence[int], scorer: Scorer) -> Circuit:
    """The circuit of a gene list on `scorer`'s bus."""
    gates = [Gate(*s) for s in _gene_tables(scorer.wires).slots[np.asarray(genes)].tolist()]
    return Circuit(scorer.wires, gates, scorer.target.n_inputs, constant_fill=scorer.constant_fill)


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
    (the initial evaluation counts).  `first_hit_evaluations` maps each
    fitness level to the evaluation that first reached it; the trajectory,
    the current fitness after every evaluation, is a view read from it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if target is None:
        target = six_multiplexor_target()
    scorer = Scorer(start.wires, start.n_inputs, start.constant_fill, target, scoring)
    slots = _gene_tables(start.wires).slots.tolist()
    genome = _genes(start)
    if len(genome) == 0:
        raise ValueError("hill climbing needs at least one gate")
    gates = [slots[gene] for gene in genome]  # the walk reads triples; a step rewrites one
    fit, wire = scorer.score_gates(gates)
    evaluations = 1
    first_hit = {fit: 1}
    max_fit = target.max_fitness
    with _WordDraws(rng) as draws:
        while evaluations < budget and fit < max_fit:
            mutant, cand_gates = genome.copy(), gates.copy()
            gi = _mutate_genes(mutant, start.wires, draws)
            cand_gates[gi] = slots[mutant[gi]]
            cand_fit, cand_wire = scorer.score_gates(cand_gates)
            evaluations += 1
            if cand_fit > fit or (accept_equal and cand_fit == fit):
                genome, gates, fit, wire = mutant, cand_gates, cand_fit, cand_wire
                if fit not in first_hit:
                    first_hit[fit] = evaluations
    solved = fit == max_fit
    return RunRecord(
        best_fitness_per_generation=_Climb(first_hit, evaluations),
        solved=solved,
        evaluations=evaluations,
        solution=_circuit(genome, scorer) if solved else None,
        solution_output_wire=(wire if solved and wire >= 0 else None),
        first_hit_evaluations=first_hit,
    )


@dataclass(frozen=True)
class GAConfig:
    """Generational GA parameters: non-elitist, tournament selection with
    replacement, every child mutated exactly once; spare wires hold 1."""

    wires: int
    length: int
    target: TargetTable
    seed: int
    population: int = 500
    tournament: int = 7
    generations: int = 500
    scoring: WireScoring = DEFAULT_OUTPUT

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
    Each generation mutates the whole population in one vectorised draw.
    """
    rng = np.random.default_rng(config.seed)
    w = config.wires
    scorer = Scorer(w, config.target.n_inputs, 1, config.target, config.scoring)
    codes = _gene_tables(w).code
    tg, ca, cb = gate_arrays(w)
    gate_genes = (tg * w + ca) * w + cb
    pop, length = config.population, config.length
    genomes = gate_genes[rng.integers(0, len(gate_genes), size=(pop, length))]
    fits, wires_out = scorer.score_codes(codes.take(genomes))
    best_per_gen = [int(fits.max())]
    mean_per_gen = [float(fits.mean())]
    evaluations = pop
    generation = 0
    while fits.max() < config.target.max_fitness and generation < config.generations:
        entries = rng.integers(0, pop, size=(pop, config.tournament))
        keys = fits[entries] + rng.random((pop, config.tournament))
        winners = entries[np.arange(pop), np.argmax(keys, axis=1)]
        genomes = genomes[winners]
        _mutate_population(genomes, w, rng)
        fits, wires_out = scorer.score_codes(codes.take(genomes))
        evaluations += pop
        best_per_gen.append(int(fits.max()))
        mean_per_gen.append(float(fits.mean()))
        generation += 1
    solved = bool(fits.max() == config.target.max_fitness)
    solution = solution_wire = None
    if solved:
        idx = int(np.argmax(fits))
        solution = _circuit(genomes[idx], scorer)
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
