"""Mutation, neighborhoods, hill climbing, the GA, and effort measures."""

import contextlib
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from revcirc.core import Circuit, Gate, enumerate_gates, evaluate, random_circuit
from revcirc.fitness import (
    OutputMap,
    Scorer,
    TargetTable,
    hamming_fitness_scalar,
    six_multiplexor_target,
)
from revcirc import search
from revcirc.search import (
    GAConfig,
    RunRecord,
    _WordDraws,
    _circuit,
    _gene_tables,
    _genes,
    _mutate_genes,
    _mutate_population,
    evolve,
    hill_climb,
    koza_effort,
    mutate,
    neighborhood_size,
)

TARGET = six_multiplexor_target()


def gate_slots(g):
    return (g.target, g.control_a, g.control_b)


def scalar_fitness(circuit, target, scoring):
    """(fitness, wire) by the case-by-case oracle: under "best" the lowest
    wire of maximal fitness, under a fixed map wire -1."""
    if scoring != "best":
        return hamming_fitness_scalar(circuit, target, scoring).raw, -1
    fits = [hamming_fitness_scalar(circuit, target, OutputMap((w,))).raw
            for w in range(circuit.wires)]
    return max(fits), fits.index(max(fits))


def test_mutation_changes_exactly_one_slot_and_stays_legal():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        w = int(rng.integers(3, 13))
        c = random_circuit(w, int(rng.integers(1, 15)), rng)
        m = mutate(c, rng)
        assert m.wires == c.wires and len(m) == len(c)
        diffs = [i for i in range(len(c)) if c.gates[i] != m.gates[i]]
        assert len(diffs) == 1
        g = m.gates[diffs[0]]
        assert 0 <= g.target < w and g.target not in (g.control_a, g.control_b)
        assert g.control_a <= g.control_b
    with pytest.raises(ValueError):
        mutate(Circuit(6), rng)  # nothing to mutate


def test_mutation_never_returns_the_same_circuit():
    rng = np.random.default_rng(42)
    for _ in range(3000):
        c = random_circuit(int(rng.integers(3, 8)), int(rng.integers(1, 6)), rng)
        assert mutate(c, rng) != c


def gene(wires, t, a, b):
    return (t * wires + a) * wires + b


@pytest.mark.parametrize("wires", [3, 4, 6])
def test_gene_tables_match_brute_force(wires):
    """Every gene's gate code is its gate's position in enumerate_gates, and
    each slot's moves are exactly the legal one-slot rewrites to another
    wire, ascending by the new wire."""
    tables = _gene_tables(wires)
    gates = enumerate_gates(wires)
    for t in range(wires):
        for a in range(wires):
            for b in range(wires):
                s = gene(wires, t, a, b)
                assert tables.slots[s].tolist() == [t, a, b]
                if t in (a, b):
                    assert tables.code[s] == -1
                    continue
                assert gates[tables.code[s]] == Gate(t, a, b)
                for k in range(3):
                    want = []
                    for w in range(wires):
                        triple = [t, a, b]
                        triple[k] = w
                        if w != [t, a, b][k] and triple[0] not in triple[1:]:
                            want.append(gene(wires, *triple))
                    n = tables.count[s, k]
                    assert tables.moves[s, k, :n].tolist() == want


# Parent genomes as slot triples, mixing distinct and shared controls; the
# 3-wire gates with distinct controls have a target slot with no legal wire.
POPULATION_PARENTS = {
    3: [[0, 1, 2], [2, 0, 0], [1, 2, 0]],
    4: [[0, 1, 2], [3, 1, 1], [2, 3, 0]],
    6: [[0, 1, 2], [5, 3, 3], [4, 0, 5], [1, 2, 2]],
    12: [[0, 1, 2], [11, 7, 7], [4, 9, 3], [6, 5, 10]],
}


def single_move(wires, parent, child):
    """(gate, slot, new wire) of a child gene array differing from its
    parent in exactly one slot; fails on any other child or an illegal
    gate."""
    slots = _gene_tables(wires).slots
    parent, child = slots[parent], slots[child]
    gi, slot = np.nonzero(child != parent)
    assert len(gi) == 1
    t, a, b = child[gi[0]]
    assert t != a and t != b
    return int(gi[0]), int(slot[0]), int(child[gi[0], slot[0]])


@pytest.mark.parametrize("wires", sorted(POPULATION_PARENTS))
def test_population_mutation_matches_scalar_operator(wires):
    """The GA's one-draw population mutation makes the same moves with the
    same frequencies as the one-at-a-time operator: a two-sample
    contingency test of (gate, slot, new wire) counts at fixed seeds."""
    parent = np.array([gene(wires, *g) for g in POPULATION_PARENTS[wires]])
    n = 12_000
    rng = np.random.default_rng(wires)
    batch = np.repeat(parent[None], n, axis=0)
    _mutate_population(batch, wires, rng)
    scalar = []
    for _ in range(n):
        child = parent.copy()
        _mutate_genes(child, wires, rng)
        scalar.append(single_move(wires, parent, child))
    vector = [single_move(wires, parent, child) for child in batch]
    moves = sorted(set(scalar) | set(vector))
    table = np.array([
        [scalar.count(m) for m in moves], [vector.count(m) for m in moves]
    ])
    assert set(vector) == set(scalar)
    assert chi2_contingency(table).pvalue > 0.01


def gates_line(circuit):
    return " ".join(f"{g.target},{g.control_a},{g.control_b}" for g in circuit.gates)


def record_lines(rec):
    return [
        repr(rec.best_fitness_per_generation),
        repr(rec.mean_fitness_per_generation),
        repr(sorted(rec.first_hit_evaluations.items())),
        f"{rec.solved} {rec.evaluations} {rec.solution_output_wire}",
        "" if rec.solution is None else gates_line(rec.solution),
    ]


def mutate_chain_lines():
    rng = np.random.default_rng(2024)
    lines = []
    for wires in (3, 4, 6, 12):
        c = random_circuit(wires, 8, rng)
        for _ in range(250):
            c = mutate(c, rng)
            lines.append(gates_line(c))
    return lines


def evolve_lines():
    return record_lines(evolve(GAConfig(
        wires=6, length=5, target=TARGET, seed=9, population=60, tournament=5,
        generations=40,
    )))


def hill_climb_lines():
    lines = []
    runs = ((6, 5, OutputMap((0,)), 10), (12, 20, "best", 11))
    for wires, gates, scoring, seed in runs:
        start = random_circuit(wires, gates, np.random.default_rng(seed), n_inputs=6)
        rng = np.random.default_rng(seed + 100)
        lines += record_lines(hill_climb(start, 3000, rng, TARGET, scoring))
    return lines


# SHA-256 of fixed-seed search runs.  The `mutate` and `hill_climb` pins
# date from when `mutate` still had its own slot helpers beside the genome
# operator: the one scalar operator must consume the generator identically
# and make the same moves.  The `evolve` pin was re-recorded when the GA
# moved to the one-draw population mutation, which makes the same moves
# with the same frequencies (test above) from a different generator stream.
SEARCH_DIGESTS = {
    "mutate": "cb66b50ea65385e44b1cdbdf6d2a050dd7416004ffe5a8657ac421dea0779bae",
    "evolve": "edb5cabc241befe363cb88868943f077cc27177a7bdcc9aebaf276671ce0fb1e",
    "hill_climb": "a1bff615b48fc7ec90a7373335d9244e0db890bd192c16ec5d196ee4f6e83329",
}


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_trajectories_are_pinned(name):
    lines = {
        "mutate": mutate_chain_lines, "evolve": evolve_lines,
        "hill_climb": hill_climb_lines,
    }[name]()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SEARCH_DIGESTS[name]


def ordered_triple_neighbourhood(circuit):
    """Brute force: all (gate index, ordered slot triple) pairs reachable by
    rewriting exactly one slot to a different legal wire."""
    seen = set()
    for i, g in enumerate(circuit.gates):
        t, a, b = g.target, g.control_a, g.control_b
        for nt in range(circuit.wires):
            if nt not in (t, a, b):
                seen.add((i, (nt, a, b)))
        for na in range(circuit.wires):
            if na not in (a, t):
                seen.add((i, (t, na, b)))
        for nb in range(circuit.wires):
            if nb not in (b, t):
                seen.add((i, (t, a, nb)))
    return len(seen)


def test_neighborhood_size_reference_values():
    # 20 gates on 12 wires: 29 rewrites per distinct-control gate, 30 per
    # shared-control gate.
    distinct = Circuit(12, [Gate(0, 1, 2)] * 20)
    shared = Circuit(12, [Gate(0, 1, 1)] * 20)
    assert neighborhood_size(distinct) == 580
    assert neighborhood_size(shared) == 600
    assert neighborhood_size(Circuit(6, [Gate(0, 1, 2)] * 5)) == 55


def test_neighborhood_size_matches_brute_force():
    rng = np.random.default_rng(43)
    for wires in (6, 12):
        for _ in range(100):
            c = random_circuit(wires, int(rng.integers(1, 8)), rng)
            assert neighborhood_size(c) == ordered_triple_neighbourhood(c)


def test_neighborhood_of_empty_circuit_is_empty():
    assert neighborhood_size(Circuit(6)) == 0


def test_hill_climb_is_deterministic_and_bounded():
    rng1 = np.random.default_rng(44)
    start1 = random_circuit(6, 5, rng1)
    rec1 = hill_climb(start1, 400, rng1, target=TARGET)
    rng2 = np.random.default_rng(44)
    start2 = random_circuit(6, 5, rng2)
    rec2 = hill_climb(start2, 400, rng2, target=TARGET)
    assert rec1.best_fitness_per_generation == rec2.best_fitness_per_generation
    assert rec1.evaluations <= 400
    best = rec1.best_fitness_per_generation
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert rec1.first_hit_evaluations[best[-1]] <= rec1.evaluations


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
                  np.random.PCG64DXSM]
# Bounds from 1 to 2^32, including ones that reject about half their words.
WORD_BOUNDS = [1, 2, 3, 5, 20, 90, 1000, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30,
               2**32 - 1, 2**32]


def same_state(a, b) -> bool:
    """Bit-generator states (nested dicts, arrays for MT19937) compared."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_word_draws_match_scalar_integers(bit_generator):
    """`_WordDraws.integers(0, n)` gives what the scalar
    `Generator.integers(0, n)` gives, draw for draw, and leaves the generator
    in the same state, with half a 64-bit word buffered before the run and
    across several blocks of words."""
    bounds = np.random.default_rng(7).choice(WORD_BOUNDS, size=3 * _WordDraws.BLOCK).tolist()
    scalar, blocked = (np.random.Generator(bit_generator(11)) for _ in range(2))
    for rng in (scalar, blocked):
        rng.integers(0, 7)  # leaves half a 64-bit word buffered
    want = [int(scalar.integers(0, n)) for n in bounds]
    with _WordDraws(blocked) as draws:
        got = [draws.integers(0, n) for n in bounds]
    assert got == want
    assert same_state(blocked.bit_generator.state, scalar.bit_generator.state)
    assert blocked.integers(0, 2**63) == scalar.integers(0, 2**63)
    with _WordDraws(blocked):  # no draw: the generator is untouched
        pass
    assert same_state(blocked.bit_generator.state, scalar.bit_generator.state)
    for bad in (0, 2**32 + 1):
        with pytest.raises(ValueError):
            _WordDraws(blocked).integers(0, bad)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS[:2], ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("stop_after", [None, 700])
def test_hill_climb_leaves_the_generator_where_scalar_draws_would(
        monkeypatch, bit_generator, stop_after):
    """`hill_climb` makes the moves, and leaves the caller's generator in the
    state, that one scalar `Generator.integers` call per draw would, also
    when a run ends in an exception (`stop_after` evaluations)."""
    calls = 0
    score_gates = Scorer.score_gates

    def counted_score_gates(self, gates):
        nonlocal calls
        calls += 1
        if calls == stop_after:
            raise KeyboardInterrupt
        return score_gates(self, gates)

    monkeypatch.setattr(Scorer, "score_gates", counted_score_gates)
    runs = []
    for source in (search._WordDraws, contextlib.nullcontext):
        monkeypatch.setattr(search, "_WordDraws", source)
        calls = 0
        rng = np.random.Generator(bit_generator(48))
        start = random_circuit(12, 20, rng, n_inputs=6)
        try:
            rec = hill_climb(start, 1500, rng, target=TARGET, scoring="best")
            runs.append((rec.best_fitness_per_generation, rec.first_hit_evaluations))
        except KeyboardInterrupt:
            runs.append(calls)
        runs.append(rng.bit_generator.state)
    assert runs[0] == runs[2]
    assert same_state(runs[1], runs[3])


def reference_climb(start, rng, budget, scoring, accept_equal):
    """The climb as a list, one entry per evaluation: a plain loop drawing
    its moves from the generator one scalar call at a time and scoring each
    circuit whole, case by case."""
    scorer = Scorer(start.wires, start.n_inputs, start.constant_fill, TARGET, scoring)

    def score(genes):
        return scalar_fitness(_circuit(genes, scorer), TARGET, scoring)[0]

    genes = _genes(start)
    fit = score(genes)
    trajectory = [fit]
    while len(trajectory) < budget and fit < TARGET.max_fitness:
        mutant = genes.copy()
        _mutate_genes(mutant, start.wires, rng)
        cand = score(mutant)
        if cand > fit or (accept_equal and cand == fit):
            genes, fit = mutant, cand
        trajectory.append(fit)
    return trajectory


@pytest.mark.parametrize("accept_equal", [True, False])
@pytest.mark.parametrize("wires,gates,scoring,budget", [
    (6, 5, OutputMap((0,)), 1500), (12, 20, "best", 1500),
])
def test_hill_climb_trajectory_reads_as_the_list_it_stands_for(
        wires, gates, scoring, budget, accept_equal):
    """A climb's trajectory, kept as its first hits, reads as the list a
    plain per-evaluation loop builds: items, slices, equality both ways,
    repr, max and length."""
    def fresh():
        rng = np.random.default_rng(49)
        return random_circuit(wires, gates, rng, n_inputs=6), rng

    start, rng = fresh()
    rec = hill_climb(start, budget, rng, TARGET, scoring, accept_equal)
    want = reference_climb(*fresh(), budget, scoring, accept_equal)
    view = rec.best_fitness_per_generation
    assert list(view) == want
    assert len(view) == rec.evaluations == len(want)
    assert view == want and want == view and view == tuple(want)
    assert view != want[:-1] and view != want[:-1] + [want[-1] + 1]
    assert view.__eq__(5) is NotImplemented and (view == 5) is False
    assert repr(view) == repr(want)
    assert max(view) == max(want)
    assert view[0] == want[0] and view[-1] == want[-1]
    assert [view[i] for i in range(-len(want), len(want))] == want + want
    for s in (slice(None), slice(1, None), slice(None, None, 7), slice(-100, None, 3),
              slice(None, None, -1), slice(len(want) - 3, 2, -5), slice(5, 5)):
        assert view[s] == want[s] and type(view[s]) is list
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            view[bad]


def test_hill_climb_record_holds_its_climb_once():
    """A record keeps one entry per fitness level, not one per evaluation:
    a 5,000-evaluation climb (6 wires x 5 gates has no solution, so every
    evaluation runs) retains about a kilobyte, where a list would take
    40 KB.  A first traced climb fills the caches and the interpreter's
    free lists, so the second one's growth is its record alone."""
    start = random_circuit(6, 5, np.random.default_rng(50))
    rng = np.random.default_rng(51)
    tracemalloc.start()
    try:
        hill_climb(start, 5000, np.random.default_rng(50), target=TARGET)
        before = tracemalloc.get_traced_memory()[0]
        rec = hill_climb(start, 5000, rng, target=TARGET)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec.evaluations == 5000 and not rec.solved
    assert retained < 4096


def test_hill_climb_rejects_worse_mutants():
    rng = np.random.default_rng(45)
    for _ in range(10):
        start = random_circuit(6, 5, rng)
        rec = hill_climb(start, 300, rng, target=TARGET)
        traj = rec.best_fitness_per_generation
        assert traj[-1] == max(traj)


def test_neutral_drift_beats_strict_acceptance():
    """Strict better-only acceptance strands runs on the first plateau;
    accepting equal-fitness mutants keeps them moving.  The margin is large
    at 6 wires x 5 gates, so 25 paired runs are plenty."""
    neutral_total = strict_total = 0
    for r in range(25):
        rng = np.random.default_rng(np.random.SeedSequence([46, r]))
        start = random_circuit(6, 5, rng)
        rec = hill_climb(start, 1500, rng, target=TARGET, accept_equal=True)
        neutral_total += rec.best_fitness_per_generation[-1]
        rng = np.random.default_rng(np.random.SeedSequence([46, r]))
        start = random_circuit(6, 5, rng)
        rec = hill_climb(start, 1500, rng, target=TARGET, accept_equal=False)
        strict_total += rec.best_fitness_per_generation[-1]
    assert neutral_total > strict_total + 25  # > +1 fitness per run on average


def test_hill_climb_best_wire_scoring():
    rng = np.random.default_rng(47)
    start = random_circuit(6, 5, rng)
    rec = hill_climb(start, 500, rng, target=TARGET, scoring="best")
    assert 0 <= rec.best_fitness_per_generation[-1] <= 64


def test_best_wire_scoring_reports_the_lowest_tied_wire():
    # A gate and its repeat cancel, leaving every input wire as it was: the
    # four data wires of the multiplexor tie at the best fitness.
    g = Gate(6, 0, 1)
    circuit = Circuit(7, [g, g], n_inputs=6)
    fits = [
        hamming_fitness_scalar(circuit, TARGET, OutputMap((w,))).raw
        for w in range(7)
    ]
    tied = [w for w, f in enumerate(fits) if f == max(fits)]
    assert len(tied) >= 2
    scorer = Scorer(7, 6, 1, TARGET, "best")
    assert scorer.score_gates(map(gate_slots, circuit.gates)) == (max(fits), tied[0])
    best, wire = scorer.score_codes(_gene_tables(7).code.take([_genes(circuit)]))
    assert (int(best[0]), int(wire[0])) == (max(fits), tied[0])


# Targets whose inputs leave fill wires free on 4 and 6 wires.
THREE_INPUT_PAIR = TargetTable.from_function(3, 2, lambda t: (3 * t + 1) & 3)
FOUR_INPUT = TargetTable.from_function(4, 1, lambda t: (t >> (t >> 2)) & 1)

# (wires, target, fill, scoring): fixed maps on up to 6 wires are pulled
# back on one word per circuit, the rest run forward.
POPULATION_SCORING = [
    (4, THREE_INPUT_PAIR, 0, OutputMap((3, 1))),
    (4, THREE_INPUT_PAIR, 1, OutputMap((3, 1))),
    (6, TARGET, 1, OutputMap((0,))),
    (6, FOUR_INPUT, 0, OutputMap((5,))),
    (6, FOUR_INPUT, 1, OutputMap((5,))),
    (6, TARGET, 1, "best"),
    (7, TARGET, 0, OutputMap((6,))),
    (7, TARGET, 1, "best"),
    (12, TARGET, 1, OutputMap((2,))),
    (12, TARGET, 1, "best"),
    (7, THREE_INPUT_PAIR, 1, OutputMap((6, 2))),  # forward, two outputs out of wire order
]


@pytest.mark.parametrize("wires,target,fill,scoring", POPULATION_SCORING)
def test_score_population_matches_the_fitness_functions(wires, target, fill, scoring):
    """A random population of genes (controls in either order) scores, by
    `Scorer.score_codes` on its gate codes, what the case-by-case oracle
    `hamming_fitness_scalar` and `Scorer.score_gates` give its circuits, and
    `Scorer.final_rows` gives the rows `evaluate` leaves on the wires read:
    every wire under "best", else the mapped wires in map order."""
    scorer = Scorer(wires, target.n_inputs, fill, target, scoring)
    rng = np.random.default_rng(wires + fill)
    legal = np.flatnonzero(_gene_tables(wires).code >= 0)
    genomes = rng.choice(legal, size=(60, 9))
    codes = _gene_tables(wires).code.take(genomes)
    fits, best_wires = scorer.score_codes(codes)
    rows = scorer.final_rows(codes)
    read = range(wires) if scoring == "best" else scoring.wire_of_output
    assert rows.dtype == np.uint64 and rows.shape == (len(genomes), len(read))
    for genome, fit, wire, row in zip(genomes, fits, best_wires, rows):
        circuit = _circuit(genome, scorer)
        assert row.tolist() == [evaluate(circuit).wire_rows[w] for w in read]
        assert (fit, wire) == scalar_fitness(circuit, target, scoring)
        assert (fit, wire) == scorer.score_gates(map(gate_slots, circuit.gates))


# 7 inputs, 128 cases: rows no longer fit a machine word.
WIDE_TARGET = TargetTable.from_function(7, 1, lambda t: ((t >> 6) ^ (t >> (t >> 4 & 3))) & 1)


@pytest.mark.parametrize("scoring", [OutputMap((7,)), "best"], ids=["wire7", "best"])
def test_wide_target_search_scores_like_the_fitness_functions(monkeypatch, scoring):
    """Past 64 cases `Scorer.score_codes` walks each circuit through
    `Scorer.score_gates`, which the hill climber calls directly.  Every
    genome `evolve` and `hill_climb` score must get the fitness (and wire)
    that the case-by-case oracle `hamming_fitness_scalar` gives its circuit.
    `Scorer.final_rows`, one word per row, refuses such a target."""
    with pytest.raises(ValueError, match="up to 64 cases"):
        Scorer(8, 7, 1, WIDE_TARGET, scoring).final_rows(np.zeros((1, 1), dtype=np.intp))
    scored = []
    score_gates = Scorer.score_gates

    def recording_score_gates(self, gates):
        gates = list(gates)
        result = score_gates(self, gates)
        circuit = Circuit(self.wires, [Gate(*g) for g in gates], self.target.n_inputs,
                          constant_fill=self.constant_fill)
        scored.append((circuit, result))
        return result

    score_codes = Scorer.score_codes

    def checked_score_codes(self, gate_codes):
        first = len(scored)
        fits, wires = score_codes(self, gate_codes)
        assert list(zip(fits.tolist(), wires.tolist())) == [r for _, r in scored[first:]]
        return fits, wires

    monkeypatch.setattr(Scorer, "score_gates", recording_score_gates)
    monkeypatch.setattr(Scorer, "score_codes", checked_score_codes)
    ga = evolve(GAConfig(wires=8, length=10, target=WIDE_TARGET, seed=3, population=20,
                         generations=4, scoring=scoring))
    rng = np.random.default_rng(51)
    start = random_circuit(8, 10, rng, n_inputs=7)
    hc = hill_climb(start, 60, rng, target=WIDE_TARGET, scoring=scoring)
    assert len(scored) == ga.evaluations + hc.evaluations
    for circuit, (fit, wire) in scored:
        best, best_wire = scalar_fitness(circuit, WIDE_TARGET, "best")
        if scoring == "best":
            assert (fit, wire) == (best, best_wire)
        else:
            assert (fit, wire) == scalar_fitness(circuit, WIDE_TARGET, scoring)
            assert fit <= best


def test_hill_climb_validates_budget():
    rng = np.random.default_rng(48)
    start = random_circuit(6, 5, rng)
    with pytest.raises(ValueError):
        hill_climb(start, 0, rng, target=TARGET)


def test_hill_climb_rejects_input_width_mismatch():
    # A 12-wire start circuit defaults to 12 input wires; scoring it
    # against a 6-input table would compare incompatible case counts.
    rng = np.random.default_rng(49)
    start = random_circuit(12, 20, rng)
    with pytest.raises(ValueError, match="6 inputs"):
        hill_climb(start, 100, rng, target=TARGET)


def test_search_rejects_output_wire_outside_the_bus():
    rng = np.random.default_rng(50)
    start = random_circuit(6, 5, rng, n_inputs=6)
    with pytest.raises(ValueError, match="outside the bus"):
        hill_climb(start, 10, rng, target=TARGET, scoring=OutputMap((9,)))
    cfg = GAConfig(wires=6, length=5, target=TARGET, seed=1, population=10,
                   generations=1, scoring=OutputMap((6,)))
    with pytest.raises(ValueError, match="outside the bus"):
        evolve(cfg)


def test_ga_is_deterministic():
    cfg = GAConfig(wires=6, length=5, target=TARGET, seed=77, population=40,
                   tournament=5, generations=12)
    a, b = evolve(cfg), evolve(cfg)
    assert a.best_fitness_per_generation == b.best_fitness_per_generation
    assert a.mean_fitness_per_generation == b.mean_fitness_per_generation
    assert a.evaluations == b.evaluations == 40 * len(a.best_fitness_per_generation)


def test_ga_records_are_consistent():
    cfg = GAConfig(wires=7, length=8, target=TARGET, seed=78, population=30,
                   tournament=4, generations=10)
    rec = evolve(cfg)
    assert len(rec.best_fitness_per_generation) <= 11
    for best, mean in zip(rec.best_fitness_per_generation,
                          rec.mean_fitness_per_generation):
        assert mean <= best <= 64
    assert not rec.solved or rec.solution is not None


def test_ga_solution_is_independently_verified():
    # Best-wire scoring on a wide bus solves quickly; re-check the returned
    # circuit case by case.
    cfg = GAConfig(wires=12, length=20, target=TARGET, seed=403, scoring="best")
    rec = evolve(cfg)
    assert rec.solved
    check = hamming_fitness_scalar(
        rec.solution, TARGET, OutputMap((rec.solution_output_wire,))
    )
    assert check.solved
    assert rec.solution.n_inputs == 6


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GAConfig(wires=6, length=0, target=TARGET, seed=1)
    with pytest.raises(ValueError):
        GAConfig(wires=6, length=5, target=TARGET, seed=1, population=0)
    with pytest.raises(ValueError):
        GAConfig(wires=6, length=5, target=TARGET, seed=1, tournament=0)


def make_record(solve_gen, total_gens=50):
    best = [40] * (total_gens + 1)
    if solve_gen is not None:
        for g in range(solve_gen, total_gens + 1):
            best[g] = 64
        best = best[: solve_gen + 1]
    return RunRecord(best_fitness_per_generation=best,
                     solved=solve_gen is not None,
                     evaluations=0)


def test_koza_effort_textbook_example():
    # Half the runs solved by generation 9 with population 500:
    # R = ceil(ln(0.01)/ln(0.5)) = 7, so effort = 500 * 10 * 7 = 35000.
    runs = [make_record(9) for _ in range(5)] + [make_record(None) for _ in range(5)]
    assert koza_effort(runs, population=500) == 35_000


def test_koza_effort_all_solved_immediately():
    runs = [make_record(0) for _ in range(10)]
    assert koza_effort(runs, population=500) == 500


def test_koza_effort_requires_a_success():
    with pytest.raises(ValueError):
        koza_effort([make_record(None)], population=500)
    with pytest.raises(ValueError):
        koza_effort([], population=500)


def test_koza_effort_minimizes_over_generations():
    # One run solves at 1, the rest at 30: evaluating at i=1 gives
    # P=0.1 -> R=44 -> 500*2*44 = 44000; at i=30 P=1 -> 500*31 = 15500.
    runs = [make_record(1)] + [make_record(30) for _ in range(9)]
    assert koza_effort(runs, population=500) == 15_500


def _koza_effort_every_generation(runs, population, z):
    """Reference: I(M, i, z) evaluated at every generation up to the
    longest run, the minimum kept."""
    max_fit = max(max(r.best_fitness_per_generation) for r in runs)
    solve_gens = [r.solve_generation(max_fit) if r.solved else None for r in runs]
    best = None
    for i in range(max(len(r.best_fitness_per_generation) for r in runs)):
        p = sum(1 for g in solve_gens if g is not None and g <= i) / len(runs)
        if p == 0:
            continue
        r_needed = 1 if p >= 1 else math.ceil(math.log(1 - z) / math.log(1 - p))
        effort = population * (i + 1) * max(1, r_needed)
        if best is None or effort < best:
            best = effort
    return best


@pytest.mark.parametrize("z", [0.5, 0.9, 0.99])
def test_koza_effort_matches_every_generation_reference(z):
    """Trying only solve generations gives the all-generations minimum, on
    record sets with tied solve generations and unsolved runs of any length."""
    rng = np.random.default_rng(2022)
    for _ in range(1000):
        n_runs = int(rng.integers(1, 13))
        gens = rng.integers(0, 8, size=n_runs)  # few values, so ties are common
        solved = rng.random(n_runs) < rng.random()
        solved[rng.integers(0, n_runs)] = True
        runs = [make_record(int(g) if s else None, total_gens=int(t))
                for g, s, t in zip(gens, solved, rng.integers(8, 16, size=n_runs))]
        population = int(rng.integers(1, 600))
        assert koza_effort(runs, population, z) == _koza_effort_every_generation(
            runs, population, z)


def test_solve_generation_helper():
    rec = make_record(3)
    assert rec.solve_generation(64) == 3
    assert make_record(None).solve_generation(64) is None
