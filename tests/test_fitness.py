"""Targets, Hamming fitness (bit-parallel vs case-by-case), RMS error."""

import math
import tracemalloc

import numpy as np
import pytest

from revcirc.core import Circuit, enumerate_gates, random_circuit
from revcirc.fitness import (
    DEFAULT_OUTPUT,
    FitnessValue,
    OutputMap,
    TargetTable,
    hamming_fitness_scalar,
    Scorer,
    rms_error,
    six_multiplexor_target,
)


def reference_mux(t):
    """Independently coded six-multiplexor: explicit address decode."""
    d0, d1, d2, d3 = (t >> 0) & 1, (t >> 1) & 1, (t >> 2) & 1, (t >> 3) & 1
    a0, a1 = (t >> 4) & 1, (t >> 5) & 1
    if a1 == 0 and a0 == 0:
        return d0
    if a1 == 0 and a0 == 1:
        return d1
    if a1 == 1 and a0 == 0:
        return d2
    return d3


def scorer_fitness(circuit, target, scoring=DEFAULT_OUTPUT):
    """(fitness, wire) of a circuit by `Scorer.score_gates`, the bit-parallel walk."""
    scorer = Scorer(circuit.wires, circuit.n_inputs, circuit.constant_fill, target, scoring)
    return scorer.score_gates((g.target, g.control_a, g.control_b) for g in circuit.gates)


def test_six_multiplexor_truth_table():
    target = six_multiplexor_target()
    assert (target.n_inputs, target.m_outputs) == (6, 1)
    assert target.case_count == 64 and target.max_fitness == 64
    for t in range(64):
        assert target.answer(t) == reference_mux(t)
    assert bin(target.rows[0]).count("1") == 32


def test_empty_circuit_fitness_is_forty():
    # Wire 0 of the identity circuit carries D0; count agreements directly.
    expected = sum((t & 1) == reference_mux(t) for t in range(64))
    assert expected == 40
    fv = hamming_fitness_scalar(Circuit(6), six_multiplexor_target())
    assert (fv.raw, fv.max_raw) == (expected, 64)
    assert not fv.solved
    assert scorer_fitness(Circuit(6), six_multiplexor_target()) == (expected, -1)


def test_complement_target_identity():
    """A wire matches the complement target on exactly the cases it misses
    the target, so the two fitness values always sum to the case count."""
    target = six_multiplexor_target()
    complement = TargetTable(6, 1, ((1 << 64) - 1 ^ target.rows[0],))
    rng = np.random.default_rng(21)
    for _ in range(100):
        w = int(rng.integers(6, 10))
        c = random_circuit(w, int(rng.integers(0, 20)), rng, n_inputs=6)
        f, _ = scorer_fitness(c, target)
        g, _ = scorer_fitness(c, complement)
        assert f + g == 64


def test_scalar_oracle_matches_bit_parallel():
    target = six_multiplexor_target()
    rng = np.random.default_rng(22)
    for _ in range(150):
        w = int(rng.integers(6, 13))
        c = random_circuit(w, int(rng.integers(0, 30)), rng, n_inputs=6)
        out = OutputMap((int(rng.integers(0, w)),))
        assert scorer_fitness(c, target, out)[0] == hamming_fitness_scalar(c, target, out).raw


def test_scalar_oracle_multi_output():
    rng = np.random.default_rng(23)
    # Small 3-input, 2-output target exercises multi-bit answers.
    target = TargetTable.from_function(3, 2, lambda t: (t * 5 + 1) % 4)
    for _ in range(60):
        c = random_circuit(5, int(rng.integers(0, 12)), rng, n_inputs=3)
        out = OutputMap((0, 2))
        assert scorer_fitness(c, target, out)[0] == hamming_fitness_scalar(c, target, out).raw


def test_best_wire_is_max_over_wires():
    """"best" scoring gives the lowest wire of maximal case-by-case fitness."""
    target = six_multiplexor_target()
    rng = np.random.default_rng(24)
    for _ in range(80):
        w = int(rng.integers(6, 13))
        c = random_circuit(w, int(rng.integers(0, 25)), rng, n_inputs=6)
        per_wire = [hamming_fitness_scalar(c, target, OutputMap((k,))).raw for k in range(w)]
        assert scorer_fitness(c, target, "best") == (max(per_wire), per_wire.index(max(per_wire)))


def test_best_scoring_picks_the_lowest_of_tied_wires():
    """score_rows under "best" equals the first maximum of the per-wire
    counts, on rows drawn from a small pool so that wires often tie."""
    rng = np.random.default_rng(31)
    for n in (3, 6):
        target = TargetTable.from_function(n, 1, lambda t: (t ^ (t >> 1)) & 1)
        cases = target.case_count
        for wires in (n, n + 1, 12):
            scorer = Scorer(wires, n, 0, target, "best")
            pool = [int(v) for v in rng.integers(0, 1 << cases, size=4, dtype=np.uint64)]
            for _ in range(200):
                rows = [pool[i] for i in rng.integers(0, len(pool), size=wires)]
                fits = [cases - (r ^ target.rows[0]).bit_count() for r in rows]
                first = max(range(wires), key=fits.__getitem__)
                assert scorer.score_rows(rows) == (fits[first], first)


def test_output_map_validation():
    with pytest.raises(ValueError):
        OutputMap((1, 1))
    with pytest.raises(ValueError):
        OutputMap((-1,))
    assert len(DEFAULT_OUTPUT) == 1


def test_value_types_normalise_to_int_tuples():
    table = TargetTable(2, 2, [np.uint64(5), np.int64(10)])
    assert table.rows == (5, 10) and all(type(r) is int for r in table.rows)
    with pytest.raises(ValueError, match="output rows"):
        TargetTable(2, 2, (5,))
    with pytest.raises(ValueError, match="beyond"):
        TargetTable(2, 1, (1 << 4,))
    out = OutputMap([np.int64(3), 1])
    assert out.wire_of_output == (3, 1) and all(type(w) is int for w in out.wire_of_output)
    with pytest.raises(ValueError, match="distinct"):
        OutputMap([np.int64(2), 2])


def test_fitness_checks_compatibility():
    target = six_multiplexor_target()
    with pytest.raises(ValueError):
        hamming_fitness_scalar(Circuit(6, n_inputs=5), target)  # wrong input count
    with pytest.raises(ValueError):
        hamming_fitness_scalar(Circuit(6), target, OutputMap((6,)))  # wire off bus
    with pytest.raises(ValueError):
        hamming_fitness_scalar(Circuit(6), target, OutputMap((0, 1)))  # arity mismatch
    for circuit in (Circuit(6, n_inputs=5), Circuit(7)):  # wrong input count
        with pytest.raises(ValueError, match="6 inputs"):
            scorer_fitness(circuit, target, "best")


def test_no_spare_fitness_is_always_even():
    target = six_multiplexor_target()
    rng = np.random.default_rng(25)
    for _ in range(300):
        c = random_circuit(6, int(rng.integers(0, 40)), rng)
        w = int(rng.integers(0, 6))
        assert scorer_fitness(c, target, OutputMap((w,)))[0] % 2 == 0


def test_one_spare_frees_odd_values():
    # Odd values appear only once circuits are deep enough for the output's
    # algebraic normal form to reach full degree; by length 60 they are
    # common (roughly 45% of draws).
    target = six_multiplexor_target()
    rng = np.random.default_rng(26)
    odd = sum(
        scorer_fitness(random_circuit(7, 60, rng, n_inputs=6), target)[0] % 2
        for _ in range(60)
    )
    assert odd >= 10


def test_rms_error_definition():
    """rms^2 * cases equals the summed squared integer error."""
    out = OutputMap((1, 3))
    rng = np.random.default_rng(27)
    for _ in range(40):
        c = random_circuit(4, int(rng.integers(0, 10)), rng, n_inputs=3)
        cases = [(t, (7 * t + 2) % 4) for t in range(8)]
        rms = rms_error(c, cases, out)
        total = 0.0
        for t, answer in cases:
            state = t | (c.constant_fill << 3)
            for g in c.gates:
                state = g.apply_to_state(state)
            got = ((state >> 1) & 1) | (((state >> 3) & 1) << 1)
            total += (got - answer) ** 2
        assert rms == pytest.approx(math.sqrt(total / 8))


def test_rms_error_validation():
    out = OutputMap((0, 1))
    with pytest.raises(ValueError):
        rms_error(Circuit(3), [], out)
    with pytest.raises(ValueError):
        rms_error(Circuit(3), [(9, 0)], out)  # input outside case range
    with pytest.raises(ValueError):
        rms_error(Circuit(3), [(0, 4)], out)  # answer needs 3 bits
    with pytest.raises(ValueError, match="outside the bus"):
        rms_error(Circuit(6), [(0, 0)], OutputMap((9,)))
    assert rms_error(Circuit(3), [(0, 0)], OutputMap((0,))) == 0.0


def test_target_table_text_round_trip():
    target = six_multiplexor_target()
    again = TargetTable.from_text(target.to_text())
    assert again == target
    small = TargetTable.from_function(3, 2, lambda t: t % 4)
    assert TargetTable.from_text(small.to_text()) == small


def test_target_table_text_validation():
    with pytest.raises(ValueError, match="empty target table"):
        TargetTable.from_text("")
    with pytest.raises(ValueError):
        TargetTable.from_text("not a header\n")
    with pytest.raises(ValueError):
        TargetTable.from_text("2 1\n0\n1\n")  # 4 case lines needed
    with pytest.raises(ValueError):
        TargetTable.from_text("2 1\n0\n1\nx\n0\n")
    with pytest.raises(ValueError):
        TargetTable.from_text("2 2\n00\n01\n1\n11\n")  # short bit row
    with pytest.raises(ValueError, match="n_inputs=-1"):
        TargetTable.from_text("-1 1\n0\n")
    with pytest.raises(ValueError, match="m_outputs=0"):
        TargetTable(6, 0, ())  # its fitness would be 0 of 0 cases


@pytest.mark.parametrize("text,message", [
    ("134217728 1\n", r"expected 2\^134217728 case lines, got 0"),
    ("2 100000000\n", r"expected 2\^2 case lines, got 0"),
    ("2 100000000\n0\n1\n1\n0\n", "case line 0: expected 100000000 bits, got 1"),
])
def test_target_table_text_refuses_huge_headers_before_sizing_anything(text, message):
    """A header's n is checked against the case lines given, and its m
    against a case line's bits, before 2^n or m sizes anything, so each
    refusal traces under 1 MiB.  Shifting first built a 2^27-bit integer
    and died converting it to text; m rows made first took 1.7 GB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            TargetTable.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_fitness_value_properties():
    fv = FitnessValue(64, 64)
    assert fv.solved
    assert not FitnessValue(0, 64).solved


@pytest.mark.parametrize("batch", [8192, 32768])
@pytest.mark.parametrize("wires", [6, 7, 12])
def test_score_codes_holds_little_beyond_its_codes(wires, batch):
    """One `Scorer.score_codes` call on a sampler-sized batch of 20-gate
    circuits under the default map peaks at under 1.5 MiB of traced memory
    beyond its codes (about 1.1 MiB at most): both kernels walk the batch in
    row blocks and index blocks of fixed size, and the forward one keeps
    only the mapped rows.  Whole-batch index blocks and a (B, W) bus took
    2.6-6.6 MiB at these shapes."""
    scorer = Scorer(wires, 6, 1, six_multiplexor_target(), DEFAULT_OUTPUT)
    rng = np.random.default_rng(wires)
    codes = rng.integers(0, len(enumerate_gates(wires)), size=(batch, 20), dtype=np.uint16)
    scorer.score_codes(codes[:1])  # builds the cached gate tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        scorer.score_codes(codes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
