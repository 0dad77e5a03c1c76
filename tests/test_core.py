"""Gates, circuits, bit-parallel evaluation, permutations, text format."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from revcirc.core import (
    EVALUATE_INDEX_BLOCK,
    Circuit,
    Gate,
    enumerate_gates,
    evaluate,
    evaluate_batch,
    format_circuit,
    output_row_batch,
    parse_circuit,
    parse_circuits,
    random_circuit,
    row_block,
    to_permutation,
    wire_patterns,
)
from revcirc.fitness import OutputMap, Scorer, TargetTable


def brute_force_gates(wires):
    """All distinct gates by direct dedup over ordered (target, a, b)."""
    seen = set()
    for t in range(wires):
        for a in range(wires):
            for b in range(wires):
                if t == a or t == b:
                    continue
                seen.add((t, min(a, b), max(a, b)))
    return seen


def test_gate_count_formula():
    for w in range(3, 17):
        expected = w * ((w - 1) * (w - 2) // 2 + (w - 1))
        assert len(enumerate_gates(w)) == expected
    assert len(enumerate_gates(3)) == 9
    assert len(enumerate_gates(6)) == 90
    assert len(enumerate_gates(12)) == 792


def test_gate_enumeration_matches_brute_force():
    for w in range(3, 8):
        gates = {(g.target, g.control_a, g.control_b) for g in enumerate_gates(w)}
        assert gates == brute_force_gates(w)


def test_gate_enumeration_needs_three_wires():
    with pytest.raises(ValueError):
        enumerate_gates(2)
    with pytest.raises(ValueError):
        enumerate_gates(0)


def test_gate_validation_and_canonical_controls():
    g = Gate(target=0, control_a=2, control_b=1)
    assert (g.control_a, g.control_b) == (1, 2)
    assert Gate(1, 0, 0).control_a == 0  # shared controls allowed (CNOT)
    with pytest.raises(ValueError):
        Gate(1, 1, 2)
    with pytest.raises(ValueError):
        Gate(2, 0, 2)
    with pytest.raises(ValueError):
        Gate(-1, 0, 1)


def test_gate_apply_to_state_truth_table():
    # T(1,2)>0 on three wires: flips bit 0 iff bits 1 and 2 are both set,
    # i.e. it swaps states 6 and 7 and fixes everything else.
    g = Gate(0, 1, 2)
    images = [g.apply_to_state(s) for s in range(8)]
    assert images == [0, 1, 2, 3, 4, 5, 7, 6]
    # Shared-control gate T(1,1)>0 is a CNOT: flips bit 0 iff bit 1 is set.
    cnot = Gate(0, 1, 1)
    assert [cnot.apply_to_state(s) for s in range(4)] == [0, 1, 3, 2]


def test_gate_is_self_inverse():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = int(rng.integers(3, 9))
        gates = enumerate_gates(w)
        g = gates[int(rng.integers(len(gates)))]
        s = int(rng.integers(1 << w))
        assert g.apply_to_state(g.apply_to_state(s)) == s


def test_equal_gates_share_hash_and_repr():
    g = Gate(2, 5, 1)
    assert g == Gate(2, 1, 5)
    assert hash(g) == hash(Gate(2, 1, 5))
    assert repr(g) == repr(Gate(2, 1, 5)) == "Gate(target=2, controls=(1, 5))"


def test_derived_circuits_keep_io_and_fill():
    c = Circuit(7, [Gate(6, 0, 1), Gate(2, 3, 3)], n_inputs=5, constant_fill=0)
    derived = [
        c.replace_gate(-1, Gate(4, 5, 6)),
        c.concat(Circuit(7, [Gate(0, 1, 2)])),
        c.reversed(),
    ]
    for d in derived:
        assert (d.wires, d.n_inputs, d.constant_fill) == (7, 5, 0)
        assert isinstance(d.gates, tuple)
    assert derived[0].gates == (Gate(6, 0, 1), Gate(4, 5, 6))
    assert derived[1].gates == c.gates + (Gate(0, 1, 2),)
    assert derived[2].gates == c.gates[::-1]
    with pytest.raises(ValueError, match="wire count"):
        c.replace_gate(0, Gate(7, 0, 1))  # wire 7 is off the bus


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(3, [Gate(0, 1, 3)])  # wire 3 out of range
    with pytest.raises(ValueError):
        Circuit(6, n_inputs=7)
    with pytest.raises(ValueError):
        Circuit(6, constant_fill=2)
    with pytest.raises(TypeError):
        Circuit(6, (), 6, 0)  # the fill is keyword-only, never a 4th positional
    with pytest.raises(TypeError):
        random_circuit(6, 1, np.random.default_rng(0), 6, 0)
    with pytest.raises(ValueError, match="at least one wire"):
        Circuit(0)
    with pytest.raises(ValueError, match="different wire counts"):
        Circuit(6).concat(Circuit(7))
    with pytest.raises(ValueError, match="length must be >= 0"):
        random_circuit(3, -1, np.random.default_rng(0))
    c = Circuit(6, n_inputs=6)
    assert len(c) == 0


def test_empty_circuit_is_identity():
    perm = to_permutation(Circuit(5))
    assert perm.dtype == np.int64 and perm.shape == (32,)
    assert np.array_equal(perm, np.arange(32))


def test_permutation_bijectivity_property():
    rng = np.random.default_rng(5)
    for _ in range(150):
        w = int(rng.integers(3, 9))
        c = random_circuit(w, int(rng.integers(0, 25)), rng)
        assert np.array_equal(np.sort(to_permutation(c)), np.arange(1 << w))


def test_reversal_composes_to_identity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        w = int(rng.integers(3, 8))
        c = random_circuit(w, int(rng.integers(1, 20)), rng)
        assert np.array_equal(to_permutation(c.concat(c.reversed())), np.arange(1 << w))


def test_permutation_composition_law():
    rng = np.random.default_rng(7)
    for _ in range(60):
        w = int(rng.integers(3, 7))
        c1 = random_circuit(w, int(rng.integers(0, 10)), rng)
        c2 = random_circuit(w, int(rng.integers(0, 10)), rng)
        # "c1, then c2" maps state s to image2[image1[s]]
        composed = to_permutation(c2)[to_permutation(c1)]
        assert np.array_equal(to_permutation(c1.concat(c2)), composed)


def test_trace_agrees_with_permutation():
    rng = np.random.default_rng(8)
    for _ in range(60):
        w = int(rng.integers(3, 8))
        c = random_circuit(w, int(rng.integers(0, 15)), rng)
        trace = evaluate(c)
        perm = to_permutation(c)
        for t in range(1 << w):
            from_trace = sum(
                ((trace.wire_rows[wire] >> t) & 1) << wire for wire in range(w)
            )
            assert from_trace == perm[t]


def test_trace_with_spare_wires():
    # 3 input wires on a 5-wire bus; spares start at the constant fill.
    c = Circuit(5, [], n_inputs=3, constant_fill=1)
    trace = evaluate(c)
    assert trace.case_count == 8
    assert trace.wire_rows[3] == 0xFF and trace.wire_rows[4] == 0xFF
    c0 = Circuit(5, [], n_inputs=3, constant_fill=0)
    assert evaluate(c0).wire_rows[3] == 0


def test_wire_patterns_values_and_validation():
    assert wire_patterns(3, 3) == [0xAA, 0xCC, 0xF0]
    assert wire_patterns(4, 3, 1)[3] == 0xFF
    assert wire_patterns(4, 3, 0)[3] == 0
    for wires in range(1, 10):
        for n in range(wires + 1):
            for fill in (0, 1):
                cases = range(1 << n)
                want = [sum(1 << t for t in cases if ((t >> w) & 1 if w < n else fill))
                        for w in range(wires)]
                assert wire_patterns(wires, n, fill) == want, (wires, n, fill)
    with pytest.raises(ValueError):
        wire_patterns(3, 6)
    with pytest.raises(ValueError):
        wire_patterns(4, 3, 2)


def test_permutation_wire_guard():
    with pytest.raises(ValueError):
        to_permutation(Circuit(25))


def test_text_format_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        w = int(rng.integers(3, 13))
        n = int(rng.integers(3, w + 1))
        fill = int(rng.integers(0, 2))
        c = replace(random_circuit(w, int(rng.integers(0, 12)), rng, n_inputs=n),
                    constant_fill=fill)
        back = parse_circuit(format_circuit(c))
        assert back == c


def test_text_format_example():
    c = Circuit(6, [Gate(2, 0, 1), Gate(5, 3, 3)], n_inputs=6)
    text = format_circuit(c)
    assert text == "N:6 n:6 fill:1 ; T(0,1)>2 T(3,3)>5"
    assert parse_circuit(text) == c


def test_parse_diagnostics_carry_position():
    with pytest.raises(ValueError, match="line 1"):
        parse_circuit("garbage header")
    with pytest.raises(ValueError, match="line 3"):
        parse_circuits("# comment\n\nN:6 n:6 fill:1 ; T(0,1>2")
    with pytest.raises(ValueError, match="column"):
        parse_circuit("N:6 n:6 fill:1 ; T(0,1)>2 nope")
    with pytest.raises(ValueError):
        parse_circuit("N:6 n:9 fill:1 ;")  # n > N
    with pytest.raises(ValueError):
        parse_circuit("N:6 n:6 fill:1 ; T(0,1)>9")  # wire out of range


@pytest.mark.parametrize("line,message", [
    ("N:3 n:3 fill:1 ; 3", "line 1, column 18: bad gate token '3'"),
    ("N:3 n:3 fill:1;; T(0,1)>2", "line 1, column 16: bad gate token ';'"),
    ("N:6 n:6 fill:1 ; T(0,1)>2 nope", "line 1, column 27: bad gate token 'nope'"),
    ("  N:3 n:3 fill:1 ; T(0,0)>0", "line 1, column 20: gate target 0 may not share a wire"),
    ("N:3 n:3 fill:1 ; T(0,0)>0", "line 1, column 18: gate target 0 may not share a wire"),
    ("N:3 n:3 fill:1 ; T(0,1)>2 T(0,1)>3", "line 1, column 27: gate T(0,1)>3 references a wire"),
], ids=["digit", "second-semicolon", "word", "indented-shared-wire", "shared-wire", "off-bus"])
def test_parse_errors_name_the_token_column(line, message):
    """Each refused token is blamed on its own first column, even where its
    text occurs earlier on the line."""
    with pytest.raises(ValueError) as exc:
        parse_circuit(line)
    assert str(exc.value).startswith(message)


def test_parse_circuits_skips_blanks_and_comments():
    text = """
# two circuits
N:3 n:3 fill:1 ; T(1,2)>0

N:4 n:3 fill:0 ; T(0,1)>2 T(2,3)>1
"""
    circuits = parse_circuits(text)
    assert len(circuits) == 2
    assert circuits[0].wires == 3
    assert circuits[1].constant_fill == 0


def test_random_circuit_draws_gates_uniformly():
    rng = np.random.default_rng(10)
    w = 6
    gates = enumerate_gates(w)
    index = {(g.target, g.control_a, g.control_b): i for i, g in enumerate(gates)}
    counts = np.zeros(len(gates))
    draws = 90_000
    c = random_circuit(w, draws, rng)
    for g in c.gates:
        counts[index[(g.target, g.control_a, g.control_b)]] += 1
    expected = draws / len(gates)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # fixed seed; bound at the 99.9th percentile of chi-square(89)
    assert chi2 < stats.chi2.ppf(0.999, len(gates) - 1)


def kept_wire_lists(wires):
    """Kept-wire lists of one to three wires, in and out of wire order."""
    top = wires - 1
    return [[w] for w in range(wires)] + [[top, 0], [0, top], [1, top, 0], [top, 0, 1]]


def final_rows_by_evaluate(wires, n_inputs, fill, codes, mapped):
    """`Scorer.final_rows` of a two-output fixed map equals, row by row,
    the mapped rows `core.evaluate` leaves on each circuit."""
    pair = TargetTable.from_function(n_inputs, 2, lambda t: t & 3)
    rows = Scorer(wires, n_inputs, fill, pair, OutputMap(mapped)).final_rows(codes).tolist()
    gates = enumerate_gates(wires)
    for s, row in enumerate(codes.tolist()):
        circuit = Circuit(wires, [gates[c] for c in row], n_inputs, constant_fill=fill)
        want = evaluate(circuit).wire_rows
        assert rows[s] == [want[w] for w in mapped], s


@pytest.mark.parametrize("wires", [3, 4, 5, 6])
def test_output_row_batch_matches_evaluate_batch(wires):
    """The backward one-word kernel gives the rows of any kept-wire list
    (one to three wires, in any order) exactly as the forward engine does,
    and a multi-wire call equals its one-wire calls, at every input width
    and fill, across row blocks and index blocks of both kernels.  On 6
    wires `Scorer.final_rows` of a two-output map is also checked row by row
    against `core.evaluate`."""
    # two row blocks of either kernel at every kept-wire count
    batch = max(row_block(4), row_block(3)) + 37
    assert batch > 2 * row_block(2 * 3 + 2)
    # length 40 spans two index blocks of each kernel's first row block
    assert EVALUATE_INDEX_BLOCK // min(row_block(4), row_block(wires)) < 40
    rng = np.random.default_rng(wires)
    n_gates = len(enumerate_gates(wires))
    for length in (0, 1, 7, 40):
        codes = rng.integers(0, n_gates, size=(batch, length), dtype=np.uint16)
        for n_inputs in range(1, wires + 1):
            for fill in (0, 1):
                init = np.array(wire_patterns(wires, n_inputs, fill), dtype=np.uint64)
                rows = evaluate_batch(codes, init, list(range(wires)))
                one = [output_row_batch(codes, wires, n_inputs, fill, [w]) for w in range(wires)]
                for keep in kept_wire_lists(wires):
                    got = output_row_batch(codes, wires, n_inputs, fill, keep)
                    assert got.shape == (batch, len(keep))
                    case = (length, n_inputs, fill, keep)
                    assert np.array_equal(got, rows[:, keep]), case
                    assert np.array_equal(got, np.hstack([one[w] for w in keep])), case
                    assert np.array_equal(evaluate_batch(codes, init, keep), got), case
    if wires == 6:
        final_rows_by_evaluate(wires, 5, 0, codes, (5, 2))


def test_output_row_batch_needs_one_word_of_states():
    with pytest.raises(ValueError):
        output_row_batch(np.zeros((1, 1), dtype=np.uint16), 7, 7, 1, [0])


@pytest.mark.parametrize("wires", [7, 12])
def test_evaluate_batch_row_blocks_match_evaluate(wires):
    """A batch of one row block (`row_block(W)` circuits) plus 37 circuits
    gives every circuit's rows as core.evaluate does, the partial last block
    included, at both fills, and any kept-wire list keeps those rows in its
    order.  `Scorer.final_rows` of a two-output fixed map, which runs this
    kernel past 6 wires, matches `core.evaluate` row by row."""
    batch = row_block(wires) + 37
    assert EVALUATE_INDEX_BLOCK // row_block(wires) < 15  # 15 gates span two index blocks
    gates = enumerate_gates(wires)
    rng = np.random.default_rng(wires)
    codes = rng.integers(0, len(gates), size=(batch, 15), dtype=np.uint16)
    circuits = [[gates[c] for c in row] for row in codes.tolist()]
    for fill in (0, 1):
        init = np.array(wire_patterns(wires, 6, fill), dtype=np.uint64)
        rows = evaluate_batch(codes, init, list(range(wires)))
        for s, circuit_gates in enumerate(circuits):
            want = evaluate(Circuit(wires, circuit_gates, 6, constant_fill=fill)).wire_rows
            assert rows[s].tolist() == want, (fill, s)
        for keep in kept_wire_lists(wires):
            assert np.array_equal(evaluate_batch(codes, init, keep), rows[:, keep]), (fill, keep)
    final_rows_by_evaluate(wires, 6, 1, codes, (wires - 1, 2))
