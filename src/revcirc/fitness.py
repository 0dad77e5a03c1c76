"""Target functions and fitness measures for reversible circuits.

Fitness is Hamming agreement: how many of the 2^n fitness cases produce the
desired output bits on the designated output wires.  The six-multiplexor
(two address bits select one of four data bits) is the built-in benchmark;
arbitrary truth tables are supported through TargetTable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .core import (
    Circuit, evaluate, evaluate_batch, gate_arrays, output_row_batch, wire_patterns,
)

__all__ = [
    "TargetTable",
    "OutputMap",
    "FitnessValue",
    "Scorer",
    "DEFAULT_OUTPUT",
    "six_multiplexor_target",
    "hamming_fitness_scalar",
    "rms_error",
]


@dataclass(frozen=True)
class TargetTable:
    """Desired outputs for every fitness case.

    `rows[j]` is a packed bit-vector: bit t is the desired value of output
    bit j on fitness case t.  Output bit 0 is the least significant bit of
    the integer answer.
    """

    n_inputs: int
    m_outputs: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n_inputs < 0 or self.m_outputs < 1:
            raise ValueError(f"need n_inputs >= 0 and m_outputs >= 1, got "
                             f"n_inputs={self.n_inputs}, m_outputs={self.m_outputs}")
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.m_outputs:
            raise ValueError(f"expected {self.m_outputs} output rows, got {len(rows)}")
        cases = self.case_count
        for j, r in enumerate(rows):
            if r < 0 or r >> cases:
                raise ValueError(f"output row {j} has bits beyond the {cases} cases")

    @property
    def case_count(self) -> int:
        return 1 << self.n_inputs

    @property
    def max_fitness(self) -> int:
        return self.m_outputs * self.case_count

    def answer(self, case: int) -> int:
        """The desired m-bit integer answer for one fitness case."""
        return sum(((self.rows[j] >> case) & 1) << j for j in range(self.m_outputs))

    @classmethod
    def from_function(
        cls, n_inputs: int, m_outputs: int, fn: Callable[[int], int]
    ) -> "TargetTable":
        rows = [0] * m_outputs
        for t in range(1 << n_inputs):
            v = fn(t)
            for j in range(m_outputs):
                rows[j] |= ((v >> j) & 1) << t
        return cls(n_inputs, m_outputs, rows)

    def to_text(self) -> str:
        """File format: header 'n m', then 2^n lines of m space-separated bits
        (output bit 0 first), case index ascending."""
        lines = [f"{self.n_inputs} {self.m_outputs}"]
        for t in range(self.case_count):
            v = self.answer(t)
            lines.append(" ".join(str((v >> j) & 1) for j in range(self.m_outputs)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TargetTable":
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty target table")
        try:
            n, m = (int(x) for x in lines[0])
        except ValueError:
            raise ValueError("target table header must be 'n m'") from None
        if n < 0 or m < 1:
            cls(n, m, ())  # raises: the sizes a table accepts are __post_init__'s
        # n is checked against the case lines, and m against each line's bits,
        # before 2^n or m sizes anything
        cases = lines[1:]
        if n >= len(cases).bit_length() or len(cases) != 1 << n:
            raise ValueError(f"expected 2^{n} case lines, got {len(cases)}")
        for t, bits in enumerate(cases):
            if len(bits) != m:
                raise ValueError(f"case line {t}: expected {m} bits, got {len(bits)}")
            for b in bits:
                if b not in ("0", "1"):
                    raise ValueError(f"case line {t}: bit must be 0 or 1, got {b!r}")
        # output row j reads column j, case 0 as its lowest bit
        return cls(n, m, [int("".join(column[::-1]), 2) for column in zip(*cases)])


@dataclass(frozen=True)
class OutputMap:
    """Which wire each output bit is read from (bit j from wire_of_output[j])."""

    wire_of_output: tuple[int, ...]

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wire_of_output)
        object.__setattr__(self, "wire_of_output", wires)
        if len(set(wires)) != len(wires):
            raise ValueError("output wires must be distinct")
        if any(w < 0 for w in wires):
            raise ValueError("output wires must be non-negative")

    def __len__(self) -> int:
        return len(self.wire_of_output)


DEFAULT_OUTPUT = OutputMap((0,))


@dataclass(frozen=True)
class FitnessValue:
    """Raw Hamming matches (0 .. m*2^n) out of `max_raw`."""

    raw: int
    max_raw: int

    @property
    def solved(self) -> bool:
        return self.raw == self.max_raw


def six_multiplexor_target() -> TargetTable:
    """The six-multiplexor: inputs D0..D3 on wires 0..3, A0 on wire 4, A1 on
    wire 5; the desired output is D[2*A1 + A0].  Exactly 32 of the 64 cases
    want output 1."""
    def mux(t: int) -> int:
        sel = 2 * ((t >> 5) & 1) + ((t >> 4) & 1)
        return (t >> sel) & 1

    return TargetTable.from_function(6, 1, mux)


WireScoring = OutputMap | Literal["best"]


class Scorer:
    """How final bus rows score against `target`: the one Hamming reduction
    behind the sampler, the scan and the search.

    `scoring` is a fixed OutputMap (wire -1) or "best" (the best single wire,
    ties to the lowest).  The constructor checks the shapes and builds the
    initial rows `wire_patterns`.
    """

    def __init__(self, wires: int, n_inputs: int, constant_fill: int,
                 target: TargetTable, scoring: WireScoring):
        if n_inputs != target.n_inputs:
            raise ValueError(
                f"circuit feeds {n_inputs} input wires but the target table "
                f"has {target.n_inputs} inputs"
            )
        self._kept = list(range(wires)) if scoring == "best" else list(scoring.wire_of_output)
        if scoring == "best" and target.m_outputs != 1:
            raise ValueError("'best' scoring applies to single-output targets")
        if scoring != "best" and len(scoring) != target.m_outputs:
            raise ValueError("output map arity does not match target")
        if any(w >= wires for w in self._kept):
            raise ValueError("output wire outside the bus")
        self.target = target
        self.scoring = scoring
        self.wires, self.constant_fill = wires, constant_fill
        self.wire_patterns = wire_patterns(wires, n_inputs, constant_fill)
        self._cases = target.case_count
        self._one_word = self._cases <= 64  # the one statement of the one-word limit
        if self._one_word:
            self._words = np.array(target.rows, dtype=np.uint64)
            self._init_rows = np.array(self.wire_patterns, dtype=np.uint64)

    def check_one_word(self) -> None:
        """Refuse a target past one uint64 word of cases: the kernels' limit."""
        if not self._one_word:
            raise ValueError("rows fit one word only for n <= 6 inputs, up to 64 cases")

    def score_rows(self, rows: Sequence[int]) -> tuple[int, int]:
        """(fitness, wire) of one bus as Python-int rows; wire is -1 under a
        fixed map."""
        cases, target_rows = self._cases, self.target.rows
        if self.scoring == "best":
            want = target_rows[0]
            fewest, best = cases + 1, -1
            for w, r in enumerate(rows):
                misses = (r ^ want).bit_count()
                if misses < fewest:  # strict: ties stay on the lowest wire
                    fewest, best = misses, w
            return cases - fewest, best
        raw = 0
        for w, t in zip(self.scoring.wire_of_output, target_rows):
            raw += cases - (rows[w] ^ t).bit_count()
        return raw, -1

    def score_gates(self, gates: Iterable[Sequence[int]]) -> tuple[int, int]:
        """(fitness, wire) of one circuit given as (target, control,
        control) triples, walked on Python-int rows."""
        rows = list(self.wire_patterns)
        for t, a, b in gates:
            rows[t] ^= rows[a] & rows[b]
        return self.score_rows(rows)

    def final_rows(self, gate_codes: np.ndarray) -> np.ndarray:
        """(B, k) uint64 final rows of B circuits given as (B, L) gate codes,
        up to 64 cases: every wire under "best", else the mapped output wires
        in map order: backward for a fixed map on up to 6 wires
        (`core.output_row_batch`), else forward (`core.evaluate_batch`).
        Backward rows come column-major, as a few long columns reduce far
        faster than many short rows, and allocated by the kernel: a buffer
        made ahead of it slowed a 6-wire, 5-gate chunk by 15% (2-core Xeon)."""
        self.check_one_word()
        if self.scoring != "best" and self.wires <= 6:
            return output_row_batch(gate_codes, self.wires, self.target.n_inputs,
                                    self.constant_fill, self._kept)
        return evaluate_batch(gate_codes, self._init_rows, self._kept)

    def score_codes(self, gate_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fitness, wire) arrays of B circuits given as (B, L) gate codes;
        wire is -1 under a fixed map.  Up to 64 cases it counts the misses in
        `final_rows`; past 64 it walks each circuit by `score_gates`."""
        if not self._one_word:
            triples = np.stack(gate_arrays(self.wires), axis=1).tolist()
            scores = [self.score_gates(map(triples.__getitem__, codes))
                      for codes in gate_codes.tolist()]
            scores = np.array(scores, dtype=np.int64).reshape(-1, 2)
            return scores[:, 0], scores[:, 1]
        # under "best" the one target word meets every wire's row
        rows = self.final_rows(gate_codes)
        rows ^= self._words
        misses = np.bitwise_count(rows)
        if self.scoring == "best":
            return self._cases - misses.min(axis=1).astype(np.int64), misses.argmin(axis=1)
        raw = self.target.max_fitness - misses.sum(axis=1, dtype=np.int64)
        return raw, np.full(len(gate_codes), -1, dtype=np.int64)


def hamming_fitness_scalar(
    circuit: Circuit,
    target: TargetTable,
    outputs: OutputMap = DEFAULT_OUTPUT,
) -> FitnessValue:
    """Independent case-by-case reference evaluation (no bit-parallel tricks).

    Runs every fitness case through the circuit one state at a time; used as
    an oracle for the bit-parallel path and to re-verify search solutions.
    Only the shape checks are shared with `Scorer`.
    """
    Scorer(circuit.wires, circuit.n_inputs, circuit.constant_fill, target, outputs)
    fill_bits = 0
    if circuit.constant_fill:
        for w in range(circuit.n_inputs, circuit.wires):
            fill_bits |= 1 << w
    raw = 0
    for t in range(target.case_count):
        state = t | fill_bits
        for g in circuit.gates:
            state = g.apply_to_state(state)
        want = target.answer(t)
        for j, w in enumerate(outputs.wire_of_output):
            raw += ((state >> w) & 1) == ((want >> j) & 1)
    return FitnessValue(raw, target.max_fitness)


def rms_error(
    circuit: Circuit,
    cases: Sequence[tuple[int, int]],
    outputs: OutputMap,
) -> float:
    """Root-mean-square error of the circuit's m-bit integer answers.

    `cases` lists (input, desired_answer) pairs; the m output wires are read
    as an m-bit integer (output bit 0 least significant).
    """
    if len(cases) == 0:
        raise ValueError("rms_error needs at least one case")
    if any(w >= circuit.wires for w in outputs.wire_of_output):
        raise ValueError("output wire outside the bus")
    trace = evaluate(circuit)
    m = len(outputs)
    total = 0.0
    for inp, answer in cases:
        if not 0 <= inp < trace.case_count:
            raise ValueError(f"case input {inp} outside 0..2^n-1")
        if not 0 <= answer < (1 << m):
            raise ValueError(f"case answer {answer} needs more than {m} bits")
        value = 0
        for j, w in enumerate(outputs.wire_of_output):
            value |= ((trace.wire_rows[w] >> inp) & 1) << j
        total += (value - answer) ** 2
    return math.sqrt(total / len(cases))
