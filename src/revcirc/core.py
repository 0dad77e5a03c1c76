"""Reversible circuit representation and exact evaluation.

A circuit is an ordered list of CCNOT (Toffoli) gates on a fixed bus of N
wires.  Each gate flips its target wire exactly when both control wires
carry 1; since every gate is its own inverse, any circuit denotes a
permutation of the 2^N bus states.

Evaluation is bit-parallel: each wire is represented by a packed bit-vector
holding that wire's value on every fitness case simultaneously, so one pass
through the gate list evaluates the circuit on all 2^n input combinations.
"""

from __future__ import annotations

import re
from dataclasses import KW_ONLY, dataclass, replace
from functools import cache

import numpy as np

__all__ = [
    "Gate",
    "Circuit",
    "TruthTableTrace",
    "enumerate_gates",
    "evaluate",
    "to_permutation",
    "random_circuit",
    "parse_circuit",
    "parse_circuits",
    "format_circuit",
    "wire_patterns",
]

# to_permutation materializes 2^N states; past this the table would not fit.
PERMUTATION_WIRE_LIMIT = 24


@dataclass(frozen=True, order=True)
class Gate:
    """One CCNOT placement: flip `target` iff both controls carry 1.

    Controls are unordered and may share a wire (the gate then degrades to a
    CNOT).  The target must differ from both controls: writing a wire that
    is also read would not be a bijection on bus states.  Instances are kept
    in canonical form (control_a <= control_b) so equal gates compare equal.
    """

    target: int
    control_a: int
    control_b: int

    def __post_init__(self):
        a, b = self.control_a, self.control_b
        if a > b:
            object.__setattr__(self, "control_a", b)
            object.__setattr__(self, "control_b", a)
        if self.target in (self.control_a, self.control_b):
            raise ValueError(
                f"gate target {self.target} may not share a wire with its controls "
                f"({self.control_a}, {self.control_b})"
            )
        if min(self.target, self.control_a) < 0:
            raise ValueError("wire indices must be non-negative")

    def max_wire(self) -> int:
        return max(self.target, self.control_b)

    def apply_to_state(self, state: int) -> int:
        """Apply the gate to a single bus state (integer, wire 0 = LSB)."""
        if (state >> self.control_a) & 1 and (state >> self.control_b) & 1:
            return state ^ (1 << self.target)
        return state

    def __repr__(self) -> str:
        return f"Gate(target={self.target}, controls=({self.control_a}, {self.control_b}))"


@dataclass(frozen=True)
class Circuit:
    """An ordered CCNOT gate sequence over a fixed wire count.

    `n_inputs` wires (0 .. n-1) carry the fitness-case input bits; the
    remaining wires are fed the constant `constant_fill` (keyword-only).
    The empty circuit is the identity permutation.
    """

    wires: int
    gates: tuple[Gate, ...] = ()
    n_inputs: int | None = None  # None: every wire is an input
    _: KW_ONLY
    constant_fill: int = 1

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_inputs is None:
            object.__setattr__(self, "n_inputs", self.wires)
        if self.wires < 1:
            raise ValueError("a circuit needs at least one wire")
        if not 0 <= self.n_inputs <= self.wires:
            raise ValueError(f"n_inputs {self.n_inputs} must lie in 0..wires ({self.wires})")
        if self.constant_fill not in (0, 1):
            raise ValueError("constant_fill must be 0 or 1")
        for g in self.gates:
            if g.max_wire() >= self.wires:
                raise ValueError(f"{g} references a wire >= wire count {self.wires}")

    def __len__(self) -> int:
        return len(self.gates)

    def replace_gate(self, index: int, gate: Gate) -> "Circuit":
        gates = list(self.gates)
        gates[index] = gate
        return replace(self, gates=gates)

    def concat(self, other: "Circuit") -> "Circuit":
        if other.wires != self.wires:
            raise ValueError("cannot concatenate circuits with different wire counts")
        return replace(self, gates=self.gates + other.gates)

    def reversed(self) -> "Circuit":
        """Gates in reverse order: the inverse circuit (CCNOT is self-inverse)."""
        return replace(self, gates=self.gates[::-1])


@dataclass
class TruthTableTrace:
    """Per-wire bit-vectors over the 2^n fitness cases.

    Bit t of `wire_rows[w]` is the value wire w carries on fitness case t.
    Rows are Python integers so any n works; for n <= 6 a row fits one
    machine word (the batch engine `evaluate_batch` exploits that).
    """

    wire_rows: list[int]
    case_count: int


def enumerate_gates(wires: int) -> list[Gate]:
    """All distinct canonical CCNOT gates on `wires` wires, as a fresh list.

    Count is wires * ((wires-1)(wires-2)/2 + (wires-1)): for each target,
    unordered control pairs (shared wire allowed) drawn from the rest.
    """
    return list(_gates(wires))


@cache
def _gates(wires: int) -> tuple[Gate, ...]:
    """enumerate_gates(wires), built once per width; gate code i is entry i."""
    if wires < 3:
        raise ValueError(f"no legal CCNOT exists on {wires} wires (need >= 3)")
    return tuple(Gate(t, a, b) for t in range(wires) for a in range(wires)
                 for b in range(a, wires) if t not in (a, b))


# Gate codes per index block of the batch kernels: a block's intp codes and
# each table gathered at them take 128 KiB apiece.  A row block (`row_block`)
# holds twice as many words of kernel state, so a row block's working set
# stays well inside a 2 MiB L2 cache.  Both sizes were picked by timing
# others from 2^13 to 2^17 (BENCH_sampler.json, entry 3).
EVALUATE_INDEX_BLOCK = 1 << 14


@cache
def gate_arrays(wires: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(targets, controls_a, controls_b) of enumerate_gates as intp arrays,
    indexed by gate code (the position in enumerate_gates)."""
    fields = [(g.target, g.control_a, g.control_b) for g in _gates(wires)]
    tables = np.array(fields, dtype=np.intp).T.copy()
    tables.flags.writeable = False  # cached: every caller shares them
    return tuple(tables)


@cache
def _backward_tables(wires: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, masks, shifts): starts[w] is the set of states with bit w
    set, and gate g swaps every state in masks[g] (bits a and b set, bit t
    clear) with that state + shifts[g] = 2^t."""
    tg, ca, cb = gate_arrays(wires)
    s = np.arange(1 << wires)
    swapped = (s >> ca[:, None]) & (s >> cb[:, None]) & ~(s >> tg[:, None]) & 1
    masks = np.bitwise_or.reduce(swapped.astype(np.uint64) << s.astype(np.uint64), axis=1)
    starts = np.array(wire_patterns(wires, wires), dtype=np.uint64)
    return starts, masks, np.left_shift(1, tg).astype(np.uint64)


def row_block(words: int) -> int:
    """Circuits per row block of a batch kernel that works on `words` uint64
    words per circuit: at most 2 * EVALUATE_INDEX_BLOCK words."""
    return max(1, 2 * EVALUATE_INDEX_BLOCK // words)


def _gathered_blocks(columns: np.ndarray, *tables: np.ndarray):
    """Each table's entries at the (L, n) gate-code columns, as (rows, n)
    arrays for one block of at most EVALUATE_INDEX_BLOCK codes at a time.

    Every block's codes are cast to intp into one buffer and each table is
    gathered into one more, all made once per walk: a block overwrites the
    one before, so the walk holds 1 + len(tables) blocks whatever L is.
    """
    length, n = columns.shape
    step = max(1, EVALUATE_INDEX_BLOCK // max(n, 1))
    codes = np.empty((min(step, length), n), dtype=np.intp)
    gathered = [np.empty(codes.shape, dtype=table.dtype) for table in tables]
    for j in range(0, length, step):
        block = codes[: length - j]
        np.copyto(block, columns[j : j + step])
        outs = [out[: len(block)] for out in gathered]
        for table, out in zip(tables, outs):
            table.take(block, out=out, mode="clip")
        yield outs


def evaluate_batch(gate_codes: np.ndarray, init_rows: np.ndarray, keep: list[int]) -> np.ndarray:
    """Run B circuits bit-parallel, every wire forward: "best" scoring and past 6 wires.

    `gate_codes` is (B, L) codes into gate_arrays(W); `init_rows` is the
    (W,) uint64 starting bus.  Returns the (B, k) uint64 final rows of the
    k wires in `keep`, in that order.  Circuits run in row blocks of
    `row_block(W)` circuits, which keeps a block's bus in cache; beyond its
    result the call holds one row block's bus and index blocks.
    """
    kept = np.empty((len(gate_codes), len(keep)), dtype=np.uint64)
    per_block = row_block(len(init_rows))
    for r in range(0, len(kept), per_block):
        _forward_block(gate_codes[r : r + per_block], init_rows, keep, kept[r : r + per_block])
    return kept


def _forward_block(gate_codes, init_rows, keep, out) -> None:
    """Run one row block, its kept rows taken into `out`: on one flat bus each
    gate column is three flat index vectors (row base + wire), so a step is
    three 1-D gathers and one scatter.  Its bus and index blocks die on return."""
    wires = init_rows.shape[0]
    buses = init_rows[None].repeat(len(gate_codes), axis=0)
    bus = buses.reshape(-1)  # a view: writes land in `buses`
    base = np.arange(len(gate_codes), dtype=np.intp) * wires
    va, vb = np.empty((2, len(gate_codes)), dtype=np.uint64)
    # Every index is in range by construction; mode="clip" spares take's
    # bounds-checked copy into `out`.
    for t, a, b in _gathered_blocks(gate_codes.T, *gate_arrays(wires)):
        t += base
        a += base
        b += base
        for tj, aj, bj in zip(t, a, b):
            bus.take(aj, out=va, mode="clip")
            bus.take(bj, out=vb, mode="clip")
            va &= vb
            bus.take(tj, out=vb, mode="clip")
            vb ^= va
            bus[tj] = vb
    buses.take(keep, axis=1, out=out, mode="clip")


def output_row_batch(
    gate_codes: np.ndarray, wires: int, n_inputs: int, constant_fill: int, keep: list[int]
) -> np.ndarray:
    """The (B, k) uint64 final rows of the wires in `keep`, B circuits on <= 6 wires.

    Each circuit gets one word per kept wire holding a set of bus states:
    the states with that wire set, pulled back through the gates last gate
    first (every CCNOT is its own inverse) by one delta swap per gate.  That
    leaves the starting states that end with the wire at 1; case x starts in
    state x + F (F the fill bits), so the row is the set shifted down by F.
    A row block's k sets walk together, so each gate table is gathered once
    for all k.  Circuits run in row blocks of `row_block(2k + 2)` circuits;
    beyond its result the call holds one row block's delta words and three
    index blocks.  The result is column-major (the (k, B) sets, transposed).
    """
    if wires > 6:
        raise ValueError(f"the states of {wires} wires do not fit one word")
    starts, masks, shifts = _backward_tables(wires)
    rows = starts[keep, None].repeat(len(gate_codes), axis=1)  # a (k, B) block of sets
    per_block = row_block(2 * len(keep) + 2)  # each set and its delta, each gate's mask and shift
    delta = np.empty((len(keep), min(len(gate_codes), per_block)), dtype=np.uint64)
    for r in range(0, len(gate_codes), per_block):
        _pull_back(rows[:, r : r + per_block], delta, gate_codes[r : r + per_block], masks, shifts)
    fill = constant_fill * ((1 << wires) - (1 << n_inputs))
    rows >>= np.uint64(fill)
    rows &= np.uint64((1 << (1 << n_inputs)) - 1)
    return rows.T


def _pull_back(sets, delta, gate_codes, masks, shifts) -> None:
    """Pull one row block's (k, n) sets, in place, back through its (n, L)
    gate codes, last gate first, on `delta` words; its index blocks die on
    return.  Gate tables come as (1, n) rows: same-shape operands are faster."""
    d = delta[:, : sets.shape[1]]
    for block_masks, block_shifts in _gathered_blocks(gate_codes[:, ::-1].T, masks, shifts):
        for m, sh in zip(block_masks[:, None], block_shifts[:, None]):
            np.right_shift(sets, sh, out=d)
            d ^= sets
            d &= m
            sets ^= d
            d <<= sh
            sets ^= d


def wire_patterns(wires: int, n_inputs: int, constant_fill: int = 1) -> list[int]:
    """Initial trace rows: input wire w enumerates bit w of the case index,
    non-input wires are constant."""
    if n_inputs > wires:
        raise ValueError(f"{n_inputs} inputs will not fit on {wires} wires")
    if constant_fill not in (0, 1):
        raise ValueError("constant_fill must be 0 or 1")
    full = (1 << (1 << n_inputs)) - 1
    # Input row w repeats 2^w zeros then 2^w ones: full / (2^(2^w) + 1) is
    # the ones-first run, shifted up by 2^w.
    return [full // ((1 << (1 << w)) + 1) << (1 << w) if w < n_inputs else full * constant_fill
            for w in range(wires)]


def evaluate(circuit: Circuit) -> TruthTableTrace:
    """Run the circuit bit-parallel over all 2^n fitness cases.

    Each gate update is row_target ^= row_control_a & row_control_b applied
    to whole bit-vectors, so one pass covers every case at once.
    """
    rows = wire_patterns(circuit.wires, circuit.n_inputs, circuit.constant_fill)
    for g in circuit.gates:
        rows[g.target] ^= rows[g.control_a] & rows[g.control_b]
    return TruthTableTrace(rows, 1 << circuit.n_inputs)


def to_permutation(circuit: Circuit) -> np.ndarray:
    """The exact permutation of full bus states (wire 0 = LSB of the state),
    as its int64 image array: element s is the image of state s.

    Evaluates all 2^N states in one vectorized pass per gate.
    """
    if circuit.wires > PERMUTATION_WIRE_LIMIT:
        raise ValueError(
            f"wires={circuit.wires} exceeds the 2^N state-table guard "
            f"({PERMUTATION_WIRE_LIMIT})"
        )
    states = np.arange(1 << circuit.wires, dtype=np.int64)
    for g in circuit.gates:
        both = ((states >> g.control_a) & (states >> g.control_b)) & 1
        states = states ^ (both << g.target)
    return states


def random_circuit(
    wires: int,
    length: int,
    rng: np.random.Generator,
    n_inputs: int | None = None,
) -> Circuit:
    """A circuit of `length` gates drawn independently and uniformly from
    enumerate_gates(wires), its spare wires holding 1."""
    if length < 0:
        raise ValueError("length must be >= 0")
    gates = _gates(wires)
    idx = rng.integers(0, len(gates), size=length)
    return Circuit(wires, [gates[i] for i in idx], n_inputs)


# Circuit text format, one circuit per line:
#   N:<wires> n:<inputs> fill:<0|1> ; T(a,b)>t T(a,b)>t ...
_HEADER_RE = re.compile(r"\s*N:(\d+)\s+n:(\d+)\s+fill:([01])\s*(?:;|$)")
_TOKEN_RE = re.compile(r"\S+")
_GATE_RE = re.compile(r"T\((\d+),(\d+)\)>(\d+)")


def format_circuit(circuit: Circuit) -> str:
    head = f"N:{circuit.wires} n:{circuit.n_inputs} fill:{circuit.constant_fill} ;"
    body = " ".join(
        f"T({g.control_a},{g.control_b})>{g.target}" for g in circuit.gates
    )
    return f"{head} {body}".rstrip()


def parse_circuit(line: str, line_number: int = 1) -> Circuit:
    """Parse one circuit line; errors carry line/column positions."""
    m = _HEADER_RE.match(line)
    if not m:
        raise ValueError(
            f"line {line_number}: expected header 'N:<wires> n:<inputs> fill:<0|1> ;'"
        )
    wires, n_inputs, fill = map(int, m.groups())
    gates = []
    for tm in _TOKEN_RE.finditer(line, m.end()):
        token, where = tm.group(), f"line {line_number}, column {tm.start() + 1}"
        gm = _GATE_RE.fullmatch(token)
        if not gm:
            raise ValueError(f"{where}: bad gate token {token!r}, expected 'T(a,b)>t'")
        a, b, t = map(int, gm.groups())
        try:
            gate = Gate(t, a, b)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        if gate.max_wire() >= wires:
            raise ValueError(f"{where}: gate {token} references a wire >= wire count {wires}")
        gates.append(gate)
    try:
        return Circuit(wires, gates, n_inputs, constant_fill=fill)
    except ValueError as e:
        raise ValueError(f"line {line_number}: {e}") from None


def parse_circuits(text: str) -> list[Circuit]:
    """Parse a multi-line circuit file; blank lines and #-comments skipped."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse_circuit(line, i))
    return out
