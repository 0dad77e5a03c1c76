"""Large-scale random-circuit experiments.

The throughput core: sample millions of random circuits per length, score
them bit-parallel through `fitness.Scorer` (one 64-bit word covers all cases
when n <= 6) and accumulate fitness histograms.  Chunk generators are seeded
from (seed, length, chunk index), so histograms are bit-identical for any
worker count and runs can resume mid-stream.

Also here: exhaustive enumeration of all short circuits (minimality scans),
expanded level by level over bounded blocks of bus states.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import gate_arrays
from .fitness import DEFAULT_OUTPUT, OutputMap, Scorer, TargetTable
from .theory import LimitModel, total_variation_distance

__all__ = [
    "ExperimentConfig",
    "FitnessHistogram",
    "ConvergenceSeries",
    "sample_distribution",
    "sample_fitness_histogram",
    "convergence_series",
    "exhaustive_min_scan",
]

CHUNK_SIZE = 1 << 15
ENUMERATION_GUARD = 10**10
# Bus words a scan level holds at once (1 MiB; fastest of 2^14-2^20, BENCH_sampler.json).
SCAN_BLOCK_WORDS = 1 << 17
# Bytes of gate codes a chunk draws and scores at once (2 MiB), and the
# generator words one draw step takes (128 KiB).
DRAW_BLOCK_BYTES = 1 << 21
DRAW_STEP_WORDS = 1 << 15


@dataclass(frozen=True)
class ExperimentConfig:
    """One sampling experiment: histogram per length."""

    wires: int
    lengths: tuple[int, ...]
    samples_per_length: int
    target: TargetTable
    outputs: OutputMap = DEFAULT_OUTPUT
    seed: int = 0
    workers: int = 1
    constant_fill: int = 1

    def __post_init__(self):
        lengths = tuple(int(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ValueError("lengths must be non-empty")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        if any(x < 0 for x in lengths):
            raise ValueError("lengths must be non-negative")
        if self.samples_per_length < 1:
            raise ValueError("samples_per_length must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.outputs == "best":
            raise ValueError("the sampler needs a fixed output map, not best-wire scoring")
        # the gate count W^2 (W - 1) / 2, the gate table and the Scorer check the
        # bus before any chunk or checkpoint
        if self.wires ** 2 * (self.wires - 1) // 2 > 1 << 16:
            raise ValueError(f"uint16 gate codes fit buses of at most 51 wires, got {self.wires}")
        gate_arrays(self.wires)
        Scorer(self.wires, self.target.n_inputs, self.constant_fill, self.target,
               self.outputs).check_one_word()


@dataclass
class FitnessHistogram:
    """Counts of sampled circuits per raw fitness value at one length."""

    length: int
    counts: np.ndarray
    total: int

    def distribution(self) -> np.ndarray:
        return self.counts / self.total

    def mean(self) -> float:
        f = np.arange(len(self.counts))
        return float((f * self.counts).sum() / self.total)

    def sd(self) -> float:
        f = np.arange(len(self.counts))
        mu = self.mean()
        return float(math.sqrt(((f - mu) ** 2 * self.counts).sum() / self.total))

    def solutions(self) -> int:
        return int(self.counts[-1])


@dataclass
class ConvergenceSeries:
    """Per-length summary against a limit model."""

    rows: list[tuple[int, float, float, float, int, int]]
    # (length, mean, sd, tvd_to_limit, solution_count, total)

    def tvds(self) -> list[float]:
        return [r[3] for r in self.rows]


def sample_fitness_histogram(
    wires: int,
    length: int,
    samples: int,
    seed: int,
    target: TargetTable,
    outputs: OutputMap = DEFAULT_OUTPUT,
    constant_fill: int = 1,
    first_chunk: int = 0,
    stop_chunk: int | None = None,
    initial_counts: np.ndarray | None = None,
) -> FitnessHistogram:
    """Histogram of Hamming fitness over `samples` uniform random circuits.

    Chunk c draws its gates from a generator seeded by (seed, length, c),
    so any partition of chunks across workers — or a resumed run starting at
    `first_chunk` with `initial_counts` — produces identical totals.
    """
    scorer = Scorer(wires, target.n_inputs, constant_fill, target, outputs)
    scorer.check_one_word()
    n_gates = len(gate_arrays(wires)[0])
    counts = np.zeros(target.max_fitness + 1, dtype=np.int64)
    if initial_counts is not None:
        counts += np.asarray(initial_counts, dtype=np.int64)
    n_chunks = (samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    last_chunk = n_chunks if stop_chunk is None else min(stop_chunk, n_chunks)
    added = 0
    for c in range(first_chunk, last_chunk):
        batch = min(CHUNK_SIZE, samples - c * CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence([seed, length, c]))
        for codes in _gate_code_blocks(rng, n_gates, batch, length):
            fit, _ = scorer.score_codes(codes)
            counts += np.bincount(fit, minlength=len(counts))
        added += batch
    prior = 0 if initial_counts is None else int(np.asarray(initial_counts).sum())
    assert counts.sum() == prior + added
    return FitnessHistogram(length, counts, int(counts.sum()))


def _gate_code_blocks(rng: np.random.Generator, n_gates: int, batch: int, length: int):
    """The (batch, length) codes `rng.integers(0, n_gates, size=(batch,
    length), dtype=np.uint16)` draws, as row blocks of at most
    DRAW_BLOCK_BYTES bytes, each yielded in one buffer that the next
    overwrites; so a chunk holds 2 MiB of codes whatever its length.  A
    chunk that fits one block as uint16 is numpy's call itself; longer ones
    hold their codes in the smallest unsigned type (uint8 up to 256 gates,
    so 6- and 7-wire blocks hold twice the circuits).

    numpy draws each code by Lemire's rule on the next 16-bit half of the
    generator's 32-bit words, low half first: m = half * n_gates, rejected
    while m mod 2^16 < 2^16 mod n_gates, code m >> 16.  `integers(0, 2**32,
    dtype=np.uint32)` yields the same words.  The last step draws words past
    the chunk's codes, so the generator is left past where numpy's call
    would leave it; each chunk's generator draws nothing else.
    """
    if not 1 <= n_gates <= 1 << 16:
        raise ValueError(f"{n_gates} gate codes do not fit uint16")
    if 2 * batch * length <= DRAW_BLOCK_BYTES:  # one block: numpy's own draw is faster
        yield rng.integers(0, n_gates, size=(batch, length), dtype=np.uint16)
        return
    threshold = (1 << 16) % n_gates
    dtype = np.min_scalar_type(n_gates - 1)
    rows = max(1, DRAW_BLOCK_BYTES // (length * dtype.itemsize))
    buffer = np.empty(min(rows, batch) * length, dtype=dtype)
    drawn = buffer[:0]  # accepted codes not yet copied into a block
    for r in range(0, batch, rows):
        n = min(rows, batch - r)
        block = buffer[: n * length]
        filled = 0
        while filled < len(block):
            if not len(drawn):
                words = rng.integers(0, 1 << 32, size=DRAW_STEP_WORDS, dtype=np.uint32)
                m = np.multiply(words.astype("<u4", copy=False).view("<u2"), np.uint32(n_gates),
                                dtype=np.uint32)
                if threshold:
                    m = m[m.astype(np.uint16) >= threshold]
                drawn = (m >> 16).astype(dtype)
            take = min(len(drawn), len(block) - filled)
            block[filled : filled + take] = drawn[:take]
            drawn = drawn[take:]
            filled += take
        yield block.reshape(n, length)


def sample_distribution(
    config: ExperimentConfig,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 10**6,
) -> list[FitnessHistogram]:
    """One histogram per configured length.

    Each length's chunks are scored in blocks, and each block is split into
    at most `workers` contiguous chunk ranges (scored in parallel processes
    when `workers > 1` and a length has more than one chunk).  Without
    `checkpoint_path` one block holds every chunk.  With it, a block holds
    about `checkpoint_every` samples (at least one chunk per worker), and
    after every block the checkpoint file stores (chunks done, counts) for
    that length; a rerun resumes from it.  Because every chunk seeds its
    own generator, any block split, worker count or resume gives
    bit-identical histograms.

    The checkpoint file is one JSON object keyed per length by everything
    that length's counts depend on; entries under other keys are kept.
    """
    n_chunks = (config.samples_per_length + CHUNK_SIZE - 1) // CHUNK_SIZE
    store = {}
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        if checkpoint_path.exists():
            store = _read_checkpoint(checkpoint_path, config, n_chunks)
    block = (
        n_chunks if checkpoint_path is None
        else max(config.workers, checkpoint_every // CHUNK_SIZE)
    )
    # No block has more ranges than the run has chunks.
    pool_size = min(config.workers, n_chunks)
    parallel = pool_size > 1
    if parallel:
        # Imported here: it loads multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor
    results = []
    with ProcessPoolExecutor(pool_size) if parallel else nullcontext() as pool:
        for length in config.lengths:
            key = _length_key(config, length)
            done, counts = store.get(key, (0, [0] * (config.target.max_fitness + 1)))
            counts = np.array(counts, dtype=np.int64)
            score = partial(
                sample_fitness_histogram, config.wires, length,
                config.samples_per_length, config.seed, config.target,
                config.outputs, config.constant_fill,
            )
            while done < n_chunks:
                stop = min(n_chunks, done + block)
                w = min(config.workers, stop - done)
                bounds = [done + round(i * (stop - done) / w) for i in range(w + 1)]
                ranges = (bounds[:-1], bounds[1:])
                for hist in (pool.map if parallel else map)(score, *ranges):
                    counts += hist.counts
                done = stop
                if checkpoint_path is not None:
                    store[key] = [done, counts.tolist()]
                    tmp = Path(str(checkpoint_path) + ".tmp")
                    tmp.write_text(json.dumps(store))
                    tmp.replace(checkpoint_path)
            results.append(FitnessHistogram(length, counts, int(counts.sum())))
    return results


def _read_checkpoint(path: Path, config: ExperimentConfig, n_chunks: int) -> dict:
    """The checkpoint store at `path`.  Each entry of this run's lengths must
    be one the run could have written, or a ValueError names the file and key."""
    try:
        store = json.loads(path.read_text())
    except ValueError as e:  # not UTF-8, or not JSON
        raise ValueError(f"checkpoint {path}: {e}") from None
    if not isinstance(store, dict):
        raise ValueError(f"checkpoint {path}: expected a JSON object keyed per length")
    size = config.target.max_fitness + 1
    for key in filter(store.__contains__, map(partial(_length_key, config), config.lengths)):
        where = f"checkpoint {path}, key {key!r}"
        if not (isinstance(store[key], list) and len(store[key]) == 2):
            raise ValueError(f"{where}: expected [chunks done, counts]")
        done, counts = store[key]
        if type(done) is not int or not 0 <= done <= n_chunks:
            raise ValueError(f"{where}: chunks done {done!r} is not an int in 0..{n_chunks}")
        if not (isinstance(counts, list) and len(counts) == size
                and all(type(c) is int and c >= 0 for c in counts)):
            raise ValueError(f"{where}: counts are not {size} non-negative ints")
        want = min(done * CHUNK_SIZE, config.samples_per_length)
        if sum(counts) != want:
            raise ValueError(f"{where}: counts sum to {sum(counts)}, not {want}")
    return store


def _length_key(config: ExperimentConfig, length: int) -> str:
    """Everything one length's counts depend on."""
    return (
        f"w{config.wires}|L{length}"
        f"|s{config.samples_per_length}|seed{config.seed}"
        f"|out{','.join(map(str, config.outputs.wire_of_output))}"
        f"|fill{config.constant_fill}"
        f"|in{config.target.n_inputs}"
        f"|rows{','.join(f'{r:x}' for r in config.target.rows)}"
        f"|chunk{CHUNK_SIZE}"
    )


def convergence_series(
    histograms: Sequence[FitnessHistogram], limit: LimitModel
) -> ConvergenceSeries:
    """Per-length mean, sd, TVD to the limit pmf, and solution count."""
    if limit.pmf is None:
        raise ValueError("limit model has no materialized pmf")
    rows = []
    for h in histograms:
        if len(h.counts) != len(limit.pmf):
            raise ValueError(
                f"histogram support ({len(h.counts)}) does not match limit pmf "
                f"({len(limit.pmf)})"
            )
        tvd = total_variation_distance(h.distribution(), limit.pmf)
        rows.append((h.length, h.mean(), h.sd(), tvd, h.solutions(), h.total))
    return ConvergenceSeries(rows)


def _scan_level(parents, last, depth, max_length, target_row, prune, counts):
    """Add to counts[depth] the matches among every one-gate extension of
    `parents` (n, W), then expand those children in bounded blocks.

    `last` holds each parent's final gate code (-1 for none); with `prune`
    the extension repeating it is skipped.  Child (p, g) differs from parent
    p only on gate g's target wire, so its match count is the parent's,
    minus that wire's old match, plus its new one: no child bus is built to
    count, and none at all at the deepest level.
    """
    tg, ca, cb = gate_arrays(parents.shape[1])
    old = parents[:, tg]
    new = old ^ (parents[:, ca] & parents[:, cb])
    hits = np.count_nonzero(parents == target_row, axis=1)
    keep = np.arange(len(tg)) != last[:, None]
    child_hits = hits[:, None] + (new == target_row) - (old == target_row)
    counts[depth] += np.sum(child_hits, where=keep)
    if depth == max_length:
        return
    p, g = np.nonzero(keep)
    children = parents[p]
    children[np.arange(len(p)), tg[g]] = new[p, g]
    child_last = g if prune else np.full_like(g, -1)
    block = max(1, SCAN_BLOCK_WORDS // (len(tg) * parents.shape[1]))
    for s in range(0, len(children), block):
        _scan_level(
            children[s : s + block], child_last[s : s + block], depth + 1,
            max_length, target_row, prune, counts,
        )


def exhaustive_min_scan(
    wires: int,
    max_length: int,
    target: TargetTable,
    constant_fill: int = 1,
    prune: bool = True,
) -> dict[int, int]:
    """Exact counts of (circuit, output wire) pairs reproducing the target,
    for every circuit length 1..max_length.

    Every gate sequence is enumerated level by level (each level extends the
    previous one's bus states by every gate, in blocks of at most
    SCAN_BLOCK_WORDS words per level, so memory does not grow with the
    sequence count) and every wire is tried as the output.  With spare wires
    a circuit can carry the target on two wires and counts once per wire.
    With every wire an input, each pair is one solving circuit: a bijection
    of bus states cannot carry one row on two wires.

    With `prune`, sequences containing an adjacent identical gate pair are
    skipped: such a pair cancels (the gate is self-inverse), so the circuit
    computes the same function as one two gates shorter.  Pruned counts omit
    those reducible circuits; when no shorter solutions exist the counts are
    unchanged, which is the minimality-scan use case.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    scorer = Scorer(wires, target.n_inputs, constant_fill, target, "best")
    scorer.check_one_word()
    n_gates = len(gate_arrays(wires)[0])
    if n_gates ** max_length > ENUMERATION_GUARD:
        raise ValueError(
            f"{n_gates}^{max_length} sequences exceed the enumeration guard "
            f"({ENUMERATION_GUARD:.0e})"
        )
    root = np.array([scorer.wire_patterns], dtype=np.uint64)
    counts = np.zeros(max_length + 1, dtype=np.int64)
    _scan_level(
        root, np.array([-1]), 1, max_length, np.uint64(target.rows[0]), prune, counts
    )
    return {length: int(counts[length]) for length in range(1, max_length + 1)}
