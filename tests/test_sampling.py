"""Batch sampling engine, determinism, checkpoints, exhaustive scans."""

import hashlib
import inspect
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from revcirc import sampling
from revcirc.cli import _sampling_rows, build_parser
from revcirc.core import Circuit, enumerate_gates, evaluate
from revcirc.fitness import (
    DEFAULT_OUTPUT,
    OutputMap,
    TargetTable,
    hamming_fitness_scalar,
    six_multiplexor_target,
)
from revcirc.sampling import (
    CHUNK_SIZE,
    ExperimentConfig,
    FitnessHistogram,
    convergence_series,
    exhaustive_min_scan,
    sample_distribution,
    sample_fitness_histogram,
)
from revcirc.theory import binomial_limit, limit_for, poisson_interval, total_variation_distance

TARGET = six_multiplexor_target()
D0_PASSTHROUGH = TargetTable(6, 1, (sum(1 << t for t in range(64) if t & 1),))


def test_histogram_chunk_by_chunk_equals_one_call():
    """A run resumed at every chunk, each call adding its chunk to the
    counts so far, ends with the one-call histogram."""
    samples = 3 * CHUNK_SIZE + 100
    whole = sample_fitness_histogram(6, 5, samples, seed=4, target=TARGET)
    hist = None
    for c in range(4):
        hist = sample_fitness_histogram(
            6, 5, samples, seed=4, target=TARGET, first_chunk=c, stop_chunk=c + 1,
            initial_counts=None if hist is None else hist.counts,
        )
        assert hist.total == min(samples, (c + 1) * CHUNK_SIZE)
    assert np.array_equal(hist.counts, whole.counts) and hist.total == whole.total == samples


def test_histogram_determinism():
    a = sample_fitness_histogram(6, 5, 60_000, seed=1, target=TARGET)
    b = sample_fitness_histogram(6, 5, 60_000, seed=1, target=TARGET)
    c = sample_fitness_histogram(6, 5, 60_000, seed=2, target=TARGET)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.total == 60_000 == int(a.counts.sum())


# SHA-256 of sample_fitness_histogram(wires, length, 40_000, seed, TARGET)
# counts as little-endian int64, recorded from the engine this one replaced;
# the gate draws are unchanged, so every count must stay byte-identical.
HISTOGRAM_DIGESTS = {
    (6, 0, 3): "f17a2f2531930543d8a05def1aafbb3c877b447e7639752508e2dbb279c8b5c0",
    (6, 0, 11): "f17a2f2531930543d8a05def1aafbb3c877b447e7639752508e2dbb279c8b5c0",
    (6, 1, 3): "d63493129543d1aa2709c3f8025369e710b0dd6ff0745b9cd17547a37540ba3a",
    (6, 1, 11): "d7a66439e688cd3e660b77a104a92ea56f3bec349a293857ff825a58db88d705",
    (6, 5, 3): "a8cf33364aea196f5a522b3b1c8458c8de1ba4a5f6bcb3195b68fa85e603b940",
    (6, 5, 11): "ac4d1ee03128affab335eda7aee7271fdda4cf4c3f12561b5f374807a60ebddb",
    (6, 20, 3): "4b8c47d2d8075f58633acd7b10c7cd7dbe7080efb4f49c6ebf52dd050968174b",
    (6, 20, 11): "16e2ae09556ae219429c7037953d1d82a139c22b6d8abc061cf0e79e45738457",
    (6, 100, 3): "b9525dadc71197669c6f27c1a5eff51441e6ecca11c2b0670fb90b5d254d83ae",
    (6, 100, 11): "8c419bd79a8fce37bb1550b18748037d5c050e8e3259f329a1348cccd21a62e8",
    (7, 0, 3): "f17a2f2531930543d8a05def1aafbb3c877b447e7639752508e2dbb279c8b5c0",
    (7, 0, 11): "f17a2f2531930543d8a05def1aafbb3c877b447e7639752508e2dbb279c8b5c0",
    (7, 1, 3): "04eab3e737a6d2883c25bdce477b6c4a561a53f0024c1b855a7496d575935652",
    (7, 1, 11): "af0681491249ce7a304c12d08d42b07ced67e058e83d2b0158fa67a03df75549",
    (7, 5, 3): "8cb4b9778b5cd92a2f375fc66466e9d44b15197407fa6e5d2621bd5381c6d34d",
    (7, 5, 11): "e445dca7895c2d831a6604976f7ceb5e145cb39c4a616adca2044a48750ef538",
    (7, 20, 3): "1c36acc9ee30c83dd00bc317fa0edcbd646d2b1dd339a4c5f4f6263b79703da4",
    (7, 20, 11): "b6942ba90d729cdb90e7065032fca456f8b073eeddef8156d3a9acf3b461f4e9",
    (7, 100, 3): "bc4a85103080422ddb42b4d575000d7eeb554d4fefe2d3f596ecc4197bf9affd",
    (7, 100, 11): "dae8520b7d3664817fd14354bd1628dad605595d5fe059074f6a8a9b303df510",
    (12, 0, 3): "f17a2f2531930543d8a05def1aafbb3c877b447e7639752508e2dbb279c8b5c0",
    (12, 0, 11): "f17a2f2531930543d8a05def1aafbb3c877b447e7639752508e2dbb279c8b5c0",
    (12, 1, 3): "1ed4ba086b3eb4d5ec344fbbef2578662e1627b0ed8da819b8e2b53d43e14666",
    (12, 1, 11): "5e8824dbb3b482bd72512e185e3500ec30d4acdfb23d7936497da58b47ca87e6",
    (12, 5, 3): "e7c4fa466b33cda41077f9cbcfea505f1eef7cd28a688bdfeed277b9e9fce0bc",
    (12, 5, 11): "a982afd406defb51fdfaa56f03feb5bd1e156ac5e688864398e84ae4b9ef708c",
    (12, 20, 3): "b7d5fa77344f2ab204de655fa5590f4185ed057f70f8ed798d9bc8ebf27b3bcb",
    (12, 20, 11): "08055d9c42d321f6c3840872a1baaee3355b831b05d7fe728e52632e36c1a5a2",
    (12, 100, 3): "0ca11a68d40210d891ab5357bc599c901105ec56f67751cce265651b461ddefd",
    (12, 100, 11): "54ae34c6acd2843cdc67612714df4f274ab741f2eb13bd40ac4a3ebe31f8de3a",
}


@pytest.mark.parametrize("wires,length,seed", sorted(HISTOGRAM_DIGESTS))
def test_histogram_digests_are_pinned(wires, length, seed):
    hist = sample_fitness_histogram(wires, length, 40_000, seed=seed, target=TARGET)
    digest = hashlib.sha256(hist.counts.astype("<i8").tobytes()).hexdigest()
    assert digest == HISTOGRAM_DIGESTS[wires, length, seed]


# A 4-input target (x3 XOR x0.x1) and a 2-output one (mux, parity) on 6 inputs.
FOUR_INPUT = TargetTable.from_function(4, 1, lambda t: (t >> 3 ^ t & t >> 1) & 1)
MUX_AND_PARITY = TargetTable.from_function(
    6, 2, lambda t: TARGET.answer(t) | (bin(t).count("1") & 1) << 1
)


@pytest.mark.parametrize("wires,length,outputs,fill,target", [
    pytest.param(6, 7, DEFAULT_OUTPUT, 1, TARGET, id="6-7-outputs0-1"),
    pytest.param(7, 12, OutputMap((3,)), 0, TARGET, id="7-12-outputs1-0"),
    pytest.param(12, 20, OutputMap((9,)), 1, TARGET, id="12-20-outputs2-1"),
    pytest.param(5, 9, OutputMap((4,)), 0, FOUR_INPUT, id="5w-4in-fill-wire-fill0"),
    pytest.param(5, 9, OutputMap((4,)), 1, FOUR_INPUT, id="5w-4in-fill-wire-fill1"),
    pytest.param(6, 9, OutputMap((2, 5)), 1, MUX_AND_PARITY, id="6w-two-outputs"),
])
def test_engine_matches_scalar_oracle(monkeypatch, wires, length, outputs, fill, target):
    """Rebuild every circuit of two small chunks from the chunks' own draws
    and score it case by case; the engine's histogram must be identical."""
    gates = enumerate_gates(wires)
    samples, chunk = 160, 100
    monkeypatch.setattr(sampling, "CHUNK_SIZE", chunk)
    expected = np.zeros(target.max_fitness + 1, dtype=np.int64)
    for c in range(2):
        rng = np.random.default_rng(np.random.SeedSequence([5, length, c]))
        batch = min(chunk, samples - c * chunk)
        draws = rng.integers(0, len(gates), size=(batch, length), dtype=np.uint16)
        for row in draws:
            circuit = Circuit(wires, [gates[g] for g in row], target.n_inputs,
                              constant_fill=fill)
            expected[hamming_fitness_scalar(circuit, target, outputs).raw] += 1
    hist = sample_fitness_histogram(
        wires, length, samples, seed=5, target=target, outputs=outputs,
        constant_fill=fill,
    )
    assert np.array_equal(hist.counts, expected)


@pytest.mark.parametrize("n_gates", [1, 3, 60, 105, 660, 65535, 65536])
@pytest.mark.parametrize("batch,length", [(1, 1), (37, 0), (37, 7), (300, 11)])
def test_gate_code_blocks_are_numpys_draws(monkeypatch, n_gates, batch, length):
    """Small blocks and steps, so blocks end mid-step and steps mid-block:
    the blocks still join into numpy's own uint16 draw, and none is larger
    than DRAW_BLOCK_BYTES (or one row)."""
    monkeypatch.setattr(sampling, "DRAW_BLOCK_BYTES", 100)
    monkeypatch.setattr(sampling, "DRAW_STEP_WORDS", 9)
    seq = np.random.SeedSequence([n_gates, batch, length])
    expected = np.random.default_rng(seq).integers(
        0, n_gates, size=(batch, length), dtype=np.uint16
    )
    blocks = [
        b.copy() for b in sampling._gate_code_blocks(
            np.random.default_rng(seq), n_gates, batch, length
        )
    ]
    code_bytes = 1 if n_gates <= 256 else 2
    assert all(b.nbytes <= max(100, code_bytes * length) for b in blocks)
    assert np.array_equal(np.concatenate(blocks), expected)


@pytest.mark.parametrize("wires", [6, 7])
def test_long_chunk_holds_one_draw_block(wires):
    """A chunk of 8,192 circuits of 500 gates peaks at under 4 MiB of traced
    memory (about 3 MiB): its 4 MiB of uint8 codes come in 2 MiB draw
    blocks.  One whole-chunk uint16 draw took 8.3 and 8.7 MiB."""
    sample_fitness_histogram(wires, 1, 10, seed=0, target=TARGET)  # builds the cached tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sample_fitness_histogram(wires, 500, 8192, seed=0, target=TARGET)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_gate_code_blocks_refuse_codes_past_uint16():
    with pytest.raises(ValueError, match="uint16"):
        next(sampling._gate_code_blocks(np.random.default_rng(0), (1 << 16) + 1, 1, 1))


def test_worker_split_is_invisible():
    cfg1 = ExperimentConfig(
        wires=7, lengths=(2, 6), samples_per_length=80_000, target=TARGET,
        seed=9, workers=1,
    )
    cfg3 = ExperimentConfig(
        wires=7, lengths=(2, 6), samples_per_length=80_000, target=TARGET,
        seed=9, workers=3,
    )
    for a, b in zip(sample_distribution(cfg1), sample_distribution(cfg3)):
        assert np.array_equal(a.counts, b.counts)


def test_single_chunk_run_builds_no_worker_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single-chunk run started a process pool")

    cfg = ExperimentConfig(
        wires=7, lengths=(2, 6), samples_per_length=CHUNK_SIZE, target=TARGET,
        seed=9, workers=2,
    )
    serial = sample_distribution(replace(cfg, workers=1))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    for a, b in zip(serial, sample_distribution(cfg)):
        assert np.array_equal(a.counts, b.counts)
        assert b.total == CHUNK_SIZE


def test_no_spare_histogram_has_even_support_only():
    hist = sample_fitness_histogram(6, 20, 300_000, seed=5, target=TARGET)
    assert int(hist.counts[1::2].sum()) == 0
    assert hist.total == 300_000


def test_long_spare_circuits_approach_binomial():
    hist = sample_fitness_histogram(7, 300, 200_000, seed=6, target=TARGET)
    limit = binomial_limit(6, 1)
    assert hist.mean() == pytest.approx(32.0, abs=0.05)
    assert hist.sd() == pytest.approx(4.0, abs=0.05)
    assert total_variation_distance(hist.distribution(), limit.pmf) < 0.05


def test_single_gate_distribution_matches_direct_enumeration():
    """Oracle: at length 1 the sampled distribution must match the exact
    distribution over the 90 equally likely gates, computed case by case."""
    gates = enumerate_gates(6)
    exact = np.zeros(65)
    for g in gates:
        f = hamming_fitness_scalar(Circuit(6, [g]), TARGET).raw
        exact[f] += 1 / len(gates)
    hist = sample_fitness_histogram(6, 1, 90_000, seed=7, target=TARGET)
    assert total_variation_distance(hist.distribution(), exact) < 0.01


def test_histogram_moments_match_counts():
    counts = np.zeros(65, dtype=np.int64)
    counts[30], counts[34] = 3, 1
    h = FitnessHistogram(5, counts, 4)
    assert h.mean() == pytest.approx(31.0)
    assert h.sd() == pytest.approx(np.sqrt((3 * 1 + 1 * 9) / 4))
    assert h.solutions() == 0


def test_config_validation():
    kw = dict(wires=6, samples_per_length=10, target=TARGET)
    with pytest.raises(ValueError):
        ExperimentConfig(lengths=(), **kw)
    with pytest.raises(ValueError):
        ExperimentConfig(lengths=(5, 5), **kw)
    with pytest.raises(ValueError):
        ExperimentConfig(lengths=(10, 5), **kw)
    with pytest.raises(ValueError):
        ExperimentConfig(lengths=(-1, 5), **kw)
    with pytest.raises(ValueError):
        ExperimentConfig(wires=6, lengths=(5,), samples_per_length=0, target=TARGET)
    with pytest.raises(ValueError):
        ExperimentConfig(wires=5, lengths=(5,), samples_per_length=1, target=TARGET)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            ExperimentConfig(lengths=(5,), workers=workers, **kw)
    wide = TargetTable.from_function(7, 1, lambda t: t & 1)
    with pytest.raises(ValueError, match="n <= 6"):
        ExperimentConfig(wires=8, lengths=(5,), samples_per_length=1, target=wide)
    with pytest.raises(TypeError):  # unknown fields are refused
        ExperimentConfig(wires=6, lengths=(5,), samples_per_length=1, target=TARGET,
                         backend="gpu")


def test_sampler_rejects_wide_targets():
    wide = TargetTable.from_function(7, 1, lambda t: t & 1)
    with pytest.raises(ValueError):
        sample_fitness_histogram(8, 3, 100, seed=0, target=wide)
    with pytest.raises(ValueError):
        sample_fitness_histogram(6, 3, 100, seed=0, target=TARGET,
                                 outputs=OutputMap((6,)))


def test_sampler_rejects_output_map_arity_mismatch():
    two_out = TargetTable.from_function(6, 2, lambda t: t & 3)
    with pytest.raises(ValueError, match="arity"):
        sample_fitness_histogram(6, 3, 100, seed=0, target=two_out)
    with pytest.raises(ValueError, match="arity"):
        sample_fitness_histogram(6, 3, 100, seed=0, target=TARGET,
                                 outputs=OutputMap((0, 1)))
    with pytest.raises(ValueError, match="arity"):  # refused before any chunk runs
        ExperimentConfig(wires=6, lengths=(3,), samples_per_length=100, target=two_out)
    with pytest.raises(ValueError, match="fixed output map"):
        ExperimentConfig(wires=6, lengths=(3,), samples_per_length=100, target=TARGET,
                         outputs="best")


class Interrupted(Exception):
    pass


def record_chunk_ranges(monkeypatch, fail_after=None):
    """Route the sampler's chunk-range calls through a recorder.

    Returns the list of (length, first_chunk, stop_chunk) calls made; with
    `fail_after`, the call after that many raises Interrupted, as a killed
    run would stop.
    """
    calls = []

    def recorded(*args, **kwargs):
        if len(calls) == fail_after:
            raise Interrupted
        bound = inspect.signature(sample_fitness_histogram).bind(*args, **kwargs)
        bound.apply_defaults()
        arg = bound.arguments
        calls.append((arg["length"], arg["first_chunk"], arg["stop_chunk"]))
        return sample_fitness_histogram(*args, **kwargs)

    monkeypatch.setattr(sampling, "sample_fitness_histogram", recorded)
    return calls


def test_checkpoint_resume_is_bit_identical(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        wires=6, lengths=(2, 4), samples_per_length=70_000, target=TARGET, seed=12
    )
    direct = sample_distribution(cfg)
    streamed = sample_distribution(
        cfg, checkpoint_path=tmp_path / "streamed.json", checkpoint_every=30_000
    )
    for a, b in zip(direct, streamed):
        assert np.array_equal(a.counts, b.counts)
    # Stop a real run after length 2 (three chunks) and one chunk of length 4.
    ck = tmp_path / "ck.json"
    record_chunk_ranges(monkeypatch, fail_after=4)
    with pytest.raises(Interrupted):
        sample_distribution(cfg, checkpoint_path=ck, checkpoint_every=CHUNK_SIZE)
    calls = record_chunk_ranges(monkeypatch)
    resumed = sample_distribution(cfg, checkpoint_path=ck, checkpoint_every=CHUNK_SIZE)
    assert calls == [(4, 1, 2), (4, 2, 3)]  # only the chunks never scored
    for a, b in zip(direct, resumed):
        assert np.array_equal(a.counts, b.counts)
        assert a.total == b.total == 70_000


def test_checkpoint_with_other_config_is_ignored(tmp_path, monkeypatch):
    ck = tmp_path / "ck.json"
    cfg_a = ExperimentConfig(
        wires=6, lengths=(3,), samples_per_length=40_000, target=TARGET, seed=1
    )
    first = sample_distribution(cfg_a, checkpoint_path=ck)
    cfg_b = ExperimentConfig(
        wires=6, lengths=(3,), samples_per_length=40_000, target=TARGET, seed=2
    )
    fresh = sample_distribution(cfg_b, checkpoint_path=ck)
    direct = sample_distribution(cfg_b)
    assert np.array_equal(fresh[0].counts, direct[0].counts)
    calls = record_chunk_ranges(monkeypatch)
    again = sample_distribution(cfg_a, checkpoint_path=ck)
    assert calls == []  # cfg_a's finished entry survived cfg_b's run
    assert np.array_equal(again[0].counts, first[0].counts)


def test_checkpoint_of_another_target_is_ignored(tmp_path):
    ck = tmp_path / "ck.json"
    parity = TargetTable.from_function(6, 1, lambda t: bin(t).count("1") & 1)
    mux = ExperimentConfig(
        wires=7, lengths=(3,), samples_per_length=40_000, target=TARGET, seed=4
    )
    sample_distribution(mux, checkpoint_path=ck)
    cfg = ExperimentConfig(
        wires=7, lengths=(3,), samples_per_length=40_000, target=parity, seed=4
    )
    resumed = sample_distribution(cfg, checkpoint_path=ck)
    fresh = sample_distribution(cfg)
    assert np.array_equal(resumed[0].counts, fresh[0].counts)


def test_checkpointed_workers_match_serial(tmp_path):
    # 150,000 samples: four full chunks and a partial fifth.
    cfg = ExperimentConfig(
        wires=6, lengths=(3, 6), samples_per_length=150_000, target=TARGET,
        seed=21, workers=2,
    )
    serial = sample_distribution(replace(cfg, workers=1))
    ck = tmp_path / "ck.json"
    parallel = sample_distribution(cfg, checkpoint_path=ck, checkpoint_every=CHUNK_SIZE)
    assert ck.exists()
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.counts, b.counts)


def test_interrupted_serial_run_resumes_with_workers(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        wires=6, lengths=(3, 6), samples_per_length=150_000, target=TARGET, seed=22
    )
    direct = sample_distribution(cfg)
    ck = tmp_path / "ck.json"
    record_chunk_ranges(monkeypatch, fail_after=2)
    with pytest.raises(Interrupted):
        sample_distribution(cfg, checkpoint_path=ck, checkpoint_every=CHUNK_SIZE)
    monkeypatch.undo()
    resumed = sample_distribution(
        replace(cfg, workers=2), checkpoint_path=ck, checkpoint_every=CHUNK_SIZE
    )
    for a, b in zip(direct, resumed):
        assert np.array_equal(a.counts, b.counts)
        assert b.total == 150_000


def test_solution_density_against_exact_rate():
    """At length 1 on 6 wires, a circuit leaves wire 0 carrying D0 exactly
    when its gate does not target wire 0: 75 of the 90 gates.  The density
    rows are the `density` command's."""
    cfg = ExperimentConfig(
        wires=6, lengths=(1,), samples_per_length=90_000,
        target=D0_PASSTHROUGH, seed=13,
    )
    header, ((length, count, rate, lo, hi),) = _sampling_rows("density", cfg)
    assert header == ["length", "count", "rate", "ci_lo", "ci_hi"]
    assert length == 1 and rate == count / 90_000
    assert lo < 75 / 90 < hi
    assert rate == pytest.approx(75 / 90, abs=0.01)


def test_poisson_interval_reference_values():
    lo, hi = poisson_interval(0)
    assert lo == 0.0
    assert hi == pytest.approx(3.6889, abs=1e-3)
    lo, hi = poisson_interval(3)
    assert lo == pytest.approx(0.6187, abs=1e-3)
    assert hi == pytest.approx(8.7673, abs=1e-3)
    lo, hi = poisson_interval(100, confidence=0.95)
    assert lo == pytest.approx(81.36, abs=0.05)
    assert hi == pytest.approx(121.63, abs=0.05)


def test_poisson_interval_is_bit_identical_to_chi2_formula():
    from scipy import stats

    counts = np.array([*range(301), 10**4, 10**6])
    for confidence in (0.5, 0.9, 0.95, 0.99, 0.999):
        alpha = 1 - confidence
        lo = stats.chi2.ppf(alpha / 2, 2 * counts) / 2
        lo[0] = 0.0
        hi = stats.chi2.ppf(1 - alpha / 2, 2 * counts + 2) / 2
        got = np.array([poisson_interval(int(c), confidence) for c in counts])
        assert np.array_equal(got[:, 0], lo), confidence
        assert np.array_equal(got[:, 1], hi), confidence


def test_convergence_series_rows_and_tvds():
    hists = [sample_fitness_histogram(6, L, 1000, seed=1, target=TARGET) for L in (5, 20)]
    limit = limit_for(6, TARGET)
    series = convergence_series(hists, limit)
    assert [r[0] for r in series.rows] == [5, 20]
    assert series.tvds() == [total_variation_distance(h.distribution(), limit.pmf)
                             for h in hists]


def test_convergence_series_checks_support():
    hist = sample_fitness_histogram(6, 5, 1000, seed=1, target=TARGET)
    small = TargetTable.from_function(3, 1, lambda t: t & 1)
    with pytest.raises(ValueError):
        convergence_series([hist], binomial_limit(3, 1))
    model = binomial_limit(24, 1)
    with pytest.raises(ValueError):
        convergence_series([hist], model)  # no materialized pmf


def brute_force_scan(wires, max_length, target, prune, fill=1):
    gates = enumerate_gates(wires)
    counts = {}
    for length in range(1, max_length + 1):
        n = 0
        for combo in itertools.product(range(len(gates)), repeat=length):
            if prune and any(a == b for a, b in zip(combo, combo[1:])):
                continue
            c = Circuit(
                wires, [gates[i] for i in combo], target.n_inputs, constant_fill=fill
            )
            rows = evaluate(c).wire_rows
            n += sum(rows[w] == target.rows[0] for w in range(wires))
        counts[length] = n
    return counts


def test_min_scan_matches_brute_force():
    # A target realizable in two gates keeps the brute force interesting.
    gates3 = enumerate_gates(3)
    made = Circuit(3, [gates3[2], gates3[7]])
    target = TargetTable(3, 1, (evaluate(made).wire_rows[1],))
    for prune in (False, True):
        fast = exhaustive_min_scan(3, 3, target, prune=prune)
        slow = brute_force_scan(3, 3, target, prune)
        assert fast == slow
    full = exhaustive_min_scan(3, 3, target, prune=False)
    assert any(full[k] > 0 for k in full)


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("fill", [0, 1])
def test_min_scan_matches_brute_force_on_four_wires(prune, fill):
    gates4 = enumerate_gates(4)
    made = Circuit(4, [gates4[3], gates4[17], gates4[8]], 3, constant_fill=fill)
    target = TargetTable(3, 1, (evaluate(made).wire_rows[2],))
    fast = exhaustive_min_scan(4, 3, target, constant_fill=fill, prune=prune)
    assert fast == brute_force_scan(4, 3, target, prune, fill)
    assert fast[3] > 0


def test_min_scan_counts_circuit_wire_pairs():
    """With a spare wire a circuit can carry the target on two wires, and the
    scan counts each (circuit, output wire) pair, as `revcirc --help` says.
    On 4 wires, the 3-input target `x & 1` at fill 0 is solved by 21 and 434
    circuits of lengths 1 and 2, in 22 and 461 pairs."""
    target = TargetTable.from_function(3, 1, lambda t: t & 1)
    gates = enumerate_gates(4)
    circuits, pairs = {}, {}
    for length in (1, 2):
        traces = (evaluate(Circuit(4, seq, 3, constant_fill=0))
                  for seq in itertools.product(gates, repeat=length))
        hits = [trace.wire_rows.count(target.rows[0]) for trace in traces]
        circuits[length], pairs[length] = sum(h > 0 for h in hits), sum(hits)
    assert circuits == {1: 21, 2: 434}
    assert exhaustive_min_scan(4, 2, target, constant_fill=0, prune=False) == pairs
    assert pairs == {1: 22, 2: 461}
    assert "(circuit, output wire) pair" in " ".join(build_parser().format_help().split())


def test_min_scan_prune_is_sound_for_minimality():
    """Pruning only removes circuits with an adjacent self-cancelling pair,
    so the shortest length with a nonzero count is identical."""
    rng = np.random.default_rng(14)
    gates = enumerate_gates(3)
    for _ in range(10):
        idx = rng.integers(0, len(gates), size=3)
        made = Circuit(3, [gates[i] for i in idx])
        target = TargetTable(3, 1, (evaluate(made).wire_rows[0],))
        full = exhaustive_min_scan(3, 3, target, prune=False)
        pruned = exhaustive_min_scan(3, 3, target, prune=True)
        first_full = next((k for k in sorted(full) if full[k]), None)
        first_pruned = next((k for k in sorted(pruned) if pruned[k]), None)
        assert first_full == first_pruned
        assert all(pruned[k] <= full[k] for k in full)


def test_min_scan_guards():
    with pytest.raises(ValueError):
        exhaustive_min_scan(6, 6, TARGET)  # 90^6 exceeds the guard
    with pytest.raises(ValueError):
        exhaustive_min_scan(6, 0, TARGET)
    two_out = TargetTable.from_function(3, 2, lambda t: t % 4)
    with pytest.raises(ValueError):
        exhaustive_min_scan(3, 2, two_out)


@pytest.mark.parametrize("wires,depth", [(6, 3), (4, 4)])
def test_min_scan_holds_little_memory(wires, depth):
    """One scan call peaks at under 3 MiB of traced memory (about 1.5 MiB
    for the 6-wire six-multiplexor at depth 3 and 2.1 MiB on 4 wires at
    depth 4): every level walks blocks of at most SCAN_BLOCK_WORDS bus
    words.  Blocks of 2^20 words took 6.0 and 8.9 MiB."""
    target = TARGET if wires == 6 else TargetTable.from_function(4, 1, lambda t: t >> (t & 3) & 1)
    exhaustive_min_scan(wires, 1, target)  # builds the cached gate tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        exhaustive_min_scan(wires, depth, target)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
