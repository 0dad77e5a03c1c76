"""Closed-form limit laws, their Monte Carlo oracles, Markov machinery."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from revcirc.fitness import TargetTable, six_multiplexor_target
from revcirc.theory import (
    PMF_SIZE_GUARD,
    LimitModel,
    binomial_limit,
    gate_transition_matrix,
    is_doubly_stochastic,
    limit_for,
    normalized_limit,
    parity_shifted_limit,
    rms_limit,
    row_tvds_to_uniform,
    total_variation_distance,
)


def test_binomial_limit_exact_pmf():
    model = binomial_limit(6, 1)
    assert [f.name for f in dataclasses.fields(LimitModel)] == ["mean", "sd", "pmf"]
    assert len(model.pmf) == 65
    assert model.mean == 32.0
    assert model.sd == 4.0
    assert model.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    for k in (0, 1, 17, 32, 64):
        assert model.pmf[k] == pytest.approx(math.comb(64, k) / 2**64, rel=1e-12)
    assert model.pmf[-1] == 2.0**-64


def test_binomial_limit_multi_output():
    model = binomial_limit(3, 2)
    assert len(model.pmf) == 17
    assert model.mean == 8.0
    assert model.sd == 2.0
    assert model.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_binomial_limit_pmf_guard():
    """A law whose pmf would pass the guard (2^24 + 1 outcomes) is refused
    by name before anything is allocated; the guard's own size is not."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="16777217 outcomes, past PMF_SIZE_GUARD"):
            binomial_limit(24, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(binomial_limit(0, PMF_SIZE_GUARD - 1).pmf) == PMF_SIZE_GUARD
    with pytest.raises(ValueError, match="PMF_SIZE_GUARD"):
        binomial_limit(0, PMF_SIZE_GUARD)


def test_parity_shifted_limit_moments():
    model = parity_shifted_limit()
    assert model.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert model.pmf[1::2].sum() == 0.0  # even support only
    assert model.mean == pytest.approx(2048 / 63, rel=1e-12)
    assert round(model.mean, 1) == 32.5
    # Hypergeometric variance, doubled support: sd = 2*sqrt(n K/N (1-K/N) (N-n)/(N-1))
    var = 32 * (32 / 63) * (31 / 63) * (31 / 62)
    assert model.sd == pytest.approx(2 * math.sqrt(var), rel=1e-12)
    assert model.sd == pytest.approx(4.0, abs=1e-3)
    assert model.pmf[-1] == pytest.approx(1 / math.comb(63, 32), rel=1e-9)


def test_binomial_limit_is_bit_identical_to_scipy_stats():
    for n in range(9):
        for m in (1, 2, 3):
            M = m << n
            want = stats.binom(M, 0.5).pmf(np.arange(M + 1))
            assert np.array_equal(binomial_limit(n, m).pmf, want), (n, m)


def test_parity_shifted_limit_is_bit_identical_to_scipy_stats():
    hg = stats.hypergeom(63, 32, 32)
    pk = hg.pmf(np.arange(33))
    want = np.zeros(65)
    want[::2] = pk
    model = parity_shifted_limit()
    assert np.array_equal(model.pmf, want)
    assert model.mean == 2 * hg.mean()
    assert model.sd == 2 * hg.std()
    assert model.pmf[-1] == pk[32]


def test_parity_shifted_limit_against_permutation_simulation():
    """Oracle: simulate the premise directly — a uniform random permutation
    of the 63 nonzero bus states with state 0 fixed — and compare the
    resulting fitness distribution with the closed-form pmf."""
    model = parity_shifted_limit()
    target = six_multiplexor_target()
    target_bits = np.array([(target.rows[0] >> t) & 1 for t in range(64)])
    n_samples = 200_000
    rng = np.random.default_rng(31)
    states = np.arange(1, 64)
    images = np.tile(states, (n_samples, 1))
    images = rng.permuted(images, axis=1)
    matches = ((images & 1) == target_bits[1:]).sum(axis=1)
    fitness = 1 + matches  # state 0 maps to 0, whose target bit is 0
    counts = np.bincount(fitness, minlength=65)
    assert counts[1::2].sum() == 0
    empirical = counts / n_samples
    assert total_variation_distance(empirical, model.pmf) < 0.01
    assert fitness.mean() == pytest.approx(model.mean, abs=0.05)
    assert fitness.std() == pytest.approx(model.sd, abs=0.05)


def test_limit_for_picks_the_law_by_spare_wires():
    """No spare wire gives the parity-shifted law (even fitness only); one
    or more holding 1 give the binomial law; too few wires, spare wires
    holding 0, or a 6-input target the parity-shifted law does not cover,
    are refused."""
    def law(model):
        return model.mean, model.sd, model.pmf.tobytes()

    mux = six_multiplexor_target()
    parity, binomial = law(parity_shifted_limit()), law(binomial_limit(6, 1))
    assert parity != binomial
    no_spare = limit_for(6, mux)
    assert law(no_spare) == parity
    assert not no_spare.pmf[1::2].any()
    for wires in (7, 12):
        assert law(limit_for(wires, mux)) == binomial
    with pytest.raises(ValueError, match="at least 6 wires"):
        limit_for(5, mux)
    # The fill matters only on spare wires; holding 0, they leave case 0 on
    # the all-zero bus, which no law here covers.
    assert law(limit_for(6, mux, 0)) == parity
    with pytest.raises(ValueError, match="spare wires holding 0"):
        limit_for(7, mux, 0)
    unbalanced = TargetTable.from_function(6, 1, lambda t: int(t & 3 == 3))
    case0_wants_1 = TargetTable.from_function(6, 1, lambda t: 1 - (t & 1))
    for target in (unbalanced, case0_wants_1):
        assert law(limit_for(7, target)) == binomial
        with pytest.raises(ValueError, match="balanced truth tables"):
            limit_for(6, target)


def test_normalized_limit_values():
    mean, sd = normalized_limit(6, 1)
    assert mean == 0.5
    assert sd == pytest.approx(1 / 16)
    # General form: 1 / (2 * sqrt(m * 2^n))
    mean2, sd2 = normalized_limit(4, 4)
    assert mean2 == 0.5
    assert sd2 == pytest.approx(1 / (2 * math.sqrt(4 * 16)), rel=1e-12)


def test_rms_limit_small_t_formula_and_oracle():
    for m in (8, 10):
        scale = 1 << m
        mean, sd = rms_limit(m, "small-T")
        assert mean == scale / 2
        assert sd == pytest.approx(scale / (2 * math.sqrt(3)), rel=1e-12)
        # Oracle: a single case's error is a uniform m-bit value.
        rng = np.random.default_rng(32 + m)
        errors = rng.integers(0, scale, size=400_000)
        assert errors.mean() == pytest.approx(mean, rel=0.02)
        assert errors.std() == pytest.approx(sd, rel=0.02)


def test_rms_limit_exhaustive_formula_and_oracle_gap():
    scale = 64
    mean, sd = rms_limit(6, "exhaustive-uniform")
    assert mean == pytest.approx(7 * scale / (12 * math.sqrt(3)), rel=1e-12)
    assert sd == pytest.approx(0.23 * scale, rel=1e-12)
    # Oracle: both the answer and the returned value uniform; the error is
    # their absolute difference (triangle-distributed).
    rng = np.random.default_rng(33)
    x = rng.integers(0, scale, size=400_000)
    a = rng.integers(0, scale, size=400_000)
    errors = np.abs(x - a)
    # The mean agrees with the quoted constant to about 1%; the quoted sd
    # (0.23 * 2^m) sits ~2.5% below the simulated value (~0.2357 * 2^m) — a
    # real gap in the quoted constant, asserted here as such.
    assert errors.mean() == pytest.approx(mean, rel=0.02)
    assert errors.std() == pytest.approx(scale * math.sqrt(1 / 18), rel=0.02)
    assert abs(errors.std() - sd) / sd > 0.02


def test_rms_limit_rejects_unknown_regime():
    with pytest.raises(ValueError):
        rms_limit(6, "huge-T")


def test_transition_matrix_is_doubly_stochastic():
    for wires in (3, 4):
        tm = gate_transition_matrix(wires)
        assert tm.shape == (1 << wires, 1 << wires)
        assert is_doubly_stochastic(tm, tol=1e-12)
        uniform = np.full(len(tm), 1 / len(tm))
        assert np.abs(uniform @ tm - uniform).max() < 1e-12


# SHA-256 of gate_transition_matrix(wires)'s float64 bytes, recorded from the
# gate-by-gate build over Circuit permutations that the vectorised one replaced.
TRANSITION_MATRIX_DIGESTS = {
    3: "7fe0617f6ab92125493fffd6c4a1e23adaa298d4c3779d9ec5cd6b3588fde557",
    4: "df42d168184b09fd3103b53c3560f24bc1998a57d3a3d6133e296d11e91fb27b",
}


@pytest.mark.parametrize("wires", sorted(TRANSITION_MATRIX_DIGESTS))
def test_transition_matrix_is_pinned(wires):
    digest = hashlib.sha256(gate_transition_matrix(wires).tobytes()).hexdigest()
    assert digest == TRANSITION_MATRIX_DIGESTS[wires]


def test_transition_matrix_guard():
    with pytest.raises(ValueError):
        gate_transition_matrix(5)


def test_transition_matrix_state_zero_is_fixed():
    row0 = gate_transition_matrix(3)[0]
    assert row0[0] == pytest.approx(1.0, abs=1e-12)
    assert row0[1:].sum() == 0.0


def test_transition_matrix_all_ones_row():
    # From state 0b111 every gate fires (both controls read 1), flipping its
    # target: three gates target each wire, so the row spreads 1/3 to each
    # of the states with one bit cleared.
    row = gate_transition_matrix(3)[7]
    expected = np.zeros(8)
    expected[[3, 5, 6]] = 1 / 3
    assert np.allclose(row, expected, atol=1e-15)


def test_restricted_chain_mixes_to_uniform():
    tm = gate_transition_matrix(3)[1:, 1:]
    assert len(tm) == 7
    assert is_doubly_stochastic(tm, tol=1e-12)
    tvds = [row_tvds_to_uniform(tm, k).max() for k in (1, 4, 16, 64)]
    assert all(a > b for a, b in zip(tvds, tvds[1:]))
    # Frozen mixing values: k=64 sits just above 1e-6, k=66 just below.
    assert row_tvds_to_uniform(tm, 64).max() == pytest.approx(1.2371e-6, rel=1e-3)
    assert row_tvds_to_uniform(tm, 66).max() < 1e-6


def test_full_chain_zero_row_never_mixes():
    tvds = row_tvds_to_uniform(gate_transition_matrix(3), 64)
    assert tvds[0] == pytest.approx(1 - 1 / 8, rel=1e-12)


def test_total_variation_distance_basics():
    assert total_variation_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation_distance([1, 0], [0, 1]) == 1.0
    assert total_variation_distance([0.75, 0.25], [0.25, 0.75]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        total_variation_distance([0.5, 0.4], [1.0, 0.0])  # does not sum to 1
    with pytest.raises(ValueError):
        total_variation_distance([1.5, -0.5], [0.5, 0.5])  # negative mass
    with pytest.raises(ValueError, match=r"support mismatch: \(2,\) vs \(3,\)"):
        total_variation_distance([0.5, 0.5], [0.5, 0.25, 0.25])

