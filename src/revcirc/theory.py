"""Closed-form limiting fitness distributions and Markov-chain machinery.

Long random CCNOT circuits drive the bus toward a uniform random reachable
permutation, so single-wire Hamming fitness against a balanced target tends
to Binomial(m*2^n, 1/2).  With no spare wires the all-zero bus state is
fixed by every gate, which shifts the law onto even values with mean 32.5
(six-multiplexor case).  The gate-averaged transition matrix on bus states
makes the convergence argument exactly checkable at small wire counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import gate_arrays
from .fitness import TargetTable

__all__ = [
    "LimitModel",
    "binomial_limit",
    "parity_shifted_limit",
    "limit_for",
    "poisson_interval",
    "normalized_limit",
    "rms_limit",
    "gate_transition_matrix",
    "is_doubly_stochastic",
    "row_tvds_to_uniform",
    "total_variation_distance",
]

# The most outcomes a binomial law's pmf may hold: more is pointless for
# plotting and risks large allocations.
PMF_SIZE_GUARD = 1 << 20


def _special():
    """scipy.special's ufuncs, imported on first use.  Only Poisson
    intervals and binomial laws of sizes other than m*2^n = 64 call it: the
    six-multiplexor laws read the tables below.  The private ufuncs behind
    scipy.stats' binom and hypergeom give pmfs and moments bit-identical to
    that subpackage's (the pins were recorded with it) without its ~1 s
    import; being private, they are checked only on the scipy floor in
    pyproject.toml (1.17)."""
    from scipy.special import _ufuncs

    return _ufuncs


# The two six-multiplexor limit pmfs as scipy 1.17.1 computes them, so that
# the paper's laws import no scipy, the largest part of a cold start.
# They are scipy's float64 values, not the exact rationals: C(64,k)/2^64
# rounds differently in 63 of the 65 entries and the exact hypergeometric
# in 31 of the 32, and every recorded digest was made with scipy's.  Each
# literal round-trips to the same double.  Generated with
#   python3 -c "import numpy as np; from scipy.special import _ufuncs as u;
#   print([float(x) for x in u._binom_pmf(np.arange(65), 64, 0.5)]);
#   print([float(x) for x in u._hypergeom_pmf(np.arange(1, 33), 32, 32, 63)])"

# Binomial(64, 1/2) at fitness 0..64.
_BINOMIAL_64_PMF = (
    5.4210108624274927e-20, 3.469446951953597e-18, 1.0928757898653858e-16,
    2.258609965721796e-15, 3.4443801977257506e-14, 4.1332562372709e-13,
    4.064368633316391e-12, 3.367619724747855e-11, 2.39942905388286e-10,
    1.4929780779715472e-09, 8.211379428843538e-09, 4.031040810523176e-08,
    1.7803763579810702e-07, 7.121505431924307e-07, 2.5942626930581445e-06,
    8.647542310193826e-06, 2.6483098324968617e-05, 7.477580703520505e-05,
    0.00019524794059192426, 0.00047270554038044847, 0.0010635874658560115,
    0.002228468976079259, 0.004355643907791282, 0.007953784527271046,
    0.013587715234088036, 0.02174034437454079, 0.03261051656181125,
    0.04589628256847506, 0.060648659108342017, 0.07528799061725214,
    0.08783598905346111, 0.09633624605863457, 0.09934675374796692,
    0.09633624605863458, 0.08783598905346109, 0.07528799061725215,
    0.06064865910834206, 0.045896282568475076, 0.03261051656181116,
    0.021740344374540848, 0.013587715234088037, 0.007953784527271046,
    0.0043556439077912824, 0.0022284689760792595, 0.0010635874658560115,
    0.00047270554038044847, 0.0001952479405919242, 7.477580703520506e-05,
    2.6483098324968624e-05, 8.647542310193826e-06, 2.5942626930581454e-06,
    7.121505431924307e-07, 1.78037635798107e-07, 4.0310408105231766e-08,
    8.211379428843538e-09, 1.4929780779715472e-09, 2.39942905388286e-10,
    3.367619724747855e-11, 4.0643686333163915e-12, 4.1332562372708997e-13,
    3.4443801977257506e-14, 2.258609965721796e-15, 1.092875789865386e-16,
    3.469446951953596e-18, 5.421010862427522e-20,
)

# Hypergeometric(63; 32, 32) at k = 1..32 (fitness 2k).
_PARITY_HYPERGEOM_PMF = (
    3.492260009577429e-17, 1.6780309346019545e-14, 2.5170464019029322e-12,
    1.7640300200003047e-10, 6.914997678401195e-09, 1.6803444358514902e-07,
    2.704554377703827e-06, 3.018475867973022e-05, 0.00024147806943784173,
    0.0014193544303624252, 0.006245159493594671, 0.020864510126327653,
    0.053498743913660635, 0.10611564040017304, 0.16372127376026696,
    0.19714770048632146, 0.18555077692830257, 0.13643439480022246,
    0.0781904718738117, 0.034774183543879414, 0.01192257721504437,
    0.0031225797467973352, 0.0006171106218967066, 9.055427603919064e-05,
    9.659122777513669e-06, 7.281492555356458e-07, 3.734098746336645e-08,
    1.2348210140002134e-09, 2.4331448551728338e-11, 2.517046401902932e-13,
    1.082600602969003e-15, 1.0913312529929466e-18,
)


@dataclass(frozen=True)
class LimitModel:
    """A limiting fitness distribution: its exact mean and sd, and its pmf
    indexed by raw fitness 0..m*2^n, whose last entry is the limit mass on
    perfect fitness."""

    mean: float
    sd: float
    pmf: np.ndarray


def _table_bits(n: int, m: int) -> int:
    """m * 2^n, the bits of an n-input, m-output truth table; refused unless
    n >= 0, m >= 1 and it fits a float, so every moment made from it is finite."""
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 input bits and m >= 1 output bits, got n={n}, m={m}")
    try:
        math.ldexp(m, n)
    except OverflowError:
        raise ValueError(f"m * 2^n is too large for a float at n={n}, m={m}") from None
    return m << n


def binomial_limit(n: int, m: int = 1) -> LimitModel:
    """Limit law with spare wires: every output bit is an independent fair
    coin on every case, so raw fitness ~ Binomial(m*2^n, 1/2).  Refused,
    before anything is allocated, past PMF_SIZE_GUARD outcomes."""
    M = _table_bits(n, m)
    if M + 1 > PMF_SIZE_GUARD:
        raise ValueError(
            f"Binomial({M}, 1/2) has {M + 1} outcomes, past PMF_SIZE_GUARD ({PMF_SIZE_GUARD})"
        )
    if M + 1 == len(_BINOMIAL_64_PMF):
        pmf = np.array(_BINOMIAL_64_PMF)
    else:
        pmf = _special()._binom_pmf(np.arange(M + 1), M, 0.5)
    return LimitModel(M / 2, math.sqrt(M) / 2, pmf)


def parity_shifted_limit() -> LimitModel:
    """Six-multiplexor limit with no spare wires: even fitness only, mean 32.5.

    Every gate fixes the all-zero bus state (controls cannot both read 1),
    so the limiting permutation fixes case 0 — whose desired output is 0 and
    always matches — and scatters a balanced 0/1 row uniformly over the
    remaining 63 cases.  Matching 32 assigned ones against the 32 target
    ones among 63 positions gives matches = 2k with
    k ~ Hypergeometric(63; 32, 32):

        P(fitness = 2k) = C(32,k) * C(31,32-k) / C(63,32),  k = 1..32

    Mean = 2*32*32/63 = 32.5079..., the "mean 32.5" this model is usually
    quoted by.  Perfect fitness has probability 1/C(63,32), about
    1.1e-18 — far above the binomial 2^-64 but still negligible.
    """
    pmf = np.zeros(65)
    pmf[2::2] = _PARITY_HYPERGEOM_PMF
    # Twice k's mean n*K/N and sd sqrt(n*K/N * (N-K)/N * (N-n)/(N-1)),
    # written so that they round to scipy's _hypergeom_mean and
    # _hypergeom_variance bit for bit.
    return LimitModel(2048 / 63, 2 * math.sqrt(32 * 32 * 31 * 31 / (63 * 63 * 62)), pmf)


def limit_for(wires: int, target: TargetTable, constant_fill: int = 1) -> LimitModel:
    """The limiting law of random circuits on `wires` wires scored against
    `target`: parity-shifted when the target uses every wire (no spares),
    binomial once spare wires exist and hold `constant_fill` = 1.  The
    parity-shifted law holds for a 6-input single-output target with 32 ones
    whose case 0 wants 0, as every circuit fixes the all-zero bus."""
    n = target.n_inputs
    if wires < n:
        raise ValueError(f"need at least {n} wires to house {n} inputs")
    if wires > n and not constant_fill:
        raise ValueError("no limit law for spare wires holding 0: every gate fixes case 0's bus")
    if wires > n:
        return binomial_limit(n, target.m_outputs)
    if (n, target.m_outputs) != (6, 1) or target.rows[0] & 1 or target.rows[0].bit_count() != 32:
        raise ValueError(
            "the no-spare limit law is implemented for 6-input single-output "
            "targets with balanced truth tables whose case 0 wants 0"
        )
    return parity_shifted_limit()


def poisson_interval(count: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact (Garwood) confidence interval for a Poisson count:
    chi2.ppf(q, 2c) / 2 is gammaincinv(c, q), the same float."""
    alpha = 1 - confidence
    lo = 0.0 if count == 0 else _special().gammaincinv(count, alpha / 2)
    hi = _special().gammaincinv(count + 1, 1 - alpha / 2)
    return lo, hi


def normalized_limit(n: int, m: int = 1) -> tuple[float, float]:
    """Mean and sd of normalized fitness (raw / m*2^n) in the limit:
    (0.5, 2^(-n/2) / (2*sqrt(m)))."""
    _table_bits(n, m)
    return 0.5, 2 ** (-n / 2) / (2 * math.sqrt(m))


def rms_limit(m: int, regime: str) -> tuple[float, float]:
    """Limiting mean and sd of RMS error for m-bit integer answers.

    'small-T': few test cases with fixed answers; each case's error is a
    uniform random m-bit value against a constant, giving mean 2^m/2 and
    sd 2^m/(2*sqrt(3)) (the standard deviation of a uniform value).

    'exhaustive-uniform': all cases tested against answers that are
    themselves uniformly spread; quoted values 7/(12*sqrt(3)) * 2^m for the
    mean (~0.337*2^m) and 0.23*2^m for the sd.
    """
    if not 1 <= m < 1024:  # 2^m must fit a float
        raise ValueError(f"need 1 <= m < 1024 answer bits, got m={m}")
    scale = float(1 << m)
    if regime == "small-T":
        return scale / 2, scale / (2 * math.sqrt(3))
    if regime == "exhaustive-uniform":  # scaled last, so that no product overflows
        return 7 / (12 * math.sqrt(3)) * scale, 0.23 * scale
    raise ValueError(f"unknown RMS regime {regime!r} (use 'small-T' or 'exhaustive-uniform')")


# gate_transition_matrix materializes 2^N x 2^N entries.
TRANSITION_WIRE_GUARD = 4


def gate_transition_matrix(wires: int) -> np.ndarray:
    """The one-gate Markov chain on bus states: entry [s, s'] is the chance
    that a uniformly drawn gate maps state s to s'.  Every gate permutes the
    states, so the matrix is doubly stochastic.  Every gate also fixes state
    0 (parity_shifted_limit), so row 0 never mixes; `matrix[1:, 1:]` is the
    closed chain on the nonzero states, whose powers tend to uniform."""
    if wires > TRANSITION_WIRE_GUARD:
        raise ValueError(
            f"wires={wires} exceeds the transition-matrix guard "
            f"({TRANSITION_WIRE_GUARD}); the state space doubles per wire"
        )
    tg, ca, cb = gate_arrays(wires)
    s = np.arange(1 << wires)
    images = s ^ (((s >> ca[:, None]) & (s >> cb[:, None]) & 1) << tg[:, None])
    matrix = np.zeros((len(s), len(s)))
    # adds gate by gate, in code order, as a loop over the gates would
    np.add.at(matrix, (np.broadcast_to(s, images.shape), images), 1 / len(tg))
    return matrix


def is_doubly_stochastic(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Rows and columns sum to 1 within `tol`, and no entry is below -tol."""
    return bool(
        np.all(np.abs(matrix.sum(axis=1) - 1) <= tol)
        and np.all(np.abs(matrix.sum(axis=0) - 1) <= tol)
        and np.all(matrix >= -tol)
    )


def row_tvds_to_uniform(matrix: np.ndarray, steps: int) -> np.ndarray:
    """TVD of every row of matrix^steps to the uniform distribution."""
    return 0.5 * np.abs(np.linalg.matrix_power(matrix, steps) - 1 / len(matrix)).sum(axis=1)


def total_variation_distance(p, q) -> float:
    """Half the L1 distance between two distributions on the same support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"support mismatch: {p.shape} vs {q.shape}")
    for name, d in (("p", p), ("q", q)):
        s = d.sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {s}, not 1")
        if (d < 0).any():
            raise ValueError(f"{name} has negative mass")
    return float(0.5 * np.abs(p - q).sum())
