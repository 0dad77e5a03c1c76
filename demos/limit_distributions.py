"""Where random reversible circuits end up: fitness histograms vs theory.

Random CCNOT gate arrays scored against the six-multiplexor settle, as the
gate count grows, onto a limiting fitness distribution that depends only on
the bus width:

* 6 wires (no spares): the circuit is a permutation of the 64 case states
  that fixes the all-zero state, so fitness is always even and the limit is
  a shifted hypergeometric law with mean 32.5.
* 7+ wires (spare constant-1 lines): output columns become effectively
  uniform random bits and the limit is Binomial(64, 1/2) — mean 32, sd 4.

This script samples 200,000 circuits per length, prints the moments next
to the closed-form limits, and tracks the total variation distance.
"""

from revcirc import (
    ExperimentConfig,
    convergence_series,
    limit_for,
    sample_distribution,
    six_multiplexor_target,
)

SAMPLES = 200_000
LENGTHS = (5, 20, 100, 500)


def describe(wires: int) -> None:
    config = ExperimentConfig(
        wires=wires,
        lengths=LENGTHS,
        samples_per_length=SAMPLES,
        target=six_multiplexor_target(),
        seed=2026,
        workers=1,
    )
    limit = limit_for(wires, config.target)
    print(f"\n{wires} wires — limit: mean {limit.mean:.4f}, sd {limit.sd:.4f}")
    print(f"{'length':>7} {'mean':>9} {'sd':>8} {'TVD to limit':>13} {'odd values':>11}")
    hists = sample_distribution(config)
    odd = [int(hist.counts[1::2].sum()) for hist in hists]
    for (length, mean, sd, tvd, _, _), n_odd in zip(convergence_series(hists, limit).rows, odd):
        print(f"{length:>7} {mean:>9.4f} {sd:>8.4f} {tvd:>13.5f} {n_odd:>11}")
    if not limit.pmf[1::2].any():  # the law without spare wires: fitness stays even
        print(f"{wires} wires: odd fitness values at every length: {sum(odd)}")


def main() -> None:
    print(f"{SAMPLES:,} random circuits per length, lengths {LENGTHS}")
    for wires in (6, 7, 12):
        describe(wires)
    print(
        "\nNote the 6-wire column of zeros: without spare wires the circuit\n"
        "permutes the 64 fitness cases, and a permutation's wire-0 column\n"
        "always agrees with the six-multiplexor on an even number of cases.\n"
        "One spare wire frees the parity — but only once circuits are deep\n"
        "enough to build degree-6 terms, so short 7-wire circuits still\n"
        "score even."
    )


if __name__ == "__main__":
    main()
