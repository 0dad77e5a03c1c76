"""Why the limits exist: the random-gate walk is doubly stochastic.

Appending one uniformly chosen CCNOT gate to a circuit maps each bus state
to another bus state; over the random gate choice this is a Markov chain on
the 2^wires states.  Because every gate is a permutation (self-inverse,
even), the chain's transition matrix is doubly stochastic, and a doubly
stochastic chain's stationary distribution is uniform.  Uniform images are
what make long-circuit output columns look like fair coin flips — the root
of the binomial fitness limit.

One caveat the numbers below make visible: the all-zero state is fixed by
every gate (both controls read 0), so the full chain never mixes.  Restricted
to the 2^wires − 1 remaining states the chain converges geometrically.
"""

import numpy as np

from revcirc import gate_transition_matrix, is_doubly_stochastic, row_tvds_to_uniform


def main() -> None:
    for wires in (3, 4):
        chain = gate_transition_matrix(wires)
        rows, cols = chain.sum(axis=1), chain.sum(axis=0)
        print(f"\n{wires} wires: {len(chain)} states")
        print(f"  row sums    : {rows.min():.12f} .. {rows.max():.12f}")
        print(f"  column sums : {cols.min():.12f} .. {cols.max():.12f}")
        print(f"  doubly stochastic within 1e-12: {is_doubly_stochastic(chain, tol=1e-12)}")
        uniform = np.full(len(chain), 1.0 / len(chain))
        drift = np.abs(uniform @ chain - uniform).max()
        print(f"  uniform stationary drift: {drift:.3e}")

    chain = gate_transition_matrix(3)
    print("\n3-wire transition matrix (rows = from-state):")
    with np.printoptions(precision=3, suppress=True):
        print(chain)
    print("\nState 0 is absorbing: every gate fixes the all-zero bus.")

    restricted = chain[1:, 1:]
    print(f"\nRestricted to the {len(restricted)} nonzero states, worst-row TVD to uniform:")
    print(f"{'steps':>6} {'max TVD':>12}")
    for steps in (1, 2, 4, 8, 16, 32, 64, 66, 128):
        worst = row_tvds_to_uniform(restricted, steps).max()
        print(f"{steps:>6} {worst:>12.3e}")
    print(
        "\nThe decay is geometric; 64 steps land at 1.24e-6, just above a\n"
        "1e-6 bar, which 66 steps clear."
    )


if __name__ == "__main__":
    main()
