"""How short can a six-multiplexor circuit be?  Exhaustive answer: 6 gates.

The scan enumerates every sequence of the 90 three-wire CCNOT gates on a
6-wire bus, level by level, checking all six wires as candidate outputs.
Sequences with an adjacent repeated gate are pruned — CCNOT is self-inverse,
so such a pair cancels and the circuit reduces to a shorter one.

Results this script demonstrates or verifies:

* lengths 1..4 (66 million circuits): zero solutions — scanned live here.
* length 5 (5.9 billion circuits): zero solutions — not scanned here, to
  keep this script fast, but `revcirc minscan --wires 6 --lengths 5` scans
  them live in about 45 s; there are no circuits to show.
* length 6 (531 billion circuits): exactly 216 solutions, all reading out
  on wire 0 — scanned offline once; the full list ships in
  demos/data/six_gate_mux_solutions.txt and is re-verified here case by
  case with the slow scorer.

So the minimal six-multiplexor CCNOT circuit on 6 wires has 6 gates, and
random sampling would need about 1/4.06e-10 ≈ 2.5 billion draws of
length-6 circuits to stumble on one.
"""

import time
from pathlib import Path

from revcirc import (
    OutputMap,
    exhaustive_min_scan,
    hamming_fitness_scalar,
    parse_circuits,
    six_multiplexor_target,
)

SOLUTIONS = Path(__file__).parent / "data" / "six_gate_mux_solutions.txt"


def main() -> None:
    target = six_multiplexor_target()

    t0 = time.time()
    counts = exhaustive_min_scan(6, 4, target)
    print(f"live scan of lengths 1..4 ({time.time() - t0:.1f}s):")
    for length, count in counts.items():
        print(f"  length {length}: {count} solutions")

    circuits = parse_circuits(SOLUTIONS.read_text())
    print(f"\nstored length-6 solutions: {len(circuits)}")
    t0 = time.time()
    verified = 0
    for circuit in circuits:
        fv = hamming_fitness_scalar(circuit, target, OutputMap((0,)))
        verified += fv.solved
    print(f"re-verified case by case on wire 0: {verified}/{len(circuits)} "
          f"({time.time() - t0:.1f}s)")

    density = len(circuits) / 90**6
    print(f"\nsolution density at length 6: 216 / 90^6 = {density:.3e}")
    print("shortest possible circuit: 6 gates (no solutions at length <= 5)")
    print("\nfirst three of the 216:")
    listed = [l for l in SOLUTIONS.read_text().splitlines() if not l.startswith("#")]
    for line in listed[:3]:
        print(" ", line)


if __name__ == "__main__":
    main()
