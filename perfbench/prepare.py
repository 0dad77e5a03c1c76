"""Benchmark set-up: import revcirc and build what every workload needs.

Set-up is what a researcher pays before the first experiment call: the
package import (numpy and scipy dominate), the six-multiplexor target, the
gate tables of every bus width the workloads use, and the two limit pmfs.

Run as a script, this times one cold set-up in a fresh interpreter and
prints the timings as one JSON line; `run.py` starts it a few times so that
`setup_s` is a median.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every bus width some workload runs on.
WIRE_COUNTS = (4, 6, 7, 12)


def sources_present() -> bool:
    return (SRC / "revcirc" / "__init__.py").is_file()


def prepare() -> tuple[dict, dict]:
    """Import revcirc and build targets, gate tables and limit pmfs.

    Returns (objects, timings).  `timings["setup_s"]` spans the whole
    set-up; `timings["core_setup_s"]` only the `core` gate tables, wire
    patterns and target construction.
    """
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import revcirc
    from revcirc.core import enumerate_gates, gate_arrays, wire_patterns

    t1 = time.perf_counter()
    mux = revcirc.six_multiplexor_target()
    for wires in WIRE_COUNTS:
        enumerate_gates(wires)
        gate_arrays(wires)
        wire_patterns(wires, min(wires, mux.n_inputs))
    t2 = time.perf_counter()
    limits = {
        "parity": revcirc.parity_shifted_limit(),
        "binomial": revcirc.binomial_limit(mux.n_inputs),
    }
    t3 = time.perf_counter()
    objects = {"mux": mux, "limits": limits}
    return objects, {"setup_s": t3 - t0, "core_setup_s": t2 - t1}


if __name__ == "__main__":
    print(json.dumps(prepare()[1]))
