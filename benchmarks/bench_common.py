"""Shared shape of the ``BENCH_*.json`` emissions.

Every sweep benchmark records the same header block so CI diffs compare
like with like:

* ``cpus`` — what the host offered (gates that need cores self-skip);
* ``kernel`` — which sweep kernel (:mod:`repro.core.sweep_kernel`) the
  timed sweeps ran on: ``"bitset"``, the only production kernel;
* ``gate`` — the speedup floor, its CPU prerequisite, whether it
  applied on this host, and the structured skip reason when it did not
  (previously each script encoded this differently, or only in stdout).
"""

from __future__ import annotations

import os


def host_cpus() -> int:
    return os.cpu_count() or 1


def gate_info(required_speedup: float, required_cpus: int) -> dict:
    """The gate block: floor, prerequisite, and (if skipped) why."""
    cpus = host_cpus()
    applies = cpus >= required_cpus
    return {
        "required_speedup": required_speedup,
        "required_cpus": required_cpus,
        "applies": applies,
        "skip_reason": None if applies else (
            f"host has {cpus} CPUs, speedup floor needs >= {required_cpus}; "
            "exactness still asserted"
        ),
    }
