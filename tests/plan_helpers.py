"""Test-side builders for :class:`~repro.core.parallel.SweepPlan`.

``make_plan`` is the one way tests hand-build a plan: it takes the
ragged per-node / per-edge sequences a reader can write down and packs
them into the plan's flat CSR arrays.  ``reference_sweep_plan`` is the
per-edge lowering loop ``build_sweep_plan`` replaced, kept as the
oracle the vectorized build is checked against.  ``swept_dates`` reads
the kernel's compact offsets back as the int64 dates the oracles answer
in.  ``closure_cut`` is a plan cut to what a source block can reach,
found by a plain breadth-first search — the oracle of the kernel's
closure-bounded lowering.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Sequence

import numpy as np

from repro.core.parallel import SweepPlan
from repro.core.semantics import WaitingSemantics
from repro.core.sweep_kernel import offsets_to_dates, sweep_block


def _packed(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    ptr = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum([len(seq) for seq in seqs], out=ptr[1:])
    flat = np.fromiter(
        (v for seq in seqs for v in seq), dtype=np.int64, count=int(ptr[-1])
    )
    return ptr, flat


def swept_dates(plan: SweepPlan, sources: Sequence[int]) -> np.ndarray:
    """``sweep_block(plan, sources)`` as int64 dates with ``UNREACHED``."""
    return offsets_to_dates(sweep_block(plan, sources), plan.start_time)


def make_plan(
    n: int,
    out_edges: Sequence[Sequence[int]],
    target_idx: Sequence[int],
    contacts: Sequence[Sequence[int]],
    arrivals: Sequence[Sequence[int]],
    start_time: int,
    horizon: int,
    max_wait: int | None,
) -> SweepPlan:
    """A plan from per-node out-edge lists and per-edge aligned
    departure/arrival dates."""
    out_ptr, out_edge_idx = _packed(out_edges)
    edge_ptr, dep = _packed(contacts)
    arr_ptr, arr = _packed(arrivals)
    assert np.array_equal(edge_ptr, arr_ptr), "arrivals must align with contacts"
    return SweepPlan(
        n=n,
        out_ptr=out_ptr,
        out_edge_idx=out_edge_idx,
        target_idx=np.asarray(target_idx, dtype=np.int64).reshape(-1),
        edge_ptr=edge_ptr,
        dep=dep,
        arr=arr,
        start_time=start_time,
        horizon=horizon,
        max_wait=max_wait,
    )


def reference_sweep_plan(
    engine, start_time: int, semantics: WaitingSemantics, horizon: int
) -> tuple[list[Hashable], SweepPlan]:
    """The per-edge lowering: one ``departures`` and one ``arrival``
    call per edge and contact of the engine's compiled index."""
    index = engine.index_for(min(start_time, horizon), horizon)
    contacts, arrivals = [], []
    for ei in range(len(index.edge_list)):
        departures = index.departures(ei, start_time, horizon)
        contacts.append(departures)
        arrivals.append([index.arrival(ei, dep) for dep in departures])
    plan = make_plan(
        n=len(index.nodes),
        out_edges=[index.out_edge_indices(j) for j in range(len(index.nodes))],
        target_idx=index.target_idx,
        contacts=contacts,
        arrivals=arrivals,
        start_time=start_time,
        horizon=horizon,
        max_wait=semantics.max_wait,
    )
    return list(index.nodes), plan


def closure_cut(plan: SweepPlan, sources: Sequence[int]) -> SweepPlan:
    """``plan`` with the contacts of every edge whose tail the sources
    cannot reach removed: the sources' forward closure over the edges
    that have a contact, by breadth-first search."""
    out_edges = [
        plan.out_edge_idx[plan.out_ptr[j] : plan.out_ptr[j + 1]].tolist()
        for j in range(plan.n)
    ]
    contacts, arrivals = plan.contacts, plan.arrivals
    seen = set(sources)
    queue = deque(seen)
    while queue:
        for edge in out_edges[queue.popleft()]:
            head = int(plan.target_idx[edge])
            if len(contacts[edge]) and head not in seen:
                seen.add(head)
                queue.append(head)
    kept = [False] * len(contacts)
    for node in seen:
        for edge in out_edges[node]:
            kept[edge] = True
    return make_plan(
        n=plan.n,
        out_edges=out_edges,
        target_idx=plan.target_idx,
        contacts=[c.tolist() if keep else [] for c, keep in zip(contacts, kept)],
        arrivals=[a.tolist() if keep else [] for a, keep in zip(arrivals, kept)],
        start_time=plan.start_time,
        horizon=plan.horizon,
        max_wait=plan.max_wait,
    )
