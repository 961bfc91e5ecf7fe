"""JSON-serializable specs for the sweep payloads that cross the
cluster socket.

The wire protocol is JSON lines.  Presences and latencies cross it as
the specs of :mod:`repro.core.serialize` and semantics as the strings
of :func:`repro.core.semantics.parse_semantics`; this module holds the
two packed payloads of the distributed sweep:

* sweep plan — a whole lowered :class:`~repro.core.parallel.SweepPlan`
  (``{"kind": "sweep_plan"}``), the payload the distributed sweep ships
  to :mod:`repro.service.cluster` workers.  The plan's flat CSR arrays
  cross as they are, each *packed* rather than listed: little-endian
  int64 bytes, base64-encoded under the plan field's name — a plan of
  ``k`` ints costs ~``8k/0.75`` bytes on the wire instead of a JSON
  list of ``k`` numbers, and decodes with one ``frombuffer`` per array
  instead of a million ``int()`` parses;
* offset matrix — ``{"kind": "offset_matrix", "dtype": ...}``, the
  arrival offsets a worker returns for its source block, in the
  kernel's compact unsigned dtype (one of
  :data:`~repro.core.sweep_kernel.OFFSET_DTYPES`, named by
  ``np.dtype.name``), packed the same way, little-endian and row-major.

``presence_from_spec`` and ``parse_semantics`` remain importable from
here as the core decoders themselves, because the repository
benchmark's answer checker (``perfbench/checks.py``) reads them under
these names.  They are not the old wrappers: ``presence_from_spec``
refuses a null presence (the wrapper read it as ``always()``; the
protocol's ``presence`` field kind still does), and both raise the
core's own errors rather than ``ServiceError``.
"""

from __future__ import annotations

import base64
from typing import Any, Sequence

import numpy as np

from repro.core.parallel import SweepPlan
from repro.core.semantics import parse_semantics  # noqa: F401  (perfbench/checks.py)
from repro.core.serialize import decode_presence as presence_from_spec  # noqa: F401
from repro.core.sweep_kernel import OFFSET_DTYPES
from repro.errors import ServiceError


# -- packed payloads (sweep plans and offset matrices) -------------------------

#: Every packed array crosses the wire little-endian, whatever the host
#: byte order — ``frombuffer`` on the far side is then exact.  Plan
#: arrays are int64.
_PLAN_DTYPE = np.dtype(np.int64)


def _pack(values: Sequence[int] | np.ndarray, dtype: np.dtype) -> str:
    """Base64 of the values as a little-endian ``dtype`` array."""
    try:
        array = np.ascontiguousarray(values, dtype=dtype.newbyteorder("<"))
    except (OverflowError, ValueError, TypeError) as exc:
        raise ServiceError(f"values do not fit the wire's {dtype} form: {exc}") from None
    return base64.b64encode(array.tobytes()).decode("ascii")


def _unpack(text: Any, what: str, dtype: np.dtype) -> np.ndarray:
    """The inverse of :func:`_pack` (raises :class:`ServiceError`)."""
    if not isinstance(text, str):
        raise ServiceError(f"{what} must be a base64 string, not {type(text).__name__}")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ServiceError(f"{what} is not valid base64: {exc}") from None
    if len(raw) % dtype.itemsize:
        raise ServiceError(f"{what} is not a whole number of {dtype} values")
    return np.frombuffer(raw, dtype=dtype.newbyteorder("<"))


def _check_csr(ptr: np.ndarray, rows: int, total: int, what: str) -> None:
    """Reject a CSR offset array that does not slice ``total`` values
    into ``rows`` ranges."""
    if len(ptr) != rows + 1:
        raise ServiceError(f"{what} has {len(ptr) - 1} ranges, expected {rows}")
    if ptr[0] != 0:
        raise ServiceError(f"{what} must start at 0")
    if np.any(np.diff(ptr) < 0):
        raise ServiceError(f"{what} must be non-decreasing")
    if ptr[-1] != total:
        raise ServiceError(f"{what} does not cover its {total} values")


def plan_to_spec(plan: SweepPlan) -> dict[str, Any]:
    """The JSON-able description of one lowered sweep plan: its ints,
    plus each array of :attr:`SweepPlan.ARRAYS` base64-packed."""
    spec: dict[str, Any] = {
        "kind": "sweep_plan",
        "n": plan.n,
        "start": plan.start_time,
        "horizon": plan.horizon,
        "max_wait": plan.max_wait,
    }
    for name in SweepPlan.ARRAYS:
        spec[name] = _pack(getattr(plan, name), _PLAN_DTYPE)
    return spec


def plan_from_spec(spec: dict[str, Any]) -> SweepPlan:
    """Rebuild a :class:`~repro.core.parallel.SweepPlan` from its spec.

    Validates the header (non-bool ints: ``n >= 0``, ``start`` and
    ``horizon`` inside int64, ``max_wait`` null or in ``[0, 2**63)``)
    and shape invariants (offset coverage, aligned contact arrays,
    index ranges) so a malformed or truncated frame becomes a
    :class:`ServiceError` — the signal the cluster's fault handling
    turns into a local re-run — never a worker crash deep inside the
    sweep.
    """
    if not isinstance(spec, dict) or spec.get("kind") != "sweep_plan":
        raise ServiceError(f"malformed sweep plan spec {spec!r}")
    # Each header field's lowest value; every one ends below 2**63.
    header = {"n": 0, "start": -(2**63), "horizon": -(2**63), "max_wait": 0}
    for name, low in header.items():
        value = spec.get(name, "missing")
        if name == "max_wait" and value is None:
            continue
        if type(value) is not int or not low <= value < 2**63:
            raise ServiceError(
                f"sweep plan {name} must be an int64{' >= 0' if low == 0 else ''}, "
                f"got {value!r}"
            )
    n, start, horizon, max_wait = (spec[name] for name in header)
    arrays = {
        name: _unpack(spec.get(name), name, _PLAN_DTYPE) for name in SweepPlan.ARRAYS
    }
    edge_count = len(arrays["target_idx"])
    _check_csr(arrays["out_ptr"], n, len(arrays["out_edge_idx"]), "out_ptr")
    _check_csr(arrays["edge_ptr"], edge_count, len(arrays["dep"]), "edge_ptr")
    if len(arrays["arr"]) != len(arrays["dep"]):
        raise ServiceError(
            f"sweep plan has {len(arrays['dep'])} departures but "
            f"{len(arrays['arr'])} arrivals"
        )
    targets, out_edges = arrays["target_idx"], arrays["out_edge_idx"]
    if edge_count and (targets.min() < 0 or targets.max() >= n):
        raise ServiceError("sweep plan edge targets fall outside the node range")
    if len(out_edges) and (out_edges.min() < 0 or out_edges.max() >= edge_count):
        raise ServiceError("sweep plan adjacency names an unknown edge")
    if np.any(np.bincount(out_edges, minlength=edge_count) != 1):
        raise ServiceError("sweep plan adjacency must list every edge once")
    return SweepPlan(
        n=n, start_time=start, horizon=horizon, max_wait=max_wait, **arrays
    )


def matrix_to_spec(matrix: np.ndarray) -> dict[str, Any]:
    """The JSON-able description of one offset matrix (row-major, in
    its own dtype, which must be one of the kernel's offset dtypes)."""
    if matrix.ndim != 2:
        raise ServiceError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if matrix.dtype not in OFFSET_DTYPES:
        raise ServiceError(f"{matrix.dtype} is not an arrival-offset dtype")
    return {
        "kind": "offset_matrix",
        "dtype": matrix.dtype.name,
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "data": _pack(matrix.reshape(-1), matrix.dtype),
    }


def matrix_from_spec(spec: dict[str, Any]) -> np.ndarray:
    """Rebuild an offset matrix from its spec (raises
    :class:`ServiceError` for any other kind, an unknown dtype, or data
    that is not exactly ``rows x cols`` values of it)."""
    if not isinstance(spec, dict) or spec.get("kind") != "offset_matrix":
        raise ServiceError(f"malformed matrix spec {spec!r:.200}")
    name = spec.get("dtype")
    dtype = next((t for t in OFFSET_DTYPES if t.name == name), None)
    if dtype is None:
        raise ServiceError(f"unknown matrix dtype {name!r:.40}")
    try:
        rows = int(spec["rows"])
        cols = int(spec["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed matrix header: {exc}") from None
    if rows < 0 or cols < 0:
        raise ServiceError("matrix dimensions must be >= 0")
    flat = _unpack(spec.get("data"), "matrix data", dtype)
    if len(flat) != rows * cols:
        raise ServiceError(
            f"matrix data holds {len(flat)} {dtype} values, expected {rows}x{cols}"
        )
    return flat.reshape(rows, cols).astype(dtype)
