"""Waiting semantics.

The paper distinguishes three regimes for what a journey may do between
consecutive edges:

* **no-wait** — only *direct* journeys: each edge is taken the instant
  the previous traversal finishes (``t_{i+1} = t_i + zeta(e_i, t_i)``).
* **wait** — *indirect* journeys: arbitrary pauses are allowed
  (``t_{i+1} >= t_i + zeta(e_i, t_i)``), modelling store-carry-forward
  buffering.
* **wait[d]** — bounded waiting: pauses of at most ``d`` time units.

``wait[0]`` coincides with no-wait, and the three Theorems are exactly
statements about the language classes these regimes generate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SemanticsError


@dataclass(frozen=True)
class WaitingSemantics:
    """A waiting regime.

    ``max_wait`` is ``None`` for unbounded waiting, otherwise the largest
    allowed pause (0 = no waiting).  Use the module constants
    :data:`NO_WAIT` and :data:`WAIT`, or :func:`bounded_wait` for
    ``wait[d]``.
    """

    max_wait: int | None

    def __post_init__(self) -> None:
        if self.max_wait is not None and self.max_wait < 0:
            raise SemanticsError(f"waiting bound must be >= 0, got {self.max_wait}")

    @property
    def unbounded(self) -> bool:
        """Whether arbitrary pauses are allowed."""
        return self.max_wait is None

    @property
    def is_no_wait(self) -> bool:
        """Whether only direct journeys are feasible."""
        return self.max_wait == 0

    def allows_pause(self, pause: int) -> bool:
        """Whether a pause of ``pause`` time units is feasible."""
        if pause < 0:
            return False
        return self.max_wait is None or pause <= self.max_wait

    def latest_departure(self, ready: int, horizon: int) -> int:
        """Latest date (exclusive bound) a journey ready at ``ready`` may
        still depart, given a search horizon."""
        if self.max_wait is None:
            return horizon
        return min(horizon, ready + self.max_wait + 1)

    def __str__(self) -> str:
        if self.max_wait is None:
            return "wait"
        if self.max_wait == 0:
            return "nowait"
        return f"wait[{self.max_wait}]"


#: Only direct journeys are feasible (no buffering).
NO_WAIT = WaitingSemantics(max_wait=0)

#: Indirect journeys with unbounded pauses are feasible.
WAIT = WaitingSemantics(max_wait=None)


def bounded_wait(d: int) -> WaitingSemantics:
    """The ``wait[d]`` regime: pauses of at most ``d`` time units.

    ``bounded_wait(0)`` equals :data:`NO_WAIT`.
    """
    return WaitingSemantics(max_wait=d)


#: Alias matching the paper's ``L_wait[d]`` notation.
BOUNDED_WAIT = bounded_wait


def parse_semantics(text: str) -> WaitingSemantics:
    """The semantics named by its string form (inverse of ``str``).

    Accepts ``"wait"``, ``"nowait"``, and ``"wait[d]"`` with ``d`` a
    non-negative integer; anything else raises
    :class:`~repro.errors.SemanticsError`.  This is the ONE grammar for
    semantics strings — the CLI wraps the error into
    ``argparse.ArgumentTypeError`` and the service protocol into the
    ``ServiceError`` that names the request's op and field, so a
    malformed ``wait[-1]`` is a clean diagnostic at every boundary,
    never a raw traceback.
    """
    if not isinstance(text, str):
        raise SemanticsError(f"semantics must be a string, got {text!r}")
    if text == "wait":
        return WAIT
    if text == "nowait":
        return NO_WAIT
    if text.startswith("wait[") and text.endswith("]"):
        body = text[5:-1]
        try:
            bound = int(body)
        except ValueError:
            raise SemanticsError(
                f"malformed waiting bound {body!r} in {text!r}; "
                f"wait[d] needs an integer d >= 0"
            ) from None
        return bounded_wait(bound)
    raise SemanticsError(
        f"unknown semantics {text!r}; use 'wait', 'nowait', or 'wait[d]'"
    )
