"""Observers: hooks the engine calls after every cycle.

Peersim separates protocols from "controls" that observe the global state;
the demonstration uses such controls to populate the execution log that the
GUI replays.  Observers here serve the same purpose: collecting per-cycle
measurements without polluting protocol code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .engine import CycleEngine


class Observer(Protocol):
    """Anything with an ``after_cycle(engine, cycle)`` method."""

    def after_cycle(self, engine: "CycleEngine", cycle: int) -> None:
        """Called by the engine after every completed cycle."""
