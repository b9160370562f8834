"""Node abstraction of the cycle-driven simulator.

Mirrors Peersim's cycle-based node model used by the demonstration platform:
the engine calls :meth:`Node.next_cycle` once per cycle for every online
node, in a shuffled order, and nodes communicate by sending messages through
the engine's network or by direct method calls on peers obtained from the
engine (the usual Peersim idiom for pairwise gossip exchanges).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from ..exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .engine import CycleEngine


class Node(ABC):
    """Base class of every simulated participant.

    ``online`` is a plain boolean to callers, but assignments are observed
    by the engine the node is registered with, which maintains an incremental
    online-id index instead of re-scanning the whole population on every
    peer-sampling call.
    """

    def __init__(self, node_id: int) -> None:
        if node_id < 0:
            raise SimulationError(f"node ids must be >= 0, got {node_id}")
        self.node_id = node_id
        self._online = True
        self._online_listener = None

    @property
    def online(self) -> bool:
        """Whether this node currently participates in cycles."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        value = bool(value)
        if value == self._online:
            return
        self._online = value
        if self._online_listener is not None:
            self._online_listener(self, value)

    @abstractmethod
    def next_cycle(self, engine: "CycleEngine", cycle: int) -> None:
        """Perform this node's work for simulation cycle *cycle*.

        This is the equivalent of Peersim's ``nextCycle`` method that the
        paper says implements the core of Chiaroscuro's execution sequence.
        """

    def receive(self, engine: "CycleEngine", message: Any) -> None:
        """Handle a message delivered by the engine (optional hook)."""

    def on_offline(self, engine: "CycleEngine", cycle: int) -> None:
        """Hook called when churn takes this node offline (optional)."""

    def on_online(self, engine: "CycleEngine", cycle: int) -> None:
        """Hook called when this node rejoins after churn (optional)."""
