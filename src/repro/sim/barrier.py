"""Centralised barrier synchronisation for the simulated CPUs.

The paper's applications are barrier-synchronised (OpenMP / SPLASH-2
phases).  We model the barrier as a hardware/runtime primitive with a
fixed release latency rather than spinning on shared flags; the coherence
phenomena the paper studies (including the em3d "reload flurry" of
post-barrier reads NACKed at a busy home) arise from the data accesses
around the barrier, which the workloads issue explicitly.
"""

from ..common.errors import SimulationError


class BarrierManager:
    """Releases all participants once the last one arrives."""

    def __init__(self, events, participants, release_latency=100, stats=None):
        if participants < 1:
            raise SimulationError("barrier needs at least one participant")
        self.events = events
        self.participants = participants
        self.release_latency = release_latency
        self.stats = stats
        self._waiting = []  # (node, resume callback), in arrival order
        self._waiting_nodes = set()  # the nodes in _waiting
        self._current_bid = None
        self.episodes = 0

    def arrive(self, node, bid, resume):
        """CPU ``node`` reached barrier ``bid``; ``resume()`` fires on release."""
        if self._current_bid is None:
            self._current_bid = bid
        elif bid != self._current_bid:
            raise SimulationError(
                "node %d arrived at barrier %r while barrier %r is forming"
                % (node, bid, self._current_bid))
        if node in self._waiting_nodes:
            raise SimulationError("node %d arrived twice at barrier %r"
                                  % (node, bid))
        self._waiting.append((node, resume))
        self._waiting_nodes.add(node)
        if self.stats is not None:
            self.stats.inc("barrier.arrivals")
        if len(self._waiting) == self.participants:
            released = self._waiting
            self._waiting = []
            self._waiting_nodes = set()
            self._current_bid = None
            self.episodes += 1
            for _node, callback in released:
                self.events.schedule(self.release_latency, callback)

    @property
    def stalled_nodes(self):
        """Nodes currently parked at the forming barrier (diagnostics)."""
        return [node for node, _ in self._waiting]
