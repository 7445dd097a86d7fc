"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class ProtocolError(ReproError):
    """The coherence protocol reached a state it should never reach.

    This always indicates a bug in the protocol implementation (or a
    hand-built message sequence that no real execution produces), never a
    legal race: legal races are resolved with NACK/retry.
    """


class UnhandledMessageError(ProtocolError):
    """A message arrived at a node with no handler registered for it.

    Carries the (node, message type, directory state) coordinates of the
    delivery: a message the node's protocol spec does not handle.
    """

    def __init__(self, node, mtype, dir_state, msg, cycle=None):
        self.node = node
        self.mtype = mtype
        self.dir_state = dir_state
        self.msg = msg
        self.cycle = cycle
        where = "node %s" % node if cycle is None else \
            "node %s @ cycle %s" % (node, cycle)
        super().__init__(
            "[%s] no handler for %s (directory state %s): %r"
            % (where, getattr(mtype, "name", mtype), dir_state, msg))


class SimulationError(ReproError):
    """The simulator was driven incorrectly (e.g. op stream misuse)."""


class CoherenceViolation(ReproError):
    """The online coherence/SC checker observed an illegal value.

    Raised when a committed read returns a value other than the one written
    by the most recent write (in global completion order) to that line.
    """


class InvariantViolation(ReproError):
    """A model-checking invariant failed; carries the counterexample trace."""

    def __init__(self, invariant_name, state, trace):
        self.invariant_name = invariant_name
        self.state = state
        self.trace = trace
        super().__init__(
            "invariant %r violated after %d steps" % (invariant_name, len(trace))
        )


class DeadlockError(ReproError):
    """The model checker found a non-quiescent state with no enabled rule."""

    def __init__(self, state, trace):
        self.state = state
        self.trace = trace
        super().__init__("deadlock state reached after %d steps" % len(trace))
