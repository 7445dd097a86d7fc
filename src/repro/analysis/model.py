"""The paper's §5 analytical speedup-bound model.

The conclusion sketches a simple analytical result: *"as network latency
grows, the achievable speedup is limited to 1/(1-accuracy)"*, where
accuracy is the fraction of consumer read misses the update mechanism
successfully converts to local hits.  This module implements that model
and a slightly richer latency-decomposition variant, against which
measured speedups can be sanity-checked.

Derivation of the bound: let every consumer read cost ``R`` cycles remote
and ``~0`` local, and let ``a`` be update accuracy.  With compute ``C``
per read, the enhanced/base time ratio is ``(C + (1-a)R) / (C + R)``; as
``R -> inf`` the speedup ``(C+R)/(C+(1-a)R) -> 1/(1-a)``.
"""

from dataclasses import dataclass

from ..common.errors import ConfigError


def speedup_bound(accuracy):
    """The asymptotic speedup limit 1/(1-accuracy) from the paper's §5."""
    if not 0.0 <= accuracy < 1.0:
        raise ConfigError("accuracy must be in [0, 1), got %r" % accuracy)
    return 1.0 / (1.0 - accuracy)


@dataclass(frozen=True)
class LatencyModel:
    """A small analytical model of one app's remote-miss economics.

    ``compute_per_miss``: average compute cycles between remote misses.
    ``remote_latency``: average remote miss penalty (2-3 hops + DRAM).
    ``local_latency``: penalty of a converted (RAC-hit) miss.
    """

    compute_per_miss: float
    remote_latency: float
    local_latency: float = 20.0

    def predicted_speedup(self, accuracy):
        """Expected speedup when ``accuracy`` of misses become local."""
        if not 0.0 <= accuracy <= 1.0:
            raise ConfigError("accuracy must be in [0, 1], got %r" % accuracy)
        base = self.compute_per_miss + self.remote_latency
        enhanced = (self.compute_per_miss
                    + (1.0 - accuracy) * self.remote_latency
                    + accuracy * self.local_latency)
        return base / enhanced

    def speedup_vs_latency(self, accuracy, latencies):
        """Series of (remote_latency, speedup) showing convergence to the
        1/(1-a) bound as network latency grows (Figure 10's trend)."""
        series = []
        for latency in latencies:
            model = LatencyModel(self.compute_per_miss, latency,
                                 self.local_latency)
            series.append((latency, model.predicted_speedup(accuracy)))
        return series
