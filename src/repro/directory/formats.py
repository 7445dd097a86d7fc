"""Sharing-vector storage formats for the home directory.

The paper's SGI-style directory uses a full bit vector (one presence bit
per node — exact invalidations).  Real machines at larger scales compress
the vector, trading directory SRAM for extra invalidation traffic; this
module implements the two classic compressed formats so their interaction
with the producer-consumer mechanisms can be studied as an ablation
(the directory-format ablation in ``tests/test_paper_claims.py``):

``full``
    One bit per node.  Invalidations go exactly to the sharers.
``coarse:G``
    One bit per group of G nodes.  A single sharer marks its whole group,
    so invalidations (and therefore update sets!) over-approximate by up
    to G-1 nodes per group.
``limited:K``
    K exact node pointers.  On overflow the entry degrades to
    broadcast-to-everyone until the next write resets it.

All formats are *conservative over-approximations*: they may invalidate
(and speculatively update) nodes without copies — extra traffic, never
incoherence.  The simulator keeps the exact sharer set and applies the
format when the protocol acts on the vector, as the hardware's lossy
encoding would.  Copies may sit outside the exact set (Dragon pushes to
the observed set), so the fuzz oracles check them against the observed set.
"""

from dataclasses import dataclass

from ..common.errors import ConfigError


@dataclass(frozen=True)
class DirectoryFormat:
    """A sharing-vector encoding policy."""

    kind: str = "full"     # "full" | "coarse" | "limited"
    param: int = 0         # group size (coarse) or pointer count (limited)

    def __post_init__(self):
        if self.kind == "full":
            return
        if self.kind == "coarse":
            if self.param < 2:
                raise ConfigError("coarse vector needs group size >= 2")
        elif self.kind == "limited":
            if self.param < 1:
                raise ConfigError("limited pointers need >= 1 pointer")
        else:
            raise ConfigError("unknown directory format %r" % self.kind)

    @classmethod
    def parse(cls, spec):
        """Parse "full", "coarse:4" or "limited:2".

        Every malformed spec — unknown kind, missing/extra parameter,
        non-integer parameter ("coarse:x", "limited:2.5") — raises
        :class:`ConfigError` with a message naming the offending spec,
        never a bare ``ValueError``.
        """
        if not isinstance(spec, str):
            raise ConfigError(
                "directory format must be a string, got %r" % (spec,))
        if spec == "full":
            return cls("full", 0)
        kind, sep, param = spec.partition(":")
        if kind == "full":
            raise ConfigError(
                'directory format "full" takes no parameter (got %r)' % spec)
        if not sep or not param:
            raise ConfigError(
                "directory format %r needs a parameter: expected "
                '"coarse:G" or "limited:K"' % spec)
        if not param.isdigit():
            raise ConfigError(
                "directory format %r has a non-integer parameter %r: "
                'expected "coarse:G" or "limited:K" with a positive '
                "integer G/K" % (spec, param))
        return cls(kind, int(param))

    # -- semantics --------------------------------------------------------

    def observed_sharers(self, sharers, num_nodes):
        """The node set the hardware's encoding *reports* as sharers —
        always a superset of the true set."""
        if not sharers:
            return set()
        if self.kind == "full":
            return set(sharers)
        if self.kind == "coarse":
            group = self.param
            observed = set()
            for sharer in sharers:
                base = (sharer // group) * group
                observed.update(n for n in range(base, base + group)
                                if n < num_nodes)
            return observed
        # limited pointers: exact until overflow, then broadcast
        if len(sharers) <= self.param:
            return set(sharers)
        return set(range(num_nodes))

    def invalidation_targets(self, sharers, exclude, num_nodes):
        """Who receives INVs when ``exclude`` gains exclusive ownership."""
        return self.observed_sharers(sharers, num_nodes) - {exclude}

    def bits_per_entry(self, num_nodes):
        """Directory storage cost of the vector itself (for area studies)."""
        if self.kind == "full":
            return num_nodes
        if self.kind == "coarse":
            return -(-num_nodes // self.param)  # ceil
        import math
        pointer_bits = max(1, math.ceil(math.log2(max(num_nodes, 2))))
        return self.param * pointer_bits + 1  # +1 broadcast bit
