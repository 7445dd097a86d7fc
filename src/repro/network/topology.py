"""Fat-tree interconnect topology (NUMALink-4-like, paper §3.1).

The paper's network is a fat tree with eight children per non-leaf router
and a 50 ns (100-cycle) node-to-node hop latency; router contention is not
modelled.  We build the tree to compute link distances between nodes —
nodes under the same leaf router are closer than nodes in different
subtrees — and scale latency so a canonical cross-leaf traversal costs
exactly ``hop_latency`` cycles.
"""

from ..common.errors import ConfigError


class FatTree:
    """Distance/latency oracle over a radix-``r`` fat tree of ``n`` nodes."""

    def __init__(self, num_nodes, network_config):
        if num_nodes < 1:
            raise ConfigError("fat tree needs at least one node")
        self.num_nodes = num_nodes
        self.config = network_config
        self._radix = network_config.router_radix
        # Depth of the router tree: leaves host `radix` nodes each, each
        # additional level multiplies capacity by `radix`.
        depth = 1
        capacity = self._radix
        while capacity < num_nodes:
            depth += 1
            capacity *= self._radix
        self.depth = depth
        # Latency by router levels climbed (see ``latency``); a route
        # climbs at most ``depth - 1`` levels.
        hop = network_config.hop_latency
        self._level_latency = (
            [max(1, round(hop * network_config.intra_leaf_fraction))]
            + [hop + round(hop * network_config.level_latency_frac
                           * (levels - 1))
               for levels in range(1, depth)])

    def leaf_of(self, node):
        """Index of the leaf router hosting ``node``."""
        self._check(node)
        return node // self._radix

    def levels_climbed(self, a, b):
        """Router levels climbed to reach the lowest common ancestor.

        0 for the same node or two nodes under one leaf router; 1 for a
        canonical cross-leaf traversal; up to ``depth - 1`` between nodes
        in maximally distant subtrees.
        """
        self._check(a)
        self._check(b)
        ra, rb = a // self._radix, b // self._radix
        levels = 0
        while ra != rb:
            ra //= self._radix
            rb //= self._radix
            levels += 1
        return levels

    def router_links(self, a, b):
        """Number of router-to-router/node links on the a->b path."""
        if a == b:
            self._check(a)
            return 0
        # node->leaf and leaf->node, plus an up/down pair per level climbed.
        return 2 + 2 * self.levels_climbed(a, b)

    def latency(self, a, b):
        """Node-to-node latency in CPU cycles.

        Same node: 0.  Same leaf router: ``hop_latency * intra_leaf_fraction``.
        A canonical cross-leaf traversal (one router level climbed — the
        farthest any message travels on the paper's 16-node machine) costs
        exactly ``hop_latency``; each additional level climbed adds
        ``hop_latency * level_latency_frac`` (fat trees keep upper levels
        fast/wide, so the increment is fractional, not a full hop).
        """
        if a == b:
            return 0
        return self._level_latency[self.levels_climbed(a, b)]

    def latency_row(self, src):
        """``[latency(src, dst) for dst in range(num_nodes)]``, filled with
        one slice per level: the nodes in ``src``'s subtree of
        ``radix ** (levels + 1)`` nodes, and in no smaller one, are
        ``levels`` levels away."""
        self._check(src)
        num_nodes, radix = self.num_nodes, self._radix
        table = self._level_latency
        row = [table[-1]] * num_nodes
        size = radix ** (self.depth - 1)
        for levels in range(self.depth - 2, -1, -1):
            start = src - src % size
            end = min(start + size, num_nodes)
            row[start:end] = [table[levels]] * (end - start)
            size //= radix
        row[src] = 0
        return row

    def _check(self, node):
        if not 0 <= node < self.num_nodes:
            raise ConfigError("node %r out of range [0, %d)" % (node, self.num_nodes))
