"""Address-to-home-node placement.

The paper places data with SGI's first-touch policy, "which tends to be
very effective in allocating data to processors that use them".  Our
workload generators know which processor logically owns each region, so
they register page homes explicitly — the same *outcome* first-touch
produces — and anything unregistered falls back to page-granularity
round-robin interleaving.
"""

from ..common.errors import ConfigError

#: Placement granularity (bytes).  SGI Altix uses 16 KB pages; any
#: power-of-two page works because workloads allocate region-aligned.
PAGE_SIZE = 4096


class AddressMap:
    """Maps line addresses to home nodes at page granularity."""

    def __init__(self, num_nodes, page_size=PAGE_SIZE):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ConfigError("page size must be a power of two")
        self.num_nodes = num_nodes
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self._page_homes = {}

    def place_page(self, addr, home):
        """Pin the page containing ``addr`` to ``home`` (first-touch result)."""
        if not 0 <= home < self.num_nodes:
            raise ConfigError("home node %r out of range" % home)
        self._page_homes[addr // self.page_size] = home

    def place_range(self, start, length, home):
        """Pin every page overlapping ``[start, start+length)`` to ``home``."""
        page = start // self.page_size
        last = (start + max(length, 1) - 1) // self.page_size
        while page <= last:
            self.place_page(page * self.page_size, home)
            page += 1

    def home_of(self, addr):
        """Home node of the line containing ``addr``."""
        page = addr >> self._page_shift
        home = self._page_homes.get(page)
        if home is not None:
            return home
        return page % self.num_nodes
