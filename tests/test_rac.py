"""Remote Access Cache: victim, update and surrogate-memory roles."""

import pytest

from repro.cache import CacheCapacityError, RacKind, RemoteAccessCache
from repro.common import CacheConfig, Stats
from repro.common.rng import stream


@pytest.fixture
def rac_and_stats():
    stats = Stats()
    cfg = CacheConfig(4096, 4, latency=12, replacement="random")
    rac = RemoteAccessCache(cfg, rng=stream(1, "rac"), stats=stats)
    return rac, stats


class TestVictimRole:
    def test_victim_insert_and_read(self, rac_and_stats):
        rac, _ = rac_and_stats
        rac.insert_victim(0, value=5)
        line = rac.lookup_data(0)
        assert line.value == 5
        assert line.kind is RacKind.VICTIM

    def test_victim_declines_on_pinned_set(self, rac_and_stats):
        rac, stats = rac_and_stats
        sets = 4096 // 128 // 4
        for i in range(4):
            rac.pin_delegated(i * sets * 128, value=i)
        rac.insert_victim(4 * sets * 128, value=9)
        assert 4 * sets * 128 not in rac
        assert stats.get("rac.victim_declined") == 1


class TestUpdateRole:
    def test_update_consumption_accounting(self, rac_and_stats):
        rac, stats = rac_and_stats
        rac.insert_update(0, value=7)
        assert stats.get("update.consumed") == 0
        rac.lookup_data(0)
        assert stats.get("update.consumed") == 1
        rac.lookup_data(0)  # second read does not double count
        assert stats.get("update.consumed") == 1

    def test_unconsumed_update_eviction_counts_wasted(self, rac_and_stats):
        rac, stats = rac_and_stats
        rac.insert_update(0, value=7)
        rac.invalidate(0)
        assert stats.get("update.wasted") == 1

    def test_consumed_update_eviction_not_wasted(self, rac_and_stats):
        rac, stats = rac_and_stats
        rac.insert_update(0, value=7)
        rac.lookup_data(0)
        rac.invalidate(0)
        assert stats.get("update.wasted") == 0

    def test_update_declined_when_set_pinned(self, rac_and_stats):
        rac, stats = rac_and_stats
        sets = 4096 // 128 // 4
        for i in range(4):
            rac.pin_delegated(i * sets * 128, value=i)
        result = rac.insert_update(4 * sets * 128, value=9)
        assert result is False
        assert stats.get("rac.update_declined") == 1


class TestSurrogateMemoryRole:
    def test_pin_and_update_value(self, rac_and_stats):
        rac, _ = rac_and_stats
        rac.pin_delegated(0, value=1)
        rac.update_value(0, 2)
        line = rac.probe(0)
        assert line.value == 2
        assert line.pinned
        assert line.dirty

    def test_can_pin(self, rac_and_stats):
        rac, _ = rac_and_stats
        sets = 4096 // 128 // 4
        for i in range(4):
            rac.pin_delegated(i * sets * 128, value=i)
        assert not rac.can_pin(4 * sets * 128)
        assert rac.can_pin(128)

    def test_pin_full_set_raises(self, rac_and_stats):
        rac, _ = rac_and_stats
        sets = 4096 // 128 // 4
        for i in range(4):
            rac.pin_delegated(i * sets * 128, value=i)
        with pytest.raises(CacheCapacityError):
            rac.pin_delegated(4 * sets * 128, value=9)

    def test_pinned_conflicts_lists_same_set(self, rac_and_stats):
        rac, _ = rac_and_stats
        sets = 4096 // 128 // 4
        rac.pin_delegated(0, value=1)
        rac.pin_delegated(sets * 128, value=2)   # same set as 0
        rac.insert_victim(2 * sets * 128, value=3)  # unpinned, same set
        conflicts = rac.pinned_conflicts(3 * sets * 128)
        assert sorted(conflicts) == [0, sets * 128]

    def test_invalidate_removes_pinned(self, rac_and_stats):
        rac, _ = rac_and_stats
        rac.pin_delegated(0, value=1)
        assert rac.invalidate(0) is not None
        assert 0 not in rac
