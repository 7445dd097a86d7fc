"""The protocol-graph extractor, run over the real sources."""

from pathlib import Path

import pytest

from repro.lint.extract import SELF_TYPE, extract_sim, extract_state_usage
from repro.network.message import MsgType

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def sim():
    return extract_sim(ROOT)


class TestSimExtraction:
    def test_vocabulary_matches_the_enum(self, sim):
        assert set(sim.messages) == {m.name for m in MsgType}

    def test_every_message_has_a_handler(self, sim):
        assert set(sim.handlers) == set(sim.messages)

    def test_requests_share_the_routing_handler(self, sim):
        assert sim.handlers["GETS"] == ["_route_request"]
        assert sim.handlers["GETX"] == ["_route_request"]

    def test_guard_pruning_separates_gets_from_getx(self, sim):
        # _route_request serves both requests; the msg.mtype guards must
        # keep their transition sets apart.
        gets_out = sim.emitted_names("GETS")
        getx_out = sim.emitted_names("GETX")
        assert "DATA_SHARED" in gets_out and "DATA_SHARED" not in getx_out
        assert "ACK_X" in getx_out and "ACK_X" not in gets_out
        assert "DELEGATE" in getx_out and "DELEGATE" not in gets_out

    def test_forward_resolves_to_the_handled_message(self, sim):
        # _forward_to_delegate re-sends Message(msg.mtype, ...): within the
        # GETS closure that is a GETS emission.
        assert "GETS" in sim.emitted_names("GETS")

    def test_local_mtype_assignment_is_resolved(self, sim):
        # _issue_miss picks mtype = MsgType.GETS / GETX into a local first.
        entry_out = {e.mtype
                     for e in sim.closure_emissions(["request_read"])}
        assert {"GETS", "GETX"} <= entry_out

    def test_scheduled_callbacks_are_followed(self, sim):
        # The delayed intervention is reached only through
        # events.schedule(..., self._fire_intervention, ...).
        assert "UPDATE" in sim.emitted_names("ACK_X")

    def test_retry_guard_detection(self, sim):
        assert sim.funcs["_retry_miss"].has_retry_guard
        assert not sim.funcs["_retry_recall"].has_retry_guard

    def test_retry_bound_propagates_along_the_call_path(self, sim):
        reissues = [e for e in sim.emissions_for("NACK")
                    if e.mtype in ("GETS", "GETX")
                    and e.func == "_issue_miss"]
        assert reissues and all(e.bounded for e in reissues)

    def test_self_type_sentinel_only_inside_closures(self, sim):
        # Raw items may carry the sentinel, resolved closures never do.
        for msg in sim.handlers:
            assert SELF_TYPE not in sim.emitted_names(msg)


class TestStateUsage:
    def test_all_audited_enums_found(self):
        usages = extract_state_usage(ROOT)
        assert {"DirState", "LineState", "RacKind", "BusyKind", "MissKind",
                "PathClass"} <= set(usages)

    def test_live_state_has_stores_and_reads(self):
        usages = extract_state_usage(ROOT)
        dele = usages["DirState"].members["DELE"]
        assert dele["stores"] and dele["reads"]

    def test_compare_sites_are_reads_not_stores(self):
        usages = extract_state_usage(ROOT)
        # LineState.MODIFIED appears in the dirty property comparison.
        modified = usages["LineState"].members["MODIFIED"]
        assert any("cache/line.py" in site[0]
                   for site in modified["reads"])
