"""Job-spec validation: specs -> content-addressed work units."""

import pytest

from repro.common import params
from repro.fuzz.runner import run_seed_payload
from repro.harness.sweep import job_key
from repro.serve.jobspec import (
    SpecError,
    parse_job,
    resolve_config,
    traced_sim_runner,
)


#: A complete embedded ``config`` document (4-node ``small``).
CONFIG4 = params.config_to_dict(params.small(num_nodes=4))


class TestResolveConfig:
    def test_default_is_base(self):
        config = resolve_config({})
        assert params.config_digest(config) == \
            params.config_digest(params.baseline())

    def test_preset_and_alias(self):
        assert params.config_digest(resolve_config({"system": "pc"})) == \
            params.config_digest(resolve_config(
                {"system": "dele32_rac32k"}))

    def test_nodes_override(self):
        assert resolve_config({"system": "base", "nodes": 4}).num_nodes == 4

    def test_embedded_config_document(self):
        doc = params.config_to_dict(params.small(num_nodes=4))
        config = resolve_config({"config": doc})
        assert params.config_to_dict(config) == doc

    @pytest.mark.parametrize("doc", [
        {"system": "nope"},
        {"system": "base", "config": {}},
        {"system": 7},
        {"config": {"num_nodes": 4}},       # incomplete document
        {"system": "base", "nodes": 1},
        # Embedded documents SystemConfig or the registry refuses.
        {"config": dict(CONFIG4, protocol=dict(
            CONFIG4["protocol"], enable_delegation=False,
            enable_updates=True))},
        {"config": dict(CONFIG4, protocol_name="nope")},
        {"config": dict(CONFIG4, directory_format="coarse:x")},
    ])
    def test_rejects(self, doc):
        with pytest.raises(SpecError):
            resolve_config(doc)


class TestSimSpec:
    def spec(self, **overrides):
        doc = {"kind": "sim", "app": "ocean", "system": "base",
               "nodes": 4, "scale": 0.1}
        doc.update(overrides)
        return doc

    def test_expands_to_one_unit(self):
        spec = parse_job(self.spec())
        assert spec.kind == "sim"
        assert len(spec.units) == 1
        unit = spec.units[0]
        assert unit.runner is None
        assert unit.key == job_key(unit.job)
        assert unit.job.app == "ocean"
        assert unit.job.scale == 0.1

    def test_traced_sim_uses_traced_runner_key(self):
        plain = parse_job(self.spec()).units[0]
        traced = parse_job(self.spec(trace=True)).units[0]
        assert traced.runner is traced_sim_runner
        assert traced.key == job_key(traced.job, traced_sim_runner)
        assert traced.key != plain.key     # runner identity is in the key

    @pytest.mark.parametrize("overrides", [
        {"app": "nope"},
        {"seed": "x"},
        {"scale": 0},
        {"scale": 100},
        {"num_cpus": 0},
        {"check_coherence": "yes"},
        {"trace": "yes"},
        # JSON booleans are not numbers (bool subclasses int).
        {"seed": True},
        {"scale": True},
        {"num_cpus": True},
    ])
    def test_rejects(self, overrides):
        with pytest.raises(SpecError):
            parse_job(self.spec(**overrides))


class TestSweepSpec:
    def test_expands_matrix(self):
        spec = parse_job({"kind": "sweep", "apps": ["ocean", "lu"],
                          "systems": ["base", "rac32k"], "nodes": 4,
                          "scale": 0.1})
        assert len(spec.units) == 4
        assert sorted({u.job.app for u in spec.units}) == ["lu", "ocean"]
        assert len({u.key for u in spec.units}) == 4

    def test_systems_default_to_all_presets(self):
        spec = parse_job({"kind": "sweep", "apps": ["ocean"], "nodes": 4,
                          "scale": 0.1})
        assert len(spec.units) == len(params.EVALUATED_SYSTEMS)

    @pytest.mark.parametrize("doc", [
        {"kind": "sweep"},
        {"kind": "sweep", "apps": []},
        {"kind": "sweep", "apps": ["nope"]},
        {"kind": "sweep", "apps": ["ocean"], "systems": []},
        {"kind": "sweep", "apps": ["ocean"], "seed": False},
        {"kind": "sweep", "apps": ["ocean"], "scale": True},
    ])
    def test_rejects(self, doc):
        with pytest.raises(SpecError):
            parse_job(doc)


class TestFuzzSpec:
    def test_seed_list(self):
        spec = parse_job({"kind": "fuzz", "seeds": [1, 2], "scale": 0.5})
        assert [u.job.seed for u in spec.units] == [1, 2]
        assert all(u.runner is run_seed_payload for u in spec.units)
        assert all(u.key == job_key(u.job, run_seed_payload)
                   for u in spec.units)

    def test_seed_range(self):
        spec = parse_job({"kind": "fuzz", "seed_start": 5, "count": 3})
        assert [u.job.seed for u in spec.units] == [5, 6, 7]

    def test_scenario_chaos_lands_in_job(self):
        # Unit jobs carry the rolled scenario config/chaos, so the key
        # hashes the full fuzz content (same identity the fuzz pool uses).
        spec = parse_job({"kind": "fuzz", "seeds": [3]})
        from repro.fuzz.scenarios import FuzzScenario
        scenario = FuzzScenario.from_seed(3, scale=1.0)
        unit = spec.units[0]
        assert params.config_digest(unit.job.config) == \
            params.config_digest(scenario.config)
        assert unit.job.chaos == scenario.chaos

    @pytest.mark.parametrize("doc", [
        {"kind": "fuzz"},
        {"kind": "fuzz", "seeds": []},
        {"kind": "fuzz", "seeds": ["a"]},
        {"kind": "fuzz", "seed_start": 0, "count": 0},
        {"kind": "fuzz", "seeds": [True]},
        {"kind": "fuzz", "seed_start": True, "count": 2},
        {"kind": "fuzz", "seed_start": 0, "count": True},
        {"kind": "fuzz", "seeds": [1], "scale": True},
    ])
    def test_rejects(self, doc):
        with pytest.raises(SpecError):
            parse_job(doc)


class TestEnvelope:
    @pytest.mark.parametrize("doc", [
        [],
        {},
        {"kind": "nope"},
    ])
    def test_rejects_bad_envelopes(self, doc):
        with pytest.raises(SpecError):
            parse_job(doc)

    def test_unit_cap(self):
        with pytest.raises(SpecError):
            parse_job({"kind": "fuzz", "seed_start": 0, "count": 100_000})
