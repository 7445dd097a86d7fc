"""The fuzz campaign driver: corpus runs, shrinking, artifacts, replay.

:class:`FuzzEngine` turns a list of seeds into scenario runs (optionally
fanned out over the sweep engine's worker pool), shrinks every failure
(:mod:`repro.fuzz.shrink`) and writes a deterministic repro artifact per
failing seed under ``.repro_cache/fuzz/<seed>.json``.  An artifact stores
the original and shrunk scenarios *and* their full results, so

* ``repro fuzz --replay <artifact>`` re-executes the shrunk scenario and
  compares the fresh result digest byte-for-byte against the recorded
  one — "reproduced" means the bug still exists, bit-identically;
* a fixed artifact replays as "no longer reproduces", which is how the CI
  fuzz-smoke job distinguishes a fixed bug from a flaky harness.
"""

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from .runner import CaseResult, FuzzJob, run_case
from .scenarios import scenario_from_dict, scenario_to_dict

#: Default artifact directory (beside the sweep cache).
FUZZ_DIR = os.path.join(".repro_cache", "fuzz")

#: Artifact format version.
ARTIFACT_FORMAT = 1


@dataclass
class FuzzFailure:
    """One failing seed, fully packaged."""

    seed: int
    result: CaseResult            # the original (unshrunk) failure
    shrunk_result: CaseResult     # failure of the minimised scenario
    artifact_path: Optional[str] = None
    shrink_attempts: int = 0


@dataclass
class FuzzReport:
    """What one corpus run did."""

    seeds: List[int] = field(default_factory=list)
    passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


class FuzzEngine:
    """Runs seed corpora and manages repro artifacts.

    ``jobs`` > 1 fans scenario runs out over the sweep engine's process
    pool; shrinking always happens in the parent (it is a sequential
    search).  ``jobs=1`` runs everything in-process, which also makes
    monkeypatched protocol mutations visible to the runs — the mutation
    acceptance tests rely on that.
    """

    def __init__(self, jobs=1, out_dir=FUZZ_DIR, shrink=True,
                 shrink_budget=24, scale=1.0, cache=False,
                 cache_dir=None):
        self.jobs = jobs
        self.out_dir = out_dir
        self.shrink = shrink
        self.shrink_budget = shrink_budget
        self.scale = scale
        self.cache = cache
        self.cache_dir = cache_dir

    # -- corpus runs --------------------------------------------------------

    def run_corpus(self, seeds, progress=None):
        """Run every seed; shrink + persist an artifact per failure."""
        seeds = list(seeds)
        results = self._run_scenarios(seeds)
        report = FuzzReport(seeds=seeds)
        for seed in seeds:
            result = results[seed]
            if result.ok:
                report.passed += 1
            else:
                report.failures.append(self._package_failure(seed, result))
            if progress is not None:
                progress(seed, result)
        return report

    def _run_scenarios(self, seeds):
        from ..harness.sweep import CACHE_DIR, SweepEngine

        # The job type is hashed into every job key, so corpus results
        # can share the on-disk cache with simulation payloads.
        engine = SweepEngine(jobs=self.jobs, cache=self.cache,
                             cache_dir=self.cache_dir or CACHE_DIR)
        return engine.run_many({seed: FuzzJob(seed, self.scale)
                                for seed in seeds})

    def _package_failure(self, seed, result):
        scenario = FuzzJob(seed, self.scale).scenario()
        shrunk, shrunk_result, attempts = scenario, None, 0
        if self.shrink:
            from .shrink import shrink_scenario

            shrunk, shrunk_result, attempts = shrink_scenario(
                scenario, result, rerun=run_case,
                budget=self.shrink_budget)
        if shrunk_result is None:
            # Nothing smaller still failed (or shrinking disabled): the
            # artifact replays the original scenario.  Rerun it so the
            # recorded result is exactly what a replay will regenerate.
            shrunk, shrunk_result = scenario, run_case(scenario)
        path = self._write_artifact(seed, scenario, result, shrunk,
                                    shrunk_result, attempts)
        return FuzzFailure(seed=seed, result=result,
                           shrunk_result=shrunk_result,
                           artifact_path=path, shrink_attempts=attempts)

    # -- artifacts ----------------------------------------------------------

    def _write_artifact(self, seed, scenario, result, shrunk, shrunk_result,
                        attempts):
        from ..harness.sweep import write_json_atomic

        doc = {
            "format": ARTIFACT_FORMAT,
            "seed": seed,
            "original": scenario_to_dict(scenario),
            "original_result": result.to_dict(),
            "shrunk": scenario_to_dict(shrunk),
            "shrunk_result": shrunk_result.to_dict(),
            "shrunk_digest": shrunk_result.digest,
            "shrink_attempts": attempts,
        }
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "%d.json" % seed)
        write_json_atomic(path, doc, indent=2)
        return path


@dataclass
class ReplayReport:
    """Outcome of replaying one artifact."""

    path: str
    seed: int
    reproduced: bool              # fresh run == recorded run, byte-for-byte
    expected_oracle: Optional[str]
    actual: CaseResult
    expected_digest: str
    actual_digest: str


def replay_artifact(path):
    """Re-execute an artifact's shrunk scenario and compare byte-for-byte."""
    with open(path) as fileobj:
        doc = json.load(fileobj)
    if doc.get("format") != ARTIFACT_FORMAT:
        raise ValueError("unknown fuzz artifact format %r"
                         % doc.get("format"))
    scenario = scenario_from_dict(doc["shrunk"])
    expected = CaseResult(**doc["shrunk_result"])
    actual = run_case(scenario)
    return ReplayReport(path=path, seed=doc["seed"],
                        reproduced=actual.digest == expected.digest,
                        expected_oracle=expected.oracle, actual=actual,
                        expected_digest=expected.digest,
                        actual_digest=actual.digest)
