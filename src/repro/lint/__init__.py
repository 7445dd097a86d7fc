"""repro.lint — static protocol analyzer.

Extracts the protocol graph from the simulator sources (handler tables,
message emissions), loads the guarded-action protocol specs, and runs a
registry of static checks over them: handler coverage, spec analyses,
sim ↔ spec conformance diffing, deadlock/livelock heuristics, and state
reachability.  See ``docs/static_analysis.md``.

Entry point: :func:`run_lint` (also exposed as ``repro lint`` on the CLI).
"""

from pathlib import Path

from ..common.errors import ConfigError
from ..spec.registry import load_spec_tree
from .checks import run_checks
from .extract import extract_sim, extract_state_usage
from .findings import (Allowlist, Finding, LintReport,  # noqa: F401
                       Severity)
from .report import render_json, render_sarif, render_text  # noqa: F401

#: Default allowlist file name, looked up at the repo root (two levels
#: above the package: src/repro -> src -> repo).
ALLOWLIST_NAME = "lint_allowlist.txt"


def default_root():
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def default_allowlist_path(root):
    """``lint_allowlist.txt`` next to the source tree, if present."""
    candidate = Path(root).parent.parent / ALLOWLIST_NAME
    return candidate if candidate.exists() else None


def run_lint(root=None, allowlist_path=None, use_allowlist=True):
    """Extract the protocol graphs under ``root`` and run every check.

    ``root`` is the ``repro`` package directory (defaults to this
    installation's own sources — the self-audit mode the CI gate runs).
    ``allowlist_path`` overrides the allowlist location; ``use_allowlist``
    False ignores any allowlist (mutation tests use this to see raw
    findings).
    """
    root = Path(root) if root else default_root()
    specs = load_spec_tree(root)
    if "adaptive" not in specs:
        raise ConfigError(
            "%s has no spec/protocols/adaptive.py; lint checks the "
            "simulator against that spec" % root)
    sim = extract_sim(root)
    states = extract_state_usage(root)
    findings = run_checks(sim, states, specs)

    allowlist = None
    if use_allowlist:
        if allowlist_path is None:
            allowlist_path = default_allowlist_path(root)
        if allowlist_path is not None:
            allowlist = Allowlist.load(allowlist_path)

    kept, allowlisted = [], []
    for finding in findings:
        if allowlist is not None and allowlist.match(finding):
            allowlisted.append(finding)
        else:
            kept.append(finding)
    stale = allowlist.stale_entries() if allowlist is not None else []
    for entry in stale:
        kept.append(Finding(
            check_id="ALW001", severity=Severity.WARNING,
            fingerprint=entry.key, side="both",
            message="allowlist entry %r matched no finding this run — "
                    "remove it (justification was: %s)"
                    % (entry.key, entry.reason),
            file=str(allowlist.path) if allowlist else None,
            line=entry.line))

    return LintReport(
        findings=kept, allowlisted=allowlisted, stale_allowlist=stale,
        root=str(root),
        allowlist_path=str(allowlist.path) if allowlist else None,
        stats={
            "sim_messages": len(sim.messages),
            "sim_handled": len(sim.handlers),
            "sim_funcs": len(sim.funcs),
            "state_enums": len(states),
            # How lint covers each arena protocol (every protocol runs
            # from its spec): every spec gets the SPC analyses, the
            # conformance specs are diffed against the simulator graph,
            # and a spec with mc_model="generated" also *is* the
            # protocol's model-checker twin.
            "protocols": {
                name: _protocol_status(name, spec)
                for name, spec in specs.items()
            },
            "conformance": {"specs": sorted(specs)},
        })


def _protocol_status(name, spec):
    from ..spec.conformance import CONFORMANCE_SPECS
    return "%s (%s)" % (
        "conformance-checked" if name in CONFORMANCE_SPECS
        else "spec-checked",
        "generated mc twin" if spec.mc_model == "generated"
        else "no mc twin")
