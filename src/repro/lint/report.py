"""Renderers for lint reports: human-readable text, JSON, and SARIF 2.1.0."""

import json

from .findings import Severity

#: SARIF wants its own level vocabulary; ours happens to match.
_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning",
                Severity.NOTE: "note"}

#: One-line rule descriptions for SARIF's rule metadata.
RULE_DESCRIPTIONS = {
    "COV001": "Message emitted but no handler registered",
    "COV002": "Message declared but never emitted (dead message)",
    "COV003": "MsgType missing from the hub dispatch table",
    "CON001": "Sim message vocabulary out of step with the spec",
    "CON003": "Sim transition the spec does not allow",
    "CON005": "Spec-required sim transition absent from the simulator",
    "SPC001": "Overlapping guards in one spec trigger group",
    "SPC002": "Non-exhaustive guards in one spec trigger group",
    "SPC003": "Declared spec state never installed",
    "SPC004": "Spec message never emitted or never handled",
    "SPC005": "Spec emission cycle with no NACK-family hop",
    "SPC006": "Unpaired request or reply to a non-request in the spec",
    "SPC007": "Dispatch table out of sync with the protocol spec",
    "DLK001": "Message-dependency cycle not broken by a NACK",
    "DLK002": "NACK retry path with no bounding counter",
    "RCH001": "State no transition ever enters",
    "RCH002": "State entered but never examined",
    "EXT001": "Statically unresolvable emission",
    "ARN001": "Arena handler table references an unknown MsgType",
    "ALW001": "Stale allowlist entry",
}


def render_text(report, verbose=False, title="repro lint"):
    """The default human-readable rendering."""
    lines = []
    stats = report.stats
    lines.append("%s: %s" % (title, report.root or "<tree>"))
    if stats:
        lines.append(
            "  graph: %d sim messages / %d handled, %d state enums"
            % (stats.get("sim_messages", 0), stats.get("sim_handled", 0),
               stats.get("state_enums", 0)))
        protocols = stats.get("protocols") or {}
        if protocols:
            for name in sorted(protocols):
                lines.append("  %s: %s" % (name, protocols[name]))
        conformance = stats.get("conformance") or {}
        if conformance:
            lines.append(
                "  conformance source: guarded-action specs (%s) — "
                "gaps justified in-spec, not in the allowlist"
                % ", ".join(conformance.get("specs", ())))
    lines.append("")
    for finding in report.sorted_findings():
        lines.append("%s %s [%s] %s" % (finding.severity.value.upper(),
                                        finding.check_id,
                                        finding.location(),
                                        finding.message))
        lines.append("    fingerprint: %s" % finding.key)
    if not report.findings:
        lines.append("clean: no findings above the allowlist")
    if report.allowlisted and verbose:
        lines.append("")
        lines.append("allowlisted (%d):" % len(report.allowlisted))
        for finding in report.allowlisted:
            lines.append("  %s %s" % (finding.key, finding.message))
    elif report.allowlisted:
        lines.append("")
        lines.append("(%d finding(s) allowlisted in %s)"
                     % (len(report.allowlisted),
                        report.allowlist_path or "allowlist"))
    lines.append("")
    lines.append("%d error(s), %d warning(s), %d note(s)"
                 % (report.errors, report.warnings,
                    report.count(Severity.NOTE)))
    return "\n".join(lines)


def _finding_dict(finding):
    return {
        "check_id": finding.check_id,
        "severity": finding.severity.value,
        "fingerprint": finding.fingerprint,
        "key": finding.key,
        "message": finding.message,
        "file": finding.file,
        "line": finding.line,
        "side": finding.side,
    }


def render_json(report):
    """Machine-readable rendering (stable keys; consumed by tests/CI)."""
    return json.dumps({
        "root": report.root,
        "allowlist": report.allowlist_path,
        "stats": report.stats,
        "findings": [_finding_dict(f) for f in report.sorted_findings()],
        "allowlisted": [_finding_dict(f) for f in report.allowlisted],
        "stale_allowlist": [{"key": e.key, "line": e.line,
                             "reason": e.reason}
                            for e in report.stale_allowlist],
        "summary": {
            "errors": report.errors,
            "warnings": report.warnings,
            "notes": report.count(Severity.NOTE),
        },
    }, indent=2, sort_keys=True)


def render_sarif(report):
    """Minimal SARIF 2.1.0 document (one run, one driver)."""
    rule_ids = sorted({f.check_id for f in report.findings}
                      | set(RULE_DESCRIPTIONS))
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": RULE_DESCRIPTIONS.get(rule_id, rule_id)},
    } for rule_id in rule_ids]
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = []
    for finding in report.sorted_findings():
        result = {
            "ruleId": finding.check_id,
            "ruleIndex": rule_index[finding.check_id],
            "level": _SARIF_LEVEL[finding.severity],
            "message": {"text": finding.message},
            "partialFingerprints": {"reproLint/v1": finding.key},
        }
        if finding.file:
            result["locations"] = [{
                "physicalLocation": {
                    "artifactLocation": {"uri": "src/repro/" + finding.file},
                    "region": {"startLine": finding.line or 1},
                },
            }]
        results.append(result)
    return json.dumps({
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri": "docs/static_analysis.md",
                "rules": rules,
            }},
            "results": results,
        }],
    }, indent=2, sort_keys=True)
