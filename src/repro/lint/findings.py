"""Findings, severities and the conformance/deadlock allowlist.

A *finding* is one concrete defect (or suspicion) anchored to a source
location, identified by a check id (``CON001`` ...) and a stable
*fingerprint* — a short string that survives reformatting and line-number
churn, e.g. ``CON001:WB_ACK`` or ``DLK002:NACK->UNDELE_REQ@_retry_recall``.
Fingerprints are what the allowlist matches on: intentional abstraction
gaps between the simulator and the model checker are recorded once, with a
mandatory justification comment, instead of silencing whole checks.
"""

import enum
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import List, Optional

from ..common.errors import ConfigError


class Severity(enum.Enum):
    """How bad a finding is; drives exit codes and SARIF levels."""

    ERROR = "error"      # a protocol bug until proven (allowlisted) otherwise
    WARNING = "warning"  # heuristic finding; review, then fix or allowlist
    NOTE = "note"        # informational (e.g. unresolvable dynamic emission)

    @property
    def rank(self):
        return {"note": 0, "warning": 1, "error": 2}[self.value]


@dataclass
class Finding:
    """One defect reported by a check."""

    check_id: str
    severity: Severity
    message: str
    fingerprint: str
    file: Optional[str] = None
    line: Optional[int] = None
    side: str = "sim"  # "sim" | "mc" | "both"

    @property
    def key(self):
        """The allowlist key: check id + fingerprint."""
        return "%s:%s" % (self.check_id, self.fingerprint)

    def location(self):
        if self.file is None:
            return "<protocol>"
        return "%s:%s" % (self.file, self.line if self.line else "?")


@dataclass
class AllowEntry:
    """One allowlisted fingerprint with its mandatory justification."""

    key: str
    reason: str
    line: int
    used: bool = False


class Allowlist:
    """Parsed ``lint_allowlist.txt``.

    Format: one entry per line, ``CHECKID:fingerprint  # justification``.
    Blank lines and pure comment lines are ignored.  The justification is
    *required* — an entry without one is a configuration error, because an
    unexplained suppression is exactly the kind of silent gap this tool
    exists to prevent.

    The fingerprint part may contain ``*``/``?`` glob wildcards, so one
    reviewed entry can cover a family of findings with a single cause
    (e.g. ``CON003:*->UPDATE`` for every transition the model hoists into
    its update rule).  The check-id part never globs.
    """

    def __init__(self, entries=None, path=None):
        self.path = path
        self._entries = {}
        for entry in entries or []:
            self._entries[entry.key] = entry

    @classmethod
    def load(cls, path):
        entries = []
        with open(path) as fileobj:
            for lineno, raw in enumerate(fileobj, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, reason = line.partition("#")
                key = key.strip()
                reason = reason.strip()
                if not reason:
                    raise ConfigError(
                        "%s:%d: allowlist entry %r has no justification "
                        "comment (format: 'CHECKID:fingerprint  # why')"
                        % (path, lineno, key))
                if ":" not in key:
                    raise ConfigError(
                        "%s:%d: malformed allowlist key %r (expected "
                        "'CHECKID:fingerprint')" % (path, lineno, key))
                entries.append(AllowEntry(key=key, reason=reason,
                                          line=lineno))
        return cls(entries, path=str(path))

    def match(self, finding):
        """True (and mark used) if ``finding`` is allowlisted."""
        entry = self._entries.get(finding.key)
        if entry is None:
            for candidate in self._entries.values():
                check_id, _, pattern = candidate.key.partition(":")
                if (check_id == finding.check_id
                        and fnmatchcase(finding.fingerprint, pattern)):
                    entry = candidate
                    break
        if entry is None:
            return False
        entry.used = True
        return True

    def stale_entries(self):
        """Entries that matched nothing this run (candidates for removal)."""
        return [e for e in self._entries.values() if not e.used]

    def __len__(self):
        return len(self._entries)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    allowlisted: List[Finding] = field(default_factory=list)
    stale_allowlist: List[AllowEntry] = field(default_factory=list)
    root: Optional[str] = None
    allowlist_path: Optional[str] = None
    stats: dict = field(default_factory=dict)

    def count(self, severity):
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def errors(self):
        return self.count(Severity.ERROR)

    @property
    def warnings(self):
        return self.count(Severity.WARNING)

    def exit_code(self, fail_on=Severity.ERROR):
        """0 when clean at the threshold, 1 when findings gate the build."""
        worst = max((f.severity.rank for f in self.findings), default=-1)
        return 1 if worst >= fail_on.rank else 0

    def sorted_findings(self):
        return sorted(self.findings,
                      key=lambda f: (-f.severity.rank, f.check_id,
                                     f.fingerprint))
