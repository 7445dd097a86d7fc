"""Static extraction of the protocol graph from the simulator sources.

Everything here is pure AST analysis — no repro module is imported from the
analyzed tree, so the extractor can run over arbitrary (e.g. deliberately
mutated) source snapshots.  The **simulator graph** comes out: the
``Hub._handlers`` dispatch table from ``protocol/hub.py`` and per-method
``Message(MsgType.X, ...)`` emission sites across ``protocol/*.py``,
closed over ``self.*`` helper calls.  The message vocabulary needs no
extraction: ``MsgType`` is built from the adaptive spec's ``MESSAGES``,
which lint loads from the same tree.  (Nor does the model checker: its
models are compiled from the protocol specs.)

Handler *closures* follow helper calls transitively (including methods only
referenced as ``events.schedule`` callbacks) and prune branches guarded by
``msg.mtype is MsgType.X`` tests when analysing a different message — that
is what keeps the shared ``_route_request`` entry from smearing the GETS
and GETX transition sets into each other.  ``Message(msg.mtype, ...)``
forwards resolve to the message being handled.

State usage (for reachability checks) is collected for the protocol enums
(:class:`DirState`, :class:`LineState`, ...) over the whole source tree:
each ``Enum.MEMBER`` reference site is classified as a *store* (the member
is assigned/installed somewhere) or a *read* (compared or otherwise
consumed).
"""

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The ``protocol/`` modules whose class methods the extractor scans.
SIM_PROTOCOL_FILES = ("hub.py", "home.py", "producer.py", "requester.py",
                      "delegate_cache.py", "transactions.py")

#: Entry points that originate protocol traffic without handling a message.
SIM_ENTRY_POINTS = ("request_read", "request_write")

#: Enums whose members the reachability checks audit, as
#: (file-relative-to-package, class name) pairs.
STATE_ENUMS = (
    ("directory/state.py", "DirState"),
    ("cache/line.py", "LineState"),
    ("cache/line.py", "RacKind"),
    ("protocol/transactions.py", "BusyKind"),
    ("protocol/transactions.py", "MissKind"),
    ("protocol/transactions.py", "PathClass"),
)

#: Sentinel for ``Message(msg.mtype, ...)`` — "the message being handled".
SELF_TYPE = "@self"


@dataclass
class Emission:
    """One message-construction site."""

    mtype: Optional[str]   # message name, SELF_TYPE, or None (unresolvable)
    func: str
    file: str
    line: int
    bounded: bool = False  # a retry-bound guard dominates this emission


@dataclass
class Item:
    """One guarded fact inside a function body: an emission or a callee."""

    kind: str                                  # "emit" | "call"
    emission: Optional[Emission] = None
    callee: Optional[str] = None
    guards: Tuple[Tuple[str, bool], ...] = ()  # (msg name, polarity) tests

    def active_for(self, msg):
        """Whether this item applies when handling message ``msg``."""
        if msg is None:
            return True
        for name, wanted in self.guards:
            if (name == msg) is not wanted:
                return False
        return True


@dataclass
class FuncInfo:
    """Static summary of one function/method."""

    name: str
    file: str
    line: int
    items: List[Item] = field(default_factory=list)
    has_retry_guard: bool = False


class Graph:
    """A protocol graph: handlers and their emission closure."""

    def __init__(self):
        self.handlers: Dict[str, List[str]] = {}
        self.entry_points: List[str] = []
        self.funcs: Dict[str, FuncInfo] = {}

    # -- closure ----------------------------------------------------------

    def closure_emissions(self, start_funcs, msg=None):
        """Every emission reachable from ``start_funcs`` when handling
        ``msg`` (guard-pruned), with retry-boundedness propagated along
        call paths.  ``SELF_TYPE`` emissions resolve to ``msg``."""
        emissions = []
        seen = set()
        stack = [(name, False) for name in start_funcs]
        while stack:
            name, bounded = stack.pop()
            func = self.funcs.get(name)
            if func is None:
                continue
            bounded = bounded or func.has_retry_guard
            if (name, bounded) in seen:
                continue
            # A bounded visit subsumes nothing: the same function may be
            # reachable both guarded and unguarded, and the unguarded path
            # is the risky one, so both states are explored.
            seen.add((name, bounded))
            for item in func.items:
                if not item.active_for(msg):
                    continue
                if item.kind == "emit":
                    emission = item.emission
                    mtype = emission.mtype
                    if mtype == SELF_TYPE:
                        mtype = msg
                    emissions.append(Emission(
                        mtype=mtype, func=emission.func,
                        file=emission.file, line=emission.line,
                        bounded=bounded))
                elif item.callee in self.funcs:
                    stack.append((item.callee, bounded))
        return emissions

    def emissions_for(self, msg):
        """Emissions reachable from ``msg``'s registered handlers."""
        return self.closure_emissions(self.handlers.get(msg, ()), msg=msg)

    def emitted_names(self, msg):
        return {e.mtype for e in self.emissions_for(msg)
                if e.mtype is not None}

    def all_emissions(self):
        """Every emission reachable from any handler or entry point."""
        out = []
        for msg in self.handlers:
            out.extend(self.emissions_for(msg))
        out.extend(self.closure_emissions(self.entry_points, msg=None))
        return out


@dataclass
class StateUsage:
    """Reference census for one enum class."""

    enum: str
    file: str
    members: Dict[str, dict] = field(default_factory=dict)  # name -> info

    def add_member(self, name, line):
        self.members[name] = {"line": line, "stores": [], "reads": []}


# -- shared AST helpers -------------------------------------------------------


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_enum_attr(node, enum_name):
    """``node`` is an ``EnumName.MEMBER`` attribute access."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == enum_name)


def _match_mtype_guard(test):
    """``msg.mtype is [not] MsgType.X`` -> (name, polarity), else None."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return None
    left, op, right = test.left, test.ops[0], test.comparators[0]
    if not (isinstance(left, ast.Attribute) and left.attr == "mtype"
            and isinstance(left.value, ast.Name) and left.value.id == "msg"):
        return None
    if not _is_enum_attr(right, "MsgType"):
        return None
    if isinstance(op, (ast.Is, ast.Eq)):
        return (right.attr, True)
    if isinstance(op, (ast.IsNot, ast.NotEq)):
        return (right.attr, False)
    return None


def _has_retry_guard(func_node):
    """A comparison against a retry/backoff bound appears in the body."""
    for node in ast.walk(func_node):
        if not isinstance(node, ast.Compare):
            continue
        for part in [node.left] + list(node.comparators):
            for sub in ast.walk(part):
                name = None
                if isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.Name):
                    name = sub.id
                if name and ("retries" in name or "retry_limit" in name
                             or "max_retries" in name):
                    return True
    return False


def _local_mtype_assigns(func_node):
    """Names assigned ``MsgType.X`` constants anywhere in the function."""
    assigns = {}
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign) and _is_enum_attr(node.value,
                                                          "MsgType"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns.setdefault(target.id, []).append(node.value.attr)
    return assigns


# -- simulator extraction -----------------------------------------------------


class _SimFuncVisitor(ast.NodeVisitor):
    """Collects guarded emissions and self-callees from one sim method."""

    def __init__(self, info, relpath, mtype_assigns):
        self.info = info
        self.relpath = relpath
        self.mtype_assigns = mtype_assigns
        self.guards = []

    def visit_If(self, node):
        guard = _match_mtype_guard(node.test)
        if guard is None:
            self.generic_visit(node)
            return
        self.visit(node.test)
        name, polarity = guard
        self.guards.append((name, polarity))
        for child in node.body:
            self.visit(child)
        self.guards.pop()
        self.guards.append((name, not polarity))
        for child in node.orelse:
            self.visit(child)
        self.guards.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "Message":
            self._record_message(node)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self.info.items.append(Item(kind="call", callee=node.attr,
                                        guards=tuple(self.guards)))
        self.generic_visit(node)

    def _record_message(self, node):
        first = node.args[0] if node.args else None
        mtypes = [None]
        if first is None:
            pass
        elif _is_enum_attr(first, "MsgType"):
            mtypes = [first.attr]
        elif isinstance(first, ast.Attribute) and first.attr == "mtype":
            mtypes = [SELF_TYPE]
        elif isinstance(first, ast.Name):
            mtypes = self.mtype_assigns.get(first.id) or [None]
        for mtype in mtypes:
            emission = Emission(mtype=mtype, func=self.info.name,
                                file=self.relpath, line=node.lineno)
            self.info.items.append(Item(kind="emit", emission=emission,
                                        guards=tuple(self.guards)))


def _extract_handler_table(hub_path):
    """The ``self._handlers = {MsgType.X: self._method}`` dispatch dict."""
    handlers = {}
    for node in ast.walk(_parse(hub_path)):
        if not (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and node.targets[0].attr == "_handlers"
                and isinstance(node.value, ast.Dict)):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if (_is_enum_attr(key, "MsgType")
                    and isinstance(value, ast.Attribute)):
                handlers.setdefault(key.attr, []).append(value.attr)
    return handlers


def extract_sim(root):
    """Extract the simulator-side protocol graph from package dir ``root``."""
    root = Path(root)
    graph = Graph()
    graph.handlers = _extract_handler_table(root / "protocol" / "hub.py")
    graph.entry_points = list(SIM_ENTRY_POINTS)
    for filename in SIM_PROTOCOL_FILES:
        path = root / "protocol" / filename
        if not path.exists():
            continue
        relpath = "protocol/" + filename
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                info = FuncInfo(name=stmt.name, file=relpath,
                                line=stmt.lineno,
                                has_retry_guard=_has_retry_guard(stmt))
                visitor = _SimFuncVisitor(info, relpath,
                                          _local_mtype_assigns(stmt))
                for child in stmt.body:
                    visitor.visit(child)
                graph.funcs[stmt.name] = info
    return graph


# -- state-usage extraction ---------------------------------------------------


class _StateRefVisitor(ast.NodeVisitor):
    """Classifies every ``Enum.MEMBER`` reference as a store or a read.

    A member that is a *comparator* (inside any ``Compare``) is a read; a
    member stored anywhere (assignment RHS, dict value, call argument,
    dataclass default) counts as enterable.  The distinction is what lets
    the reachability checks tell "no transition ever enters this state"
    from "this state is entered but never examined".
    """

    def __init__(self, usages, relpath):
        self.usages = usages  # enum name -> StateUsage
        self.relpath = relpath
        self._compare_depth = 0

    def visit_Compare(self, node):
        self._compare_depth += 1
        self.generic_visit(node)
        self._compare_depth -= 1

    def visit_Attribute(self, node):
        usage = self.usages.get(node.value.id) if isinstance(
            node.value, ast.Name) else None
        if usage is not None and node.attr in usage.members:
            bucket = "reads" if self._compare_depth else "stores"
            usage.members[node.attr][bucket].append(
                (self.relpath, node.lineno))
        self.generic_visit(node)


def extract_state_usage(root):
    """Reference census for each audited enum across the whole package."""
    root = Path(root)
    usages = {}
    for rel, enum_name in STATE_ENUMS:
        path = root / rel
        if not path.exists():
            continue
        usage = StateUsage(enum=enum_name, file=rel)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and node.name == enum_name:
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and isinstance(stmt.value, (ast.Constant,
                                                        ast.Tuple))):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                usage.add_member(target.id, stmt.lineno)
        usages[enum_name] = usage
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relpath = str(path.relative_to(root))
        visitor = _StateRefVisitor(usages, relpath)
        visitor.visit(_parse(path))
    return usages
