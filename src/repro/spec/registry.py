"""Loading protocol specs — installed and from analyzed source trees.

Two access paths:

* :func:`get_spec` / :func:`all_specs` import the specs shipped with the
  installed package — the normal path for the CLI, the arena, and the
  generated model checker.
* :func:`load_spec_tree` loads spec modules *from an analyzed source
  tree* by ``exec``-ing ``<root>/spec/protocols/*.py``.  The lint
  pipeline analyzes a tree that is not necessarily the installed package
  (the mutation tests copy and mutate trees), so the specs checked must
  come from the same tree as the extracted sim graph.  A tree without a
  ``spec/protocols/`` directory yields ``{}``, which lint rejects.

Only the adaptive spec encodes the invalidate backbone.  A
:data:`DERIVED` protocol is it with features projected away
(:meth:`ProtocolSpec.without`): the ``wi`` baseline is the adaptive
protocol without delegation and updates, as the paper defines it
(§2.5), and ``mesi`` also drops the RAC and the preserved consumer
vector.  A module may instead define an :class:`Extension`, which is
composed onto the spec it names (:meth:`ProtocolSpec.plus`): ``dragon``
adds its update pair to ``wi``.  Both paths build these from the
adaptive spec they loaded.
"""

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from .lang import Extension, ProtocolSpec, SpecError

SPEC_NAMES = ("adaptive", "wi", "mesi", "dragon")

#: name -> (base spec, features projected away, description).
DERIVED: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "wi": ("adaptive", ("delegation", "updates"),
           "writer-invalidate baseline: the adaptive protocol without "
           "delegation and updates"),
    "mesi": ("adaptive", ("delegation", "updates", "rac", "consumer_vector"),
             "textbook MESI directory baseline: no delegation, no "
             "updates, invalidated readers are forgotten"),
}


def _derive(name: str, base: ProtocolSpec) -> ProtocolSpec:
    _base, features, description = DERIVED[name]
    spec = replace(base.without(*features), name=name,
                   description=description)
    spec.validate()
    return spec


def _compose(ext: Extension, base: ProtocolSpec) -> ProtocolSpec:
    spec = base.plus(ext)
    spec.validate()
    return spec


def get_spec(name: str) -> ProtocolSpec:
    """Return the installed spec for ``name`` (validated)."""
    if name not in SPEC_NAMES:
        raise SpecError("no spec for protocol %r (have: %s)"
                        % (name, ", ".join(SPEC_NAMES)))
    if name in DERIVED:
        return _derive(name, get_spec(DERIVED[name][0]))
    from importlib import import_module
    spec = import_module("repro.spec.protocols.%s" % name).SPEC
    if isinstance(spec, Extension):
        return _compose(spec, get_spec(spec.base))
    if not isinstance(spec, ProtocolSpec):  # pragma: no cover - defensive
        raise SpecError("repro.spec.protocols.%s.SPEC is not a "
                        "ProtocolSpec" % name)
    spec.validate()
    return spec


def all_specs() -> Dict[str, ProtocolSpec]:
    """All installed specs, keyed by protocol name."""
    return {name: get_spec(name) for name in SPEC_NAMES}


def load_spec_tree(root: Path) -> Dict[str, ProtocolSpec]:
    """Load every spec found under ``<root>/spec/protocols``.

    Spec modules are executed from source so that a mutated copy of the
    tree is analyzed as-is; their ``from repro.spec.lang import ...``
    still resolves against the installed IR, which is what defines the
    language, not the protocol.  Raises :class:`SpecError` for specs
    that fail structural validation — a broken spec is a configuration
    error, not a finding.
    """
    spec_dir = Path(root) / "spec" / "protocols"
    specs: Dict[str, ProtocolSpec] = {}
    extensions: List[Tuple[Path, Extension]] = []
    if not spec_dir.is_dir():
        return specs
    for path in sorted(spec_dir.glob("*.py")):
        if path.name.startswith("_"):
            continue
        source = path.read_text(encoding="utf-8")
        namespace: Dict[str, object] = {"__name__": "repro_spec_tree_%s"
                                        % path.stem}
        try:
            exec(compile(source, str(path), "exec"), namespace)
        except SpecError:
            raise
        except Exception as exc:
            raise SpecError("failed to load spec %s: %s" % (path, exc))
        spec = namespace.get("SPEC")
        if not isinstance(spec, (ProtocolSpec, Extension)):
            raise SpecError("%s defines no SPEC ProtocolSpec or Extension"
                            % path)
        if spec.name in DERIVED:
            raise SpecError("%s defines %s, which is derived from %s"
                            % (path, spec.name, DERIVED[spec.name][0]))
        if isinstance(spec, Extension):
            extensions.append((path, spec))
            continue
        spec.validate()
        specs[spec.name] = spec
    for name, (base, _features, _description) in DERIVED.items():
        if base in specs:
            specs[name] = _derive(name, specs[base])
    for path, ext in extensions:
        if ext.base not in specs:
            raise SpecError("%s extends %s, which the tree does not define"
                            % (path, ext.base))
        specs[ext.name] = _compose(ext, specs[ext.base])
    return specs
