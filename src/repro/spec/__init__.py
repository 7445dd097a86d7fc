"""Declarative guarded-action protocol specs and their compilers.

``repro.spec`` holds one :class:`~repro.spec.lang.ProtocolSpec` per arena
protocol — a module in ``spec/protocols/``, a feature projection of one
(``wi`` and ``mesi`` are adaptive with parts projected away), or an
extension composed onto one (``dragon`` adds an update pair to ``wi``)
— plus the three consumers that compile or diff them:

* :mod:`repro.spec.analyze` — spec-level static checks (``SPC0xx``);
* :mod:`repro.spec.conformance` — spec vs extracted simulator graph
  diffs (``CON0xx``);
* :mod:`repro.spec.mcgen` — compiles a ``mc_model="generated"`` spec
  into the executable model :mod:`repro.mc` checks.

The simulator reads the specs too: each arena protocol's hubs dispatch
exactly the messages its spec handles (``repro.protocol.arena``).
"""

from .lang import (Atom, Extension, Feature, Msg, ProtocolSpec, SpecError,
                   T)
from .registry import all_specs, get_spec, load_spec_tree

__all__ = [
    "Atom",
    "Extension",
    "Feature",
    "Msg",
    "ProtocolSpec",
    "SpecError",
    "T",
    "all_specs",
    "get_spec",
    "load_spec_tree",
]
