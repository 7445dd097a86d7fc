"""Shared infrastructure: configuration, events, statistics, RNG, errors.

The names below are resolved on first access (PEP 562), so a caller that
needs only :mod:`repro.common.errors` does not import the configuration.
"""

import importlib

#: Public name -> the module (relative to this package) that defines it.
_EXPORTS = {
    **dict.fromkeys(("CoherenceViolation", "ConfigError", "DeadlockError",
                     "InvariantViolation", "ProtocolError", "ReproError",
                     "SimulationError"), ".errors"),
    "EventQueue": ".events",
    **dict.fromkeys(("EVALUATED_SYSTEMS", "CacheConfig",
                     "DelegateCacheConfig", "NetworkConfig",
                     "ProtocolConfig", "SystemConfig", "baseline",
                     "config_digest", "config_from_dict", "config_to_dict",
                     "delegation_only", "enhanced", "large", "rac_only",
                     "small"), ".params"),
    "Stats": ".stats",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
