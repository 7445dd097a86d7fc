"""repro — reproduction of "An Adaptive Cache Coherence Protocol Optimized
for Producer-Consumer Sharing" (Cheng, Carter, Dai — HPCA 2007).

The package provides:

* a message-level cc-NUMA coherence simulator (directory write-invalidate
  base protocol + the paper's detector, directory delegation and
  speculative-update mechanisms) — :mod:`repro.sim`, :mod:`repro.protocol`;
* synthetic workload generators matching the paper's seven applications'
  sharing signatures — :mod:`repro.workloads`;
* an explicit-state model checker and protocol model — :mod:`repro.mc`;
* analysis and the per-table/figure experiment harness —
  :mod:`repro.analysis`, :mod:`repro.harness`;
* transaction-level tracing, latency histograms and Perfetto export —
  :mod:`repro.obs` (see ``docs/observability.md``).

Quickstart::

    from repro import run_app, baseline, small

    base = run_app("em3d", baseline())
    enh = run_app("em3d", small())
    print("speedup:", base.metrics.cycles / enh.metrics.cycles)

The names below are resolved on first access (PEP 562), so importing one
subpackage — ``repro.mc`` for ``repro verify``, say — does not import the
simulator (``docs/performance.md``, "Start-up").
"""

import importlib

#: Public name -> the module (relative to this package) that defines it.
_EXPORTS = {
    **dict.fromkeys(("EVALUATED_SYSTEMS", "CacheConfig", "ProtocolConfig",
                     "SystemConfig", "baseline", "delegation_only",
                     "enhanced", "large", "rac_only", "small"),
                    ".common.params"),
    **dict.fromkeys(("experiments", "run_app"), ".harness"),
    **dict.fromkeys(("TraceConfig", "Tracer"), ".obs"),
    **dict.fromkeys(("Barrier", "Compute", "Read", "RunResult", "System",
                     "Write"), ".sim"),
    **dict.fromkeys(("application_names", "get_workload", "synthetic"),
                    ".workloads"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name == "__version__":
        value = _version()
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name], __name__),
                        name)
    else:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def _version():
    # Single-sourced from pyproject.toml via the installed metadata.
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:  # running from a source tree, not installed
        return "0.0.0+unknown"
