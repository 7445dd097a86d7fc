"""What importing a package costs, and the lazy re-exports that keep it low.

``repro`` and ``repro.common`` resolve their public names on first access
(PEP 562), so a path that needs only the model checker does not import the
simulator.  The first test pins that boundary by module name in a fresh
interpreter; the rest check that the lazy tables still export exactly what
the eager imports did.
"""

import importlib
import importlib.metadata
import os
import subprocess
import sys

import pytest

import repro
import repro.common

#: Set-up of ``repro verify``: the model checker and the compiled spec.
VERIFY_SETUP = """
import sys
before = set(sys.modules)
import repro.mc
import repro.spec
import repro.spec.mcgen
repro.spec.mcgen.SpecModel(repro.spec.get_spec("adaptive"), num_nodes=3)
print("\\n".join(sorted(set(sys.modules) - before)))
"""

#: Packages the model-checking path must not import.
SIMULATOR = ("repro.sim", "repro.protocol", "repro.network", "repro.harness",
             "repro.obs", "repro.workloads", "repro.common.params",
             "importlib.metadata")


def test_verify_setup_does_not_import_the_simulator():
    # A fresh interpreter: modules earlier tests imported would hide a leak.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", VERIFY_SETUP], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "repro.mc.engine" in loaded and "repro.spec.mcgen" in loaded
    leaked = sorted(m for m in loaded for pkg in SIMULATOR
                    if m == pkg or m.startswith(pkg + "."))
    assert leaked == []


PACKAGES = [repro, repro.common]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
class TestLazyExports:
    def test_each_name_is_its_definition(self, package):
        for name in package.__all__:
            if name == "__version__":
                continue
            value = getattr(package, name)
            source = importlib.import_module(package._EXPORTS[name],
                                             package.__name__)
            assert value is getattr(source, name), name
            defined_in = getattr(value, "__module__", None)
            if defined_in is not None:
                assert defined_in.startswith(source.__name__), name

    def test_star_import_binds_all(self, package):
        namespace = {}
        exec("from %s import *" % package.__name__, namespace)
        assert set(package.__all__) <= set(namespace)

    def test_dir_lists_all(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError,
                           match="module '%s' has no attribute 'no_such_name'"
                           % package.__name__):
            package.no_such_name


def test_shared_names_are_one_object():
    for name in set(repro.__all__) & set(repro.common.__all__):
        assert getattr(repro, name) is getattr(repro.common, name), name


def test_submodule_import_through_package():
    from repro.common import params

    assert params is sys.modules["repro.common.params"]


def test_version():
    try:
        expected = importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        expected = "0.0.0+unknown"
    assert repro.__version__ == expected
