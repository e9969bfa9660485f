"""Public API surface: every advertised name resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.util",
    "repro.xmlkit",
    "repro.encoding",
    "repro.soap",
    "repro.wsdl",
    "repro.transport",
    "repro.netsim",
    "repro.bindings",
    "repro.registry",
    "repro.runner",
    "repro.container",
    "repro.dvm",
    "repro.recovery",
    "repro.core",
    "repro.plugins",
    "repro.scenario",
    "repro.tools",
    "repro.obs",
    "repro.messaging",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestApiSurface:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_module_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a module docstring"

    def test_public_classes_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "2.0.0"

    def test_quickstart_names(self):
        # the README quickstart must keep working
        from repro import HarnessDvm, lan  # noqa: F401
        from repro.plugins import BASELINE_PLUGINS, MatMul  # noqa: F401

        assert len(BASELINE_PLUGINS) == 4
