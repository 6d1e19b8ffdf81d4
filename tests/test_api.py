"""The public surface: every exported name lives in its home module's API."""

import importlib
import pkgutil

import qlnc


def test_package_names_are_in_their_home_module_all():
    for name in qlnc.__all__:
        home = importlib.import_module(getattr(qlnc, name).__module__)
        assert name in getattr(home, "__all__", ()), (name, home.__name__)


def test_every_module_all_resolves():
    for info in pkgutil.iter_modules(qlnc.__path__, "qlnc."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    for name in qlnc.__all__:
        assert hasattr(qlnc, name), name
