"""The public surface: every exported name lives in its home module's API."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_only_the_modules_a_run_needs():
    # qlnc.weyl, qlnc.files and qlnc.cli are imported on their own
    code = ("import sys, qlnc; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('qlnc.'))))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [f"qlnc.{name}" for name in (
        "bundled", "coherent", "geometry", "mbqc", "network", "report", "ring", "states")]
