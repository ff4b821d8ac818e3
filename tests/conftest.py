import importlib
import pkgutil
import sys

import pytest

import branchkit
from branchkit.quaternionic import quaternionic_context
from branchkit.specialcases import sp1q_context

# Every module of the package, as the tests here import it.  The benchmark's
# own tests import the package afresh (``bench/run.fresh_setup``), which
# leaves these tests holding the old modules while ``sys.modules`` holds the
# new ones; the fixture below puts the old ones back, so the tests pass in
# any file order.
for _info in pkgutil.iter_modules(branchkit.__path__):
    importlib.import_module(f"branchkit.{_info.name}")
PACKAGE_MODULES = {name: module for name, module in sys.modules.items()
                   if name == "branchkit" or name.startswith("branchkit.")}


@pytest.fixture(autouse=True)
def package_modules():
    """The package modules these tests imported, back in ``sys.modules``."""
    if any(sys.modules.get(name) is not module for name, module in PACKAGE_MODULES.items()):
        for name in [n for n in sys.modules if n == "branchkit" or n.startswith("branchkit.")]:
            del sys.modules[name]
        sys.modules.update(PACKAGE_MODULES)


@pytest.fixture(scope="session")
def g2():
    return quaternionic_context("g2_2")


@pytest.fixture(scope="session")
def su22():
    return quaternionic_context("su2_n:2")


@pytest.fixture(scope="session")
def su23():
    return quaternionic_context("su2_n:3")


@pytest.fixture(scope="session")
def so44():
    return quaternionic_context("so4_n:4")


@pytest.fixture(scope="session")
def f44():
    return quaternionic_context("f4_4")


@pytest.fixture(scope="session")
def sp12():
    return sp1q_context(2)


@pytest.fixture(scope="session")
def sp13():
    return sp1q_context(3)
