"""Shared rings and instances for the test suite."""

import importlib
import sys

import pytest

from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.poly import PolyRing, QQ


@pytest.fixture
def Rxy():
    return PolyRing(QQ, ("x", "y"), GRevLex())


@pytest.fixture
def Rx():
    return PolyRing(QQ, ("x",), GRevLex())


@pytest.fixture
def Rax():
    # parameter a first: matches the canonical instance ring layout
    return PolyRing(QQ, ("a", "x"), GRevLex())


@pytest.fixture
def inst_x(Rx):
    return make_instance(("x",), [Rx.var("x")], v=(1,))


@pytest.fixture
def inst_x2(Rx):
    x = Rx.var("x")
    return make_instance(("x",), [x * x], v=(1,))


@pytest.fixture
def inst_xy(Rxy):
    x, y = Rxy.var("x"), Rxy.var("y")
    return make_instance(("x", "y"), [x * y], v=(1,))


@pytest.fixture
def inst_pair(Rxy):
    # the p = 2 family (x, y)
    x, y = Rxy.var("x"), Rxy.var("y")
    return make_instance(("x", "y"), [x, y], v=(1, 1))


@pytest.fixture
def inst_x2a(Rax):
    a, x = Rax.var("a"), Rax.var("x")
    return make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))


@pytest.fixture
def factor_calls(monkeypatch):
    """Arguments of every ``genbs.factor.factor`` call, whichever genbs
    module the caller reached it through."""
    original = importlib.import_module("genbs.factor").factor
    calls = []

    def counting(f):
        calls.append(f)
        return original(f)

    for name, mod in list(sys.modules.items()):
        if name.startswith("genbs.") and getattr(mod, "factor", None) is original:
            monkeypatch.setattr(mod, "factor", counting)
    return calls
