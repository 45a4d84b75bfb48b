import sys

import pytest

import phigeo.maxent as maxent


@pytest.fixture
def normalize_calls(monkeypatch):
    """The argument tuples of every maxent.normalize call, through any
    phigeo module's binding of it."""
    calls = []
    normalize = maxent.normalize

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    for name, mod in list(sys.modules.items()):
        if ((name == "phigeo" or name.startswith("phigeo."))
                and getattr(mod, "normalize", None) is normalize):
            monkeypatch.setattr(mod, "normalize", counted)
    return calls
