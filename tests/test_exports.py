"""Package surface: every name a module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import sebd


def test_every_exported_name_resolves():
    stale, checked = {}, []
    for info in pkgutil.walk_packages(sebd.__path__, "sebd."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            checked.append(info.name)
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            if missing:
                stale[info.name] = missing
    assert {"sebd.cli", "sebd.oracles.mpo", "sebd.oracles.tableau"} <= set(checked)
    assert stale == {}
