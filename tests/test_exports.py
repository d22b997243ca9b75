"""Every ``__all__`` under ``repro`` names something its module defines."""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # A ``__main__`` module runs the CLI when imported.
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        ]
    assert "repro.cluster.cluster" in names
    assert missing == []
