"""The benchmark in perfbench/ wraps and imports affscat names by string.

Its own smoke test is slow and not part of this suite, so these checks make a
renamed entry point fail here instead of only in a benchmark run.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_layers_resolve():
    tracing = _load_tracing()
    assert tracing.LAYERS
    for modname, attr, _, _ in tracing.LAYERS:
        owner = importlib.import_module(f"affscat.{modname}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"affscat.{modname}: {attr} is missing"
        assert callable(vars(owner)[attr]) or isinstance(
            vars(owner)[attr], functools.cached_property
        )
    from affscat.cones import Cone

    assert isinstance(vars(Cone)["generators"], functools.cached_property)


def test_op_imports_resolve():
    tree = ast.parse((PERFBENCH / "op.py").read_text())
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("affscat")
        for alias in node.names
    ]
    assert ("affscat", "cli") in names
    for module, name in names:
        mod = importlib.import_module(module)
        # `from package import submodule` needs no attribute before the import
        is_submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        found = hasattr(mod, name) or is_submodule
        assert found, f"{module}.{name} is missing"
    from affscat import cli
    from affscat.series import _series_power

    assert callable(cli.run)
    assert callable(_series_power.cache_info)


def test_fans_layers_are_called(monkeypatch):
    # The fans workload's per-layer metrics come from wrappers around these
    # names; an inlined call would read 0 there without failing anything.
    from affscat.almost_positive import APContext
    from affscat.cartan import ExchangeMatrix
    from affscat.cones import Cone
    from affscat.mutation import fans_compare

    calls = {}

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Cone, "contains", counted("Cone.contains", Cone.contains))
    for attr in ("compatibility_degree", "fan_cones"):
        original = getattr(APContext, attr)
        monkeypatch.setattr(APContext, attr, counted(f"APContext.{attr}", original))
    for modname, attr in (
        ("scattering", "rampart_set"),
        ("scattering", "scat_cone_eq"),
        ("mutation", "b_class_probe"),
    ):
        original = getattr(importlib.import_module(f"affscat.{modname}"), attr)
        wrapped = counted(attr, original)
        # every binding, re-imported names included, as tracing.install does
        for name, module in list(sys.modules.items()):
            if name == "affscat" or name.startswith("affscat."):
                for binding, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, binding, wrapped)

    fans_compare(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]), 4, 4, 4, 20, 3)
    for name in (
        "Cone.contains",
        "rampart_set",
        "scat_cone_eq",
        "b_class_probe",
        "APContext.compatibility_degree",
        "APContext.fan_cones",
    ):
        assert calls.get(name), f"{name} is never called by fans_compare"


def test_sortables_layer_is_called(monkeypatch):
    # sortable.sortables counts what a wrapper around
    # SortableContext.sortables_up_to_length returns; a ji_sortables that
    # scanned its witnesses another way would read 0 there without failing
    # anything.
    from affscat.cartan import ExchangeMatrix
    from affscat.scattering import build_dcscat
    from affscat.sortable import SortableContext

    scanned = []
    original = SortableContext.sortables_up_to_length

    @functools.wraps(original)
    def counted(self, max_len):
        result = original(self, max_len)
        scanned.append(len(result))
        return result

    monkeypatch.setattr(SortableContext, "sortables_up_to_length", counted)
    build_dcscat(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]), 4, 4)
    assert len(scanned) >= 2 and all(scanned), scanned
