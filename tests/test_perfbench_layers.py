"""Every layer target the benchmark's tracer wraps names something in tapsim.

``perfbench/layers.py`` names tapsim's entry points by string. The tracer of
``perfbench/run.py --trace 1`` looks each one up as ``tracing.Tracer._patch``
does, so a renamed or removed target would fail there with an
``AttributeError`` or ``KeyError``; this test fails first.
"""

import importlib
import runpy
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# run_path compiles from source, so no bytecode cache is written under perfbench/
LAYERS = runpy.run_path(str(LAYERS_PY))
TARGETS = [target for targets in LAYERS["OPS"].values() for target in targets]
TARGETS += list(LAYERS["COUNTED"])


def _resolve(module_name: str, target: str) -> list:
    """What the tracer would wrap for ``target``, looked up the way it looks it up."""
    module = importlib.import_module(module_name)
    owner, _, attr = target.rpartition(".")
    if target == "CATALOG.stage":
        return [spec.stage for spec in module.CATALOG.values()]
    if owner:
        return [vars(getattr(module, owner))[attr]]  # wrapped on the class that defines it
    return [getattr(module, attr)]


def test_every_op_and_counted_target_resolves():
    unresolved = []
    for module_name, target in TARGETS:
        try:
            found = _resolve(module_name, target)
        except (AttributeError, KeyError, ImportError) as exc:
            unresolved.append(f"{module_name}:{target} ({exc!r})")
            continue
        if not found or not all(map(callable, found)):
            unresolved.append(f"{module_name}:{target} (not callable)")
    assert TARGETS and unresolved == []


def test_every_ratio_counts_a_wrapped_target():
    names = {target for _module, target in TARGETS}
    for numerator, denominator in LAYERS["RATIOS"].values():
        assert {numerator, denominator} <= names
