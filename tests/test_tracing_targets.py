"""The names that the traced benchmark wraps still exist in the package.

`perfbench/tracing.py` wraps `equifuse` functions by name, and a missing
name shows only when a traced job runs.  Here the module is loaded from its
file without installing the tracer, and every target is resolved directly,
so a deleted or renamed function fails in well under a second and names
itself."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from equifuse.fusion import _Engine

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("modname, attr", [
    pytest.param(modname, attr, id=f"{modname}.{attr}")
    for modname, attrs in tracing.TARGETS.values()
    for attr in attrs
])
def test_target_resolves(modname, attr):
    obj = importlib.import_module(f"equifuse.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_m_irr_takes_what_the_hit_counter_reads():
    # Tracer._m_irr_hit(engine, H, g, h, i, j) keys its cache on these
    params = list(inspect.signature(_Engine.m_irr).parameters)
    assert params == ["self", "H", "g", "h", "i", "j"]
