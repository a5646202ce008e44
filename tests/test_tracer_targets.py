"""Every name perfbench/tracer.py rebinds exists in the package.

The tracer skips a missing name, so a deleted or renamed function would
leave its per-layer metrics reading zero calls instead of failing.
"""

import importlib.util
from pathlib import Path

import duelrank

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    entries = _tracer().targets(duelrank)
    # 20 functions, 3 tracker methods, step and estimate of 5 schedulers
    assert len(entries) == 33
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in entries if not hasattr(owner, attr)]
    assert missing == []
