"""The library names the benchmark in ``perfbench/`` reads.

The tracer wraps every name in its ``SPANS`` by ``getattr`` on the owning
``icqs`` module, so a traced run fails on a name that is gone; the runner
also calls ``iqp.continuous_min`` for its rounding counter.  This checks
both without running the benchmark.
"""

import importlib.util
from pathlib import Path

from icqs import iqp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    tracer = load_tracer()
    assert set(tracer.SPANS) <= set(tracer.LAYERS)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.SPANS.items()
        for name in names
        if not callable(getattr(tracer.LAYERS[layer], name, None))
    ]
    assert missing == []


def test_the_runner_reads_continuous_min():
    assert callable(iqp.continuous_min)
