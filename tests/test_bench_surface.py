"""The program surface the benchmark reads stays in place.

bench/ drives the package by name: bench/workloads.py calls its functions
and bench/tracer.py wraps its entry points by module and attribute name. The
tracer is installed on the package and taken off again, and each workload
runs one round in process, with its negative controls and independent
references, so a name bench/ still reads that is renamed or removed, or a
check of a workload that goes wrong, fails here and not only in the traced
benchmark smoke.
"""

import sys
import time
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Recorder reads both clocks; plain elapsed time serves for both
CLOCK = SimpleNamespace(now=time.perf_counter, raw=time.perf_counter)


def _bindings():
    """Every module global and class attribute of the loaded package, by
    identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "superbethe" or name.startswith("superbethe."):
            for attr, value in vars(mod).items():
                out[name, attr] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    out.update(((name, attr, k), id(v)) for k, v in vars(value).items())
    return out


def test_tracer_wraps_the_package_and_puts_it_back():
    workloads.import_program()
    gl12 = import_module("superbethe.gl12")
    honest, before = gl12.resolve_sign, _bindings()
    spans = tracer.Tracer(CLOCK.now)
    spans.install()
    try:
        assert gl12.resolve_sign is not honest and gl12.resolve_sign.__wrapped__ is honest
    finally:
        spans.uninstall()
    assert gl12.resolve_sign is honest and _bindings() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload(name):
    workload = workloads.WORKLOADS[name]()
    workload.prepare(1)
    rec = workloads.Recorder(CLOCK)
    workload.run_round(rec)
    workload.verify(rec)
    assert rec.attempted and rec.failed == 0 and rec.wrong == []
