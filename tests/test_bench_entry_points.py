"""The benchmark's entry points into tracelang, called once each.

``bench/`` reaches the library by layer name (``tracing.LAYERS``) and calls
signatures it does not own (``SearchConfig.for_run``, ``Trace.initial``, the
public entry points).  A change that breaks one of them fails here, not only
as a failed benchmark run.  Nothing under ``bench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_layer_is_the_library_function():
    assert tracing.check_pristine() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_first_operation_of_each_kind_passes_its_check(name):
    first = {}
    for op in workloads.WORKLOADS[name](11):
        first.setdefault(op.kind, op)
    assert first
    for kind, op in first.items():
        assert op.check(op.call()) is None, kind
