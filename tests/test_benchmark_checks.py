"""The benchmark's own output checks, run on this tree: every item that
``perfbench/workloads.py`` builds at seed 1 must pass its check, so a change
that would make a benchmark run report wrong outputs fails here first.  The
items also call the names the benchmark reads: ``bounds.certify`` with
``seed=``, ``_kernel.filter_tables`` and ``sfnfa.kernel_impl``."""

import importlib
import sys
from pathlib import Path

import pytest

import sfnfa

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported without writing bytecode beside
    it."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


@pytest.mark.parametrize("workload, count", [
    ("certify-table", None),
    ("nsc-search", None),
    ("suffix-check", 250),
])
def test_every_benchmark_item_passes_its_check(workloads, workload, count):
    items = workloads.build_items(workload, 1)[:count]
    assert items
    failures = [(item.id, message) for item in items
                if (message := workloads.check_output(item, item.run())) is not None]
    assert failures == []


def test_the_kernel_is_stamped():
    assert sfnfa.kernel_impl in ("pure", "compiled")
