"""The benchmark's instrumentation shim (perfbench/child.py) patches
kvprobe names given as strings and reads snapshot fields; a rename or
deletion in kvprobe would only show up in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from kvprobe.cache import LayerCache

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    for target in load_child().TARGETS:
        mod_name, *path = target.split(".")
        obj = importlib.import_module(f"kvprobe.{mod_name}")
        for attr in path:
            assert hasattr(obj, attr), target
            obj = getattr(obj, attr)
        assert callable(obj), target


def test_snapshot_counter_reads_the_open_chunk():
    cache = LayerCache(dim=2, n_sink=1, n_local=2, chunk=4)
    rows = np.ones((3, 2), dtype=np.float32)
    cache.append(rows, rows)
    counts = load_child()._snapshot_counts((cache,), cache.snapshot())
    # k and v of 1 sink, 2 local rows and the 2-row open chunk, 8 B a row
    assert counts == {"bytes": 2 * (1 + 2 + 2) * 8}
