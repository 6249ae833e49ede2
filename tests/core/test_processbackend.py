"""Tests for the process-pool compute backend (real parallelism).

Bit-identical output and failure propagation on worker processes are
covered with the other executors in ``test_functional.py``.
"""

import pytest

from repro.core.backends.processbackend import compute_remote
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table


def _ik(user, seq=1):
    return encode_internal_key(user, seq, KIND_VALUE)


@pytest.fixture(scope="module")
def inputs():
    storage = MemStorage()
    options = Options(block_bytes=512, sstable_bytes=4096, compression="lz77")

    def build(name, rng, seq, tag):
        with storage.create(name) as f:
            builder = TableBuilder(f, options)
            for i in rng:
                builder.add(_ik(b"key-%05d" % i, seq), b"%s-%d" % (tag, i) * 4)
            builder.finish()
        return Table(storage.open(name), options)

    upper = build("u.sst", range(0, 600, 2), 9, b"new")
    lower = build("l.sst", range(0, 600, 3), 1, b"old")
    return storage, options, upper, lower


def test_compute_remote_is_picklable_roundtrip(inputs):
    """The worker function runs in-process with plain data."""
    from repro.core.backends.threadbackend import run_subtask_read

    storage, options, upper, lower = inputs
    subtasks = partition_subtasks([upper, lower], 2048)
    stored = run_subtask_read(subtasks[0])
    encoded, seconds = compute_remote(
        [(b.source, b.data) for b in stored],
        subtasks[0].lower, subtasks[0].upper,
        options.compression, options.checksum,
        options.block_bytes, options.block_restart_interval,
        False, None,
    )
    assert encoded
    assert all(b.num_entries > 0 for b in encoded)
    assert seconds > 0


def test_mp_empty_subtasks(inputs):
    storage, options, *_ = inputs
    outputs, stats, subtasks = compact_tables(
        [], storage, options, file_namer=lambda: "never.sst",
        spec=ProcedureSpec.cppcp(k=2, backend="process"),
    )
    assert subtasks == [] and stats.n_subtasks == 0
    assert outputs == []


def test_mp_invalid_workers():
    with pytest.raises(ValueError):
        ProcedureSpec.cppcp(k=0, backend="process")


def test_spec_backend_validation():
    with pytest.raises(ValueError):
        ProcedureSpec.pcp(backend="gpu")
    with pytest.raises(ValueError):
        ProcedureSpec(kind="scp", backend="process")
    spec = ProcedureSpec.cppcp(k=2, backend="process")
    assert spec.backend == "process"


def test_db_with_process_backend():
    """End to end: the DB compacts through worker processes."""
    from repro.db import DB
    from repro.lsm.options import Options
    import random

    options = Options(
        memtable_bytes=16 * 1024, sstable_bytes=8 * 1024, block_bytes=1024,
        level1_bytes=32 * 1024, level_multiplier=4, compression="lz77",
    )
    spec = ProcedureSpec.cppcp(k=2, subtask_bytes=8 * 1024, backend="process")
    with DB(MemStorage(), options, compaction_spec=spec) as db:
        order = list(range(1200))
        random.Random(4).shuffle(order)
        for i in order:
            db.put(b"key-%05d" % i, b"value-%d" % i)
        assert db.stats.compactions > 0
        for i in range(0, 1200, 111):
            assert db.get(b"key-%05d" % i) == b"value-%d" % i
