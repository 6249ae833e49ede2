"""Functional compaction tests: the seven steps + procedure equivalence.

The paper's central legality argument is that sub-tasks are independent,
so any schedule produces the same merged output.  These tests compact
real tables with SCP, PCP, S-PPCP and C-PPCP, with the pipelined
compute stage on each executor, and assert bit-identical results.
"""

import dataclasses
import itertools
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cluster import SharedComputePool
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.core.steps import step_merge
from repro.devices import MemStorage, TransientIOError
from repro.devices.vfs import WritableFile
from repro.lsm.ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_internal_key,
    encode_internal_key,
    lookup_key,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_format import TableCorruption
from repro.lsm.table_reader import Table


def _ik(user, seq=1, kind=KIND_VALUE):
    return encode_internal_key(user, seq, kind)


def make_table(storage, name, entries, options):
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
    return Table(storage.open(name), options)


def _sorted_internal(entries):
    from repro.lsm.iterators import merge_iterators

    return list(merge_iterators([iter(sorted_run) for sorted_run in [entries]]))


@pytest.fixture()
def setup():
    storage = MemStorage()
    options = Options(
        block_bytes=512, sstable_bytes=2 * 1024, compression="lz77"
    )
    upper_entries = [
        (_ik(b"key-%05d" % i, 100 + i), b"new-value-%d" % i)
        for i in range(0, 600, 2)
    ]
    lower_entries = [
        (_ik(b"key-%05d" % i, 10), b"old-value-%d" % i) for i in range(0, 600, 3)
    ]
    upper = make_table(storage, "u.sst", upper_entries, options)
    lower = make_table(storage, "l.sst", lower_entries, options)
    return storage, options, upper, lower, upper_entries, lower_entries


def _expected_merge(upper_entries, lower_entries):
    """Model: newest version per user key."""
    best = {}
    for ikey, value in itertools.chain(upper_entries, lower_entries):
        user, seq, kind = decode_internal_key(ikey)
        if user not in best or best[user][0] < seq:
            best[user] = (seq, kind, value)
    out = []
    for user in sorted(best):
        seq, kind, value = best[user]
        out.append((encode_internal_key(user, seq, kind), value))
    return out


def _read_outputs(storage, options, outputs):
    entries = []
    for meta in outputs:
        table = Table(storage.open(meta.name), options)
        entries.extend(table)
    return entries


class TestSCPFunctional:
    def test_merged_output_matches_model(self, setup):
        storage, options, upper, lower, ue, le = setup
        counter = itertools.count(100)
        outputs, stats, subtasks = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=1024),
        )
        assert len(subtasks) > 2
        assert stats.n_subtasks == len(subtasks)
        got = _read_outputs(storage, options, outputs)
        assert got == _expected_merge(ue, le)

    def test_outputs_size_limited(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        assert len(outputs) > 1  # paper: "multiple size-limited SSTables"
        for meta in outputs:
            # A file may exceed the limit by at most one block + metadata.
            assert meta.file_size < options.sstable_bytes + 4 * options.block_bytes

    def test_output_metadata_consistent(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        from repro.lsm.ikey import internal_compare

        for meta in outputs:
            table = Table(storage.open(meta.name), options)
            entries = list(table)
            assert entries[0][0] == meta.smallest
            assert entries[-1][0] == meta.largest
        for a, b in zip(outputs, outputs[1:]):
            assert internal_compare(a.largest, b.smallest) < 0

    def test_point_lookups_work_on_outputs(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        # key 4 is in both inputs: the upper (newer) value must win.
        for meta in outputs:
            if meta.smallest[:-8] <= b"key-00004" <= meta.largest[:-8]:
                table = Table(storage.open(meta.name), options)
                hit = table.get(lookup_key(b"key-00004", MAX_SEQUENCE))
                assert hit is not None
                assert hit[1] == b"new-value-4"
                return
        pytest.fail("no output file covers key-00004")


_SPECS = {
    "pcp": ProcedureSpec.pcp(subtask_bytes=2048),
    "cppcp3": ProcedureSpec.cppcp(k=3, subtask_bytes=2048),
    "sppcp2": ProcedureSpec.sppcp(k=2, subtask_bytes=2048),
    "pcp-q1": ProcedureSpec.pcp(subtask_bytes=2048, queue_capacity=1),
}

#: Where S2-S6 run: the private per-compaction threads (unsuffixed ids),
#: a shared pool the caller owns, or worker processes.
EXECUTORS = ("threads", "shared-pool", "process")


def _case_id(name, executor):
    return name if executor == "threads" else f"{name}-{executor}"


@contextmanager
def _executor(spec, executor):
    """Yield ``(spec, compute_pool)`` running compute on ``executor``."""
    if executor == "shared-pool":
        with SharedComputePool(2) as pool:
            yield spec, pool
    elif executor == "process":
        yield dataclasses.replace(spec, backend="process"), None
    else:
        yield spec, None


class TestProcedureEquivalence:
    @pytest.mark.parametrize(
        "name,executor",
        [(n, e) for e in EXECUTORS for n in _SPECS],
        ids=[_case_id(n, e) for e in EXECUTORS for n in _SPECS],
    )
    def test_pipelined_output_identical_to_scp(self, setup, name, executor):
        storage, options, upper, lower, *_ = setup
        c1 = itertools.count(100)
        scp_out, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"scp-{next(c1):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        c2 = itertools.count(100)
        with _executor(_SPECS[name], executor) as (spec, pool):
            pipe_out, stats, subtasks = compact_tables(
                [upper, lower], storage, options,
                file_namer=lambda: f"pipe-{next(c2):06d}.sst",
                spec=spec, compute_pool=pool,
            )
        assert stats.n_subtasks == len(subtasks)
        scp_bytes = [storage.open(m.name).read_all() for m in scp_out]
        pipe_bytes = [storage.open(m.name).read_all() for m in pipe_out]
        assert scp_bytes == pipe_bytes  # bit-identical outputs

    def test_stats_account_input_bytes(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        _, stats, subtasks = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.pcp(subtask_bytes=2048),
        )
        assert stats.input_bytes == sum(s.input_bytes() for s in subtasks)
        assert stats.output_bytes > 0
        assert stats.wall_seconds > 0
        assert stats.bandwidth() > 0


class _SlowFailingWritable(WritableFile):
    """An output file whose first append stalls, then fails."""

    def append(self, data):
        time.sleep(0.5)
        raise TransientIOError("injected EIO on S7")

    def flush(self):
        pass

    def sync(self):
        pass

    def close(self):
        pass

    def tell(self):
        return 0


class _SlowFailingStorage(MemStorage):
    def create(self, name):
        return _SlowFailingWritable()


def _pcp_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("pcp-")]


@pytest.mark.parametrize("executor", EXECUTORS)
class TestPipelineFailures:
    """Stage failures re-raise in the caller and leave nothing running."""

    def test_corrupt_block_raises(self, setup, executor):
        storage, options, upper, *_ = setup
        data = bytearray(storage.open("u.sst").read_all())
        data[10] ^= 0x01
        bad_storage = MemStorage()
        with bad_storage.create("u.sst") as f:
            f.append(bytes(data))
        bad_upper = Table(
            bad_storage.open("u.sst"),
            Options(block_bytes=512, compression="lz77", paranoid_checks=False),
        )
        counter = itertools.count(100)
        with _executor(_SPECS["cppcp3"], executor) as (spec, pool):
            with pytest.raises(TableCorruption):
                compact_tables(
                    [bad_upper], storage, options,
                    file_namer=lambda: f"bad-{next(counter):06d}.sst",
                    spec=spec, compute_pool=pool,
                )
        assert _pcp_threads() == []

    def test_slow_failing_write_raises_promptly(self, setup, executor):
        _, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        raised = []

        def compact():
            # Many more sub-tasks than the pipeline holds, so every
            # stage is blocked on a full queue when the write fails.
            small = ProcedureSpec.pcp(subtask_bytes=512)
            with _executor(small, executor) as (spec, pool):
                try:
                    compact_tables(
                        [upper, lower], _SlowFailingStorage(), options,
                        file_namer=lambda: f"out-{next(counter):06d}.sst",
                        spec=spec, compute_pool=pool,
                    )
                except TransientIOError as exc:
                    raised.append(exc)

        worker = threading.Thread(target=compact, name="test-compact", daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "compaction hung after a failed S7 write"
        assert len(raised) == 1
        assert _pcp_threads() == []


class TestTombstones:
    def _tables_with_deletes(self):
        storage = MemStorage()
        options = Options(block_bytes=256, compression="null")
        upper = make_table(
            storage,
            "u.sst",
            [
                (_ik(b"a", 20), b"va"),
                (_ik(b"b", 21, KIND_DELETE), b""),
                (_ik(b"c", 22), b"vc"),
            ],
            options,
        )
        lower = make_table(
            storage,
            "l.sst",
            [(_ik(b"b", 5), b"old-b"), (_ik(b"c", 6), b"old-c")],
            options,
        )
        return storage, options, upper, lower

    def test_tombstone_kept_at_intermediate_level(self):
        storage, options, upper, lower = self._tables_with_deletes()
        counter = itertools.count(500)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(), drop_deletes=False,
        )
        entries = _read_outputs(storage, options, outputs)
        users = [(decode_internal_key(k)[0], decode_internal_key(k)[2]) for k, _ in entries]
        assert (b"b", KIND_DELETE) in users  # tombstone survives
        assert len(entries) == 3  # a, b-tombstone, c(new)

    def test_tombstone_dropped_at_bottom_level(self):
        storage, options, upper, lower = self._tables_with_deletes()
        counter = itertools.count(500)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(), drop_deletes=True,
        )
        entries = _read_outputs(storage, options, outputs)
        users = [decode_internal_key(k)[0] for k, _ in entries]
        assert users == [b"a", b"c"]


class TestStepMerge:
    def test_empty_blocks(self):
        assert step_merge([], None, None, 4096) == []

    def test_bounds_filtering(self):
        from repro.core.steps import RawBlock
        from repro.lsm.blockfmt import BlockBuilder
        from repro.lsm.ikey import internal_compare

        builder = BlockBuilder(16, compare=internal_compare)
        for user in (b"a", b"b", b"c", b"d"):
            builder.add(_ik(user), user)
        raw = RawBlock(0, builder.finish())
        merged = step_merge([raw], b"b", b"d", 4096)
        got = []
        for block in merged:
            from repro.lsm.blockfmt import Block

            got.extend(
                decode_internal_key(k)[0]
                for k, _ in Block(block.raw, compare=internal_compare)
            )
        assert got == [b"b", b"c"]

    def test_key_hashes_attached(self):
        from repro.core.steps import RawBlock
        from repro.lsm.blockfmt import BlockBuilder
        from repro.lsm.bloom import bloom_hash
        from repro.lsm.ikey import internal_compare

        builder = BlockBuilder(16, compare=internal_compare)
        builder.add(_ik(b"xyz"), b"v")
        merged = step_merge([RawBlock(0, builder.finish())], None, None, 4096)
        assert merged[0].key_hashes == (bloom_hash(b"xyz"),)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ProcedureSpec(kind="turbo")

    def test_scp_rejects_k(self):
        with pytest.raises(ValueError):
            ProcedureSpec(kind="scp", k=2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ProcedureSpec(kind="sppcp", k=0)

    def test_pipeline_config_for_scp_rejected(self):
        with pytest.raises(ValueError):
            ProcedureSpec.scp().pipeline_config()

    def test_from_name(self):
        assert ProcedureSpec.from_name("scp") == ProcedureSpec.scp()
        assert ProcedureSpec.from_name("pcp", subtask_bytes=4096) == (
            ProcedureSpec.pcp(subtask_bytes=4096)
        )
        assert ProcedureSpec.from_name("cppcp") == ProcedureSpec.cppcp(2)
        assert ProcedureSpec.from_name("sppcp") == ProcedureSpec.sppcp(2)

    def test_config_mapping(self):
        assert ProcedureSpec.sppcp(4).pipeline_config().n_devices == 4
        assert ProcedureSpec.cppcp(4).pipeline_config().compute_workers == 4
        assert ProcedureSpec.pcp().pipeline_config().n_devices == 1
