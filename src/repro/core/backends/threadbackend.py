"""Real execution of the compaction procedures.

This backend actually runs the seven steps on real data — the
implementation a C++ port would mirror, and the functional engine the
DB uses.  :func:`execute_scp` is the paper's sequential baseline;
:func:`execute_pipelined` is the one 3-stage driver behind PCP, S-PPCP
and C-PPCP, whatever executor runs their compute stage.  It measures
wall-clock stage times, but NOTE: under CPython's GIL the compute
stages of concurrent sub-tasks on threads serialize, so measured
speedups are a *lower bound* on what the schedule allows; quantitative
experiments use :mod:`repro.core.backends.simbackend` instead (see
DESIGN.md).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ...codec.checksum import Checksummer
from ...codec.compress import Codec
from ...lsm.table_sink import EncodedBlock, TableSink
from ...obs.tracer import NULL_TRACER, Tracer
from ..steps import (
    step_checksum,
    step_compress,
    step_decompress,
    step_merge,
    step_read,
    step_rechecksum,
    step_write,
)
from ..subtask import SubTask

__all__ = ["ExecutionStats", "run_subtask_compute", "run_subtask_read",
           "execute_scp", "execute_pipelined"]

_DONE = object()


@dataclass
class ExecutionStats:
    """Wall-clock accounting of a functional compaction run."""

    wall_seconds: float = 0.0
    n_subtasks: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    entries_out: int = 0
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {"read": 0.0, "compute": 0.0, "write": 0.0}
    )

    def bandwidth(self) -> float:
        return self.input_bytes / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def add_subtask(
        self, subtask: SubTask, encoded: list[EncodedBlock], written: int
    ) -> None:
        self.n_subtasks += 1
        self.input_bytes += subtask.input_bytes()
        self.output_bytes += written
        self.entries_out += sum(b.num_entries for b in encoded)


def run_subtask_read(subtask: SubTask, tracer: Tracer = NULL_TRACER) -> list:
    """S1 for one sub-task: fetch every input block."""
    files = [run.table.file for run in subtask.runs]
    handles = [run.handles for run in subtask.runs]
    with tracer.span("S1:read", cat="read", subtask=subtask.index):
        return step_read(files, handles)


def run_subtask_compute(
    subtask: SubTask,
    stored_blocks: list,
    codec: Codec,
    checksummer: Checksummer,
    block_bytes: int,
    restart_interval: int,
    drop_deletes: bool,
    smallest_snapshot=None,
    tracer: Tracer = NULL_TRACER,
) -> list[EncodedBlock]:
    """S2-S6 for one sub-task: verify, decompress, merge, re-encode."""
    i = subtask.index
    with tracer.span("S2:checksum", cat="compute", subtask=i):
        step_checksum(stored_blocks, checksummer)
    with tracer.span("S3:decompress", cat="compute", subtask=i):
        raw = step_decompress(stored_blocks)
    with tracer.span("S4:merge", cat="compute", subtask=i):
        merged = step_merge(
            raw,
            subtask.lower,
            subtask.upper,
            block_bytes,
            restart_interval,
            drop_deletes,
            n_sources=len(subtask.runs),
            smallest_snapshot=smallest_snapshot,
        )
    with tracer.span("S5:compress", cat="compute", subtask=i):
        compressed = step_compress(merged, codec)
    with tracer.span("S6:rechecksum", cat="compute", subtask=i):
        return step_rechecksum(compressed, checksummer)


def execute_scp(
    subtasks: Sequence[SubTask],
    sink: TableSink,
    codec: Codec,
    checksummer: Checksummer,
    block_bytes: int,
    restart_interval: int = 16,
    drop_deletes: bool = False,
    smallest_snapshot=None,
    tracer: Tracer = NULL_TRACER,
) -> ExecutionStats:
    """Sequential Compaction Procedure: one sub-task at a time."""
    stats = ExecutionStats()
    t_start = time.perf_counter()
    for subtask in subtasks:
        t0 = time.perf_counter()
        stored = run_subtask_read(subtask, tracer=tracer)
        t1 = time.perf_counter()
        encoded = run_subtask_compute(
            subtask, stored, codec, checksummer, block_bytes,
            restart_interval, drop_deletes, smallest_snapshot,
            tracer=tracer,
        )
        t2 = time.perf_counter()
        with tracer.span("S7:write", cat="write", subtask=subtask.index):
            written = step_write(encoded, sink)
        t3 = time.perf_counter()
        stats.stage_seconds["read"] += t1 - t0
        stats.stage_seconds["compute"] += t2 - t1
        stats.stage_seconds["write"] += t3 - t2
        stats.add_subtask(subtask, encoded, written)
    stats.wall_seconds = time.perf_counter() - t_start
    return stats


def execute_pipelined(
    subtasks: Sequence[SubTask],
    sink: TableSink,
    submit: Callable[[SubTask, list], Future],
    queue_capacity: int = 2,
    tracer: Tracer = NULL_TRACER,
) -> ExecutionStats:
    """PCP / S-PPCP / C-PPCP: read | compute | write over sub-tasks.

    A ``pcp-read`` thread runs S1 for each sub-task in order and hands
    its blocks to ``submit(subtask, stored)``, which starts S2–S6 on
    whatever executor the caller chose and returns a Future of
    ``(encoded_blocks, compute_seconds)``.  The ``(subtask, future)``
    pairs pass through a FIFO of ``queue_capacity``; the calling
    thread waits on them in order and runs S7, so outputs stay
    key-ordered however compute finishes.

    On any error the reader stops, every future still in flight is
    cancelled or allowed to finish, and the first error re-raises here
    — no stage is left blocked and no worker keeps touching this
    compaction's tables, which the DB's retry/quarantine path needs.
    """
    if queue_capacity < 1:
        raise ValueError("queue_capacity must be >= 1")
    stats = ExecutionStats()
    inflight: queue.Queue = queue.Queue(maxsize=queue_capacity)
    stop = threading.Event()
    read_errors: list[BaseException] = []

    def reader() -> None:
        try:
            for subtask in subtasks:
                if stop.is_set():
                    break
                t0 = time.perf_counter()
                stored = run_subtask_read(subtask, tracer=tracer)
                read_s = time.perf_counter() - t0
                inflight.put((subtask, read_s, submit(subtask, stored)))
        except BaseException as exc:
            read_errors.append(exc)
        finally:
            # The caller consumes until _DONE, so this never blocks for good.
            inflight.put(_DONE)

    t_start = time.perf_counter()
    read_thread = threading.Thread(target=reader, name="pcp-read", daemon=True)
    read_thread.start()
    current = None
    try:
        while (item := inflight.get()) is not _DONE:
            subtask, read_s, current = item
            encoded, compute_s = current.result()
            t0 = time.perf_counter()
            with tracer.span("S7:write", cat="write", subtask=subtask.index):
                written = step_write(encoded, sink)
            stats.stage_seconds["read"] += read_s
            stats.stage_seconds["compute"] += compute_s
            stats.stage_seconds["write"] += time.perf_counter() - t0
            stats.add_subtask(subtask, encoded, written)
    except BaseException:
        stop.set()
        pending = [current] if current is not None else []
        while (item := inflight.get()) is not _DONE:
            pending.append(item[2])
        for future in pending:
            future.cancel()
        wait(pending)
        raise
    finally:
        read_thread.join()
    if read_errors:
        raise read_errors[0]
    stats.wall_seconds = time.perf_counter() - t_start
    return stats
