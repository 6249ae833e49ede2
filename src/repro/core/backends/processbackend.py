"""C-PPCP's compute stage on worker processes (real parallelism).

Thread compute workers serialize on CPython's GIL, so their wall-clock
gains cannot demonstrate the paper's CPU parallelism.  With
``ProcedureSpec(backend="process")`` the pipelined driver
(:func:`repro.core.backends.threadbackend.execute_pipelined`) ships
each sub-task's S2-S6 to a ``concurrent.futures.ProcessPoolExecutor``
through :func:`compute_remote`: the parent process performs S1 (reads)
and S7 (ordered writes) while workers verify, decompress, merge,
compress, and re-checksum in genuinely parallel interpreters.

Costs and caveats (why this is optional, not the default):

* every stored block is pickled to the worker and every encoded block
  back — fine for compaction-sized payloads, wasteful for tiny ones;
* worker startup is ~100 ms per process, paid once per compaction;
* determinism: output remains bit-identical to SCP because merge work
  is order-independent and writes happen in sub-task order.
"""

from __future__ import annotations

import time
from typing import Optional

from ...lsm.table_sink import EncodedBlock

__all__ = ["compute_remote"]


def compute_remote(
    stored_payloads: list[tuple[int, bytes]],
    lower: Optional[bytes],
    upper: Optional[bytes],
    codec_name: str,
    checksummer_name: str,
    block_bytes: int,
    restart_interval: int,
    drop_deletes: bool,
    smallest_snapshot: Optional[int],
) -> tuple[list[EncodedBlock], float]:
    """S2-S6 for one sub-task, runnable in a worker process.

    Takes only picklable primitives; reconstructs codecs by name.
    Returns ``(encoded_blocks, compute_seconds)``, timed in the worker.
    """
    from ...codec.checksum import get_checksummer
    from ...codec.compress import get_codec
    from ..steps import (
        StoredBlock,
        step_checksum,
        step_compress,
        step_decompress,
        step_merge,
        step_rechecksum,
    )

    t0 = time.perf_counter()
    checksummer = get_checksummer(checksummer_name)
    codec = get_codec(codec_name)
    stored = [StoredBlock(source, data) for source, data in stored_payloads]
    n_sources = max((s for s, _ in stored_payloads), default=-1) + 1
    step_checksum(stored, checksummer)
    raw = step_decompress(stored)
    merged = step_merge(
        raw, lower, upper, block_bytes, restart_interval, drop_deletes,
        n_sources=n_sources, smallest_snapshot=smallest_snapshot,
    )
    compressed = step_compress(merged, codec)
    encoded = step_rechecksum(compressed, checksummer)
    return encoded, time.perf_counter() - t0
