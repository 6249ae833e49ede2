"""Workload definitions and seeded input generation.

Everything the load generator sends is derived from ``--seed`` here, so
the same seed replays the same keys, values and operation sequence.
The server only ever sees the generated requests.

Keys are dense (``user00000000`` .. ``user{N-1}``) and never deleted,
which lets the load generator predict exactly what every GET and SCAN
must return.  Each value starts with its key id and a per-key version,
so a returned value can be checked against the write that produced it.

Key draws and the read/update mixes come from ``repro.workload``; only
the scan mix, the value format and key ownership are defined here.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Iterator

from repro.workload.keys import uniform_keys, zipfian_keys
from repro.workload.ycsb import UPDATE, YCSB_MIXES

KEY_FORMAT = b"user%08d"
VALUE_BYTES = 100
#: Share of a value that is a repeated template (lz77 compresses it);
#: the rest is seeded noise.
_NOISE_BYTES = 41
_TEMPLATE = b"field-value-template-0123456789-" * 4

SCAN = "scan"
SCAN_LENGTH = 50
#: Not a YCSB mix: short forward scans with 5 % updates.
SCAN_MIX = {SCAN: 0.95, UPDATE: 0.05}


@dataclass(frozen=True)
class Workload:
    """One traffic mix plus the engine options it is served with."""

    name: str
    keys: int
    #: op kind (``READ``, ``UPDATE``, ``SCAN``) -> share of operations
    mix: dict
    distribution: str  # "uniform" | "zipfian"
    #: Options overrides on top of the engine defaults.  Every workload
    #: also sets ``wal_sync_interval=1``: the WAL is fsynced on every
    #: batch, the same on both sides of every comparison.
    options: dict = field(default_factory=dict)
    #: Flush and fully compact the loaded keyspace before the run.
    #: Off for ``ingest``: there the load's own flushes and compactions
    #: leave the tree in the shape the run phase keeps cycling through.
    compact_at_setup: bool = True


WORKLOADS: dict[str, Workload] = {
    # YCSB mix "w" on uniform keys.  Memtable, table and level sizes are
    # small, so the run phase goes through many flush, L0->L1 and L1->L2
    # compaction cycles with an fsync per write: WAL, inline flush and
    # S1-S7 do most of the work.  The paper's setting.  Three levels keep
    # the loaded data in L2, where the run's L1->L2 merges rewrite it.
    "ingest": Workload(
        name="ingest",
        keys=2000,
        mix=YCSB_MIXES["w"],
        distribution="uniform",
        options={
            "memtable_bytes": 16 * 1024,
            "sstable_bytes": 16 * 1024,
            "level1_bytes": 32 * 1024,
            "num_levels": 3,
        },
        compact_at_setup=False,
    ),
    # YCSB mix "b" on zipfian keys over a flushed, compacted store that
    # fits the default block cache: GETs cross the frame codec, server
    # dispatch, DB lock, memtable miss, bloom filter and a cached block
    # while compaction stays quiet.
    "point-read": Workload(
        name="point-read",
        keys=8000,
        mix=YCSB_MIXES["b"],
        distribution="zipfian",
    ),
    # Short forward scans from uniform starts over a store about seven
    # times larger than a deliberately small block cache: block reads
    # miss and pay CRC + lz77 decompress + merging iterators.
    "scan": Workload(
        name="scan",
        keys=8000,
        mix=SCAN_MIX,
        distribution="uniform",
        options={"block_cache_entries": 32},
    ),
}


def key_of(key_id: int) -> bytes:
    return KEY_FORMAT % key_id


def key_id_of(key: bytes) -> int:
    return int(key[4:])


def make_value(key_id: int, version: int, rng: random.Random) -> bytes:
    head = b"%08d:%08d:" % (key_id, version)
    pad = VALUE_BYTES - len(head) - _NOISE_BYTES
    return head + _TEMPLATE[:pad] + rng.randbytes(_NOISE_BYTES)


def value_key_id(value: bytes) -> int:
    return int(value[:8])


def load_values(workload: Workload, seed: int) -> list[bytes]:
    """The version-0 value of every key, as the set-up phase loads it."""
    rng = random.Random(seed * 7919 + 1)
    return [make_value(i, 0, rng) for i in range(workload.keys)]


@dataclass(frozen=True)
class Op:
    kind: str
    key_id: int


def op_stream(
    workload: Workload, seed: int, conn: int, n_conns: int
) -> Iterator[Op]:
    """Endless operation stream of one connection.

    Writes go only to keys ``k`` with ``k % n_conns == conn``, so each
    key has a single writer and the loader knows the last value the
    server acknowledged for it.  Reads and scans range over every key.
    """
    rng = random.Random(seed * 1_000_003 + conn + 1)
    n = workload.keys
    draw = zipfian_keys if workload.distribution == "zipfian" else uniform_keys
    keys = draw(sys.maxsize, keyspace=n, seed=seed * 104_729 + conn + 3)
    kinds = list(workload.mix)
    shares = list(workload.mix.values())
    for key in keys:
        key_id = int(key)
        kind = rng.choices(kinds, shares)[0]
        if kind == UPDATE:
            owned = key_id - key_id % n_conns + conn
            yield Op(UPDATE, owned if owned < n else conn)
        else:
            yield Op(kind, key_id)
