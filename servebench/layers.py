"""Per-layer probes and the per-layer metrics derived from them.

Each layer is named after its ``repro.*`` package.  In a traced run the
server launcher wraps the public entry points listed in :data:`PROBES`
before it opens the engine; every wrapper counts calls, wall seconds
and, for the codecs, bytes.  The engine's own counters (``DB.stats``,
the metrics registry, the S1-S7 tracer spans) fill in the rest.

The second half of the module turns a run-phase report from the server
(deltas between ``mark`` and ``report``) into named metrics, runs the
paper's bandwidth model (``repro.core.analytical``) on the measured
stage times, and lists which probe must fire on which workload.
"""

from __future__ import annotations

import functools
import os
import threading
import time

#: probe name -> workloads on which it must record at least one call.
#: A wrapper bound to the wrong module attribute records nothing, so
#: an empty probe on a listed workload fails the run.
PROBES: dict[str, tuple[str, ...]] = {
    "server.frame": ("ingest", "point-read", "scan"),
    "db.write": ("ingest", "point-read", "scan"),
    "db.get": ("ingest", "point-read"),
    "lsm.wal.append": ("ingest", "point-read", "scan"),
    "lsm.wal.sync": ("ingest", "point-read", "scan"),
    "lsm.memtable.add": ("ingest", "point-read", "scan"),
    "lsm.memtable.get": ("ingest", "point-read"),
    "lsm.table.get": ("point-read",),
    "lsm.table.block_load": ("scan",),
    "codec.crc32c": ("ingest", "point-read", "scan"),
    "codec.lz77_compress": ("ingest",),
    "codec.lz77_decompress": ("ingest", "scan"),
    "devices.fsync": ("ingest", "point-read", "scan"),
}

STAGES = (
    ("S1:read", "core.s1_read_ms"),
    ("S2:checksum", "core.s2_checksum_ms"),
    ("S3:decompress", "core.s3_decompress_ms"),
    ("S4:merge", "core.s4_merge_ms"),
    ("S5:compress", "core.s5_compress_ms"),
    ("S6:rechecksum", "core.s6_rechecksum_ms"),
    ("S7:write", "core.s7_write_ms"),
)


class Probe:
    """Call count, wall seconds and bytes of one wrapped entry point."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.seconds = 0.0
        self.nbytes = 0

    def wrap(self, fn, sized: bool = False):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                n = len(args[0]) if sized else 0
                with self._lock:
                    self.calls += 1
                    self.seconds += elapsed
                    self.nbytes += n

        return timed

    def snapshot(self) -> list:
        with self._lock:
            return [self.calls, self.seconds, self.nbytes]


def install_probes() -> dict[str, Probe]:
    """Wrap every entry point in :data:`PROBES`; call before opening a DB.

    Codec functions are bound under several names (module attributes,
    the ``CODECS``/``CHECKSUMMERS`` registries, the protocol module's
    import), so each binding the served engine calls through is
    replaced.
    """
    from repro.codec import checksum, compress
    from repro.db.db import DB
    from repro.lsm import table_reader
    from repro.lsm.memtable import MemTable
    from repro.lsm.table_reader import Table
    from repro.lsm.wal import LogWriter
    from repro.server import protocol

    probes = {name: Probe() for name in PROBES}

    def patch(owner, attr: str, name: str, sized: bool = False):
        wrapped = probes[name].wrap(getattr(owner, attr), sized=sized)
        setattr(owner, attr, wrapped)
        return wrapped

    patch(protocol, "encode_frame", "server.frame")
    patch(protocol, "decode_frame", "server.frame")
    patch(DB, "write", "db.write")
    patch(DB, "get", "db.get")
    patch(LogWriter, "add_record", "lsm.wal.append")
    patch(LogWriter, "sync", "lsm.wal.sync")
    patch(MemTable, "add", "lsm.memtable.add")
    patch(MemTable, "get", "lsm.memtable.get")
    patch(Table, "get", "lsm.table.get")
    # Block-cache misses of the read path (GET and SCAN): CRC check
    # plus decompress of one stored block.
    patch(table_reader, "decode_block_contents", "lsm.table.block_load")

    crc = patch(checksum, "crc32c_py", "codec.crc32c", sized=True)
    checksum.crc32c = crc
    protocol.crc32c = crc
    checksum.CHECKSUMMERS["crc32c"] = checksum.Checksummer("crc32c", crc)
    comp = patch(compress, "lz77_compress", "codec.lz77_compress", sized=True)
    decomp = patch(
        compress, "lz77_decompress", "codec.lz77_decompress", sized=True
    )
    compress.CODECS["lz77"] = compress.Codec("lz77", comp, decomp)
    patch(os, "fsync", "devices.fsync")
    return probes


def stage_seconds(tracer) -> dict[str, float]:
    """Summed wall seconds of each S1-S7 span recorded by ``tracer``."""
    totals = {span: 0.0 for span, _ in STAGES}
    for span in tracer.spans():
        if span.name in totals:
            totals[span.name] += span.duration
    return totals


# ------------------------------------------------------- bench side
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model(report: dict) -> dict:
    """The paper's Eqs. 1, 2 and 6 on the run phase's measured stages.

    ``l`` is the compaction input bytes and the stage times are the
    S1-S7 span sums over the same compactions, so each prediction is
    the bandwidth the engine would reach if the named schedule were the
    only cost.  ``model_gap`` compares the measured bandwidth with the
    prediction for the procedure that actually ran.
    """
    from repro.core import analytical
    from repro.core.costmodel import StepTimes

    stages = report["stages"]
    input_bytes = report["counters"]["compaction.input_bytes"]
    seconds = report["hist"]["compaction.seconds"][1]
    times = StepTimes(*(stages[span] for span, _ in STAGES))
    out = {
        "measured_mb_s": _ratio(input_bytes, seconds) / 1e6,
        "scp_mb_s": 0.0,
        "pcp_mb_s": 0.0,
        "cppcp_k2_mb_s": 0.0,
        "bound": 0.0,
        "bound_name": "none",
        "gap": 0.0,
    }
    if input_bytes <= 0 or times.total <= 0 or times.compute_total <= 0:
        return out
    stage3 = times.stages()
    out["scp_mb_s"] = analytical.scp_bandwidth(input_bytes, times) / 1e6
    out["pcp_mb_s"] = analytical.pcp_bandwidth(input_bytes, times) / 1e6
    out["cppcp_k2_mb_s"] = (
        analytical.cppcp_bandwidth(input_bytes, times, 2) / 1e6
    )
    out["bound"] = max(stage3.t_read, stage3.t_write) / stage3.t_compute
    out["bound_name"] = analytical.classify(times)
    kind, k = report["procedure"]
    if kind == "scp":
        predicted = analytical.scp_bandwidth(input_bytes, times)
    elif kind == "pcp":
        predicted = analytical.pcp_bandwidth(input_bytes, times)
    elif kind == "sppcp":
        predicted = analytical.sppcp_bandwidth(input_bytes, times, k)
    else:
        predicted = analytical.cppcp_bandwidth(input_bytes, times, k)
    out["gap"] = out["measured_mb_s"] * 1e6 / predicted
    return out


def per_layer_metrics(
    report: dict, ops: int, client: dict, crc_mb_s: float
) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics of one traced run phase.

    ``report`` is the server's run-phase delta, ``ops`` the operations
    the load generator completed, ``client`` its own timings
    (``mean_rtt_ms``, ``stall_retries``).
    """
    probes = report["probes"]
    counters = report["counters"]
    hist = report["hist"]
    db = report["db"]

    def mean_us(name: str) -> float:
        calls, seconds, _ = probes[name]
        return _ratio(seconds, calls) * 1e6

    def total_ms(name: str) -> float:
        return probes[name][1] * 1e3

    server_ms = _ratio(report["server_ops"][1], report["server_ops"][0]) * 1e3
    flush_s = hist["db.flush_seconds"][1]
    write_s = probes["db.write"][1]
    hits, misses = counters["cache.hits"], counters["cache.misses"]
    mdl = model(report)
    m: dict[str, tuple[float, str]] = {
        "server.op_ms": (server_ms, "ms"),
        "server.rtt_gap_ms": (client["mean_rtt_ms"] - server_ms, "ms"),
        "server.frame_us": (mean_us("server.frame"), "us"),
        "server.frames": (probes["server.frame"][0], "count"),
        "db.write_us": (mean_us("db.write"), "us"),
        "db.get_us": (mean_us("db.get"), "us"),
        "db.flushes": (db["flushes"], "count"),
        "db.flush_ms": (flush_s * 1e3, "ms"),
        "db.inline_flush_share": (_ratio(flush_s, write_s), "ratio"),
        "db.write_stalls": (db["write_stalls"], "count"),
        "db.stall_s": (hist["db.stall_seconds"][1], "s"),
        "lsm.wal.append_us": (mean_us("lsm.wal.append"), "us"),
        "lsm.wal.sync_ms": (mean_us("lsm.wal.sync") / 1e3, "ms"),
        "lsm.memtable.add_us": (mean_us("lsm.memtable.add"), "us"),
        "lsm.memtable.get_us": (mean_us("lsm.memtable.get"), "us"),
        "lsm.table.get_us": (mean_us("lsm.table.get"), "us"),
        "lsm.table.block_load_us": (mean_us("lsm.table.block_load"), "us"),
        "lsm.table.block_loads": (probes["lsm.table.block_load"][0], "count"),
        "lsm.cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "lsm.cache.evictions": (counters["cache.evictions"], "count"),
        "codec.crc32c_ms": (total_ms("codec.crc32c"), "ms"),
        "codec.crc32c_mb": (probes["codec.crc32c"][2] / 1e6, "MB"),
        "codec.lz77_compress_ms": (total_ms("codec.lz77_compress"), "ms"),
        "codec.lz77_compress_mb": (
            probes["codec.lz77_compress"][2] / 1e6, "MB"
        ),
        "codec.lz77_decompress_ms": (total_ms("codec.lz77_decompress"), "ms"),
        "codec.lz77_decompress_mb": (
            probes["codec.lz77_decompress"][2] / 1e6, "MB"
        ),
        "codec.crc32c_mb_s": (crc_mb_s, "MB/s"),
        "devices.fsync_ms": (mean_us("devices.fsync") / 1e3, "ms"),
        "devices.fsyncs": (probes["devices.fsync"][0], "count"),
        "devices.read_bytes_per_op": (
            _ratio(counters["io.os.read.bytes"], ops), "B/op"
        ),
        "devices.write_bytes_per_op": (
            _ratio(counters["io.os.write.bytes"], ops), "B/op"
        ),
        "core.compactions": (counters["compaction.count"], "count"),
        "core.compaction_mb_s": (mdl["measured_mb_s"], "MB/s"),
    }
    for span, name in STAGES:
        m[name] = (report["stages"][span] * 1e3, "ms")
    m.update(
        {
            "core.model.scp_mb_s": (mdl["scp_mb_s"], "MB/s"),
            "core.model.pcp_mb_s": (mdl["pcp_mb_s"], "MB/s"),
            "core.model.cppcp_k2_mb_s": (mdl["cppcp_k2_mb_s"], "MB/s"),
            "core.model.bound": (mdl["bound"], "ratio"),
            "core.model_gap": (mdl["gap"], "ratio"),
            "proc.cpu_ms_per_op": (_ratio(report["cpu_s"], ops) * 1e3, "ms"),
            "client.stall_retries": (client["stall_retries"], "count"),
        }
    )
    return m


def silent_probes(report: dict, workload: str) -> list[str]:
    """Probes that should have fired on ``workload`` but recorded nothing."""
    return [
        name
        for name, workloads in PROBES.items()
        if workload in workloads and report["probes"][name][0] == 0
    ]
