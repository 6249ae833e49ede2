"""Server process of the benchmark: one served engine on real files.

Usage (started by ``run.py``, never by hand)::

    python3 servebench/server.py --dir DIR --workload NAME [--trace]

Opens ``DB(OSStorage(DIR), Options(<workload overrides>,
wal_sync_interval=1), background=True)`` with the engine's default
compaction procedure and policy, serves it through ``ServerThread``
with the default ``ServerConfig``, prints ``READY <port>`` and then
answers line commands on stdin:

``mark``    snapshot every counter; the run phase starts now
``tables``  print the live table bytes
``report``  print one JSON line: run-phase deltas since ``mark``

The benchmark ends the process with SIGKILL (the crash it then
recovers from).  With ``--trace`` the layer probes of ``layers.py`` are
installed and the engine's tracer records the S1-S7 spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_COUNTERS = (
    "io.os.read.bytes",
    "io.os.write.bytes",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "compaction.count",
    "compaction.input_bytes",
)
_HISTOGRAMS = ("db.flush_seconds", "db.stall_seconds", "compaction.seconds")


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def _snapshot(db, server_metrics, probes) -> dict:
    times = os.times()
    registry = db.obs.metrics
    stats = db.stats
    op_count = 0
    op_seconds = 0.0
    for op in server_metrics.per_op.values():
        op_count += op.latency.count
        op_seconds += op.latency.total
    return {
        "cpu_s": times.user + times.system,
        "db": {
            "flushes": stats.flushes,
            "compactions": stats.compactions,
            "write_stalls": stats.write_stalls,
        },
        "counters": {name: registry.counter(name).value for name in _COUNTERS},
        "hist": {
            name: [registry.histogram(name).count, registry.histogram(name).total]
            for name in _HISTOGRAMS
        },
        "server_ops": [op_count, op_seconds],
        "probes": {name: p.snapshot() for name, p in probes.items()},
    }


def _delta(end, start):
    if isinstance(end, dict):
        return {key: _delta(end[key], start[key]) for key in end}
    if isinstance(end, list):
        return [_delta(a, b) for a, b in zip(end, start)]
    return end - start


def _new_compactions(log: list, marked) -> list:
    """Compaction records appended after ``marked``.

    ``DB.compaction_log`` is a ring of the last 64 records; when
    ``marked`` has left it, every record in it is new.
    """
    for index in range(len(log) - 1, -1, -1):
        if log[index] is marked:
            return log[index + 1 :]
    return list(log)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    probes = layers.install_probes() if args.trace else {}

    from repro import DB, OSStorage, Options
    from repro.obs import Observability, Tracer
    from repro.server import ServerThread

    workload = WORKLOADS[args.workload]
    options = Options(**workload.options, wal_sync_interval=1)
    obs = Observability(tracer=Tracer(enabled=args.trace, max_spans=1_000_000))
    db = DB(OSStorage(args.dir), options, background=True, obs=obs)
    handle = ServerThread(db).start()
    print(f"READY {handle.port}", flush=True)

    base = None
    marked_record = None
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            obs.tracer.clear()
            base = _snapshot(db, handle.metrics, probes)
            marked_record = db.compaction_log[-1] if db.compaction_log else None
            print("MARKED", flush=True)
        elif command == "tables":
            print(db.total_bytes(), flush=True)
        elif command == "report" and base is not None:
            report = _delta(_snapshot(db, handle.metrics, probes), base)
            stages = layers.stage_seconds(obs.tracer)
            report.update(
                stages=stages,
                spans_dropped=obs.tracer.dropped,
                compaction_levels=[
                    r["level"]
                    for r in _new_compactions(db.compaction_log, marked_record)
                ],
                procedure=[db.compaction_spec.kind, db.compaction_spec.k],
                rss_mb=_rss_mb(),
            )
            print(json.dumps(report), flush=True)
        else:
            print(f"ERROR unknown command {command!r}", flush=True)
    # stdin closed: the benchmark went away without killing us.
    handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
