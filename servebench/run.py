"""Served-engine benchmark: out-of-process closed-loop load on real files.

Usage, from the repository root::

    python3 servebench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Each run starts ``servebench/server.py`` as a separate server process
(the engine on ``OSStorage`` with an fsync per WAL batch), loads the
keyspace through ``repro.server.SyncClient`` in batches, settles it
(flush and compact where the workload asks, then one checked full scan
that warms the block cache), and then drives it from this process over
two connections in a closed loop for ``--seconds``.  Afterwards the server is SIGKILLed and the directory
is recovered here: ``verify_db`` must be clean and every acknowledged
write readable.  Killing the process leaves the OS page cache intact,
so this checks engine recovery, not device durability.

``--trace 0`` prints the end-to-end metrics (set-up is repeated three
times and its median reported).  ``--trace 1`` splits ``--seconds``
between an untraced, a traced and another untraced run of the workload
and prints the per-layer metrics of the traced run, the tracing
overhead and the paper's model beside the measurement.
The last stdout line is one JSON object; see ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The engine must come from this checkout, never from an installed
# copy, so a missing source tree is an error rather than a fallback.
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    print(f"servebench: no engine source at {SRC}/repro", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import layers  # noqa: E402
from repro.workload.ycsb import READ, UPDATE  # noqa: E402
from workloads import (  # noqa: E402
    SCAN,
    SCAN_LENGTH,
    VALUE_BYTES,
    WORKLOADS,
    Workload,
    key_id_of,
    key_of,
    load_values,
    make_value,
    op_stream,
    value_key_id,
)

CONNECTIONS = 2
SETUP_REPEATS = 3
LOAD_BATCH = 200
WARM_SCAN_CHUNK = 500
MIN_RUN_OPS = 1000
CHUNKS = 5
TABLE_SAMPLE_S = 1.0
KEY_BYTES = len(key_of(0))
WORK_DIR = os.path.join(ROOT, ".servebench_run")


class CheckFailed(Exception):
    """A correctness check or workload self-check failed."""


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


# ------------------------------------------------------------ host stamp
def host_stamp() -> dict:
    """CPU count, Python version, source identity and a CRC calibration."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    git_sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        git_sha = proc.stdout.strip() or "none"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "crc32c_mb_s": crc32c_mb_s(),
    }


def crc32c_mb_s() -> float:
    """Host speed now: best of three ``crc32c_py`` passes over 256 KB."""
    from repro.codec.checksum import crc32c_py

    data = bytes(range(256)) * 1024
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        crc32c_py(data)
        best = min(best, time.perf_counter() - t0)
    return len(data) / best / 1e6


# --------------------------------------------------------- server process
class ServerProcess:
    """The benchmark's server, a child process driven over stdin/stdout."""

    def __init__(self, directory: str, workload: str, trace: bool) -> None:
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               "--dir", directory, "--workload", workload]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._read, name="servebench-server-stdout", daemon=True
        )
        self._reader.start()
        ready = self._line(60.0)
        if not ready.startswith("READY "):
            raise RuntimeError(f"server did not start: {ready!r}")
        self.port = int(ready.split()[1])

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("server process stopped answering") from None
        if line is None:
            raise RuntimeError(
                f"server process exited (code {self.proc.wait(5)})"
            )
        return line

    def command(self, command: str, timeout: float = 60.0) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._line(timeout)

    def kill(self) -> None:
        """SIGKILL, then reap the process and its stdout reader."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(30)
        self._reader.join(30)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


# ---------------------------------------------------------------- set-up
def set_up(
    directory: str, workload: Workload, seed: int, trace: bool
) -> ServerProcess:
    """Start a server on a fresh directory, load and settle the keyspace.

    Settling flushes and compacts the loaded data into SSTables (unless
    the workload keeps the load's own tree shape), then reads it back
    with one chunked full scan, which checks key order and every value
    and warms the block cache before timing starts.
    """
    from repro.server import SyncClient

    server = ServerProcess(directory, workload.name, trace)
    try:
        values = load_values(workload, seed)
        with SyncClient("127.0.0.1", server.port) as client:
            for lo in range(0, workload.keys, LOAD_BATCH):
                client.batch(
                    [("put", key_of(i), values[i])
                     for i in range(lo, min(lo + LOAD_BATCH, workload.keys))]
                )
            if workload.compact_at_setup:
                client.flush()
                client.compact()
            seen = 0
            start = key_of(0)
            while seen < workload.keys:
                pairs, _ = client.scan(start, None, limit=WARM_SCAN_CHUNK)
                if not pairs:
                    break
                for key, value in pairs:
                    if key != key_of(seen) or value != values[seen]:
                        raise CheckFailed(
                            f"set-up scan: expected key {seen}, got {key!r}"
                        )
                    seen += 1
                start = key_of(seen)
            if seen != workload.keys:
                raise CheckFailed(
                    f"set-up scan returned {seen} of {workload.keys} keys"
                )
    except BaseException:
        server.kill()
        raise
    return server


# -------------------------------------------------------------- run phase
class Connection(threading.Thread):
    """One closed-loop connection: next request only after the reply.

    The thread connects, sets ``ready`` and waits for ``go``; the run
    phase sets ``deadline`` before ``go``.
    """

    def __init__(self, conn: int, port: int, workload: Workload, seed: int,
                 expected: list[bytes]) -> None:
        super().__init__(name=f"servebench-conn-{conn}", daemon=True)
        self.conn = conn
        self.port = port
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.ready = threading.Event()
        self.go = threading.Event()
        self.deadline = 0.0
        #: (completion time, op kind, latency seconds) per completed op
        self.samples: list[tuple[float, str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.uncertain: set[int] = set()
        self.errors: list[str] = []
        self.crash: Exception | None = None
        self.stall_retries = 0
        self.end = 0.0

    def _owned(self, key_id: int) -> bool:
        return key_id % CONNECTIONS == self.conn

    def _check_value(self, key_id: int, value) -> None:
        if value is None:
            self.errors.append(f"GET of loaded key {key_id} returned nothing")
        elif value_key_id(value) != key_id:
            self.errors.append(f"key {key_id} returned a value of another key")
        elif (
            self._owned(key_id)
            and key_id not in self.uncertain
            and value != self.expected[key_id]
        ):
            self.errors.append(f"key {key_id} lost its acknowledged write")

    def run(self) -> None:
        try:
            self._run()
        except Exception as exc:  # reported by run_phase
            self.crash = exc
        finally:
            self.ready.set()

    def _run(self) -> None:
        from repro.server import ClientError, SyncClient

        rng = random.Random(self.seed * 31 + self.conn)
        versions: dict[int, int] = {}
        ops = op_stream(self.workload, self.seed, self.conn, CONNECTIONS)
        n_keys = self.workload.keys
        clock = time.perf_counter
        with SyncClient("127.0.0.1", self.port) as client:
            self.ready.set()
            self.go.wait()
            while clock() < self.deadline:
                op = next(ops)
                self.attempted += 1
                try:
                    if op.kind == READ:
                        t0 = clock()
                        value = client.get(key_of(op.key_id))
                        t1 = clock()
                        self.samples.append((t1, READ, t1 - t0))
                        self._check_value(op.key_id, value)
                    elif op.kind == SCAN:
                        t0 = clock()
                        pairs, _ = client.scan(
                            key_of(op.key_id), None, limit=SCAN_LENGTH
                        )
                        t1 = clock()
                        self.samples.append((t1, SCAN, t1 - t0))
                        want = min(SCAN_LENGTH, n_keys - op.key_id)
                        ids = [key_id_of(k) for k, _ in pairs]
                        if ids != list(range(op.key_id, op.key_id + want)):
                            self.errors.append(
                                f"SCAN from {op.key_id} returned keys out of "
                                f"order or incomplete"
                            )
                        for key_id, (_, value) in zip(ids, pairs):
                            self._check_value(key_id, value)
                    else:
                        version = versions.get(op.key_id, 0) + 1
                        value = make_value(op.key_id, version, rng)
                        t0 = clock()
                        try:
                            client.put(key_of(op.key_id), value)
                        except BaseException:
                            # It may or may not have been applied.
                            self.uncertain.add(op.key_id)
                            raise
                        t1 = clock()
                        self.samples.append((t1, UPDATE, t1 - t0))
                        versions[op.key_id] = version
                        self.expected[op.key_id] = value
                except (ClientError, OSError) as exc:
                    self.failed += 1
                    if self.failed <= 5:
                        print(f"servebench: {op.kind} failed: {exc}",
                              file=sys.stderr)
            self.stall_retries = client.stall_retries
        self.end = clock()


def run_phase(server: ServerProcess, workload: Workload, seed: int,
              seconds: float, expected: list[bytes]) -> dict:
    """Closed-loop load from both connections for ``seconds``."""
    conns = [
        Connection(c, server.port, workload, seed, expected)
        for c in range(CONNECTIONS)
    ]
    for conn in conns:
        conn.start()
    for conn in conns:
        if not conn.ready.wait(30) or conn.crash is not None:
            raise RuntimeError(f"{conn.name} could not connect") from conn.crash
    if server.command("mark") != "MARKED":
        raise RuntimeError("server did not acknowledge mark")
    start = time.perf_counter()
    deadline = start + seconds
    for conn in conns:
        conn.deadline = deadline
        conn.go.set()
    # Table bytes swing with each flush and compaction, so space use is
    # sampled once a second instead of read once at an arbitrary end.
    table_bytes = []
    while time.perf_counter() < deadline:
        time.sleep(min(TABLE_SAMPLE_S, max(0.0, deadline - time.perf_counter())))
        table_bytes.append(int(server.command("tables")))
    for conn in conns:
        conn.join(120)
        if conn.is_alive():
            raise RuntimeError(f"{conn.name} did not finish")
        if conn.crash is not None:
            raise RuntimeError(f"{conn.name} crashed") from conn.crash
    wall = max(conn.end for conn in conns) - start
    report = json.loads(server.command("report"))
    samples = sorted(
        (t - start, kind, latency)
        for conn in conns
        for t, kind, latency in conn.samples
    )
    return {
        "wall": wall,
        "ops": len(samples),
        "samples": samples,
        "latency": {
            kind: sorted(lat for _, k, lat in samples if k == kind)
            for kind in (READ, UPDATE, SCAN)
        },
        "attempted": sum(c.attempted for c in conns),
        "failed": sum(c.failed for c in conns),
        "uncertain": set().union(*(c.uncertain for c in conns)),
        "errors": [e for c in conns for e in c.errors],
        "stall_retries": sum(c.stall_retries for c in conns),
        "table_bytes": table_bytes,
        "report": report,
    }


# ---------------------------------------------------------------- checks
def recovery_check(directory: str, workload: Workload, expected: list[bytes],
                   uncertain: set[int]) -> str:
    """Recover the SIGKILLed directory here; all acked writes must read."""
    from repro import DB, OSStorage, Options
    from repro.db.verify import verify_db

    options = Options(**workload.options, wal_sync_interval=1)
    crashed = verify_db(OSStorage(directory), options)
    if not crashed.ok:
        raise CheckFailed(f"crash image: {crashed.render()}")
    db = DB(OSStorage(directory), options)
    try:
        lost = [
            i for i in range(workload.keys)
            if i not in uncertain and db.get(key_of(i)) != expected[i]
        ]
    finally:
        db.close()
    if lost:
        raise CheckFailed(
            f"{len(lost)} acknowledged writes unreadable after recovery "
            f"(first key {lost[0]})"
        )
    reopened = verify_db(OSStorage(directory), options)
    if not reopened.ok or reopened.warnings:
        raise CheckFailed(f"after recovery: {reopened.render()}")
    return (
        f"recovery: verify_db clean ({reopened.tables_checked} tables, "
        f"{reopened.entries_checked} entries), {workload.keys} keys read "
        f"back, every acknowledged write present (engine recovery after "
        f"SIGKILL; the page cache survives, so device durability is not "
        f"tested)"
    )


def self_check(workload: Workload, phase: dict) -> None:
    """Fail when the run stopped exercising what the workload claims."""
    report = phase["report"]
    if phase["ops"] < MIN_RUN_OPS:
        raise CheckFailed(
            f"only {phase['ops']} ops completed; a p99 needs >= {MIN_RUN_OPS}"
        )
    if not phase["latency"][UPDATE]:
        raise CheckFailed("no write completed")
    db, counters = report["db"], report["counters"]
    if workload.name == "ingest":
        levels = set(report["compaction_levels"])
        if db["flushes"] < 2 or len(levels) < 2:
            raise CheckFailed(
                f"ingest: {db['flushes']} flushes, compactions from levels "
                f"{sorted(levels)}; needs >= 2 flushes and >= 2 levels"
            )
    elif workload.name == "point-read":
        hits, misses = counters["cache.hits"], counters["cache.misses"]
        if db["compactions"] != 0:
            raise CheckFailed(
                f"point-read: {db['compactions']} compactions in run phase"
            )
        if hits < 0.9 * (hits + misses):
            raise CheckFailed(
                f"point-read: cache hit ratio {hits}/{hits + misses} < 0.9"
            )
    elif workload.name == "scan" and counters["cache.evictions"] == 0:
        raise CheckFailed("scan: no block-cache evictions in run phase")


# ---------------------------------------------------------------- one run
def run_once(workload: Workload, seed: int, seconds: float, trace: bool,
             setups: int, work: str) -> dict:
    """Set up ``setups`` times (keeping the last), run, kill, recover."""
    setup_times = []
    server = None
    try:
        for i in range(setups):
            directory = os.path.join(work, f"db{i}")
            t0 = time.perf_counter()
            server = set_up(directory, workload, seed, trace)
            setup_times.append(time.perf_counter() - t0)
            if i < setups - 1:
                server.kill()
                server = None
                shutil.rmtree(directory)
        expected = load_values(workload, seed)
        calibration = [crc32c_mb_s()]
        phase = run_phase(server, workload, seed, seconds, expected)
        calibration.append(crc32c_mb_s())
    finally:
        if server is not None:
            server.kill()
    if phase["errors"]:
        raise CheckFailed(
            f"{len(phase['errors'])} wrong results; first: {phase['errors'][0]}"
        )
    phase["recovery"] = recovery_check(
        directory, workload, expected, phase["uncertain"]
    )
    self_check(workload, phase)
    phase["setup_times"] = setup_times
    phase["crc32c_mb_s"] = calibration
    shutil.rmtree(directory)
    return phase


def chunk_medians(samples: list[tuple[float, str, float]]) -> dict:
    """Throughput and tail latency as medians over run chunks.

    The completed ops, in completion order, are cut into up to CHUNKS
    chunks of equal op count, each at least MIN_RUN_OPS long so its p99
    has ten samples beyond it.  A burst of host noise that covers less
    than half the chunks then moves neither figure.
    """
    n = min(CHUNKS, len(samples) // MIN_RUN_OPS)
    size = len(samples) // n
    rows = []
    begin = 0.0
    for i in range(n):
        chunk = samples[i * size:(i + 1) * size if i < n - 1 else None]
        end = chunk[-1][0]
        rows.append({
            "ops_per_s": len(chunk) / (end - begin),
            "op_p99": _percentile(sorted(lat for _, _, lat in chunk), 99),
        })
        begin = end
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def end_to_end(workload: Workload, phase: dict) -> dict[str, tuple]:
    """The run phase's end-to-end metrics.

    Medians are taken over the whole run phase: a burst moves a median
    only by its share of the samples, and on ``scan`` a chunk holds too
    few writes for a steady median of its own.
    """
    report = phase["report"]
    entry_bytes = KEY_BYTES + VALUE_BYTES
    every = sorted(lat for _, _, lat in phase["samples"])
    writes = phase["latency"][UPDATE]
    return {
        "ops_per_s": (chunk_medians(phase["samples"])["ops_per_s"], "1/s"),
        "op_p50_ms": (_percentile(every, 50) * 1e3, "ms"),
        "write_p50_ms": (_percentile(writes, 50) * 1e3, "ms"),
        "write_amp": (
            report["counters"]["io.os.write.bytes"]
            / (len(writes) * entry_bytes), "ratio",
        ),
        "space_amp": (
            statistics.median(phase["table_bytes"])
            / (workload.keys * entry_bytes), "ratio",
        ),
        "setup_s": (statistics.median(phase["setup_times"]), "s"),
        "server_rss_mb": (report["rss_mb"], "MB"),
    }


def describe_latency(phase: dict) -> list[str]:
    """Per-op-type latency lines; p99 only with >= 1000 samples."""
    lines = []
    for kind in (READ, UPDATE, SCAN):
        values = phase["latency"][kind]
        if not values:
            continue
        line = (f"  {kind}: n={len(values)} "
                f"p50={_percentile(values, 50) * 1e3:.3f} ms")
        if len(values) >= 1000:
            line += f" p99={_percentile(values, 99) * 1e3:.3f} ms"
        lines.append(line)
    attempted = phase["attempted"]
    lines.append(
        f"  failed_ratio={phase['failed'] / attempted:.6f} "
        f"({phase['failed']}/{attempted}); stall retries "
        f"{phase['stall_retries']}"
    )
    return lines


def model_lines(report: dict) -> list[str]:
    """The paper's model beside the measured compaction bandwidth."""
    if report["counters"]["compaction.count"] == 0:
        return ["  model vs measured: no compaction in the run phase"]
    mdl = layers.model(report)
    kind, k = report["procedure"]
    stages = " ".join(
        f"{span.split(':')[0]}={report['stages'][span] * 1e3:.1f}"
        for span, _ in layers.STAGES
    )
    return [
        f"  stages (ms): {stages}",
        f"  model vs measured ({kind}, k={k}): measured "
        f"{mdl['measured_mb_s']:.3f} MB/s | Eq1 SCP {mdl['scp_mb_s']:.3f} | "
        f"Eq2 PCP {mdl['pcp_mb_s']:.3f} | Eq6 C-PPCP(k=2) "
        f"{mdl['cppcp_k2_mb_s']:.3f} MB/s | {mdl['bound_name']} "
        f"(max(S1,S7)/S2..S6 = {mdl['bound']:.3f}) | "
        f"model_gap {mdl['gap']:.3f}",
    ]


def print_phase(label: str, phase: dict) -> None:
    before, after = phase["crc32c_mb_s"]
    print(f"servebench: {label}: {phase['ops'] / phase['wall']:.1f} ops/s "
          f"over {phase['wall']:.2f} s; host crc32c_py {before:.2f} MB/s "
          f"before, {after:.2f} MB/s after")
    for line in describe_latency(phase):
        print(line)
    print(f"  {phase['recovery']}")


def untraced_run(workload: Workload, args, work: str) -> tuple:
    phase = run_once(
        workload, args.seed, args.seconds, False, SETUP_REPEATS, work
    )
    print_phase("run phase", phase)
    # Printed, not a bounded metric: see README.md, "Tail latency".
    p99 = chunk_medians(phase["samples"])["op_p99"]
    print(f"  op_p99 (chunk median, every op type): {p99 * 1e3:.3f} ms")
    return end_to_end(workload, phase), phase["attempted"], phase["failed"]


def traced_run(workload: Workload, args, work: str, stamp: dict) -> tuple:
    """Untraced, traced, untraced: a quarter, half and quarter of ``--seconds``.

    Per-layer metrics come from the traced run.  The tracing overhead
    compares its throughput with the mean of the untraced runs on
    either side, so a steady drift of host speed cancels out of it.
    """
    quarter = args.seconds / 4
    plain = [run_once(workload, args.seed, quarter, False, 1, work)]
    traced = run_once(workload, args.seed, 2 * quarter, True, 1, work)
    plain.append(run_once(workload, args.seed, quarter, False, 1, work))
    report = traced["report"]
    if report["spans_dropped"]:
        raise CheckFailed(f"tracer dropped {report['spans_dropped']} spans")
    silent = layers.silent_probes(report, workload.name)
    if silent:
        raise CheckFailed(f"probes recorded nothing: {silent}")
    if workload.name == "ingest" and not all(report["stages"].values()):
        raise CheckFailed(f"ingest: an S1-S7 stage is empty: {report['stages']}")
    every = [v for values in traced["latency"].values() for v in values]
    client = {
        "mean_rtt_ms": statistics.fmean(every) * 1e3,
        "stall_retries": traced["stall_retries"],
    }
    metrics = layers.per_layer_metrics(
        report, traced["ops"], client, stamp["crc32c_mb_s"]
    )
    plain_rate = statistics.fmean(p["ops"] / p["wall"] for p in plain)
    metrics["trace.overhead"] = (
        1.0 - traced["ops"] / traced["wall"] / plain_rate, "ratio"
    )
    print_phase("untraced run before", plain[0])
    print_phase("traced run", traced)
    print_phase("untraced run after", plain[1])
    for line in model_lines(report):
        print(line)
    return (
        metrics,
        sum(p["attempted"] for p in plain) + traced["attempted"],
        sum(p["failed"] for p in plain) + traced["failed"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="served-engine benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    stamp = host_stamp()
    print(f"servebench: host {json.dumps(stamp, sort_keys=True)}")
    print(f"servebench: workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}; "
          f"{CONNECTIONS} closed-loop connections")
    work = os.path.join(WORK_DIR, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    correct = True
    metrics: dict[str, tuple] = {}
    attempted = failed = 0
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(workload, args, work, stamp)
        else:
            metrics, attempted, failed = untraced_run(workload, args, work)
    except CheckFailed as exc:
        print(f"servebench: CHECK FAILED: {exc}")
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
