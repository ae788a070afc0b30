#!/usr/bin/env python3
"""GraphSD benchmark: real-device wall time on three workloads.

    python3 perfbench/run.py --workload pr-full|sssp-web|serve-bfs \\
        --seed N --seconds S --trace 0|1

Run from the root of a graphsd source tree. The first call builds the
`graphsd` CLI and `perfprobe` into .bench_build/ (Release). Inputs are
generated from --seed; the program only sees the generated files. Every
operation's output is checked against the reference algorithms. The last
line of stdout is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Exit code 0 means every answer was
correct; a wrong answer prints the result with "correct": false and exits 1;
a run that could not measure exits 2 without a result. See README.md for
why each workload exists and what each metric means.
"""

import argparse
import array
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import ledger  # noqa: E402

BUILD_ROOT = os.path.join(REPO, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
WORK_ROOT = os.path.join(BUILD_ROOT, "work")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
CLI = os.path.join(CMAKE_DIR, "graphsd", "tools", "graphsd")
PROBE = os.path.join(CMAKE_DIR, "perfprobe")

# ROADMAP: modeled time never counts. Every workload runs on the O_DIRECT
# hardware backend, and a run report showing modeled seconds is refused.
DEVICE = "real:ssd"
SETUP_REPEATS = 3
MIB = 1024.0 * 1024.0

# PageRank tolerance: difftest's fixed-iteration relative bound. Ranks are
# normalised, positive and no smaller than 0.15/|V|, so no absolute term is
# needed, and any absolute term near a rank's size would accept almost any
# value.
PR_REL_TOL = 1e-9

WORKLOADS = {
    # ROADMAP's [M] configuration: every round streams every block.
    "pr-full": {
        "generate": ["--type", "rmat", "--scale", "18", "--edge-factor", "16",
                     "--max-weight", "100"],
        "preprocess": ["--p", "8"],
        "run": ["--algo", "pr", "--iterations", "10", "--threads", "4",
                "--compute-threads", "4"],
        "reference": ["--algo", "pr", "--iterations", "10"],
        "bitwise": False,
        "weights": False,
    },
    # Long sparse tail: all three executors, scheduler, index reads, skip
    # summaries, frame decode and checkpoints.
    "sssp-web": {
        "generate": ["--type", "web", "--vertices", "196608",
                     "--avg-degree", "16", "--max-weight", "100",
                     "--whiskers", "0.12"],
        "preprocess": ["--p", "8", "--codec", "varint-delta"],
        "run": ["--algo", "sssp", "--root", "0", "--mode", "semi",
                "--checkpoint-every", "1", "--threads", "4"],
        "reference": ["--algo", "sssp", "--root", "0"],
        "bitwise": True,
        "weights": True,
        "checkpoints": True,
    },
    # Many short overlapping queries against a resident daemon on pr-full's
    # dataset: admission, batching, the shared buffer, per-query set-up.
    "serve-bfs": {
        "generate": ["--type", "rmat", "--scale", "18", "--edge-factor", "16",
                     "--max-weight", "100"],
        "preprocess": ["--p", "8"],
        "serve": ["--workers", "2", "--engine-threads", "2"],
        "buffer_mb": 64,
        "connections": 4,
        "roots": 16,
        "sample_vertices": 32,
    },
}

END_TO_END = ["run_s", "qps", "query_p50_s", "query_tail_s", "read_mib",
              "write_mib", "setup_s"]
UNITS = {
    "run_s": "s", "qps": "1/s", "query_p50_s": "s", "query_tail_s": "s",
    "read_mib": "MiB", "write_mib": "MiB", "peak_rss_mib": "MiB",
    "setup_s": "s",
    "io.read_s": "s", "io.read_ops": "count", "io.retries": "count",
    "io.checksum_failures": "count", "io.read_mib_per_s": "MiB/s",
    "util.crc32c_mib_per_s": "MiB/s", "util.crc32c_s_est": "s",
    "compress.decode_s": "s", "compress.frames_decoded": "count",
    "compress.decode_mib_per_s": "MiB/s",
    "core.compute_s": "s", "core.cross_iter_s": "s",
    "core.apply_serialization_s": "s", "core.sched_s": "s",
    "core.rounds_sciu": "count", "core.rounds_fciu": "count",
    "core.rounds_semi": "count", "core.rounds_plain": "count",
    "core.skip_blocks": "count", "core.skip_mib": "MiB",
    "partition.index_load_s": "s", "core.state_io_s": "s",
    "core.buffer_hit_rate": "ratio", "core.buffer_evictions": "count",
    "core.checkpoint_s": "s", "core.checkpoint_mib": "MiB",
    "core.unattributed_s": "s", "core.outside_spans_s": "s",
    "service.queue_wait_s": "s", "service.engine_s": "s",
    "service.batch_width_mean": "count", "service.runs_per_query": "count",
    "service.shared_hit_rate": "ratio",
    "service.admission_rejections": "count",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = [name for name in UNITS if name not in END_TO_END]

# Span names behind each span-derived metric. Semi mode records its index
# reads as "index-read", SCIU as "index-load"; both are the partition layer.
SPAN_METRICS = {
    "io.read_s": ["edge-read"],
    "compress.decode_s": ["decode"],
    "core.compute_s": ["compute"],
    "core.cross_iter_s": ["cross-iter-update"],
    "core.sched_s": ["schedule-decision"],
    "partition.index_load_s": ["index-read", "index-load"],
    "core.state_io_s": ["state-load", "write-back"],
    "core.checkpoint_s": ["checkpoint", "resume"],
}


def _rounds(model):
    return lambda rep: sum(1 for s in rep["per_round"] if s["model"] == model)


# Per-layer metrics read from one run report (--report-json, or the `report`
# of a daemon response).
REPORT_METRICS = {
    "io.read_ops": lambda rep: (rep["io"]["seq_read_ops"]
                                + rep["io"]["rand_read_ops"]),
    "io.retries": lambda rep: rep["io"]["retries"],
    "io.checksum_failures": lambda rep: rep["io"]["checksum_failures"],
    "compress.frames_decoded": lambda rep: rep["compression"]["frames_decoded"],
    "core.apply_serialization_s": lambda rep: rep["apply_serialization_seconds"],
    "core.rounds_sciu": _rounds("S"),
    "core.rounds_fciu": _rounds("F"),
    "core.rounds_semi": _rounds("M"),
    "core.rounds_plain": _rounds("P"),
    "core.skip_blocks": lambda rep: rep["semi_external"]["blocks_skipped"],
    "core.skip_mib": lambda rep: (rep["semi_external"]["blocks_skipped_bytes"]
                                  / MIB),
    "core.checkpoint_mib": lambda rep: rep["lifecycle"]["checkpoint_bytes"] / MIB,
}
# The daemon records no spans: on serve-bfs these span metrics come from the
# response reports' own timers instead (update seconds cover compute and
# cross-iteration work).
SERVE_SPAN_STAND_INS = {
    "core.compute_s": lambda rep: rep["seconds"]["update"],
    "core.sched_s": lambda rep: rep["seconds"]["scheduler"],
    "compress.decode_s": lambda rep: rep["compression"]["decode_seconds"],
    "core.checkpoint_s": lambda rep: rep["lifecycle"]["checkpoint_seconds"],
}


class BenchError(Exception):
    """The benchmark could not measure (not a wrong answer)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- processes ---------------------------------------------------------------

def spawn(argv, out_path):
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        return os.posix_spawnp(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)


def reap(pid):
    """Waits for `pid`; returns (exit code, peak RSS in MiB)."""
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def run_timed(argv, out_path):
    """Runs argv to completion: (wall seconds, exit code, peak RSS MiB)."""
    start = time.perf_counter()
    pid = spawn(argv, out_path)
    code, rss = reap(pid)
    return time.perf_counter() - start, code, rss


def run_checked(argv, out_path):
    wall, code, _ = run_timed(argv, out_path)
    if code != 0:
        raise BenchError("%s exited %d (see %s)" % (argv[0], code, out_path))
    return wall


def build():
    os.makedirs(CMAKE_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    os.path.join(BUILD_ROOT, "configure.log"))
    run_checked(["cmake", "--build", CMAKE_DIR, "--target", "graphsd_cli",
                 "perfprobe", "-j", str(os.cpu_count() or 1)],
                os.path.join(BUILD_ROOT, "build.log"))


# --- host fingerprint --------------------------------------------------------

def fingerprint(data_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs, best = "unknown", ""
    path = os.path.realpath(data_dir)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "kernel": platform.release(), "filesystem": fs,
            "device": DEVICE}


# --- datasets ----------------------------------------------------------------

def make_dataset(spec, seed, workdir):
    graph = os.path.join(workdir, "graph.bin")
    dataset = os.path.join(workdir, "dataset")
    run_checked([CLI, "generate", *spec["generate"], "--seed", str(seed),
                 "--out", graph], os.path.join(workdir, "generate.log"))
    run_checked([CLI, "preprocess", "--input", graph, "--out", dataset,
                 *spec["preprocess"], "--device", DEVICE],
                os.path.join(workdir, "preprocess.log"))
    return graph, dataset


def dataset_facts(dataset):
    facts = {}
    with open(os.path.join(dataset, "manifest.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            if key in ("num_vertices", "num_edges", "p", "codec"):
                facts[key] = value
    disk = sum(os.path.getsize(os.path.join(dataset, name))
               for name in os.listdir(dataset))
    return {"vertices": int(facts["num_vertices"]),
            "edges": int(facts["num_edges"]), "p": int(facts["p"]),
            "codec": facts.get("codec", "none"), "disk_bytes": disk}


def settle(*paths):
    """fsyncs freshly written inputs, so their write-back does not land in
    the timed runs (an O_DIRECT read first flushes a range's dirty pages)."""
    for path in paths:
        names = ([os.path.join(path, n) for n in os.listdir(path)]
                 if os.path.isdir(path) else [path])
        for name in names:
            fd = os.open(name, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def load_doubles(path):
    values = array.array("d")
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return values


# --- output checks -----------------------------------------------------------

def check_values(values_path, reference, bitwise):
    """Number of vertices whose value differs from the reference."""
    with open(values_path) as f:
        got = array.array("d", map(float, f.read().split()[1::2]))
    if len(got) != len(reference):
        return max(len(got), len(reference))
    if got.tobytes() == reference.tobytes():
        return 0
    if bitwise:
        return sum(1 for a, b in zip(got, reference) if a.hex() != b.hex())
    return sum(1 for a, b in zip(got, reference)
               if a != b and not abs(a - b) <= PR_REL_TOL * max(abs(a), abs(b)))


def refuse_modeled(report):
    gauges = report.get("metrics", {}).get("gauges", {})
    if report["seconds"]["io"] != 0 or gauges.get("device.clock_seconds", 0):
        raise BenchError("run report carries modeled I/O time; only real "
                         "devices count")


def probe_metrics(dataset, weights, read_mib, workdir, detail):
    """Timed ReadAt / Crc32c / DecodeSubBlock rates over the dataset's
    payload files, and the CRC seconds a run reading `read_mib` would pay
    (an upper bound: every byte read is treated as verified)."""
    out = os.path.join(workdir, "layers.log")
    run_checked([PROBE, "layers", "--dataset", dataset, "--weights",
                 "true" if weights else "false"], out)
    with open(out) as f:
        layers = json.loads(f.read().strip().splitlines()[-1])
    detail["layer_probe"] = layers
    return {"io.read_mib_per_s": layers["read_mib_per_s"],
            "util.crc32c_mib_per_s": layers["crc32c_mib_per_s"],
            "util.crc32c_s_est": read_mib / layers["crc32c_mib_per_s"],
            "compress.decode_mib_per_s": layers["decode_mib_per_s"]}


# --- engine workloads (pr-full, sssp-web) ------------------------------------

def engine_run(spec, dataset, reference, workdir, index, traced, report):
    """One checked `graphsd run`. The run report is asked for only when
    `report` is set: writing it (and fsyncing it) is benchmark work that
    would otherwise land in the timed wall."""
    tag = "run%03d" % index
    values = os.path.join(workdir, tag + ".values")
    report_path = os.path.join(workdir, tag + ".report.json")
    argv = [CLI, "run", "--dataset", dataset, *spec["run"],
            "--device", DEVICE, "--values-out", values]
    if report:
        argv += ["--report-json", report_path]
    checkpoints = os.path.join(workdir, "checkpoints")
    if spec.get("checkpoints"):
        shutil.rmtree(checkpoints, ignore_errors=True)
        argv += ["--checkpoint-dir", checkpoints]
    trace_path = os.path.join(workdir, tag + ".trace.json")
    if traced:
        argv += ["--trace-out", trace_path]
    wall, code, rss = run_timed(argv, os.path.join(workdir, tag + ".log"))
    result = {"wall_s": wall, "rss_mib": rss, "ok": False, "traced": traced}
    if code != 0:
        log("run %s exited %d" % (tag, code))
        return result
    if report:
        with open(report_path) as f:
            result["report"] = json.load(f)
        refuse_modeled(result["report"])
        os.remove(report_path)
    wrong = check_values(values, reference, bitwise=spec["bitwise"])
    result["ok"] = wrong == 0
    if wrong:
        log("run %s: %d vertices differ from the reference" % (tag, wrong))
    if traced:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        result["ledger"] = ledger.build_ledger(events, wall)
        os.remove(trace_path)
    os.remove(values)
    return result


def run_loop(seconds, body):
    """Calls body(i) at least once and until `seconds` have passed."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(body(len(results)))
    return results


def report_bytes(report):
    io = report["io"]
    read = io["total_read_bytes"]
    write = io["total_write_bytes"] + report["lifecycle"]["checkpoint_bytes"]
    return read, write


def setup(spec, seed, work, start_service=None):
    """Sets up SETUP_REPEATS times from the same seed, timing each set-up,
    and keeps the last. A set-up is generate and preprocess, plus
    start_service(dataset, dir) when given, which returns a started service
    (anything with stop()). Returns (times, graph, dataset, service)."""
    times = []
    for rep in range(SETUP_REPEATS):
        rep_dir = os.path.join(work, "setup%d" % rep)
        os.makedirs(rep_dir)
        start = time.perf_counter()
        graph, dataset = make_dataset(spec, seed, rep_dir)
        service = start_service(dataset, rep_dir) if start_service else None
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPEATS:
            if service is not None:
                service.stop()
            shutil.rmtree(rep_dir)
    return times, graph, dataset, service


def engine_workload(spec, seed, seconds, traced, work):
    setup_times, graph, dataset, _ = setup(spec, seed, work)
    ref_path = os.path.join(work, "reference.bin")
    run_checked([PROBE, "reference", "--graph", graph, *spec["reference"],
                 "--out", ref_path], os.path.join(work, "reference.log"))
    reference = load_doubles(ref_path)
    runs_dir = os.path.join(work, "runs")
    os.makedirs(runs_dir)
    settle(graph, dataset)
    # Untimed but checked: the first run after set-up pays cold caches once.
    # Its report supplies the bytes per run, which the real:ssd device
    # counts exactly (O_DIRECT reads; no page cache in between).
    warmup = engine_run(spec, dataset, reference, runs_dir, 999, False, True)

    # With --trace 1 the untraced runs write a report too, so traced and
    # untraced walls differ only by tracing.
    def untraced(i):
        return engine_run(spec, dataset, reference, runs_dir, i, False, traced)

    def traced_run(i):
        return engine_run(spec, dataset, reference, runs_dir, 1000 + i, True,
                          True)

    if not traced:
        runs = run_loop(seconds, untraced)
    else:
        runs = (run_loop(seconds * 0.4, untraced)
                + run_loop(seconds * 0.4, traced_run))

    good = [r for r in runs if r["ok"]]
    detail = {"setup_times_s": setup_times,
              "dataset": dataset_facts(dataset),
              "operations": len(runs) + 1,
              "failed": len(runs) - len(good) + (0 if warmup["ok"] else 1)}
    if not good or "report" not in warmup:
        return None, detail
    gauges = warmup["report"].get("metrics", {}).get("gauges", {})
    detail["dataset"]["buffer_bytes"] = gauges.get("buffer.capacity_bytes", 0)
    detail["device_counters"] = {
        "bounce_reads": gauges.get("device.bounce_reads", 0),
        "vectored_reads": gauges.get("device.vectored_reads", 0)}
    if traced:
        return engine_layers(good, spec, dataset, work, detail), detail
    walls = [r["wall_s"] for r in good]
    tail_value, tail_pct, tail_beyond = ledger.tail(walls)
    read, write = report_bytes(warmup["report"])
    detail["tail"] = {"percentile": tail_pct, "samples": len(walls),
                      "samples_beyond": tail_beyond}
    detail["run_walls_s"] = walls
    # An operation is one run, so qps and the latency quantiles describe the
    # same walls as run_s; they are kept so that every workload reports
    # every end-to-end metric. qps is the rate at the median wall: one run
    # caught in a slow phase of the host would otherwise move a mean of a
    # dozen runs.
    return {
        "run_s": statistics.median(walls),
        "qps": 1.0 / statistics.median(walls),
        "query_p50_s": statistics.median(walls),
        "query_tail_s": tail_value,
        "read_mib": read / MIB,
        "write_mib": write / MIB,
        "setup_s": statistics.median(setup_times),
    }, detail


def engine_layers(good, spec, dataset, work, detail):
    traced_runs = [r for r in good if r["traced"]]
    plain_runs = [r for r in good if not r["traced"]]
    if not traced_runs or not plain_runs:
        raise BenchError("need at least one traced and one untraced run")
    # The ledger shown is the traced run with the median wall time.
    by_wall = sorted(traced_runs, key=lambda r: r["wall_s"])
    detail["ledger"] = by_wall[(len(by_wall) - 1) // 2]["ledger"]

    def med(fn):
        return statistics.median(fn(r) for r in traced_runs)

    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, names in SPAN_METRICS.items():
        metrics[metric] = med(
            lambda r, names=names: ledger.span_seconds(r["ledger"], names))
    for metric in ("unattributed_s", "outside_spans_s"):
        metrics["core." + metric] = med(lambda r, m=metric: r["ledger"][m])
    for metric, fn in REPORT_METRICS.items():
        metrics[metric] = med(lambda r, fn=fn: fn(r["report"]))
    metrics["peak_rss_mib"] = max(r["rss_mib"] for r in plain_runs)
    metrics["core.buffer_hit_rate"] = med(
        lambda r: r["report"]["buffer"]["hit_rate"])
    metrics["core.buffer_evictions"] = med(
        lambda r: r["report"]["metrics"]["gauges"].get("buffer.evictions", 0))
    read_mib = med(lambda r: report_bytes(r["report"])[0]) / MIB
    metrics.update(probe_metrics(dataset, spec["weights"], read_mib, work,
                                 detail))
    traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
    plain_wall = statistics.median(r["wall_s"] for r in plain_runs)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics


# --- serve-bfs -----------------------------------------------------------------

class Daemon:
    """A `graphsd serve` process; stopped and reaped by stop()."""

    def __init__(self, spec, workdir):
        self.socket_path = os.path.relpath(
            os.path.join(workdir, "serve.sock"), os.getcwd())
        self.pid = spawn([CLI, "serve", "--socket", self.socket_path,
                          *spec["serve"], "--buffer-mb", str(spec["buffer_mb"]),
                          "--device", DEVICE],
                         os.path.join(workdir, "serve.log"))
        self.rss_mib = None
        deadline = time.monotonic() + 30
        while True:
            try:
                self.request({"id": 0, "op": "ping"})
                return
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("graphsd serve did not come up")
                time.sleep(0.02)

    def connect(self):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(120)
        conn.connect(self.socket_path)
        return conn

    def request(self, message):
        with self.connect() as conn:
            conn.sendall((json.dumps(message) + "\n").encode())
            return json.loads(conn.makefile("rb").readline())

    def snapshot(self):
        """The `stats` op plus the kernel's I/O accounting of the daemon:
        read_bytes counts what it read from storage, O_DIRECT reads
        included; write_bytes what it wrote, checkpoints included."""
        stats = self.request({"id": 0, "op": "stats"})
        with open("/proc/%d/io" % self.pid) as f:
            stats["proc_io"] = {key: int(value) for key, value in
                                (line.split(":") for line in f)}
        return stats

    def stop(self):
        if self.pid is None:
            return
        try:
            self.request({"id": 0, "op": "shutdown"})
        except (OSError, ValueError):
            os.kill(self.pid, signal.SIGTERM)
        _, self.rss_mib = reap(self.pid)
        self.pid = None


def bfs_reference(graph, seed, roots, workdir):
    path = os.path.join(workdir, "bfs_reference.bin")
    run_checked([PROBE, "bfs", "--graph", graph, "--seed", str(seed),
                 "--roots", str(roots), "--out", path],
                os.path.join(workdir, "bfs_reference.log"))
    raw = array.array("I")
    with open(path, "rb") as f:
        raw.frombytes(f.read())
    count = raw[0]
    root_list = list(raw[1:1 + count])
    levels = raw[1 + count:]
    return root_list, levels


UNREACHED_LEVEL = 0xFFFFFFFF


def bfs_answer_ok(response, vertices, levels, offset):
    if not response.get("ok") or response.get("cancelled"):
        return False
    if response.get("value_vertices") != vertices:
        return False
    for v, text in zip(vertices, response.get("values", [])):
        value = float.fromhex(text)
        expected = levels[offset + v]
        if expected == UNREACHED_LEVEL:
            if value < 2.0 ** 32:
                return False
        elif value != float(expected):
            return False
    return len(response.get("values", [])) == len(vertices)


def daemon_starter(spec):
    """A setup() hook: starts the daemon and sends the warm-up query, which
    opens and verifies the dataset."""
    def start(dataset, workdir):
        daemon = Daemon(spec, workdir)
        try:
            warm = daemon.request({"id": 1, "op": "run", "dataset": dataset,
                                   "algo": "bfs", "root": 0})
            if not warm.get("ok"):
                raise BenchError("warm-up query failed: %s" % warm)
        except BaseException:
            daemon.stop()
            raise
        return daemon
    return start


def closed_loop(daemon, dataset, roots, levels, n, spec, seed, seconds):
    """`connections` clients, each sending its next query after the reply."""
    deadline = time.perf_counter() + seconds
    records = []
    lock = threading.Lock()
    errors = []

    def client(index):
        rng = random.Random(seed * 1000 + index)
        try:
            with daemon.connect() as conn:
                reader = conn.makefile("rb")
                query = 0
                while time.perf_counter() < deadline:
                    k = rng.randrange(len(roots))
                    vertices = rng.sample(range(n), spec["sample_vertices"])
                    message = {"id": index * 1000000 + query, "op": "run",
                               "dataset": dataset, "algo": "bfs",
                               "root": roots[k], "values": True,
                               "vertices": vertices}
                    sent = time.perf_counter()
                    conn.sendall((json.dumps(message) + "\n").encode())
                    line = reader.readline()
                    latency = time.perf_counter() - sent
                    response = json.loads(line) if line else {}
                    record = {"latency_s": latency, "response": response,
                              "ok": bfs_answer_ok(response, vertices, levels,
                                                  k * n)}
                    with lock:
                        records.append(record)
                    query += 1
        except (OSError, ValueError) as e:
            with lock:
                errors.append(repr(e))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(spec["connections"])]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return records, elapsed, errors


def serve_workload(spec, seed, seconds, traced, work):
    setup_times, graph, dataset, daemon = setup(spec, seed, work,
                                                daemon_starter(spec))
    try:
        roots, levels = bfs_reference(graph, seed, spec["roots"], work)
        n = len(levels) // len(roots)
        settle(graph, dataset)
        before = daemon.snapshot()
        records, elapsed, errors = closed_loop(
            daemon, dataset, roots, levels, n, spec, seed, seconds)
        after = daemon.snapshot()
    finally:
        daemon.stop()
    if errors:
        raise BenchError("client connection failed: %s" % errors[0])
    facts = dataset_facts(dataset)
    facts["buffer_bytes"] = spec["buffer_mb"] * 1024 * 1024
    good = [r for r in records if r["ok"]]
    detail = {"setup_times_s": setup_times, "dataset": facts,
              "operations": len(records),
              "failed": len(records) - len(good),
              "connections": spec["connections"], "roots": roots}
    if not good:
        return None, detail
    # The members of one batch share one engine run and carry its report.
    runs = list({json.dumps(r["response"]["report"], sort_keys=True):
                 r["response"]["report"] for r in good}.values())
    for report in runs:
        refuse_modeled(report)
    # Run reports count I/O and buffer lookups on the dataset's shared device
    # and buffer, so concurrent runs see each other's traffic. Bytes and hit
    # rate come from the whole loop instead: the daemon's kernel I/O counters
    # and the stats op.
    io0, io1 = before["proc_io"], after["proc_io"]
    read = (io1["read_bytes"] - io0["read_bytes"]) / len(records)
    write = (io1["write_bytes"] - io0["write_bytes"]) / len(records)
    # The daemon's run reports carry no device metrics.
    detail["device_counters"] = {"bounce_reads": None, "vectored_reads": None}
    latencies = [r["latency_s"] for r in good]
    if not traced:
        tail_value, tail_pct, tail_beyond = ledger.tail(latencies)
        detail["tail"] = {"percentile": tail_pct, "samples": len(latencies),
                          "samples_beyond": tail_beyond}
        return {
            "run_s": statistics.median(
                rep["seconds"]["total"] for rep in runs),
            "qps": len(good) / elapsed,
            "query_p50_s": statistics.median(latencies),
            "query_tail_s": tail_value,
            "read_mib": read / MIB,
            "write_mib": write / MIB,
            "setup_s": statistics.median(setup_times),
        }, detail

    def per_query(fn):
        return sum(fn(rep) for rep in runs) / len(good)

    s0, s1 = before["service"], after["service"]
    b0, b1 = before["buffer"], after["buffer"]
    hits = b1["hits"] - b0["hits"]
    lookups = hits + b1["misses"] - b0["misses"]
    hit_rate = hits / lookups if lookups else 0.0
    run_requests = s1["run_requests"] - s0["run_requests"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, fn in {**REPORT_METRICS, **SERVE_SPAN_STAND_INS}.items():
        metrics[metric] = per_query(fn)
    # Read operations share the reports' overlap with the bytes, so they are
    # scaled to the loop's measured bytes by the reports' bytes per read.
    report_read = sum(report_bytes(rep)[0] for rep in runs)
    if report_read:
        metrics["io.read_ops"] = (read * sum(REPORT_METRICS["io.read_ops"](rep)
                                             for rep in runs) / report_read)
    metrics.update({
        "peak_rss_mib": daemon.rss_mib,
        "service.queue_wait_s": statistics.median(
            r["latency_s"] - r["response"]["report"]["seconds"]["total"]
            for r in good),
        "service.engine_s": statistics.median(
            r["response"]["report"]["seconds"]["total"] for r in good),
        "service.batch_width_mean": statistics.mean(
            r["response"]["batch_width"] for r in good),
        "service.runs_per_query": (s1["runs"] - s0["runs"]) / run_requests,
        "service.shared_hit_rate": hit_rate,
        "service.admission_rejections":
            s1["admission_rejections"] - s0["admission_rejections"],
        "core.buffer_hit_rate": hit_rate,
        "core.buffer_evictions":
            (b1["evictions"] - b0["evictions"]) / run_requests,
    })
    metrics.update(probe_metrics(dataset, False, read / MIB, work, detail))
    return metrics, detail


# --- output ------------------------------------------------------------------

def print_ledger(book):
    print("ledger of the median traced run (self seconds per span):")
    for role in ("consumer", "loader"):
        for name, seconds in sorted(book[role].items(), key=lambda kv: -kv[1]):
            print("  %-8s %-20s %9.4f s  %5.1f %%" % (
                role, name, seconds, 100.0 * seconds / book["run_s"]))
    print("  %-29s %9.4f s  %5.1f %%" % (
        "core.unattributed_s", book["unattributed_s"],
        100.0 * book["unattributed_s"] / book["run_s"]))
    print("    of which outside the span window %9.4f s" %
          book["outside_spans_s"])
    print("  consumer self + unattributed = %.6f s = run_s %.6f s" % (
        book["consumer_s"] + book["unattributed_s"], book["run_s"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("perfbench: %s is not a graphsd source tree" % REPO)
        return 2
    os.chdir(REPO)
    started = time.perf_counter()
    try:
        build()
        work = os.path.join(WORK_ROOT, "%s-s%d-%d" % (
            args.workload, args.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            spec = WORKLOADS[args.workload]
            if args.workload == "serve-bfs":
                metrics, detail = serve_workload(
                    spec, args.seed, args.seconds, args.trace == 1, work)
            else:
                metrics, detail = engine_workload(
                    spec, args.seed, args.seconds, args.trace == 1, work)
            detail["host"] = fingerprint(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2

    attempted, failed = detail["operations"], detail["failed"]
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fail_frac=failed / attempted if attempted else 1.0,
                  elapsed_s=time.perf_counter() - started)
    if metrics is None:
        metrics = {}
    names = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in names if m not in metrics]
    if missing and not failed:
        log("perfbench: metrics not measured: %s" % missing)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": UNITS[m]}
                    for m in names if m in metrics},
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"result": result, "detail": detail}, f, indent=1)

    print("workload %s  seed %d  host %s" % (
        args.workload, args.seed, json.dumps(detail["host"])))
    print("dataset %s  setup runs %s" % (
        json.dumps(detail["dataset"]),
        " ".join("%.3f" % t for t in detail["setup_times_s"])))
    if "device_counters" in detail:
        print("device counters %s" % json.dumps(detail["device_counters"]))
    if "tail" in detail:
        print("tail %s" % json.dumps(detail["tail"]))
    print("operations %d  failed %d  fail_frac %.4f" % (
        attempted, failed, detail["fail_frac"]))
    for name in names:
        if name in metrics:
            print("  %-30s %14.6f %s" % (name, metrics[name], UNITS[name]))
    if "ledger" in detail:
        print_ledger(detail["ledger"])
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
