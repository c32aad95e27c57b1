#!/usr/bin/env python3
"""pimsim-nn benchmark: host time per evaluation through the shipped tools.

    python3 perfbench/run.py --workload zoo_timing --seed 1 --seconds 30 --trace 0

Builds the simulator from source (Release, into .bench_build), generates the
workload's inputs from the seed, then drives the tools the way a user does:
one cold `pimsim` process per request, or one closed-loop client of a
`pimserved` daemon over its Unix socket. One request is in flight at a time.
Every reply is checked. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 spends part of the run on
the tool path, then replays the same requests in-process (bench_replay) with
a span around each call into a layer, and reports the per-layer metrics.
See perfbench/README.md for the workloads, the metrics and the A/B method.
"""
import argparse
import dataclasses
import hashlib
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")  # relative to ROOT, which is the working directory
TARGETS = ("pimsim", "pimserved", "pimwl", "bench_replay")
# setup_s is the median of at least this many set-ups, repeated until they
# also add up to SETUP_MIN_S, so a short set-up is timed often enough for a
# steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 4.0
# Share of --seconds a traced run spends on the tool path; the in-process
# replay of the same requests and its checks take about the rest.
TRACE_TOOL_SHARE = 0.4
# No new request starts this many seconds after the build, so a slow
# machine still ends a run inside the 180 s it may take.
HARD_LIMIT_S = 140
# A shared host's speed drifts by 15 to 25% over minutes, and every timing
# of a run moves with it; no run short enough for the time budget averages
# that out. Each run therefore also times a fixed reference loop, only while
# no process of the program is alive, and reports its timing metrics at the
# reference's nominal speed: a measured time times REF_NOMINAL_S over the
# median reference time, a measured rate the other way round. The nominal
# time is about the median on the machine the benchmark was sized on, so
# there adjusted figures read close to measured ones.
REF_ITERS = 200_000
REF_NOMINAL_S = 0.0197

END_TO_END = {
    "setup_s": "s",
    "req_ms.p50": "ms",
    "req_ms.p90": "ms",
    "sim_kinstr_per_s": "kinstr/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}
PIMSIM_SPANS = ("artifact.graph", "artifact.program", "nn.random_input",
                "workload.graph_fingerprint", "runtime.simulate", "runtime.report_json")
ARCH_COUNTS = ("kernel_events", "instructions", "noc_bytes", "rob_full_stalls",
               "sim_latency_ms")
STORE_COUNTS = ("graph_hits", "graph_misses", "program_hits", "program_misses", "evictions")
PER_LAYER = {
    "artifact.graph.self_ms": "ms",
    "artifact.graph.share": "ratio",
    "workload.bytes_parsed": "bytes",
    "workload.graph_fingerprint.self_ms": "ms",
    "workload.graph_fingerprint.share": "ratio",
    "artifact.program.self_ms": "ms",
    "artifact.program.share": "ratio",
    "runtime.simulate.self_ms": "ms",
    "runtime.simulate.share": "ratio",
    "arch.host_ns_per_event": "ns",
    "runtime.report_json.self_ms": "ms",
    "serve.evaluate_ms.p50": "ms",
    "serve.batch_ms.p50": "ms",
    "serve.warm_ms.p50": "ms",
    "serve.cold_ms.p50": "ms",
    "serve.reply_bytes": "bytes",
    **{f"artifact.{c}": "count" for c in STORE_COUNTS},
    "artifact.program_hit_ratio": "ratio",
    "arch.kernel_events": "count",
    "arch.instructions": "count",
    "arch.noc_bytes": "bytes",
    "arch.rob_full_stalls": "count",
    "arch.sim_latency_ms": "ms",
    "trace.unattributed_share": "ratio",
}


class Fail(Exception):
    """The benchmark cannot run at all: report, exit non-zero, print no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


_started = time.perf_counter()


def elapsed():
    """Seconds since the build finished."""
    return time.perf_counter() - _started


def reference_s():
    """Seconds one pass of the fixed reference loop takes on this host now."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(REF_ITERS):
        acc += k * k
    return time.perf_counter() - t0


def host_factor(reference_times):
    """How much slower than nominal the host ran: above 1 is slower."""
    return statistics.median(reference_times) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# Build and host facts
# ---------------------------------------------------------------------------

def cmake_cache(build_dir):
    entries = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        name, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            entries[name.split(":")[0]] = value
    return entries


def run_quiet(argv, what):
    proc = subprocess.run([str(a) for a in argv], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise Fail(f"{what} failed (exit {proc.returncode})")


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Fail(f"no pimsim-nn source tree at {ROOT}; the benchmark builds it from source")
    if not (build_dir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", BENCH, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                  "configure")
    build_type = cmake_cache(build_dir).get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise Fail(f"refusing to time a '{build_type or 'unset'}' build in {build_dir}: "
                   "only Release builds are timed")
    run_quiet(["cmake", "--build", build_dir, "-j", nproc(), "--target", *TARGETS], "build")


def host_facts(build_dir):
    cache = cmake_cache(build_dir)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cxx
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    # Identifies the simulator sources when there is no commit to name.
    digest = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*"), *(ROOT / "tools").rglob("*"),
                     ROOT / "CMakeLists.txt"]):
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"nproc": nproc(), "compiler": compiler, "build_type": cache["CMAKE_BUILD_TYPE"],
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Sample:
    """One request as the tool path saw it."""
    req: dict
    wall_ms: float
    error: str = None
    payload: bytes = b""  # pimsim stdout, or the served reply line
    instructions: int = 0
    rss_mb: float = 0.0
    fingerprint: str = ""


def spawn_wait(argv, out_path, err_path):
    """Run argv to exit; returns (exit code, wall ms, peak RSS MiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return os.waitstatus_to_exitcode(status), wall_ms, usage.ru_maxrss / 1024


def last_line(path):
    lines = Path(path).read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Workload:
    # Timed runs go on past --seconds, in whole rounds, until req_ms.p90 has
    # the samples beyond it that make it valid.
    SIZE_FOR_P90 = True
    # Set-ups the timed phase is split over, each serving an equal share of
    # --seconds; peak_rss_mb is the lowest of their peaks.
    SEGMENTS = 1
    # Reference passes timed before each request (no process of the program
    # is alive then), and between two daemons for a workload that keeps one.
    REF_PER_REQUEST = 1
    REF_BETWEEN_SEGMENTS = 0

    def __init__(self, name, seed, build_dir):
        self.name = name
        self.seed = seed
        self.build_dir = build_dir
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.first = {}  # request key -> payload of its first occurrence
        self.next_id = 0
        self.ref_s = []  # reference loop times over the run

    def time_reference(self, passes):
        """Times `passes` reference loops; returns the seconds they took."""
        times = [reference_s() for _ in range(passes)]
        self.ref_s += times
        return sum(times)

    def tool(self, name):
        return str(self.build_dir / "pimsim-nn" / name)

    def replay_bin(self):
        return str(self.build_dir / "bench_replay")

    def check_repeat(self, sample, payload_key):
        first = self.first.setdefault(sample.req["key"], payload_key)
        if first != payload_key:
            return ("differs from the first reply to this request: "
                    + str(metrics.report_mismatch(first, payload_key)))
        return None

    def run_replay(self, mode, requests, extra=()):
        req_path = self.work / "replay_requests.json"
        out_path = self.work / "replay_out.json"
        req_path.write_text(json.dumps({"requests": requests}))
        remaining = max(10.0, 175 - elapsed())
        try:
            proc = subprocess.run([self.replay_bin(), mode, "--requests", str(req_path),
                                   "--out", str(out_path), *extra],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise Fail(f"bench_replay {mode} did not finish in {remaining:.0f} s")
        if proc.returncode != 0:
            raise Fail(f"bench_replay {mode} failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(out_path.read_text())

    def finish(self):
        """End the timed phase (stops a daemon)."""

    def close(self):
        """Release whatever is still running, on any exit path."""


class PimsimWorkload(Workload):
    """One cold `pimsim --json` process per request."""

    def warm_up(self, *args):
        """One untimed pimsim run, so timed requests find the binary in memory."""
        code, _, _ = spawn_wait([self.tool("pimsim"), *args, "--json"],
                                self.work / "warmup.out", self.work / "warmup.err")
        if code != 0:
            raise Fail(f"warm-up pimsim run failed: {last_line(self.work / 'warmup.err')}")

    def send(self, req):
        argv = [self.tool("pimsim"), "--workload", req["workload"], "--arch", req["arch"],
                "--json"] + (["--functional"] if req["functional"] else [])
        out, err = self.work / "req.out", self.work / "req.err"
        code, wall_ms, rss_mb = spawn_wait(argv, out, err)
        s = Sample(req, wall_ms, rss_mb=rss_mb, payload=out.read_bytes())
        m = re.search(r"graph fingerprint ([0-9a-f]{16})", err.read_text(errors="replace"))
        s.fingerprint = m.group(1) if m else ""
        if code != 0:
            s.error = f"exit {code}: {last_line(err)}"
            return s
        try:
            report = json.loads(s.payload)
        except ValueError:
            s.error = "stdout is not a JSON report"
            return s
        s.instructions = report.get("instructions", 0)
        if report.get("finished") is not True:
            s.error = "report says finished: false"
        else:
            s.error = self.check_repeat(s, s.payload)
        return s

    def peak_rss_mb(self, samples):
        return max(s.rss_mb for s in samples)

    def replay(self, samples):
        requests = [{"id": s.req["id"], "workload": s.req["workload"], "arch": s.req["arch"],
                     "functional": s.req["functional"]} for s in samples]
        out = self.run_replay("pimsim", requests)
        for s, r in zip(samples, out["results"]):
            if s.error:
                continue
            if s.payload != (r["report"] + "\n").encode():
                s.error = ("tool and traced reports differ: "
                           + str(metrics.report_mismatch(s.payload.decode(), r["report"])))
            elif s.fingerprint != r["fingerprint"]:
                s.error = f"graph fingerprint {s.fingerprint} vs traced {r['fingerprint']}"
            elif r.get("output_ok") is False:
                s.error = "functional output differs from nn::execute_reference_output"
        return out

    def layer_metrics(self, samples, out):
        spans = out["spans"]
        self_ns = metrics.self_times_ns(spans)
        total = dict.fromkeys(PIMSIM_SPANS, 0)
        for span, ns in zip(spans, self_ns):
            if span["parent"] >= 0:
                total[span["name"]] += ns
        n = len(samples)
        tool_ns = sum(s.wall_ms for s in samples) * 1e6
        results = out["results"]
        events = sum(r["arch"]["kernel_events"] for r in results)
        m = {
            "workload.bytes_parsed": sum(r["bytes_parsed"] for r in results) / n,
            "arch.host_ns_per_event": total["runtime.simulate"] / events,
            "trace.unattributed_share": 1 - sum(total.values()) / tool_ns,
        }
        for name in ("artifact.graph", "workload.graph_fingerprint", "artifact.program",
                     "runtime.simulate", "runtime.report_json"):
            m[f"{name}.self_ms"] = total[name] / 1e6 / n
            m[f"{name}.share"] = total[name] / tool_ns
        for c in STORE_COUNTS:
            m[f"artifact.{c}"] = sum(r["store"][c] for r in results)
        return m


class ZooTiming(PimsimWorkload):
    def setup(self):
        self.arch_files = {}
        for rob in gen.ZOO_ROBS:
            path = self.work / f"paper_rob{rob}.json"
            run_quiet([self.replay_bin(), "arch", "--rob", rob, "--out", path],
                      f"writing the ROB {rob} config")
            self.arch_files[rob] = str(path)
        # The round's costliest pair: a set-up of a few process spawns alone
        # is too short to time steadily on a shared machine.
        self.warm_up("--workload", "resnet18", "--arch", self.arch_files[64])

    def rounds(self):
        return gen.zoo_rounds(self.seed, self.arch_files)


class FunctionalWeights(PimsimWorkload):
    # A valid p90 would take about 16 rounds (two minutes): more than a run
    # may last. The p90 is reported with its sample count and marked invalid.
    SIZE_FOR_P90 = False
    # About 25 requests a run: more passes each, for a steady median.
    REF_PER_REQUEST = 4

    def setup(self):
        self.graph_files = {}
        for model, weight_seed in gen.functional_weight_seeds(self.seed).items():
            path = self.work / f"{model}.json"
            run_quiet([self.tool("pimwl"), "--export", model, "--input-hw", 32,
                       "--seed", weight_seed, "--out", path], f"exporting {model}")
            self.graph_files[model] = str(path)
        self.warm_up("--workload", "mlp", "--arch", "tiny", "--input-hw", "8")

    def rounds(self):
        return gen.functional_rounds(self.seed, self.graph_files)


class ServeSweep(Workload):
    """One closed-loop client of a pimserved daemon over a Unix socket."""

    # The daemon's high-water mark depends on how many malloc arenas end up
    # keeping a freed functional global memory (16 MiB each), which varies
    # with thread timing from one daemon to the next. Retention only adds to
    # what the traffic needs, so the lowest mark of nine daemons is steady,
    # and memory the traffic does need raises every daemon's mark.
    SEGMENTS = 9
    # The daemon is alive during requests, so the reference runs between
    # daemons only.
    REF_PER_REQUEST = 0
    REF_BETWEEN_SEGMENTS = 8

    def __init__(self, *args):
        super().__init__(*args)
        self.plan = gen.ServePlan(self.seed)
        self.warm = []  # the last daemon's warm-up requests
        # Daemon workers plus this client stay within the machine's cores.
        self.jobs = max(1, nproc() - 1)
        self.daemon = None
        self.conn = None
        self.daemon_rss_mb = 0.0

    def setup(self):
        sock_path = self.work / "pimserved.sock"
        with open(self.work / "pimserved.log", "w") as log_file:
            self.daemon = subprocess.Popen(
                [self.tool("pimserved"), "--listen", str(sock_path), "--jobs", str(self.jobs)],
                stdout=subprocess.PIPE, stderr=log_file, text=True)
        ready = self.daemon.stdout.readline()
        if "listening on unix:" not in ready:
            raise Fail(f"pimserved did not come up: {last_line(self.work / 'pimserved.log')}")
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.conn.settimeout(120)
        self.conn.connect(str(sock_path))
        self.reader = self.conn.makefile("rb")
        self.warm = self.plan.warmup()
        for req in self.warm:
            s = self.send(req)
            if s.error:
                raise Fail(f"warm-up request failed: {s.error}")

    def rounds(self):
        return self.plan.rounds()

    def line(self, req):
        return json.dumps({"id": req["id"], **req["body"]}, separators=(",", ":"))

    def send(self, req):
        if "id" not in req:  # warm-up requests
            req["id"] = self.next_id
            self.next_id += 1
        data = (self.line(req) + "\n").encode()
        t0 = time.perf_counter()
        self.conn.sendall(data)
        reply = self.reader.readline()
        s = Sample(req, (time.perf_counter() - t0) * 1e3, payload=reply)
        if not reply:
            s.error = "daemon closed the connection"
            return s
        try:
            v = json.loads(reply)
        except ValueError:
            s.error = "reply is not JSON"
            return s
        if v.get("ok") is not True:
            s.error = f"refused: {json.dumps(v.get('error'))}"
        elif req["kind"] == "evaluate":
            s.instructions = v["report"]["instructions"]
            if v["report"].get("finished") is not True:
                s.error = "report says finished: false"
        else:
            scenarios = v["result"]["scenarios"]
            s.instructions = sum(x.get("instructions", 0) for x in scenarios)
            if not all(x.get("ok") for x in scenarios):
                s.error = "a scenario of the sweep failed"
        if s.error is None:
            s.error = self.check_repeat(s, metrics.normalize_reply(reply))
        return s

    def finish(self):
        """Shut the daemon down over the socket; keeps its peak RSS."""
        daemon, self.daemon = self.daemon, None
        self.conn.sendall(b'{"kind":"shutdown"}\n')
        self.reader.readline()
        self.reader.close()
        self.conn.close()
        self.conn = None
        _, status, usage = os.wait4(daemon.pid, 0)
        daemon.returncode = os.waitstatus_to_exitcode(status)
        daemon.stdout.close()
        self.daemon_rss_mb = usage.ru_maxrss / 1024
        if daemon.returncode != 0:
            raise Fail(f"pimserved exited {daemon.returncode}: "
                       f"{last_line(self.work / 'pimserved.log')}")

    def close(self):
        if self.conn is not None:
            self.conn.close()
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon.wait()
            self.daemon.stdout.close()
            self.daemon = None

    def peak_rss_mb(self, samples):
        return self.daemon_rss_mb

    def replay(self, samples):
        warm = [{"warmup": True, "line": self.line({"id": -1, "body": r["body"]}),
                 "key": r["key"]} for r in self.warm]
        timed = [{"id": s.req["id"], "line": self.line(s.req), "key": s.req["key"]}
                 for s in samples]
        out = self.run_replay("serve", warm + timed, ("--jobs", str(self.jobs)))
        for s, r in zip(samples, out["results"]):
            if s.error:
                continue
            if metrics.normalize_reply(s.payload) != metrics.normalize_reply(r["reply"]):
                s.error = "tool and traced replies differ"
            elif not r["output_ok"]:
                s.error = "a functional output differs from nn::execute_reference_output"
            elif not r["matches_direct_run"]:
                s.error = "reply differs from a direct BatchRunner run of the same scenarios"
        return out

    def layer_metrics(self, samples, out):
        handle_ns = {span["request"]: span["end_ns"] - span["start_ns"]
                     for span in out["spans"] if span["name"] == "serve.handle_line"}

        def p50_ms(keep):
            xs = [handle_ns[s.req["id"]] / 1e6 for s in samples if keep(s.req)]
            return metrics.percentile(xs, 0.5) if xs else 0.0

        tool_ns = sum(s.wall_ms for s in samples) * 1e6
        store = out["store"]
        m = {
            "serve.evaluate_ms.p50": p50_ms(lambda r: r["kind"] == "evaluate"),
            "serve.batch_ms.p50": p50_ms(lambda r: r["kind"] == "batch"),
            "serve.warm_ms.p50": p50_ms(lambda r: r["class"] == "warm"),
            "serve.cold_ms.p50": p50_ms(lambda r: r["class"] == "cold"),
            "serve.reply_bytes": statistics.mean(len(r["reply"]) for r in out["results"]),
            "trace.unattributed_share": 1 - sum(handle_ns.values()) / tool_ns,
        }
        for c in STORE_COUNTS:
            m[f"artifact.{c}"] = store[c]
        return m


WORKLOADS = {"zoo_timing": ZooTiming, "functional_weights": FunctionalWeights,
             "serve_sweep": ServeSweep}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_rounds(wl, seconds, size_for_p90, earlier=0):
    """Whole rounds until `seconds` have passed (and, with `size_for_p90`,
    until req_ms.p90 over these and `earlier` samples is valid); returns
    (samples, wall s without the reference loops)."""
    samples = []
    ref_s = 0.0
    t0 = time.perf_counter()
    rounds = wl.rounds()
    rnd = 0

    def done():
        return elapsed() > HARD_LIMIT_S or time.perf_counter() - t0 >= seconds and (
            not size_for_p90 or metrics.tail_is_valid(earlier + len(samples), 0.9))

    # The next round is drawn only once it will be sent: a serve plan goes on
    # from where the last segment stopped.
    while not done():
        for req in next(rounds):
            if elapsed() > HARD_LIMIT_S:
                break
            req["id"], req["round"] = wl.next_id, rnd
            wl.next_id += 1
            ref_s += wl.time_reference(wl.REF_PER_REQUEST)
            samples.append(wl.send(req))
        rnd += 1
    return samples, time.perf_counter() - t0 - ref_s


def timed_run(wl, seconds):
    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    def enough():
        later = wl.SEGMENTS - 1  # set-ups the later segments will add
        return (len(setup_s) + later >= SETUP_MIN_REPEATS and
                sum(setup_s) + later * statistics.median(setup_s) >= SETUP_MIN_S)

    # Set-ups that serve nothing, until the median will be steady. The last
    # one opens the first segment.
    wl.time_reference(wl.REF_BETWEEN_SEGMENTS)
    set_up()
    while not enough():
        wl.finish()
        wl.time_reference(wl.REF_BETWEEN_SEGMENTS)
        set_up()
    samples, wall_s, peaks = [], 0.0, []
    for seg in range(wl.SEGMENTS):
        if seg:
            set_up()
        last = seg == wl.SEGMENTS - 1
        got, wall = run_rounds(wl, seconds / wl.SEGMENTS, wl.SIZE_FOR_P90 and last,
                               earlier=len(samples))
        wl.finish()
        wl.time_reference(wl.REF_BETWEEN_SEGMENTS)
        if got:
            peaks.append(wl.peak_rss_mb(got))
        samples += got
        wall_s += wall
    if not samples:
        raise Fail("no request was sent")
    walls = [s.wall_ms for s in samples]
    failed = sum(1 for s in samples if s.error)
    instructions = sum(s.instructions for s in samples)
    factor = host_factor(wl.ref_s)
    measured = {
        "req_ms.p50": metrics.percentile(walls, 0.5),
        "req_ms.p90": metrics.percentile(walls, 0.9),
        "sim_kinstr_per_s": instructions / wall_s / 1e3,
    }
    values = {
        "setup_s": statistics.median(setup_s),
        "req_ms.p50": measured["req_ms.p50"] / factor,
        "req_ms.p90": measured["req_ms.p90"] / factor,
        "sim_kinstr_per_s": measured["sim_kinstr_per_s"] * factor,
        "peak_rss_mb": min(peaks),
        "ok_ratio": 1 - failed / len(samples),
    }
    n = len(samples)
    beyond = metrics.samples_beyond(n, 0.9)
    at = f"at nominal speed; measured {{:.6g}}, host {factor:.3f}x nominal time " \
         f"over {len(wl.ref_s)} reference passes"
    notes = {
        "setup_s": f"median of {len(setup_s)}, {min(setup_s):.4f} to {max(setup_s):.4f}",
        "req_ms.p50": f"n={n}; " + at.format(measured["req_ms.p50"]),
        "req_ms.p90": f"n={n}, {beyond} beyond: "
                      + ("valid" if metrics.tail_is_valid(n, 0.9) else
                         f"NOT valid (needs {metrics.MIN_BEYOND} beyond)")
                      + "; " + at.format(measured["req_ms.p90"]),
        "sim_kinstr_per_s": f"{instructions} instructions in {wall_s:.3f} s; "
                            + at.format(measured["sim_kinstr_per_s"]),
        "ok_ratio": f"failed_ratio {failed / n:g} ({failed}/{n})",
    }
    if len(peaks) > 1:
        notes["peak_rss_mb"] = f"lowest of {len(peaks)}: " + ", ".join(f"{x:.1f}" for x in peaks)
    return samples, values, END_TO_END, notes


def traced_run(wl, seconds):
    wl.setup()
    samples, _ = run_rounds(wl, seconds * TRACE_TOOL_SHARE, size_for_p90=False)
    wl.finish()
    if not samples:
        raise Fail("no request was sent")
    out = wl.replay(samples)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(wl.layer_metrics(samples, out))
    hits, misses = values["artifact.program_hits"], values["artifact.program_misses"]
    values["artifact.program_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # Simulated counts over the first round, which every run of a seed makes.
    for s, r in zip(samples, out["results"]):
        if s.req["round"] == 0:
            for c in ARCH_COUNTS:
                values[f"arch.{c}"] += r["arch"][c]
    return samples, values, PER_LAYER, {}


def main():
    global _started
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir", default=".bench_build",
                    help="CMake build directory, relative to the repository root")
    args = ap.parse_args()
    # A terminated run still stops its daemon (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = None
    try:
        os.chdir(ROOT)
        build_dir = Path(args.build_dir)
        build(build_dir)
        _started = time.perf_counter()
        print("host " + json.dumps(host_facts(build_dir)), flush=True)
        wl = WORKLOADS[args.workload](args.workload, args.seed, build_dir)
        run = traced_run if args.trace else timed_run
        samples, values, units, notes = run(wl, args.seconds)
    except Fail as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        if wl is not None:
            wl.close()

    failed = [s for s in samples if s.error]
    for s in failed[:10]:
        log(f"perfbench: request {s.req['id']} ({s.req['key'][:80]}) failed: {s.error}")
    print(f"perfbench: {args.workload} seed {args.seed}, trace {args.trace}: "
          f"{len(samples)} requests, {len(failed)} failed")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {values[name]:14.6g} {unit}{note}")
    print(json.dumps({"correct": not failed, "attempted": len(samples), "failed": len(failed),
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
