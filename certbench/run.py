#!/usr/bin/env python3
"""The certificate benchmark: end-to-end and per-layer cost of a certificate.

Run from the repository root:

  python3 certbench/run.py --workload relay6-sym --seed 1 --seconds 10 --trace 0
  python3 certbench/run.py --self-check

The first call builds the engine from source with CMake (into
$CARGO_TARGET_DIR, default .bench_build). Every later call reuses it.

--trace 0 measures the end-to-end metrics with no observability attached.
--trace 1 is the staged, traced run: it reports the per-layer metrics and
writes the run's spans to <build>/spans/. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. A readable table of
every metric, with its unit, goes to stderr. The exit code is 1 when any
certificate or job fails its correctness check, and 2 when the benchmark
cannot run at all (no engine sources, a build failure).

Workloads, the reasons they were chosen, and the layer-to-metric
predictions are in certbench/README.md.
"""

import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
CHILD_TIMEOUT_S = 150

# The summary every relay certificate prints (the Lemma-7 case of the hook
# classification, then the gamma run failing P0 and P1).
RELAY_SUMMARY = (
    "TERMINATION VIOLATION -- gamma construction (e(alpha) and e(e'(alpha)) "
    "are k-similar for k=S100 (Lemma 7 applies)): after failing J = f+1 "
    "processes and letting the silenced services take dummy steps, the fair "
    "execution never decides [failed: {0,1}]")


def relay_valences(n):
    return ["0-valent"] + ["bivalent"] * (n - 1) + ["1-valent"]


# One-shot workloads: one certificate per fresh process. `limit_ms` is the
# latency limit behind served_in_limit; `pinned` is what every certificate
# must reproduce.
ONE_SHOT = {
    "relay6-sym": {
        "spec": {"candidate": "relay", "n": 6, "f": 1, "threads": 1,
                 "symmetry": "auto", "por": "auto"},
        "limit_ms": 5000,
        "pinned": {"verdict": "termination_violation",
                   "summary": RELAY_SUMMARY, "valences": relay_valences(6),
                   "states": 2042},
    },
    "relay7-por": {
        "spec": {"candidate": "relay", "n": 7, "f": 1, "threads": 1,
                 "symmetry": "off", "por": "auto"},
        "limit_ms": 4000,
        "pinned": {"verdict": "termination_violation",
                   "summary": RELAY_SUMMARY, "valences": relay_valences(7),
                   "states": 101860},
    },
    "relay7-full-t4": {
        "spec": {"candidate": "relay", "n": 7, "f": 1, "threads": 4,
                 "symmetry": "off", "por": "off"},
        "limit_ms": 30000,
        "pinned": {"verdict": "termination_violation",
                   "summary": RELAY_SUMMARY, "valences": relay_valences(7),
                   "states": 990778},
    },
}

# served-mix: an open loop of submits at a fixed rate against one
# boosting_served at its default flags. Specs in popularity order; the job
# stream is a sequence of blocks, each holding spec i `per_block[i]` times
# in an order shuffled by the seed. Eleven specs against the server's eight
# cached contexts, so warm reuse, cold builds and evictions all occur.
# Fixing each block's make-up keeps the offered work the same across seeds;
# the seed moves only the order. The skew toward the two smallest specs and
# the rate (the one worker is busy ~15-25% of the time) keep most jobs
# unqueued, so the median sits on the server's one-tick latency plateau
# instead of jumping between 10 ms tick steps from seed to seed.
# The four once-per-block specs are the slow ones (~0.1-0.2 s). They take
# evenly spaced slots, so that every seed queues about as many jobs behind
# them, and recur one block apart, so all ten other specs come between two
# runs of one and it is always evicted and built cold. The tail (about the
# 11th slowest job) then falls inside these sixteen cold builds. Relay n=5
# (~0.3-0.4 s cold) is left out: its four jobs and the jobs queued behind
# them filled most of the top ten, so the tail was the third slowest of the
# other cold builds, and it spread 0.10-0.19 between seeds, not 0.08-0.14.
SERVED_MIX = {
    "rate_per_s": 6.5,
    "limit_ms": 500.0,
    "specs": [
        {"candidate": "bridge", "n": 3, "f": 1},
        {"candidate": "relay", "n": 3, "f": 1},
        {"candidate": "relay", "n": 4, "f": 1},
        {"candidate": "bridge", "n": 4, "f": 1},
        {"candidate": "relay", "n": 3, "f": 0},
        {"candidate": "relay", "n": 4, "f": 0},
        {"candidate": "relay", "n": 4, "f": 2},
        {"candidate": "tob", "n": 3, "f": 1},
        {"candidate": "bridge", "n": 5, "f": 1},
        {"candidate": "flooding", "n": 3, "f": 1},
        {"candidate": "single-fd", "n": 3, "f": 0},
    ],
    "per_block": [40, 20, 4, 3, 2, 2, 2, 1, 1, 1, 1],
}

WORKLOADS = list(ONE_SHOT) + ["served-mix"]
SETUP_LAUNCHES = 20  # extra set-up-only launches per run, for setup_s
SERVER_SETUP_LAUNCHES = 20

# The calibration kernel's median time (`certbench_harness calibrate`) on the
# 4-vCPU Xeon VM the bounds in BENCHMARK.json were set on. CPU-bound timings
# are reported at this host speed; see HostSpeed.
CALIB_REF_S = 0.030
CALIB_EVERY_GAP = 2  # served-mix: one kernel run per this many idle gaps


class BenchError(Exception):
    """The benchmark cannot run (exit 2, no result line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- Build ------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(REPO, d)


def build():
    """Configure (once) and build the harness and the server; returns
    (harness, server) paths."""
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("no engine sources next to certbench/ "
                         "(expected src/CMakeLists.txt)")
    out = os.path.join(build_dir(), "certbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        _run_build(["cmake", "-S", BENCH_DIR, "-B", out, *gen,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    _run_build(["cmake", "--build", out, "--target", "certbench_harness",
                "boosting_served", "-j", jobs])
    harness = os.path.join(out, "certbench_harness")
    server = os.path.join(out, "boosting", "tools", "boosting_served")
    for p in (harness, server):
        if not os.access(p, os.X_OK):
            raise BenchError(f"build produced no {p}")
    return harness, server


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def _run_build(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


# -- Statistics -------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile p in [0, 100] of a non-empty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values):
    """(percentile, value): the highest percentile, in steps of 0.1 and at
    most p99.9, with at least ten samples beyond it. With fewer than 20
    samples that percentile would lie below the median, so the tail is the
    maximum (p100) instead."""
    if len(values) < 20:
        return 100.0, max(values)
    p = min(99.9, int(1000 * (1 - 10 / len(values))) / 10)
    return p, percentile(values, p)


def ratio(num, den):
    return num / den if den else 0.0


# -- Child processes --------------------------------------------------------

def spec_args(spec):
    args = ["--candidate", spec["candidate"], "--n", str(spec["n"]),
            "--f", str(spec["f"])]
    for key in ("threads", "symmetry", "por"):
        if key in spec:
            args += [f"--{key}", str(spec[key])]
    return args


def run_child(cmd):
    """Run one process to completion. Returns (parsed last stdout line, or
    None when it failed; peak RSS in MiB from wait4; wall seconds from
    launch to exit)."""
    launch_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--launch-ns", str(launch_ns)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = (time.monotonic_ns() - launch_ns) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    lines = out.decode().strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        log(f"child failed (exit {proc.returncode}): {' '.join(cmd)}\n"
            f"{err.decode()[-2000:]}")
    return result, usage.ru_maxrss / 1024.0, wall


class HostSpeed:
    """Samples of the harness's calibration kernel, taken all through a run.

    On a shared host the same certificate runs up to 1.7x slower for
    minutes at a time, longer than a run, and the kernel slows with it.
    A factor turns a CPU-bound time measured in this run into seconds at
    the reference host speed: time * CALIB_REF_S / (kernel time)."""

    def __init__(self, harness):
        self.harness = harness
        self.times = []
        self.stamps = []  # monotonic time at the end of each sample

    def sample(self):
        res, _, _ = run_child([self.harness, "calibrate"])
        if res is None:
            raise BenchError("calibration kernel failed")
        self.times.append(res["calib_s"])
        self.stamps.append(time.monotonic())

    def scale(self):
        """The factor for the run as a whole, from the median sample."""
        median = statistics.median(self.times)
        log(f"  host speed: calibration kernel median {median * 1e3:.2f} ms "
            f"over {len(self.times)} samples; run-wide factor "
            f"{CALIB_REF_S / median:.4f}")
        return CALIB_REF_S / median

    def around(self, start, end):
        """The factor for work done between monotonic times `start` and
        `end`, from the last sample before it and the first after it: the
        host's speed also changes within a run, for seconds at a time."""
        i = bisect.bisect_right(self.stamps, start) - 1
        j = bisect.bisect_left(self.stamps, end)
        near = [self.times[k] for k in (i, j) if 0 <= k < len(self.times)]
        return CALIB_REF_S * len(near) / sum(near)


def check_cert(result, pinned):
    """'' when a cert/traced-cert result matches its pinned values and its
    witness replayed cleanly, else the first mismatch."""
    if result is None:
        return "no result"
    for key in ("verdict", "summary", "valences", "states"):
        if result.get(key) != pinned[key]:
            return f"{key}: got {result.get(key)!r}, pinned {pinned[key]!r}"
    if result.get("witness_error"):
        return "witness: " + result["witness_error"]
    return ""


# -- The served-mix session -------------------------------------------------

def wire(obj):
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


class ServerSession:
    """One boosting_served over stdio. A reader thread timestamps every
    event line on arrival."""

    def __init__(self, server):
        self.launch = time.monotonic()
        self.proc = subprocess.Popen([server], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.events = []
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            now = time.monotonic()
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                continue
            with self.cond:
                self.events.append((now, ev))
                self.cond.notify_all()

    def send(self, obj):
        self.proc.stdin.write(wire(obj))
        self.proc.stdin.flush()

    def wait_for(self, pred, timeout):
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                for t, ev in self.events:
                    if pred(ev):
                        return t, ev
                left = deadline - time.monotonic()
                if left <= 0:
                    return None, None
                self.cond.wait(left)

    def results(self):
        with self.cond:
            return {ev["id"]: (t, ev) for t, ev in self.events
                    if ev.get("ev") == "result"}

    def ping(self):
        """Seconds from launch until the first pong."""
        self.send({"op": "ping"})
        t, _ = self.wait_for(lambda ev: ev.get("ev") == "pong", 30)
        if t is None:
            self.proc.kill()
            self.close()
            raise BenchError("server never answered ping")
        return t - self.launch

    def close(self):
        """EOF on stdin (drain shutdown); returns the server's peak RSS in
        MiB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        return usage.ru_maxrss / 1024.0


def draw_jobs(seed, count):
    """Whole blocks of the mix, at least one, up to `count` jobs. In each
    block the once-per-block specs sit in evenly spaced slots, in one seeded
    order for the whole run (so each recurs exactly one block later), and
    the rest fill the other slots, shuffled anew per block."""
    rng = random.Random(seed)
    pairs = list(zip(SERVED_MIX["specs"], SERVED_MIX["per_block"]))
    slow = [spec for spec, k in pairs if k == 1]
    rest = [spec for spec, k in pairs if k > 1 for _ in range(k)]
    size = len(slow) + len(rest)
    slots = {size * i // len(slow) for i in range(len(slow))}
    rng.shuffle(slow)
    jobs = []
    for _ in range(max(1, count // size)):
        rng.shuffle(rest)
        s, r = iter(slow), iter(rest)
        jobs += [next(s) if i in slots else next(r) for i in range(size)]
    return jobs


def run_open_loop(server, jobs, rate, speed=None):
    """Send `jobs` as an open loop at `rate` per second; job k is due at
    start + k / rate whatever happened to earlier jobs. With `speed`, every
    CALIB_EVERY_GAP-th wait of at least 0.1 s before a send first takes a
    calibration sample. Returns per-job records, the server's cache stats,
    its peak RSS, its set-up time and the time the loop started."""
    sess = ServerSession(server)
    setup = sess.ping()
    start = time.monotonic() + 0.05
    sent = []
    gaps = 0
    for k, spec in enumerate(jobs):
        due = start + k / rate
        if speed and due - time.monotonic() >= 0.1:
            gaps += 1
            if gaps % CALIB_EVERY_GAP == 0:
                speed.sample()
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sess.send({"op": "submit", "id": f"j{k}", **spec})
        sent.append((due, time.monotonic()))
    deadline = time.monotonic() + 90
    while len(sess.results()) < len(jobs) and time.monotonic() < deadline:
        time.sleep(0.01)
    sess.send({"op": "stats"})
    _, stats = sess.wait_for(lambda ev: ev.get("ev") == "stats", 30)
    results = sess.results()
    rss = sess.close()
    records = []
    for k, spec in enumerate(jobs):
        due, at = sent[k]
        arrival, ev = results.get(f"j{k}", (None, None))
        records.append({"id": f"j{k}", "spec": spec, "due": due,
                        "late_s": at - due, "arrival": arrival, "ev": ev})
    return records, stats or {}, rss, setup, start


def spec_key(spec):
    return (spec["candidate"], spec["n"], spec["f"])


def reference_summaries(harness, specs):
    """In-process analyzeConsensusCandidate of each distinct spec, at the
    server's defaults (threads 1, symmetry auto, POR auto)."""
    refs = {}
    for spec in specs:
        key = spec_key(spec)
        if key not in refs:
            res, _, _ = run_child([harness, "cert", *spec_args(spec)])
            refs[key] = res
    return refs


def judge_jobs(records, refs, limit_ms):
    """Latency from due time, pass/fail per job. A job passes when it ended
    `done` and its summary and state count equal the in-process run."""
    for r in records:
        ev, ref = r["ev"], refs.get(spec_key(r["spec"]))
        r["ok"] = bool(ev and ref and ev.get("status") == "done"
                       and ev.get("summary") == ref.get("summary")
                       and ev.get("states") == ref.get("states")
                       and not ref.get("witness_error"))
        r["latency_ms"] = ((r["arrival"] - r["due"]) * 1e3
                           if r["arrival"] is not None else float("inf"))
        r["in_limit"] = r["ok"] and r["latency_ms"] <= limit_ms
    return sum(not r["ok"] for r in records)


def serve_layer_metrics(records, stats):
    done = [r for r in records if r["ev"] and r["ev"].get("status") == "done"]
    exec_ms = [r["ev"]["wall_ms"] for r in done]
    warm = [r["ev"]["wall_ms"] for r in done if r["ev"].get("cache") == "warm"]
    cold = [r["ev"]["wall_ms"] for r in done if r["ev"].get("cache") != "warm"]
    queue = [r["latency_ms"] - r["ev"]["wall_ms"] for r in done]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    return {
        "serve.exec_ms_p50": med(exec_ms),
        "serve.queue_ms_p50": med(queue),
        "serve.warm_exec_ms_p50": med(warm),
        "serve.cold_exec_ms_p50": med(cold),
        "serve.warm_share": ratio(len(warm), len(done)),
        "serve.evictions": stats.get("cache_evictions", 0),
        "serve.bypasses": stats.get("cache_bypasses", 0),
        "loadgen.late_ms_max": max(r["late_s"] for r in records) * 1e3,
    }


def job_spans(records, origin):
    spans = []
    for r in records:
        if r["arrival"] is None:
            continue
        end = r["arrival"] - origin
        spans.append({"id": r["id"], "name": "job", "start": r["due"] - origin,
                      "end": end})
        if r["ev"] and "wall_ms" in r["ev"]:
            exec_start = end - r["ev"]["wall_ms"] / 1e3
            spans.append({"id": r["id"], "name": "serve.queue", "parent": "job",
                          "start": r["due"] - origin, "end": exec_start})
            spans.append({"id": r["id"], "name": "serve.exec", "parent": "job",
                          "start": exec_start, "end": end})
    return spans


# -- Workload runners -------------------------------------------------------

def latency_metrics(latencies_ms, in_limit, label):
    """The served_* figures of `latencies_ms`. `in_limit` is counted by the
    caller, on raw latency."""
    pct, tail_ms = tail(latencies_ms)
    log(f"  {label}: served_tail_ms is p{pct:g} of {len(latencies_ms)} ops; "
        f"p50 {statistics.median(latencies_ms):.2f} ms, "
        f"tail {tail_ms:.2f} ms")
    return {"served_p50_ms": statistics.median(latencies_ms),
            "served_tail_ms": tail_ms,
            "served_in_limit": ratio(in_limit, len(latencies_ms))}


def one_shot_e2e(harness, wl, seconds):
    """Certificates in fresh processes, back to back, until `seconds` have
    passed, each between two calibration samples. A certificate's served
    latency is its process's wall time from launch to exit: what a user of
    the one-shot CLI waits. Every timing is CPU-bound and is rescaled: a
    certificate's by the samples around it, set-up by the run-wide factor."""
    cfg = ONE_SHOT[wl]
    args = spec_args(cfg["spec"])
    speed = HostSpeed(harness)
    setups = []
    for _ in range(SETUP_LAUNCHES):
        res, _, _ = run_child([harness, "setup", *args])
        if res is None:
            raise BenchError("set-up launch failed")
        setups.append(res["setup_s"])
    certs = []
    t0 = time.monotonic()
    speed.sample()
    while not certs or time.monotonic() - t0 < seconds:
        launch = time.monotonic()
        res, rss, wall = run_child([harness, "cert", *args])
        speed.sample()
        factor = speed.around(launch, launch + wall)
        problem = check_cert(res, cfg["pinned"])
        if problem:
            log(f"  {wl} certificate {len(certs)}: {problem}")
        else:
            setups.append(res["setup_s"])
            log(f"  {wl} certificate {len(certs)}: {res['cert_s']:.4f} s, "
                f"{rss:.1f} MB, {wall * 1e3:.1f} ms launch to exit, "
                f"host factor {factor:.4f}")
        certs.append({"ok": not problem, "cert_s": res and res["cert_s"],
                      "rss": rss, "latency_ms": wall * 1e3, "factor": factor})
    good = [c for c in certs if c["ok"]]
    failed = len(certs) - len(good)
    if not good:
        return len(certs), failed, {}
    setup_s = statistics.median(setups)
    log(f"  {wl}: raw cert_s {statistics.median(c['cert_s'] for c in good):.4f}"
        f" s over {len(good)} certificates, raw setup_s "
        f"{setup_s * 1e3:.3f} ms")
    metrics = {
        "cert_s": statistics.median(c["cert_s"] * c["factor"] for c in good),
        "peak_rss_mb": statistics.median(c["rss"] for c in good),
        "setup_s": setup_s * speed.scale(),
    }
    in_limit = sum(c["latency_ms"] <= cfg["limit_ms"] for c in good)
    latency_metrics([c["latency_ms"] for c in certs], in_limit, wl + " raw")
    metrics.update(latency_metrics(
        [c["latency_ms"] * c["factor"] for c in certs], in_limit, wl))
    return len(certs), failed, metrics


def served_e2e(tools, seed, seconds):
    """The open loop against one server. Set-up time is the median over
    several launches of launch-to-first-pong. The median job latency is
    mostly a wait for the server's 10 ms result tick, not CPU work, and is
    reported raw. The in-server job time and the tail (cold builds and the
    jobs queued behind them) are rescaled job by job, by the samples taken
    around each job; set-up by the run-wide factor."""
    harness, server = tools
    rate = SERVED_MIX["rate_per_s"]
    jobs = draw_jobs(seed, int(seconds * rate))
    speed = HostSpeed(harness)
    setups = []
    for _ in range(SERVER_SETUP_LAUNCHES):
        sess = ServerSession(server)
        setups.append(sess.ping())
        sess.close()
    speed.sample()
    records, stats, rss, setup, origin = run_open_loop(server, jobs, rate,
                                                       speed)
    speed.sample()
    setups.append(setup)
    refs = reference_summaries(harness, jobs)
    failed = judge_jobs(records, refs, SERVED_MIX["limit_ms"])
    for r in records:
        if not r["ok"]:
            log(f"  served-mix job {r['id']} {spec_key(r['spec'])}: ended "
                f"{(r['ev'] or {}).get('status', 'without a result')} or "
                f"differs from the in-process run")
    log(f"  served-mix: seed {seed}, {len(jobs)} jobs at {rate:g}/s, "
        f"latency limit {SERVED_MIX['limit_ms']:g} ms")
    for r in records:
        r["factor"] = (speed.around(r["due"], r["arrival"])
                       if r["arrival"] is not None else 1.0)
    done = [r for r in records if r["ev"] and r["ev"].get("status") == "done"]
    if not done:
        return len(records), failed, {}, (records, stats, origin)
    setup_s = statistics.median(setups)
    log(f"  served-mix: raw cert_s "
        f"{percentile([r['ev']['wall_ms'] for r in done], 25):.3f} ms "
        f"(lower quartile of {len(done)} jobs), raw setup_s "
        f"{setup_s * 1e3:.3f} ms")
    in_limit = sum(r["in_limit"] for r in records)
    metrics = {
        "cert_s": percentile([r["ev"]["wall_ms"] * r["factor"] for r in done],
                             25) / 1e3,
        "peak_rss_mb": rss,
        "setup_s": setup_s * speed.scale(),
    }
    metrics.update(latency_metrics([r["latency_ms"] for r in records],
                                   in_limit, "served-mix raw"))
    metrics["served_tail_ms"] = latency_metrics(
        [r["latency_ms"] * r["factor"] for r in records], in_limit,
        "served-mix")["served_tail_ms"]
    return len(records), failed, metrics, (records, stats, origin)


# -- Traced runs ------------------------------------------------------------

def registry_layers(reg, peak_rss_mb):
    """Per-layer figures from the counters the engine flushes into an
    obs::Registry during a traced certificate."""
    graph_bytes = (reg.get("graph.bytes_states", 0) +
                   reg.get("graph.bytes_edges", 0) +
                   reg.get("graph.bytes_index", 0))
    states = reg.get("graph.states_discovered", 0)
    dedup = reg.get("graph.dedup_hits", 0)
    cache = lambda k: sum(reg.get(p + k, 0) for p in ("cache.",
                                                       "explorer.cache."))
    return {
        "state_graph.bytes_per_state": ratio(graph_bytes, states),
        "state_graph.dedup_ratio": ratio(dedup, dedup + states),
        "mem.unattributed_mb": peak_rss_mb - graph_bytes / 2**20,
        "transition_cache.hit_rate": ratio(
            cache("enabled_hits") + cache("apply_hits"),
            cache("enabled_lookups") + cache("apply_lookups")),
    }


def traced_certificate(harness, spec, pinned, cert_id, spans):
    """Staged replay plus one traced certificate of one spec, each in its
    own process. Returns (layers, certificates failed out of 2, untraced
    cert_s, traced cert_s). Without pinned values (served-mix specs) the
    traced certificate is the reference the replay must agree with."""
    args = spec_args(spec)
    staged, _, _ = run_child([harness, "stages", *args])
    traced, rss, _ = run_child([harness, "traced-cert", *args])
    if staged is None or traced is None:
        return {}, 2, 0.0, 0.0
    want = pinned or {k: traced[k] for k in
                      ("verdict", "summary", "valences", "states")}
    failed = 0
    problem = check_cert(traced, want)
    if problem:
        log(f"  {cert_id}: traced certificate: {problem}")
        failed += 1
    if staged["summary"] != want["summary"]:
        log(f"  {cert_id}: staged replay's certificate differs")
        failed += 1
    layers = {k: v for k, v in staged["layers"].items()
              if not k.startswith(("sample.", "stages."))}
    layers.update(registry_layers(traced["registry"], rss))
    for sp in staged["spans"]:
        sp = dict(sp, id=cert_id, process="stages")
        if "parent" in sp:
            sp["parent"] = staged["spans"][sp["parent"]]["name"]
        spans.append(sp)
    return layers, failed, staged["cert_s"], traced["cert_s"]


def one_shot_traced(tools, wl, spans):
    """Staged replay and a traced certificate, then the same spec served
    twice by boosting_served (a burst of two: the first job builds the
    cached context, the second finds it warm)."""
    harness, server = tools
    cfg = ONE_SHOT[wl]
    layers, failed, untraced, traced = traced_certificate(
        harness, cfg["spec"], cfg["pinned"], f"{wl}/cert", spans)
    records, stats, _, _, origin = run_open_loop(
        server, [cfg["spec"]] * 2, rate=1e6)
    failed += judge_jobs(records, {spec_key(cfg["spec"]): cfg["pinned"]},
                         cfg["limit_ms"])
    spans.extend(job_spans(records, origin))
    layers.update(serve_layer_metrics(records, stats))
    layers["obs.trace_overhead"] = ratio(traced, untraced)
    return 2 + len(records), failed, layers


def served_traced(tools, seed, seconds, spans, layer_names):
    """The served-mix session for the serve.* layers, then each distinct
    spec of the mix certified once, staged and traced. Over the specs,
    seconds add up; per-state costs, ratios and rates are means."""
    harness, _ = tools
    attempted, failed, _, (records, stats, origin) = served_e2e(
        tools, seed, seconds)
    spans.extend(job_spans(records, origin))
    layers = serve_layer_metrics(records, stats)
    distinct = {spec_key(r["spec"]): r["spec"] for r in records}
    per_spec = []
    untraced_sum = traced_sum = 0.0
    for key, spec in sorted(distinct.items()):
        lay, bad, untraced, traced = traced_certificate(
            harness, spec, None, "served-mix/" + "-".join(map(str, key)),
            spans)
        attempted += 2
        failed += bad
        if lay:
            per_spec.append(lay)
            untraced_sum += untraced
            traced_sum += traced
    for name in layer_names:
        vals = [lay[name] for lay in per_spec if name in lay]
        if name in layers or not vals:
            continue
        additive = name.endswith("_s") or name == "parallel_explorer.steals"
        layers[name] = sum(vals) if additive else statistics.fmean(vals)
    layers["obs.trace_overhead"] = ratio(traced_sum, untraced_sum)
    return attempted, failed, layers


# -- Entry points -----------------------------------------------------------

def load_manifest():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args):
    tools = build()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_manifest()[kind]}
    spans = []
    if args.workload == "served-mix" and args.trace:
        attempted, failed, values = served_traced(
            tools, args.seed, args.seconds, spans, list(units))
    elif args.workload == "served-mix":
        attempted, failed, values, _ = served_e2e(tools, args.seed,
                                                  args.seconds)
    elif args.trace:
        attempted, failed, values = one_shot_traced(tools, args.workload,
                                                    spans)
    else:
        attempted, failed, values = one_shot_e2e(tools[0], args.workload,
                                                 args.seconds)

    missing = [n for n in units if n not in values]
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    if args.trace:
        out_dir = os.path.join(build_dir(), "spans")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, fh)
        log(f"  spans written to {path}")

    metrics = {n: {"value": float(values[n]), "unit": u}
               for n, u in units.items() if n in values}
    log(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}):")
    for n, m in metrics.items():
        log(f"  {n:34s} {m['value']:>14.6g} {m['unit']}")
    log(f"  {'ops_attempted':34s} {attempted:>14d} count")
    log(f"  {'ops_failed':34s} {failed:>14d} count")
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_check():
    """Runs every workload briefly through this same command, untraced and
    traced; fails on a missing metric name or unit, or on a correctness
    mismatch."""
    manifest = load_manifest()
    problems = []
    for wl in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in manifest["per_layer" if trace else "end_to_end"]}
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=REPO)
            tag = f"{wl} --trace {trace}"
            found = []
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                res = None
                found.append(f"no result line (exit {proc.returncode})")
            got = (res or {}).get("metrics", {})
            for name, unit in want.items():
                if res and name not in got:
                    found.append(f"metric {name} missing")
                elif res and got[name].get("unit") != unit:
                    found.append(f"{name} has unit {got[name].get('unit')!r}, "
                                 f"want {unit!r}")
            if res and set(got) - set(want):
                found.append(f"unexpected metrics {sorted(set(got) - set(want))}")
            if res and (not res.get("correct") or proc.returncode != 0):
                found.append(f"correctness check failed "
                             f"({res.get('failed')} of {res.get('attempted')})")
            log(f"self-check {tag}: {'FAIL' if found else 'ok'}")
            problems += [f"{tag}: {f}" for f in found]
    for p in problems:
        log(p)
    log("self-check: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            build()
            return self_check()
        if not args.workload:
            ap.error("--workload is required")
        return run_workload(args)
    except BenchError as e:
        log(f"certbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
