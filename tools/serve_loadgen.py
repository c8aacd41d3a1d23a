#!/usr/bin/env python3
"""Load driver and differential checker for boosting_served.

Two modes:

  --mode check (the CI service-smoke workhorse)
      For each spec in a small matrix (relay and flooding at n=3), run the
      one-shot CLI (boosting_analyze) and the resident server over the
      SAME spec -- twice each on the server so the second hit is
      warm-cache -- and assert the served verdicts are byte-identical to
      the CLI's:
      summary text, state count, witness action count, witness text and
      exit code. Also checks that an unknown submit key is refused with a
      diagnostic before any job is enqueued, and exercises queued-job
      cancellation (a cancel arriving in the same input burst as its
      submit deterministically finalizes the job cancelled before it ever
      runs), the drain
      shutdown op, and a TCP session whose client half-closes after
      sending (results must still arrive over the surviving write side).

  --mode throughput (the E10 experiment)
      Submit --jobs identical small-n jobs through one resident server
      session (warm cache after the first), measure sustained
      verdicts/minute end-to-end, and time --cold-runs one-shot CLI
      invocations of the same spec for the cold baseline. Emits a
      bench_json.h-shaped record pair (BM_ServeThroughputRelay3_mean /
      _median) carrying a verdicts_per_min counter (one-sided gate in
      compare_bench.py) plus warm/cold wall-clock counters, optionally
      merged into an existing BENCH_state_explore.json via --merge-into
      so the bench gate's presence check sees the record on both sides.

Exit: 0 on success; 1 with diagnostics on mismatch, server failure, or a
throughput below --min-verdicts-per-min.
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time


def wire(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def run_server(server, lines):
    """One stdio session: feed request lines, EOF, collect event objects."""
    proc = subprocess.run(
        [server],
        input="".join(lines), capture_output=True, text=True, timeout=600)
    events = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return proc.returncode, events, proc.stderr


def run_server_tcp(server, lines):
    """One TCP session over an ephemeral port. The client half-closes its
    write side after sending the whole burst (SHUT_WR: "done submitting,
    still reading"), so pending results must be delivered over the
    surviving write side before drain shutdown."""
    proc = subprocess.Popen(
        [server, "--listen", "tcp:127.0.0.1:0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        port = None
        for line in proc.stderr:
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            proc.kill()
            return -1, [], "server never announced a listening port"
        with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
            s.sendall("".join(lines).encode())
            s.shutdown(socket.SHUT_WR)
            buf = b""
            while True:
                data = s.recv(65536)
                if not data:
                    break
                buf += data
        rc = proc.wait(timeout=600)
        events = [json.loads(l) for l in buf.decode().splitlines()
                  if l.strip()]
        return rc, events, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_cli(cli, spec, witness_path):
    cmd = [cli, "--candidate", spec["candidate"], "--n", str(spec["n"]),
           "--f", str(spec["f"]), "--witness", witness_path]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall_ms = (time.monotonic() - t0) * 1e3
    out = proc.stdout
    # The summary is the paragraph the CLI prints between the blank line
    # and the "states explored:" line; states/witness counts come from
    # that line itself.
    summary, states, witness_actions = None, None, None
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("states explored: "):
            summary = lines[i - 1]
            head, _, tail = line.partition("; witness: ")
            states = int(head[len("states explored: "):])
            witness_actions = int(tail.split()[0])
            break
    witness = ""
    if os.path.exists(witness_path):
        with open(witness_path, encoding="utf-8") as fh:
            witness = fh.read()
    return {"exit_code": proc.returncode, "summary": summary,
            "states": states, "witness_actions": witness_actions,
            "witness": witness, "wall_ms": wall_ms, "stdout": out}


def submit_line(spec, job_id, witness=False, **extra):
    req = {"op": "submit", "id": job_id, "candidate": spec["candidate"],
           "n": spec["n"], "f": spec["f"]}
    if witness:
        req["witness"] = True
    req.update(extra)
    return wire(req)


def check_mode(args):
    matrix = [{"candidate": "relay", "n": 3, "f": 1},
              {"candidate": "flooding", "n": 3, "f": 1}]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec in matrix:
            tag = f"{spec['candidate']}/n{spec['n']}/f{spec['f']}"
            cli = run_cli(args.cli, spec,
                          os.path.join(tmp, "witness_cli.txt"))
            if cli["summary"] is None:
                failures.append(f"{tag}: CLI output had no summary:\n"
                                f"{cli['stdout']}")
                continue
            lines = [submit_line(spec, "cold", witness=True),
                     submit_line(spec, "warm", witness=True)]
            rc, events, err = run_server(args.server, lines)
            if rc != 0:
                failures.append(f"{tag}: server exited {rc}: {err}")
                continue
            results = {e["id"]: e for e in events if e.get("ev") == "result"}
            for which in ("cold", "warm"):
                r = results.get(which)
                if r is None:
                    failures.append(f"{tag}: no result event for '{which}'")
                    continue
                for key, want in (("summary", cli["summary"]),
                                  ("states", cli["states"]),
                                  ("witness_actions", cli["witness_actions"]),
                                  ("witness", cli["witness"]),
                                  ("exit_code", cli["exit_code"])):
                    got = r.get(key, "" if key == "witness" else None)
                    if got != want:
                        failures.append(
                            f"{tag}/{which}: {key} differs from CLI:\n"
                            f"  cli:    {want!r}\n  served: {got!r}")
                print(f"  {tag}/{which}: cache={r.get('cache')} "
                      f"states={r.get('states')} wall={r.get('wall_ms'):.1f}ms")
            if "warm" in results and results["warm"].get("cache") != "warm":
                failures.append(
                    f"{tag}: second job's cache outcome is "
                    f"'{results['warm'].get('cache')}', expected 'warm'")

        # Cancellation: submit + cancel land in the same input burst, so
        # the job is finalized cancelled at the first tick, before it runs.
        spec = matrix[0]
        lines = [submit_line(spec, "doomed"), wire({"op": "cancel",
                                                    "id": "doomed"})]
        rc, events, err = run_server(args.server, lines)
        cancelled = [e for e in events if e.get("ev") == "result"
                     and e.get("id") == "doomed"]
        if rc != 0 or not cancelled or cancelled[0].get("status") != "cancelled":
            failures.append(f"cancel: expected a cancelled result, got rc={rc} "
                            f"events={events} stderr={err}")
        else:
            print("  cancel: queued job finalized 'cancelled' without running")

        # Strict wire validation: an unknown submit key must be refused
        # with an error event naming the key, before any job is enqueued.
        lines = [submit_line(spec, "badkey", symmetyr="off")]
        rc, events, err = run_server(args.server, lines)
        rejected = [e for e in events if e.get("ev") == "error"
                    and "unknown key 'symmetyr'" in e.get("error", "")]
        if rc != 0 or not rejected:
            failures.append(f"unknown-key reject: expected an error event "
                            f"naming 'symmetyr', got rc={rc} events={events} "
                            f"stderr={err}")
        else:
            print("  reject: unknown key 'symmetyr' refused with a diagnostic")

        # Shutdown op: drain mode acks, finishes in-flight work, exits 0.
        lines = [submit_line(spec, "last"),
                 wire({"op": "shutdown", "mode": "drain"})]
        rc, events, err = run_server(args.server, lines)
        acks = [e for e in events if e.get("ev") == "ack"
                and e.get("op") == "shutdown"]
        done = [e for e in events if e.get("ev") == "result"
                and e.get("id") == "last" and e.get("status") == "done"]
        if rc != 0 or not acks or not done:
            failures.append(f"shutdown: rc={rc} ack={bool(acks)} "
                            f"result={bool(done)} stderr={err}")
        else:
            print("  shutdown: drain acked, in-flight job completed, exit 0")

        # TCP half-close: the client sends its whole burst then SHUT_WRs;
        # the server must keep the write side alive until the submitted
        # job's result has been delivered, then drain to exit 0.
        lines = [submit_line(spec, "tcp1"),
                 wire({"op": "shutdown", "mode": "drain"})]
        rc, events, err = run_server_tcp(args.server, lines)
        done = [e for e in events if e.get("ev") == "result"
                and e.get("id") == "tcp1" and e.get("status") == "done"]
        if rc != 0 or not done:
            failures.append(f"tcp half-close: rc={rc} result={bool(done)} "
                            f"events={events} stderr={err}")
        else:
            print("  tcp: half-closed client still received its result; "
                  "drain exit 0")

    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        print(f"FAIL ({len(failures)} problem(s))", file=sys.stderr)
        return 1
    print("OK: served verdicts byte-identical to the CLI; cancel and "
          "shutdown clean")
    return 0


def throughput_mode(args):
    spec = {"candidate": args.candidate, "n": args.n, "f": args.f}
    tag = f"{spec['candidate']}/n{spec['n']}/f{spec['f']}"

    # Cold baseline: one-shot CLI invocations (process start + build +
    # explore each time).
    cold_ms = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.cold_runs):
            r = run_cli(args.cli, spec, os.path.join(tmp, "w.txt"))
            if r["summary"] is None:
                print(f"cold CLI run {i} produced no summary", file=sys.stderr)
                return 1
            cold_ms.append(r["wall_ms"])
    cold_median = statistics.median(cold_ms)

    # Served run: one session, --jobs submissions, warm after the first.
    lines = [submit_line(spec, f"j{i}") for i in range(args.jobs)]
    t0 = time.monotonic()
    rc, events, err = run_server(args.server, lines)
    total_s = time.monotonic() - t0
    if rc != 0:
        print(f"server exited {rc}: {err}", file=sys.stderr)
        return 1
    results = [e for e in events if e.get("ev") == "result"]
    done = [r for r in results if r.get("status") == "done"]
    if len(done) != args.jobs:
        print(f"expected {args.jobs} completed jobs, got {len(done)}",
              file=sys.stderr)
        return 1
    warm = [r for r in done if r.get("cache") == "warm"]
    if len(warm) != args.jobs - 1:
        print(f"expected {args.jobs - 1} warm-cache jobs, got {len(warm)}",
              file=sys.stderr)
        return 1

    verdicts_per_min = args.jobs / (total_s / 60.0)
    warm_ms = statistics.median(r["wall_ms"] for r in warm)
    per_verdict_ns = total_s * 1e9 / args.jobs

    print(f"{tag}: {args.jobs} verdicts in {total_s:.2f}s end-to-end "
          f"= {verdicts_per_min:.0f} verdicts/min")
    print(f"  warm in-server wall (median):  {warm_ms:8.2f} ms")
    print(f"  cold one-shot CLI (median):    {cold_median:8.2f} ms "
          f"({args.cold_runs} runs)")
    print(f"  warm speedup vs cold one-shot: x{cold_median / warm_ms:.1f}")

    record = {
        "iterations": args.jobs,
        "real_ns_per_iter": per_verdict_ns,
        "cpu_ns_per_iter": per_verdict_ns,
        "verdicts_per_min": verdicts_per_min,
        "warm_wall_ms": warm_ms,
        "cold_oneshot_ms": cold_median,
    }
    bench = {"benchmarks": [
        dict(record, name=f"{args.record_name}_mean"),
        dict(record, name=f"{args.record_name}_median"),
    ]}
    if args.bench_json:
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
        print(f"bench record written to {args.bench_json}")
    if args.merge_into:
        with open(args.merge_into, encoding="utf-8") as fh:
            doc = json.load(fh)
        ours = {r["name"] for r in bench["benchmarks"]}
        doc["benchmarks"] = [r for r in doc.get("benchmarks", [])
                             if r.get("name") not in ours]
        doc["benchmarks"].extend(bench["benchmarks"])
        with open(args.merge_into, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"bench record merged into {args.merge_into}")

    if args.min_verdicts_per_min and verdicts_per_min < args.min_verdicts_per_min:
        print(f"FAIL: {verdicts_per_min:.0f} verdicts/min below the "
              f"{args.min_verdicts_per_min} floor", file=sys.stderr)
        return 1
    if warm_ms >= cold_median:
        print("FAIL: warm-cache served jobs are not faster than cold "
              "one-shot CLI invocations", file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["check", "throughput"], required=True)
    ap.add_argument("--server", default="build/tools/boosting_served",
                    help="path to the boosting_served binary")
    ap.add_argument("--cli", default="build/tools/boosting_analyze",
                    help="path to the boosting_analyze binary")
    ap.add_argument("--jobs", type=int, default=40,
                    help="throughput: jobs per server session (default 40)")
    ap.add_argument("--cold-runs", type=int, default=5,
                    help="throughput: one-shot CLI baseline runs (default 5)")
    ap.add_argument("--candidate", default="relay")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--f", type=int, default=1)
    ap.add_argument("--record-name", default="BM_ServeThroughputRelay3",
                    help="bench record base name (suffixed _mean/_median)")
    ap.add_argument("--bench-json", default="",
                    help="throughput: write the record pair to this file")
    ap.add_argument("--merge-into", default="",
                    help="throughput: merge the record pair into an existing "
                         "BENCH_state_explore.json")
    ap.add_argument("--min-verdicts-per-min", type=float, default=0.0,
                    help="throughput: fail below this floor (0 = no gate)")
    args = ap.parse_args()
    if args.mode == "check":
        return check_mode(args)
    return throughput_mode(args)


if __name__ == "__main__":
    sys.exit(main())
