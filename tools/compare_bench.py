#!/usr/bin/env python3
"""Compare two BENCH_state_explore.json files and fail on regressions.

CI's bench-regression gate: given the checked-in baseline and a freshly
produced run (both in the flat {"benchmarks": [...]} shape emitted by
bench/bench_json.h), compare every benchmark's *_median record and exit 1
when the fresh run regresses beyond the tolerance:

  * benchmarks that report a states_per_sec counter (the exploration
    workloads, which are what this gate protects) regress when the fresh
    rate drops below baseline * (1 - tolerance);
  * all other benchmarks fall back to real_ns_per_iter and regress when
    the fresh time exceeds baseline * (1 + tolerance);
  * benchmarks that report a bytes_per_state counter (BM_BytesPerState,
    the flat-layout memory headline) are additionally gated on it: fresh
    bytes above baseline * (1 + tolerance) fail, so edge/index bloat is
    caught even when wall-clock stays flat;
  * benchmarks that report a peak_rss_bytes counter are additionally gated
    on it: fresh peak RSS above baseline * (1 + tolerance) fails, catching
    memory bloat. NOTE: peak_rss_bytes is the
    process-lifetime VmHWM, monotone across the cells of one bench binary;
  * benchmarks that report an rss_delta_bytes counter (per-cell VmRSS
    delta, v6) are gated the same way -- this is the per-cell memory
    measurement that a --memory-budget run must keep bounded, immune to
    the VmHWM monotonicity blind spot;
  * benchmarks that report a verdicts_per_min counter (the resident-server
    throughput record tools/serve_loadgen.py --mode throughput merges in,
    v7) are gated one-sided: fresh throughput below baseline *
    (1 - tolerance) fails, gains pass;
  * a gated counter present in the baseline but MISSING from the fresh run
    is a hard failure (previously the gate was silently skipped, so a
    regression that also dropped the counter passed unprotected); a
    counter only the fresh run reports warns loudly and stays un-gated
    until the baseline is refreshed.

--tolerance is the fractional headroom (default 0.25, i.e. a >25% drop in
states/sec fails). CI machines are noisy; raise it via the flag rather
than editing this file, and refresh the baseline in the same PR whenever a
deliberate perf change moves the numbers.

A second mode, --check-shape FILE, validates only that FILE parses and
matches the bench_json.h record shape (name, iterations, real/cpu ns per
iteration, numeric counters). The lint job uses it to keep the committed
baseline honest without running benchmarks.

Usage:
  compare_bench.py [--tolerance T] BASELINE FRESH
  compare_bench.py --check-shape FILE
Exits 0 when acceptable, 1 with one line per problem on stderr.
"""

import argparse
import json
import sys

KNOWN_KEYS = {"name", "iterations", "real_ns_per_iter", "cpu_ns_per_iter"}


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, json.JSONDecodeError) as e:
        return None, f"{path}: cannot load: {e}"


def shape_errors(path, doc):
    errors = []
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        return [f"{path}: expected a top-level object with 'benchmarks'"]
    runs = doc["benchmarks"]
    if not isinstance(runs, list) or not runs:
        return [f"{path}: 'benchmarks' must be a non-empty array"]
    for i, rec in enumerate(runs):
        where = f"{path}: benchmarks[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{where}: not an object")
            continue
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or empty 'name'")
        for key in ("iterations", "real_ns_per_iter", "cpu_ns_per_iter"):
            if key in rec and not isinstance(rec[key], (int, float)):
                errors.append(f"{where}: '{key}' not numeric")
        for key, value in rec.items():
            if key in KNOWN_KEYS:
                continue
            if not isinstance(value, (int, float)):
                errors.append(f"{where}: counter '{key}' not numeric")
    return errors


def medians(doc):
    out = {}
    for rec in doc.get("benchmarks", []):
        name = rec.get("name", "")
        if name.endswith("_median"):
            out[name[:-len("_median")]] = rec
    return out


def gated(name, key, b, f, problems):
    """Presence check for a gated counter, loud on asymmetry.

    Returns True only when BOTH runs report the counter. A counter the
    baseline has but the fresh run lost is a hard failure: the old
    behaviour silently skipped the gate, so a regression that also dropped
    the counter sailed through unprotected. A counter only the fresh run
    has is a loud warning (the gate stays disarmed until the baseline is
    refreshed in the same PR).
    """
    if key in b and key not in f:
        problems.append(
            f"{name}: baseline reports {key} but the fresh run does not -- "
            "the gate on it would be silently skipped; restore the counter "
            "or refresh the baseline in the same change")
        return False
    if key in f and key not in b:
        print(f"WARNING: {name}: fresh run reports {key} but the baseline "
              "does not; gate inactive until the baseline is refreshed",
              file=sys.stderr)
        return False
    return key in b


def compare(baseline, fresh, tolerance):
    base_runs = medians(baseline)
    fresh_runs = medians(fresh)
    problems = []
    rows = []
    for name in sorted(base_runs):
        if name not in fresh_runs:
            problems.append(f"{name}: present in baseline but not in the "
                            "fresh run (benchmark removed without a baseline "
                            "refresh?)")
            continue
        b, f = base_runs[name], fresh_runs[name]
        if gated(name, "states_per_sec", b, f, problems):
            bv, fv = b["states_per_sec"], f["states_per_sec"]
            ratio = fv / bv if bv else float("inf")
            rows.append((name, "states/sec", bv, fv, ratio))
            if bv and fv < bv * (1.0 - tolerance):
                problems.append(
                    f"{name}: states_per_sec regressed {bv:.0f} -> {fv:.0f} "
                    f"({(1.0 - ratio) * 100.0:.1f}% drop > "
                    f"{tolerance * 100.0:.0f}% tolerance)")
        else:
            bv = b.get("real_ns_per_iter", 0.0)
            fv = f.get("real_ns_per_iter", 0.0)
            ratio = fv / bv if bv else float("inf")
            rows.append((name, "ns/iter", bv, fv, ratio))
            if bv and fv > bv * (1.0 + tolerance):
                problems.append(
                    f"{name}: real_ns_per_iter regressed {bv:.0f} -> {fv:.0f} "
                    f"({(ratio - 1.0) * 100.0:.1f}% slower > "
                    f"{tolerance * 100.0:.0f}% tolerance)")
        # Memory gate, orthogonal to the throughput/time gate above.
        if gated(name, "bytes_per_state", b, f, problems):
            bv, fv = b["bytes_per_state"], f["bytes_per_state"]
            ratio = fv / bv if bv else float("inf")
            rows.append((name, "B/state", bv, fv, ratio))
            if bv and fv > bv * (1.0 + tolerance):
                problems.append(
                    f"{name}: bytes_per_state regressed {bv:.0f} -> {fv:.0f} "
                    f"({(ratio - 1.0) * 100.0:.1f}% fatter > "
                    f"{tolerance * 100.0:.0f}% tolerance)")
        # Served-throughput gate (v7, one-sided: drops fail, gains pass).
        # verdicts_per_min is end-to-end through the resident server
        # (tools/serve_loadgen.py --mode throughput), so it covers the wire
        # protocol, the tick scheduler and the cross-job cache at once.
        if gated(name, "verdicts_per_min", b, f, problems):
            bv, fv = b["verdicts_per_min"], f["verdicts_per_min"]
            ratio = fv / bv if bv else float("inf")
            rows.append((name, "verd/min", bv, fv, ratio))
            if bv and fv < bv * (1.0 - tolerance):
                problems.append(
                    f"{name}: verdicts_per_min regressed {bv:.0f} -> {fv:.0f} "
                    f"({(1.0 - ratio) * 100.0:.1f}% drop > "
                    f"{tolerance * 100.0:.0f}% tolerance)")
        # Peak-RSS gate: catches memory bloat.
        # peak_rss_bytes is the process-lifetime VmHWM, so within one bench
        # process it is monotone across cells -- it can only catch the
        # biggest cell. The delta gate below is the per-cell measurement.
        if gated(name, "peak_rss_bytes", b, f, problems):
            bv, fv = b["peak_rss_bytes"], f["peak_rss_bytes"]
            ratio = fv / bv if bv else float("inf")
            rows.append((name, "peak RSS", bv, fv, ratio))
            if bv and fv > bv * (1.0 + tolerance):
                problems.append(
                    f"{name}: peak_rss_bytes regressed {bv:.0f} -> {fv:.0f} "
                    f"({(ratio - 1.0) * 100.0:.1f}% fatter > "
                    f"{tolerance * 100.0:.0f}% tolerance)")
        # Delta-RSS gate (v6): per-cell VmRSS growth while the cell ran.
        # Unlike the monotone VmHWM above, this responds to memory each
        # cell actually held -- it is what a --memory-budget must bound.
        if gated(name, "rss_delta_bytes", b, f, problems):
            bv, fv = b["rss_delta_bytes"], f["rss_delta_bytes"]
            ratio = fv / bv if bv else float("inf")
            rows.append((name, "dRSS", bv, fv, ratio))
            if bv and fv > bv * (1.0 + tolerance):
                problems.append(
                    f"{name}: rss_delta_bytes regressed {bv:.0f} -> {fv:.0f} "
                    f"({(ratio - 1.0) * 100.0:.1f}% fatter > "
                    f"{tolerance * 100.0:.0f}% tolerance)")
    for name, unit, bv, fv, ratio in rows:
        print(f"  {name:<44} {unit:>10}  baseline {bv:>14.1f}  "
              f"fresh {fv:>14.1f}  x{ratio:.2f}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="FILE",
                    help="BASELINE FRESH, or a single FILE with --check-shape")
    ap.add_argument("--tolerance", type=float, default=0.25, metavar="T",
                    help="fractional regression allowed before failing "
                         "(default 0.25 = 25%%)")
    ap.add_argument("--check-shape", action="store_true",
                    help="only validate the file(s) against the bench_json.h "
                         "record shape; no comparison")
    args = ap.parse_args()

    if not 0.0 <= args.tolerance < 1.0:
        print(f"--tolerance: expected a fraction in [0, 1), got "
              f"{args.tolerance}", file=sys.stderr)
        return 2

    errors = []
    if args.check_shape:
        for path in args.files:
            doc, err = load(path)
            errors.extend([err] if err else shape_errors(path, doc))
            if not errors:
                print(f"{path}: shape OK "
                      f"({len(doc['benchmarks'])} records)")
    else:
        if len(args.files) != 2:
            print("expected exactly two files: BASELINE FRESH",
                  file=sys.stderr)
            return 2
        docs = []
        for path in args.files:
            doc, err = load(path)
            if err:
                errors.append(err)
            else:
                errors.extend(shape_errors(path, doc))
                docs.append(doc)
        if not errors:
            errors = compare(docs[0], docs[1], args.tolerance)

    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"FAIL ({len(errors)} problem(s))", file=sys.stderr)
        return 1
    if not args.check_shape:
        print(f"OK: no regression beyond {args.tolerance * 100.0:.0f}% "
              "tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
