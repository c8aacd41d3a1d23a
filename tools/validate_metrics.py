#!/usr/bin/env python3
"""Validate a boosting-metrics-v13 JSON file against docs/metrics_schema.json.

Hand-rolled validator for the draft-07 subset the schema actually uses
(type, required, properties, additionalProperties, items, enum, minimum,
minLength), so CI needs nothing beyond the stock Python interpreter.

Beyond the schema, this also checks the semantic invariants the metrics
promise:
  * counter/timer/derived names are unique and sorted;
  * the transition memo (cache.*) satisfies hits + misses == lookups;
  * when symmetry reduction ran (explorer.symmetry.* counters present),
    states_canonical <= states_raw and orbits_collapsed <= states_raw,
    i.e. the quotient never invents states;
  * when the graph memory gauges are present (v3), graph.bytes_states is
    monotone in the state count (>= states_discovered: a state costs at
    least a byte, in practice dozens) and a nonzero process.peak_rss_bytes
    is >= the sum of the graph.bytes_* gauges (the process cannot hold the
    graph in less memory than the graph's own accounting);
  * graph.bytes_edges >= 4 * (graph.edges_discovered +
    graph.reduced_edges) when graph.reduced_edges is present (v13): every
    stored edge, full or reduced tier, is a 4-byte target;
  * when partial-order reduction ran (explorer.por.* counters present, v4),
    states_reduced <= nodes_evaluated (only evaluated nodes can commit an
    ample subset), tasks_skipped >= states_reduced (every reduced node
    skipped at least one enabled task), and ample_avg <= 1000 (it is a
    per-mille fraction of enabled tasks kept);
  * process.rss_delta_bytes (the per-phase VmRSS delta, v6) never
    exceeds the process-lifetime process.peak_rss_bytes;
  * when the analysis service ran (serve.jobs.* counters present, v7),
    completed + failed + cancelled <= submitted (every job finishes at
    most once; the difference is jobs still live at snapshot time),
    context_reuses + context_builds + bypasses <= submitted (each
    accepted job sources its exploration state exactly one way), and
    evictions <= context_builds (only built contexts can be evicted);
  * the memo gauges (v10) memo.slot_representatives and
    memo.transition_entries appear together, and a run that discovered a
    state holds at least one slot representative.

With --max-peak-rss-mb M, a process.peak_rss_bytes above M MiB is also a
violation (a memory guard for CI smoke runs). With --max-counter NAME=VALUE
(repeatable), a missing counter NAME or one above VALUE is a violation (a
work guard: deterministic counters such as cache.apply_lookups catch
regressions that wall time on a shared runner cannot).

Usage: validate_metrics.py [--schema SCHEMA] [--max-peak-rss-mb M]
                           [--max-counter NAME=VALUE ...] METRICS
Exits 0 when valid, 1 with one "path: problem" line per violation.
"""

import argparse
import json
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; JSON booleans are not integers.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(value, schema, path, errors):
    expected = schema.get("type")
    if expected is not None and not TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")

    if isinstance(value, str) and "minLength" in schema:
        if len(value) < schema["minLength"]:
            errors.append(f"{path}: string shorter than {schema['minLength']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path}: unexpected key '{key}'")

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def named_section(doc, section):
    return {entry["name"]: entry for entry in doc.get(section, [])
            if isinstance(entry, dict) and "name" in entry}


def check_invariants(doc, max_peak_rss_mb, errors, max_counters=()):
    for section in ("counters", "timers", "derived"):
        names = [e["name"] for e in doc.get(section, [])
                 if isinstance(e, dict) and "name" in e]
        if len(names) != len(set(names)):
            errors.append(f"$.{section}: duplicate names")
        if names != sorted(names):
            errors.append(f"$.{section}: names not sorted")

    counters = named_section(doc, "counters")

    def cval(name):
        return counters[name]["value"] if name in counters else 0

    for family in ("enabled", "apply"):
        lookups = cval(f"cache.{family}_lookups")
        hits = cval(f"cache.{family}_hits")
        misses = cval(f"cache.{family}_misses")
        if hits + misses != lookups:
            errors.append(
                f"$.counters: cache.{family}: hits {hits} + misses "
                f"{misses} != lookups {lookups}")

    symmetry = [n for n in counters if n.startswith("explorer.symmetry.")]
    if symmetry:
        raw = cval("explorer.symmetry.states_raw")
        canonical = cval("explorer.symmetry.states_canonical")
        collapsed = cval("explorer.symmetry.orbits_collapsed")
        if "explorer.symmetry.states_raw" not in counters or \
                "explorer.symmetry.states_canonical" not in counters:
            errors.append(
                "$.counters: explorer.symmetry.* present but incomplete "
                f"({sorted(symmetry)})")
        if canonical > raw:
            errors.append(
                f"$.counters: explorer.symmetry.states_canonical {canonical} "
                f"> states_raw {raw} (quotient invented states)")
        if collapsed > raw:
            errors.append(
                f"$.counters: explorer.symmetry.orbits_collapsed {collapsed} "
                f"> states_raw {raw}")

    por = [n for n in counters if n.startswith("explorer.por.")]
    if por:
        for required in ("explorer.por.nodes_evaluated",
                         "explorer.por.states_reduced",
                         "explorer.por.tasks_skipped",
                         "explorer.por.cycle_proviso_hits",
                         "explorer.por.ample_avg"):
            if required not in counters:
                errors.append(
                    "$.counters: explorer.por.* present but incomplete "
                    f"({sorted(por)})")
                break
        evaluated = cval("explorer.por.nodes_evaluated")
        reduced = cval("explorer.por.states_reduced")
        skipped = cval("explorer.por.tasks_skipped")
        ample_avg = cval("explorer.por.ample_avg")
        if reduced > evaluated:
            errors.append(
                f"$.counters: explorer.por.states_reduced {reduced} > "
                f"nodes_evaluated {evaluated} (reduced a node that was "
                "never evaluated)")
        if skipped < reduced:
            errors.append(
                f"$.counters: explorer.por.tasks_skipped {skipped} < "
                f"states_reduced {reduced} (a reduced node skips at least "
                "one task)")
        if ample_avg > 1000:
            errors.append(
                f"$.counters: explorer.por.ample_avg {ample_avg} > 1000 "
                "(per-mille fraction)")

    graph_bytes = [n for n in counters if n.startswith("graph.bytes_")]
    if graph_bytes:
        for required in ("graph.bytes_states", "graph.bytes_edges",
                         "graph.bytes_index"):
            if required not in counters:
                errors.append(
                    "$.counters: graph.bytes_* present but incomplete "
                    f"({sorted(graph_bytes)})")
                break
        states = cval("graph.states_discovered")
        bytes_states = cval("graph.bytes_states")
        if states > 0 and bytes_states < states:
            errors.append(
                f"$.counters: graph.bytes_states {bytes_states} < "
                f"states_discovered {states} (bytes must be monotone in "
                "states)")
        rss = cval("process.peak_rss_bytes")
        graph_total = (bytes_states + cval("graph.bytes_edges") +
                       cval("graph.bytes_index"))
        if rss > 0 and rss < graph_total:
            errors.append(
                f"$.counters: process.peak_rss_bytes {rss} < sum of "
                f"graph.bytes_* {graph_total}")
        if "graph.reduced_edges" in counters:
            stored = (cval("graph.edges_discovered") +
                      cval("graph.reduced_edges"))
            if cval("graph.bytes_edges") < 4 * stored:
                errors.append(
                    f"$.counters: graph.bytes_edges "
                    f"{cval('graph.bytes_edges')} < 4 * {stored} stored "
                    "edges (edges_discovered + reduced_edges)")

    # Per-phase RSS delta (v6): the delta cannot exceed the process
    # lifetime peak -- VmHWM is a superset of any phase's growth.
    rss_delta = cval("process.rss_delta_bytes")
    rss_peak = cval("process.peak_rss_bytes")
    if rss_peak > 0 and rss_delta > rss_peak:
        errors.append(
            f"$.counters: process.rss_delta_bytes {rss_delta} > "
            f"process.peak_rss_bytes {rss_peak}")

    # Memo gauges (v10): flushed together with the graph metrics, and any
    # discovered state holds at least one canonical component state.
    memo = [n for n in ("memo.slot_representatives",
                        "memo.transition_entries") if n in counters]
    if len(memo) == 1:
        errors.append(
            f"$.counters: {memo[0]} present without its memo.* partner")
    if memo and cval("graph.states_discovered") >= 1 and \
            cval("memo.slot_representatives") < 1:
        errors.append(
            "$.counters: memo.slot_representatives 0 with "
            f"graph.states_discovered {cval('graph.states_discovered')}")

    if max_peak_rss_mb is not None:
        if "process.peak_rss_bytes" not in counters:
            errors.append("$.counters: missing process.peak_rss_bytes "
                          "(required by --max-peak-rss-mb)")
        elif rss_peak > max_peak_rss_mb * 1024 * 1024:
            errors.append(
                f"$.counters: process.peak_rss_bytes {rss_peak} "
                f"({rss_peak / (1024 * 1024):.1f} MiB) > "
                f"--max-peak-rss-mb {max_peak_rss_mb}")

    for name, limit in max_counters:
        if name not in counters:
            errors.append(f"$.counters: missing {name} "
                          "(required by --max-counter)")
        elif cval(name) > limit:
            errors.append(f"$.counters: {name} {cval(name)} > "
                          f"--max-counter {name}={limit}")

    # Analysis service (v7): jobs finish at most once, each accepted job
    # sources its exploration state exactly one way (cold build, warm
    # reuse, or busy-bypass), and only built contexts can be evicted.
    if any(name.startswith("serve.jobs.") for name in counters):
        submitted = cval("serve.jobs.submitted")
        finished = (cval("serve.jobs.completed") + cval("serve.jobs.failed") +
                    cval("serve.jobs.cancelled"))
        if finished > submitted:
            errors.append(
                f"$.counters: serve.jobs completed+failed+cancelled "
                f"{finished} > serve.jobs.submitted {submitted}")
        sourced = (cval("serve.cache.context_builds") +
                   cval("serve.cache.context_reuses") +
                   cval("serve.cache.bypasses"))
        if sourced > submitted:
            errors.append(
                f"$.counters: serve.cache builds+reuses+bypasses {sourced} > "
                f"serve.jobs.submitted {submitted}")
        if cval("serve.cache.evictions") > cval("serve.cache.context_builds"):
            errors.append(
                f"$.counters: serve.cache.evictions "
                f"{cval('serve.cache.evictions')} > "
                f"serve.cache.context_builds "
                f"{cval('serve.cache.context_builds')}")


def counter_limit(text):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        limit = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name}: limit {value!r} is not an integer") from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"{name}: limit {limit} is negative")
    return name, limit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("metrics", help="metrics JSON file to validate")
    ap.add_argument("--schema", default=None,
                    help="schema file (default: docs/metrics_schema.json "
                         "next to this script's repo)")
    ap.add_argument("--max-peak-rss-mb", type=float, default=None,
                    metavar="M",
                    help="fail when process.peak_rss_bytes exceeds M MiB")
    ap.add_argument("--max-counter", action="append", default=[],
                    type=counter_limit, metavar="NAME=VALUE",
                    help="fail when counter NAME is missing or exceeds "
                         "VALUE (repeatable)")
    args = ap.parse_args()

    schema_path = args.schema
    if schema_path is None:
        import os
        schema_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "..", "docs", "metrics_schema.json")

    try:
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot load schema {schema_path}: {e}", file=sys.stderr)
        return 1

    try:
        with open(args.metrics, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot load metrics {args.metrics}: {e}", file=sys.stderr)
        return 1

    errors = []
    validate(doc, schema, "$", errors)
    if not errors:
        check_invariants(doc, args.max_peak_rss_mb, errors, args.max_counter)

    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        print(f"{args.metrics}: INVALID ({len(errors)} problem(s))",
              file=sys.stderr)
        return 1

    counters = len(doc.get("counters", []))
    timers = len(doc.get("timers", []))
    print(f"{args.metrics}: valid boosting-metrics-v13 "
          f"({counters} counters, {timers} timers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
