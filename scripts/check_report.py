#!/usr/bin/env python3
"""Validate observability artifacts: Chrome traces and sma run reports.

Three checks, combinable in one invocation (CI runs all of them):

  --trace FILE      FILE is Chrome trace-event JSON: a non-empty
                    `traceEvents` list of complete ("X") events with the
                    keys Perfetto / chrome://tracing need (a traced run that
                    recorded zero spans means the instrumentation is
                    broken). Events may carry more keys, such as `args`.

  --report FILE     FILE is a unified run report of schema
                    sma-run-report-v1 (see src/obs/report.hpp). Every
                    object of the report holds exactly its schema's keys,
                    so a key the schema dropped fails as a missing one does.

  --bench FILE...   Each FILE is a BENCH_*.json bench artifact; when it
                    embeds a "report" object, that object must validate as
                    sma-run-report-v1. Guards against report-schema drift
                    in the bench trajectory.

Exits non-zero with a message naming the file and the violated rule.
"""

import argparse
import json
import sys

SCHEMA = "sma-run-report-v1"

TRACE_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")
REPORT_KEYS = (
    "schema",
    "run",
    "flow",
    "train",
    "replicas",
    "serve",
    "split_cache",
    "durability",
    "kernels",
    "metrics",
)
RUN_KEYS = ("name", "threads", "tracing")
FLOW_ROW_KEYS = (
    "design",
    "global_place_seconds",
    "legalize_seconds",
    "detailed_place_seconds",
    "route_seconds",
    "negotiation_seconds",
    "wirelength",
    "vias",
    "overflow",
    "fallback_routes",
)
TRAIN_KEYS = (
    "seconds",
    "seconds_per_epoch",
    "epochs",
    "queries_seen",
    "final_loss",
    "arena_allocs_total",
    "arena_bytes_pinned",
)
REPLICA_KEYS = (
    "clones_created",
    "leases",
    "max_on_loan",
    "wait_seconds",
    "occupancy_seconds",
    "arena_allocs",
    "arena_bytes_pinned",
)
SERVE_KEYS = (
    "submitted",
    "answered",
    "failed",
    "empty",
    "batches",
    "max_batch_seen",
    "max_queue_depth",
)
SPLIT_CACHE_KEYS = (
    "hits",
    "misses",
    "disk_hits",
    "disk_spills",
    "disk_corrupt",
    "disk_dir",
)
DURABILITY_KEYS = (
    "faults_injected",
    "checkpoint_saves",
    "checkpoint_resumes",
    "checkpoint_corrupt_discards",
)
KERNEL_KEYS = ("isa", "blocked_calls", "pack_bytes")
METRICS_KEYS = ("counters", "histograms")
HISTOGRAM_KEYS = ("count", "sum", "buckets")


def fail(path, message):
    sys.exit(f"{path}: {message}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        fail(path, f"not valid JSON: {e}")


def require_keys(path, obj, keys, context):
    for key in keys:
        if key not in obj:
            fail(path, f"{context} is missing key {key!r}")


def require_exact_keys(path, obj, keys, context):
    if not isinstance(obj, dict):
        fail(path, f"{context} must be a JSON object")
    require_keys(path, obj, keys, context)
    for key in obj:
        if key not in keys:
            fail(path, f"{context} has key {key!r}, which {SCHEMA} does "
                       "not define")


def check_trace(path):
    trace = load_json(path)
    if not isinstance(trace, dict):
        fail(path, "trace root must be a JSON object")
    if "traceEvents" not in trace:
        fail(path, "missing 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail(path, "'traceEvents' must be a list")
    if not events:
        fail(path, "trace recorded zero events (tracing not enabled?)")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(path, f"traceEvents[{i}] is not an object")
        require_keys(path, event, TRACE_EVENT_KEYS, f"traceEvents[{i}]")
        if event["ph"] != "X":
            fail(path, f"traceEvents[{i}]: expected complete events "
                       f"(ph='X'), got ph={event['ph']!r}")
        for key in ("ts", "dur"):
            if not isinstance(event[key], (int, float)):
                fail(path, f"traceEvents[{i}].{key} is not a number")
        if event["dur"] < 0:
            fail(path, f"traceEvents[{i}] has negative duration")
    print(f"{path}: ok ({len(events)} trace events)")


def check_report_object(path, report, context="report"):
    require_exact_keys(path, report, REPORT_KEYS, context)
    if report["schema"] != SCHEMA:
        fail(path, f"{context}: schema is {report['schema']!r}, "
                   f"expected {SCHEMA!r}")
    require_exact_keys(path, report["run"], RUN_KEYS, f"{context}.run")
    if not isinstance(report["flow"], list):
        fail(path, f"{context}.flow must be a list")
    for i, row in enumerate(report["flow"]):
        require_exact_keys(path, row, FLOW_ROW_KEYS, f"{context}.flow[{i}]")
    # Sections a run did not add serialize as null.
    for section, keys in (("train", TRAIN_KEYS), ("replicas", REPLICA_KEYS),
                          ("serve", SERVE_KEYS)):
        if report[section] is not None:
            require_exact_keys(path, report[section], keys,
                               f"{context}.{section}")
    require_exact_keys(path, report["split_cache"], SPLIT_CACHE_KEYS,
                       f"{context}.split_cache")
    require_exact_keys(path, report["durability"], DURABILITY_KEYS,
                       f"{context}.durability")
    require_exact_keys(path, report["kernels"], KERNEL_KEYS,
                       f"{context}.kernels")
    require_exact_keys(path, report["metrics"], METRICS_KEYS,
                       f"{context}.metrics")
    for name, hist in report["metrics"]["histograms"].items():
        require_exact_keys(path, hist, HISTOGRAM_KEYS,
                           f"{context}.metrics.histograms[{name!r}]")
        if not isinstance(hist["buckets"], list):
            fail(path, f"{context}.metrics.histograms[{name!r}].buckets "
                       "must be a list")


def check_report(path):
    check_report_object(path, load_json(path))
    print(f"{path}: ok ({SCHEMA})")


def check_bench(path):
    bench = load_json(path)
    if not isinstance(bench, dict):
        fail(path, "bench artifact root must be a JSON object")
    if "report" not in bench:
        fail(path, "bench artifact has no embedded 'report' — report-schema "
                   "drift (benches must attach an sma run report)")
    check_report_object(path, bench["report"], context="report")
    print(f"{path}: ok (embedded {SCHEMA})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--report", help="run-report JSON to validate")
    parser.add_argument("--bench", nargs="*", default=[],
                        help="BENCH_*.json artifacts whose embedded report "
                             "must validate")
    args = parser.parse_args()
    if not args.trace and not args.report and not args.bench:
        parser.error("nothing to check: pass --trace, --report or --bench")
    if args.trace:
        check_trace(args.trace)
    if args.report:
        check_report(args.report)
    for path in args.bench:
        check_bench(path)


if __name__ == "__main__":
    main()
