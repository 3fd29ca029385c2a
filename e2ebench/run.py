"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload pdp-write-churn --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  Human-readable lines come first (every
metric the workload supports, with sample counts, and every
correctness check); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once with spans around each layer, reports the per-layer
metrics, and writes the spans to ``.e2ebench_run/``.  A failed check
prints the JSON line with ``correct: false`` and no metrics, and exits
with status 1.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".e2ebench_run"

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "cpu_ms_per_req": ("ms", "lower"),
}

#: the percentile ``tail_ms`` reports per workload.  It is taken in
#: consecutive windows of ``10 / (1 - q)`` requests, so each window has
#: ten requests beyond it, and the median window is reported: a typical
#: stretch's tail, which a rare stall of the shared host cannot move.
TAIL = {
    # p99 of a 64-page burst spread 9-54% between sets of runs (the
    # host's speed swings inside a 3 ms burst); p90 held under 4%.
    "pdp-read-hot": 0.90,
    "pdp-write-churn": 0.99,
    # SELECT p99 spread by a quarter run to run on the reference host
    # (it follows which statements the collector's pauses land on);
    # p90 is the highest percentile that held steady.
    "dbms-mixed": 0.90,
    "policy-audit": 0.90,
}

LINT_RULES = (
    "dead-role", "dormant-privilege", "constraint-conflict",
    "irrevocable-authority", "self-escalation", "unreachable-under-ssd",
    "depth-k-escalation", "redundant-delegation",
)

PER_LAYER = {
    "pdp.front_self_us": ("us", "lower"),
    "pdp.read_window_size": ("count", "higher"),
    "pdp.write_batch_size": ("count", "higher"),
    "pdp.queue_wait_ms": ("ms", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.lookups": ("count", "higher"),
    "cache.get_us": ("us", "lower"),
    "cache.advance_ms": ("ms", "lower"),
    "cache.evicted_entries": ("count", "lower"),
    "cache.full_clears": ("count", "lower"),
    "authz.capture_ms": ("ms", "lower"),
    "authz.first_use_ms": ("ms", "lower"),
    "authz.sweep_ms": ("ms", "lower"),
    "authz.sweep_qps": ("1/s", "higher"),
    "authz.batch_authz_ms": ("ms", "lower"),
    "monitor.submit_queue_ms": ("ms", "lower"),
    "monitor.batches": ("count", "lower"),
    "policy.copy_ms": ("ms", "lower"),
    "policy.copies_per_batch": ("count", "lower"),
    "monitor.check_access_us": ("us", "lower"),
    "wal.append_ms": ("ms", "lower"),
    "wal.bytes_per_batch": ("B", "lower"),
    "wal.read_ms": ("ms", "lower"),
    "wal.verify_ms": ("ms", "lower"),
    "wal.replay_ms": ("ms", "lower"),
    "wal.records_replayed": ("count", "lower"),
    "sql.parse_us": ("us", "lower"),
    "backend.scan_us": ("us", "lower"),
    "backend.write_us": ("us", "lower"),
    "backend.rows_examined_per_returned": ("ratio", "lower"),
    "backend.rows_returned": ("count", "higher"),
    "backend.log_bytes_per_write": ("B", "lower"),
    "audit.record_us": ("us", "lower"),
    **{f"lint.rule_ms.{rule}": ("ms", "lower") for rule in LINT_RULES},
    "repair.rounds": ("count", "lower"),
    "repair.plans_applied": ("count", "higher"),
    "repair.lint_ms": ("ms", "lower"),
    "repair.apply_ms": ("ms", "lower"),
    "runtime.gc_ms": ("ms", "lower"),
    "bench.generator_late_p99_ms": ("ms", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.submit_accounted_frac": ("ratio", "higher"),
}

#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 9

#: writer-side spans must account for at least this share of the
#: median write's submit latency (the rest is the submitter's wake-up
#: after its future resolves, which no span covers).
ACCOUNTED_FLOOR = 0.8


def _load_program():
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import scripts
    import workloads
    return scripts, workloads


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def windowed_tail(latencies, q: float, percentile) -> float:
    """Median over consecutive windows of ``10 / (1 - q)`` requests of
    each window's ``q`` percentile (one window when the run is
    shorter)."""
    size = round(10 / (1 - q))
    windows = [
        latencies[start:start + size]
        for start in range(0, len(latencies) - size + 1, size)
    ] or [latencies]
    return statistics.median(percentile(window, q) for window in windows)


def end_to_end(name: str, run, percentile) -> dict[str, float]:
    """The gated metrics; times are host-speed normalized (see
    ``workloads.HostSpeed``)."""
    latencies = run.speed.normalize(run.moments, run.latencies)
    return {
        "setup_s": _median(run.setup_seconds),
        "peak_rss_mb": run.peak_rss_mb,
        "p50_ms": percentile(latencies, 0.5) * 1e3,
        "tail_ms": windowed_tail(latencies, TAIL[name], percentile) * 1e3,
        "cpu_ms_per_req": run.cpu_normalized * 1e3 / max(1, run.attempted),
    }


def raw_figures(name: str, run, percentile) -> dict:
    """The same figures in plain wall-clock time, for the comments."""
    return {
        "raw.setup_s": (_median(run.setup_raw), len(run.setup_raw)),
        "raw.p50_ms": (percentile(run.latencies, 0.5) * 1e3,
                       len(run.latencies)),
        "raw.tail_ms": (percentile(run.latencies, TAIL[name]) * 1e3,
                        len(run.latencies)),
        "raw.cpu_ms_per_req": (
            run.cpu_seconds * 1e3 / max(1, run.attempted), run.attempted),
        "host_speed_factor": (run.speed.factor(), len(run.speed.seconds)),
        "generator_late_p50_ms": (
            percentile(run.lateness, 0.5) * 1e3, len(run.lateness)),
        "generator_late_p99_ms": (
            percentile(run.lateness, 0.99) * 1e3, len(run.lateness)),
    }


def per_layer(workload, untraced, traced, percentile) -> dict[str, float]:
    """Derive the per-layer metrics from the traced run's spans; a
    layer the workload never calls reads 0."""
    tracer = traced.tracer
    spans = tracer.spans
    serving_end = (
        tracer.recovery_from if tracer.recovery_from is not None
        else len(spans)
    )
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        if span[2] is not None:
            by_name.setdefault(span[0], []).append(index)

    def durations(name, first=0, last=serving_end, roots_only=False):
        return [
            spans[i][2] - spans[i][1] for i in by_name.get(name, ())
            if first <= i < last and (not roots_only or spans[i][3] < 0)
        ]

    covered = tracer.self_times()
    front_self = [
        busy - covered.get(index, 0.0)
        for index, busy in tracer.values["pdp.busy"]
    ]
    batches = [
        size for index, size in tracer.values["pdp.batch"]
        if index < serving_end
    ]
    sweep_pairs = sum(
        size for index, size in tracer.values["pdp.window"]
        if spans[index][0] == "authz.sweep"
    )
    sweep_seconds = sum(durations("authz.sweep"))
    submit_spans = set(i for i in by_name.get("monitor.submit_queue", ())
                       if i < serving_end)
    batch_authz = [
        spans[i][2] - spans[i][1] for i in by_name.get("authz.index_batch", ())
        if spans[i][3] in submit_spans
    ]
    writer_copies = sum(
        1 for i in by_name.get("policy.copy", ())
        if i < serving_end and str(spans[i][4]).startswith("b")
    )
    writer_time: dict[str, float] = {}
    for index in range(serving_end):
        name, start, end, parent, request = spans[index]
        if parent < 0 and end is not None and str(request).startswith("b"):
            writer_time[request] = writer_time.get(request, 0.0) + end - start
    accounted = [
        (wait + writer_time.get(batch, 0.0)) / latency
        for latency, wait, batch in tracer.values["pdp.submit"]
        if batch is not None and latency > 0
    ]
    counts = tracer.counts
    lookups = counts["cache.lookups"]
    returned = counts["backend.returned"]
    untraced_p50 = end_to_end(workload, untraced, percentile)["p50_ms"]
    traced_p50 = end_to_end(workload, traced, percentile)["p50_ms"]
    metrics = {
        "pdp.front_self_us": _median(front_self) * 1e6,
        "pdp.read_window_size": _mean(
            size for _, size in tracer.values["pdp.window"]),
        "pdp.write_batch_size": _mean(batches),
        "pdp.queue_wait_ms": _median(
            wait for _, wait, _ in tracer.values["pdp.submit"]) * 1e3,
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.get_us": _median(durations("cache.get")) * 1e6,
        "cache.advance_ms": _median(durations("cache.advance")) * 1e3,
        "cache.evicted_entries": _mean(tracer.values["cache.evicted"]),
        "cache.full_clears": counts["cache.full_clears"],
        "authz.capture_ms": _median(durations("authz.capture")) * 1e3,
        "authz.first_use_ms": _median(durations("authz.first_use")) * 1e3,
        "authz.sweep_ms": _median(durations("authz.sweep")) * 1e3,
        "authz.sweep_qps": (
            sweep_pairs / sweep_seconds if sweep_seconds else 0.0),
        "authz.batch_authz_ms": _median(batch_authz) * 1e3,
        "monitor.submit_queue_ms": _median(
            durations("monitor.submit_queue")) * 1e3,
        "monitor.batches": len(batches),
        "policy.copy_ms": _median(durations("policy.copy")) * 1e3,
        "policy.copies_per_batch": (
            writer_copies / len(batches) if batches else 0.0),
        "monitor.check_access_us": _median(
            durations("monitor.check_access")) * 1e6,
        "wal.append_ms": _median(durations("wal.append")) * 1e3,
        "wal.bytes_per_batch": _mean(tracer.values["wal.bytes"]),
        "wal.read_ms": sum(durations(
            "wal.read", serving_end, len(spans))) * 1e3,
        "wal.verify_ms": sum(durations(
            "wal.verify", serving_end, len(spans))) * 1e3,
        "wal.replay_ms": sum(durations(
            "wal.replay", serving_end, len(spans))) * 1e3,
        "wal.records_replayed": counts["wal.records"],
        "sql.parse_us": _median(durations("sql.parse")) * 1e6,
        "backend.scan_us": _median(durations("backend.scan")) * 1e6,
        "backend.write_us": _median(durations("backend.write")) * 1e6,
        "backend.rows_examined_per_returned": (
            counts["backend.examined"] / returned if returned else 0.0),
        "backend.rows_returned": returned,
        "backend.log_bytes_per_write": _mean(
            tracer.values["backend.log_bytes"]),
        "audit.record_us": _median(durations("audit.record")) * 1e6,
        **{
            f"lint.rule_ms.{rule}": _median(durations(
                f"lint.rule.{rule}", roots_only=True)) * 1e3
            for rule in LINT_RULES
        },
        "repair.rounds": traced.extra.get("repair.rounds", 0),
        "repair.plans_applied": traced.extra.get("repair.plans_applied", 0),
        "repair.lint_ms": sum(durations("repair.lint")) * 1e3,
        "repair.apply_ms": sum(durations("repair.apply")) * 1e3,
        "runtime.gc_ms": tracer.gc_seconds * 1e3,
        "bench.generator_late_p99_ms": percentile(
            untraced.lateness, 0.99) * 1e3 if untraced.lateness else 0.0,
        "bench.trace_overhead_frac": (
            (traced_p50 - untraced_p50) / untraced_p50),
        "bench.submit_accounted_frac": _median(accounted),
    }
    if accounted:
        traced.check(
            f"queue wait plus writer spans cover >= {ACCOUNTED_FLOOR:.0%} "
            "of the median write's submit latency",
            metrics["bench.submit_accounted_frac"] >= ACCOUNTED_FLOOR,
            f"{metrics['bench.submit_accounted_frac']:.3f}",
        )
    return metrics


def _describe(name: str, run, metrics: dict) -> None:
    failed = run.failed / run.attempted if run.attempted else 0.0
    print(f"# {name}: {run.attempted} requests attempted, {run.failed} "
          f"failed (ops_failed_frac {failed:.6f} of {run.attempted})")
    for key, value in metrics.items():
        unit = END_TO_END.get(key, PER_LAYER.get(key, ("", "")))[0]
        print(f"#   {key:<40} {value:>14.4f} {unit}")
    for key, (value, samples) in sorted(
        (k, v) for k, v in run.extra.items() if isinstance(v, tuple)
    ):
        print(f"#   {key:<40} {value:>14.4f}  (n={samples})")
    for check, passed, detail in run.checks:
        print(f"#   check {'ok  ' if passed else 'FAIL'} {check}"
              + (f" ({detail})" if detail else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scripts, workloads = _load_program()

    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        def execute(tracer=None, setups=SETUPS):
            if args.workload == "pdp-read-hot":
                run = workloads.run_pdp(
                    scripts.READ_HOT, args.seed, args.seconds, tracer,
                    setups, str(workdir))
            elif args.workload == "pdp-write-churn":
                run = workloads.run_pdp(
                    scripts.WRITE_CHURN, args.seed, args.seconds, tracer,
                    setups, str(workdir))
            elif args.workload == "dbms-mixed":
                run = workloads.run_dbms(
                    args.seed, args.seconds, tracer, setups, str(workdir))
            else:
                run = workloads.run_audit(
                    args.seed, args.seconds, tracer, setups, str(workdir))
            # Every workload runs at production defaults well inside
            # the service's limits, so a refused or failed request is
            # a fault of the program.
            run.check("no request failed", run.failed == 0,
                      f"{run.failed} of {run.attempted}")
            return run

        untraced = execute()
        metrics = end_to_end(args.workload, untraced, workloads.percentile)
        untraced.extra.update(
            raw_figures(args.workload, untraced, workloads.percentile))
        _describe(args.workload, untraced, metrics)
        runs = [untraced]
        if args.trace:
            import tracing

            traced = execute(tracing.Tracer(), setups=1)
            metrics = per_layer(args.workload, untraced, traced,
                                workloads.percentile)
            traced.tracer.write(str(
                WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"))
            _describe(f"{args.workload} (traced)", traced, metrics)
            runs.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(passed for run in runs for _, passed, _ in run.checks)
    result = {
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {
            name: {
                "value": value,
                "unit": (END_TO_END.get(name) or PER_LAYER[name])[0],
            }
            for name, value in metrics.items()
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
