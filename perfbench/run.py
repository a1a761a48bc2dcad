"""The repo benchmark: seeded sweep/read workloads through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-bulk --seed 1 --seconds 18 --trace 0

A closed loop with one client: each op starts after the previous one ended
and its output was checked.  ``CHILDREN`` measuring processes run one after
another; each imports ``repro`` from ``src/`` of the checkout holding this
file (never from anywhere else), sets its workload up once and runs ops
until it has measured its share of ``--seconds`` of op time.  The parent
pools their samples.  A fixed calibration pass runs before every op, and
end-to-end times are reported at a reference machine speed (see
``CALIBRATION_NOMINAL_S``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics (see ``LAYERS.md``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch directory inside the checkout for stores and the span dump.
WORKDIR = ROOT / ".perfbench-work"

#: Measuring processes per run, run one after another.  Each sets up once
#: (``setup_s`` is the median) and measures its share of ``--seconds``; op
#: samples are pooled, so one process's luck (hash seed, memory layout)
#: moves the pooled median less.
CHILDREN = 3
#: Measuring processes still running this long after the run began are
#: killed, with every process they started, and the run fails.
DEADLINE_S = 170
#: The tail percentile is the highest one with this many samples beyond it.
TAIL_BEYOND = 10
#: Ops per run, at least (split over the processes): enough for a tail
#: percentile to exist.
MIN_OPS = TAIL_BEYOND + 1

#: Seconds one calibration pass takes on the reference machine (2-vCPU KVM
#: guest, Intel Xeon model 143, Python 3.11, quiet host).  The host's
#: speed drifts by up to 1.8x over seconds to minutes, invisibly to the
#: guest (no steal time; process CPU time drifts with wall time).  So a
#: calibration pass runs before every op and once after the last, and the
#: end-to-end times are reported at the reference speed: measured seconds
#: x ``CALIBRATION_NOMINAL_S`` / the calibration seconds measured around
#: them.  The raw seconds are printed as well.
CALIBRATION_NOMINAL_S = 0.09
#: A fixed record list the calibration pass serialises and parses back:
#: stdlib-only interpreter work of the same kind as the ops (dicts,
#: floats, JSON), untouched by any change to ``src/``.
_CALIBRATION_RECORDS = [
    {
        "scenario": index,
        "label": f"s{index}-" + "x" * (index % 7),
        "total_carbon_g": 1.0e6 / (index + 3.0),
        "cost_usd": (index * 7919) % 1000 / 3.0,
        "nodes": [7, 10, index % 22],
        "name": "ga102",
    }
    for index in range(1500)
]
_CALIBRATION_ROUNDS = 3
_CALIBRATION_LOOP = 150_000
#: Calibration passes taken into account on each side of an op, beyond the
#: two adjacent to it (see ``scaled_samples``).
CALIBRATION_SPAN = 2


def calibration_s() -> float:
    """Seconds one pass of a fixed stdlib JSON and arithmetic loop takes now.

    The cyclic garbage collector is off during the pass: its cost grows with
    the objects the workload keeps alive, which would make the pass measure
    the heap instead of the machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_CALIBRATION_ROUNDS):
            lines = [json.dumps(record, sort_keys=True) for record in _CALIBRATION_RECORDS]
            parsed = [json.loads(line) for line in lines]
            parsed.sort(key=lambda record: (record["cost_usd"], record["scenario"]))
        # Interpreter-bound arithmetic and dict updates, like compile and
        # record building; JSON alone slows more than they do when the
        # host is busy.
        total, x, sums = 0.0, 1.0000001, {}
        for index in range(_CALIBRATION_LOOP):
            x *= 1.0000001
            total += x * x + index
            key = (index % 97, index % 13)
            sums[key] = sums.get(key, 0.0) + total
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scaled_samples(samples: List[float], passes_before: List[int], passes: List[float]) -> List[float]:
    """Op seconds at the reference speed.

    Each op is scaled by the median of the calibration passes from
    ``CALIBRATION_SPAN`` ops before it to as many after it, the two passes
    adjacent to it included: one pass that ran slow or fast then moves no
    op, and drift over several ops is still followed.
    """
    return [
        elapsed * CALIBRATION_NOMINAL_S
        / statistics.median(passes[max(0, before - CALIBRATION_SPAN):before + 2 + CALIBRATION_SPAN])
        for elapsed, before in zip(samples, passes_before)
    ]


def import_repro() -> float:
    """Import ``repro`` from this checkout's ``src/``; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - start
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")
    return elapsed


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (pool worker), in MiB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def tail(samples: List[float]) -> Dict[str, Any]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return {"value": ordered[-1], "percentile": 100.0, "samples": len(ordered)}
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
    }


def layer_metrics(
    tracer: layertrace.Tracer, workload: Any, output: Any, worker_cpu_s: float
) -> Dict[str, float]:
    """Per-layer numbers of one traced op (its spans are in ``tracer.spans``)."""
    spans = tracer.spans
    total, self_time, calls = layertrace.op_layers(spans)
    shares = {name: self_time[name] for name in calls}  # before lookups add zero keys
    (op_span,) = [span for span in spans if span[3] == "op"]
    op_s = op_span[5] - op_span[4]
    covered = sum(span[5] - span[4] for span in spans if span[1] == op_span[0])
    stats = [estimator.cache_stats() for estimator in tracer.estimators]
    lookups = sum(s["template_hits"] + s["template_misses"] for s in stats)
    analyse = workload.name == "analyse"
    return {
        "api.sweep_self_s": self_time["api.sweep"],
        "engine.self_s": self_time["engine.run"] + self_time["engine.wait"],
        "engine.wait_s": total["engine.wait"],
        "engine.worker_cpu_s": worker_cpu_s,
        "engine.record_pickle_bytes": 0 if analyse else workload.pickle_bytes(output),
        "spec.expand_s": total["spec.expand"],
        "spec.scenarios": tracer.result_sizes["spec.expand"],
        "fastpath.group_s": total["fastpath.group"],
        "fastpath.groups": tracer.result_sizes["fastpath.group"],
        "fastpath.compile_s": total["fastpath.compile"],
        "fastpath.compiles": sum(s["compiles"] for s in stats),
        "fastpath.template_lookups": lookups,
        "fastpath.template_hit_ratio": (
            sum(s["template_hits"] for s in stats) / lookups if lookups else 0.0
        ),
        "fastpath.evaluate_s": total["fastpath.evaluate"],
        "store.append_s": total["store.append"],
        "store.appends": calls["store.append"],
        "store.bytes_written": 0 if analyse else workload.bytes_written(),
        "store.resume_scan_s": total["store.resume_scan"],
        "store.load_s": total["store.load"],
        "store.rows_s": total["store.rows"],
        "store.bytes_read": workload.bytes_read() if analyse else 0,
        "explorer.pareto2_s": total["explorer.pareto2"],
        "explorer.pareto3_s": total["explorer.pareto3"],
        "explorer.front_size": len(output["front3"]) if analyse else 0,
        "trace.coverage": covered / op_s,
        "trace.op_s": op_s,
        "_self": shares,
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.startswith("store.bytes"):
        return "B"
    if name.endswith(("_ratio", "coverage")):
        return "1"
    return "count"


def child_main(args: argparse.Namespace) -> int:
    """One measuring process: import, set up once, run ops, report raw samples."""
    # The machine speed at set-up: this pass and the first one after set-up.
    setup_calibration = calibration_s()
    try:
        import_s = import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    stores = WORKDIR / f"stores-{args.child}"
    workload = workloads.make_workload(args.workload, args.seed, stores)
    tracer = layertrace.Tracer()
    report: Dict[str, Any] = {
        "stamp": workloads.environment_stamp(args.seed),
        "rows_per_op": workload.rows_per_op,
        "import_s": import_s,
        "setup_calibration": setup_calibration,
        "untraced": [],
        "traced": [],
        "layers": [],
        "attempted": 0,
        "failed": 0,
    }
    spans: List[Any] = []
    measured = 0.0
    report["first_op_at"] = time.monotonic()
    report["calibration"] = [calibration_s()]
    # Index in report["calibration"] of the pass before each untraced op.
    passes_before: List[int] = []
    while measured < args.seconds or report["attempted"] < -(-MIN_OPS // CHILDREN):
        trace_this = bool(args.trace) and report["attempted"] % 2 == 1
        report["attempted"] += 1
        gc.collect()
        cpu_before = children_cpu_s()
        output = None
        try:
            if trace_this:
                tracer.begin_op(report["attempted"])
                with tracer.installed(), tracer.span("op"):
                    output = workload.op(tracer.span)
            else:
                start = time.perf_counter()
                output = workload.op()
                elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            report["failed"] += 1
            traceback.print_exc()
        worker_cpu_s = children_cpu_s() - cpu_before
        report["calibration"].append(calibration_s())
        if output is None:
            continue
        problems = workload.check(output, report["attempted"])
        if problems:
            report["failed"] += 1
            print(f"op {report['attempted']} failed its check: {problems[:3]}", file=sys.stderr)
            continue
        if trace_this:
            op_layers = layer_metrics(tracer, workload, output, worker_cpu_s)
            elapsed = op_layers.pop("trace.op_s")
            report["traced"].append(elapsed)
            report["layers"].append(op_layers)
            if not spans:
                spans = list(tracer.spans)
        else:
            report["untraced"].append(elapsed)
            passes_before.append(len(report["calibration"]) - 2)
        measured += elapsed
        del output
    shutil.rmtree(stores, ignore_errors=True)
    report["scaled"] = scaled_samples(report["untraced"], passes_before, report["calibration"])
    report["measured"] = measured
    report["digest"] = workloads.records_digest(workload.reference)
    report["peak_rss_mb"] = peak_rss_mb()
    if spans and args.child == 0:
        with open(WORKDIR / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as handle:
            header = {"env": report["stamp"], "fields": ["id", "parent", "op", "name", "start", "end"]}
            handle.write(json.dumps(header) + "\n")
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    return 0


def run_children(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Run ``CHILDREN`` measuring processes one after another; their reports.

    Raises ``RuntimeError`` when a child fails or misses the deadline, so no
    result is printed.  Each child leads its own process group, so a kill
    also reaches the pool workers it forked.
    """
    deadline = time.monotonic() + DEADLINE_S
    reports = []
    measured = 0.0
    for index in range(CHILDREN):
        # Each child measures its share of what is left, so the run's op
        # count rounds up once, not once per child.
        share = max(0.0, args.seconds - measured) / (CHILDREN - index)
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(share), "--trace", str(args.trace),
            "--child", str(index),
        ]
        launched = time.monotonic()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, _ = child.communicate(timeout=max(0.0, deadline - launched))
        except BaseException as exc:  # deadline, SIGTERM or Ctrl-C: stop the child's group
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"measuring process {index} missed the {DEADLINE_S} s deadline")
            raise
        if child.returncode != 0:
            raise RuntimeError(f"measuring process {index} exited with {child.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
        report["setup_s"] = report["first_op_at"] - launched - report["setup_calibration"]
        measured += report["measured"]
        reports.append(report)
    return reports


def trace_metrics(reports: List[Dict[str, Any]], workload: str) -> Dict[str, float]:
    """Per-layer medians over every traced op, plus tracing overhead and shares."""
    layers = [op for report in reports for op in report["layers"]]
    traced = [value for report in reports for value in report["traced"]]
    untraced = [value for report in reports for value in report["untraced"]]
    metrics = {
        name: statistics.median(op[name] for op in layers)
        for name in layers[0]
        if not name.startswith("_")
    }
    metrics["import.repro_s"] = statistics.median(report["import_s"] for report in reports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(
        f"trace  {len(traced)} traced / {len(untraced)} untraced ops; overhead "
        f"{metrics['trace.overhead_s']:+.4f} s on p50 {statistics.median(untraced):.4f} s; "
        f"layer spans cover {100 * metrics['trace.coverage']:.1f}% of op time"
    )
    if workload == "sweep-parallel":
        print("trace  worker-side spans are not captured: parent side plus engine.worker_cpu_s")
    op_median = statistics.median(traced)
    for name in sorted({name for op in layers for name in op["_self"]} - {"op"}):
        share = statistics.median(op["_self"].get(name, 0.0) for op in layers) / op_median
        print(f"share  {name:22s} self {100 * share:5.1f}% of traced op time")
    gap = 1.0 - metrics["trace.coverage"]
    print(f"share  {'(outside layer spans)':22s} self {100 * gap:5.1f}% of traced op time")
    return metrics


def end_to_end_metrics(reports: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Pooled op samples of every measuring process, medians of their set-ups.

    Times are at the reference machine speed (see ``CALIBRATION_NOMINAL_S``):
    each op by the calibration passes around it (``scaled_samples``), each
    set-up by the mean of a pass at process start, not counted in the
    set-up, and the first pass after it.
    """
    samples = [value for report in reports for value in report["scaled"]]
    setups = [
        report["setup_s"] * 2 * CALIBRATION_NOMINAL_S
        / (report["setup_calibration"] + report["calibration"][0])
        for report in reports
    ]
    op_tail = tail(samples)
    raw = [value for report in reports for value in report["untraced"]]
    calibrations = [value for report in reports for value in report["calibration"]]
    print(
        f"raw    op p50 {statistics.median(raw):.4f} s, set-up "
        f"{statistics.median(r['setup_s'] for r in reports):.4f} s; calibration pass "
        f"median {statistics.median(calibrations):.4f} s (reference {CALIBRATION_NOMINAL_S} s)"
    )
    print(
        f"tail   p{op_tail['percentile']:.1f} of {op_tail['samples']} ops "
        f"({TAIL_BEYOND} samples beyond it)"
    )
    p50 = statistics.median(samples)
    return {
        "rows_per_s": {"value": reports[0]["rows_per_op"] / p50, "unit": "rows/s"},
        "op_p50_s": {"value": p50, "unit": "s"},
        "op_tail_s": {"value": op_tail["value"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports), "unit": "MiB"},
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {list(workloads.WORKLOADS)}")
    if args.child is not None:
        return child_main(args)

    # SIGTERM unwinds like Ctrl-C, so run_children can stop the measuring process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORKDIR.mkdir(exist_ok=True)
    try:
        reports = run_children(args)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    print(f"env    {json.dumps(reports[0]['stamp'], sort_keys=True)}")
    print(f"setup  {reports[0]['rows_per_op']} rows/op, reference digest {reports[0]['digest'][:16]}")
    print(f"ops    {CHILDREN} processes, {attempted} attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    complete = all(report["untraced"] and (report["traced"] or not args.trace) for report in reports)
    if not complete:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0
    if args.trace:
        metrics = trace_metrics(reports, args.workload)
        result = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(metrics.items())}
    else:
        result = end_to_end_metrics(reports)
    for name, metric in result.items():
        print(f"metric {name:30s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
