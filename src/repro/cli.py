"""Command-line interface: ``eco-chip --design-dir <dir>``.

Mirrors the released tool's ``python3 src/ECO_chip.py --design_dir …``
entry point: load a design directory, estimate its total carbon footprint,
optionally sweep the nodes listed in ``node_list.txt`` for each chiplet, and
print (or write) the results.

Every evaluation runs on :class:`repro.api.Session`: the estimate is
``Session.estimate``, and ``--sweep-nodes`` and ``eco-chip sweep`` are
``Session.sweep`` runs whose rows the CLI prints as they arrive.

Additional conveniences:

* ``--testcase <name>`` runs one of the built-in testcases instead of a
  design directory (see ``--list-testcases``).
* ``--output <file>`` writes the full JSON report of the base configuration.
* ``eco-chip sweep --spec <file> --jobs N --out results.jsonl`` evaluates a
  declarative scenario grid in parallel, streaming results to disk (see
  :mod:`repro.sweep`).
* ``eco-chip sweep --preset ga102-grid`` evaluates the grid through the
  compiled batch engine (:mod:`repro.fastpath`), and ``--resume
  results.jsonl`` continues an interrupted sweep by skipping the scenario
  ids already in the file; the stored rows count in the best record and
  the ``--top``/``--pareto`` tables.
* ``eco-chip serve`` runs the sweep-as-a-service HTTP job server
  (:mod:`repro.serve`) with a shared compiled-template cache, quotas and
  a metrics endpoint.
* ``eco-chip search --spec <file> --budget N --strategy successive_halving``
  runs a goal-driven adaptive search (:mod:`repro.search`) over a sweep
  grid instead of enumerating it, streaming every evaluated point to the
  crash-safe store with its ``search_round``.

Errors take one path.  Every front-end (estimate, ``sweep``, ``search``,
``serve``) raises :class:`~repro.serve.errors.SpecError` when the request
itself is invalid (bad spec, unknown testcase/preset/axis/format, bad flag
values, a resume store of another schema, a value an evaluation rejects)
and :class:`~repro.serve.errors.RuntimeJobError` when a valid request
fails at run time (I/O, a locked store, port in use); :func:`main`
alone prints them, as ``error: [code] message``, and exits ``2`` or ``3``
— the same split, with the same structured error text, the HTTP API
reports.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.axes import get_axis
from repro.core.estimator import EstimatorConfig
from repro.core.results import SystemCarbonReport
from repro.io.loaders import load_design_directory
from repro.io.writers import write_report
from repro.serve.errors import RuntimeJobError, ServeError, SpecError, error_message
from repro.technology.carbon_sources import carbon_intensity
from repro.testcases.registry import get_testcase, list_testcases


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="eco-chip",
        description=(
            "Estimate the embodied and operational carbon footprint of "
            "monolithic and chiplet-based (heterogeneously integrated) systems."
        ),
        epilog=(
            "Scenario grids: 'eco-chip sweep --spec <file> --jobs N --out "
            "results.jsonl' (see 'eco-chip sweep --help')."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--design-dir",
        "--design_dir",
        dest="design_dir",
        help="Directory with architecture.json / packageC.json / ... files",
    )
    source.add_argument(
        "--testcase",
        help="Name of a built-in testcase (see --list-testcases)",
    )
    parser.add_argument(
        "--list-testcases",
        action="store_true",
        help="List the built-in testcases and exit",
    )
    parser.add_argument(
        "--list-packaging",
        action="store_true",
        help=(
            "List the registered packaging architectures (with aliases, spec "
            "classes and sweepable param axes, including entry-point plugins) "
            "and exit"
        ),
    )
    parser.add_argument(
        "--list-axes",
        action="store_true",
        help=(
            "List the registered sweep axes (built-in and plugin knobs "
            "usable in spec files and 'eco-chip sweep --set') and exit"
        ),
    )
    parser.add_argument(
        "--sweep-nodes",
        action="store_true",
        help=(
            "Sweep every combination of the nodes in node_list.txt across "
            "the chiplets (design directories only)"
        ),
    )
    parser.add_argument(
        "--fab-source",
        default="coal",
        help="Energy source of the manufacturing fab (default: coal)",
    )
    parser.add_argument(
        "--wafer-diameter-mm",
        type=float,
        default=450.0,
        help="Wafer diameter in mm (default: 450)",
    )
    parser.add_argument(
        "--no-wafer-waste",
        action="store_true",
        help="Exclude wafer-periphery silicon waste from the manufacturing CFP",
    )
    parser.add_argument(
        "--no-design-cfp",
        action="store_true",
        help="Exclude the design CFP term (ACT-style embodied accounting)",
    )
    parser.add_argument(
        "--output",
        help="Write the base-configuration report to this JSON file",
    )
    return parser


@contextlib.contextmanager
def _raise_as(error: type, *caught: type, prefix: str = "") -> Iterator[None]:
    """Re-raise any ``caught`` exception of the block as the structured
    ``error`` (:class:`SpecError` or :class:`RuntimeJobError`), keeping
    its message after ``prefix``."""
    try:
        yield
    except caught as exc:
        raise error(prefix + error_message(exc)) from exc


def _config_from_args(args: argparse.Namespace) -> EstimatorConfig:
    # The same checks a sweep spec's carbon_sources and wafer_diameter_mm make.
    for flag, check, value in (
        ("--fab-source", carbon_intensity, args.fab_source),
        ("--wafer-diameter-mm", get_axis("wafer_diameter_mm").validate, args.wafer_diameter_mm),
    ):
        with _raise_as(SpecError, KeyError, ValueError, prefix=f"{flag}: "):
            check(value)
    return EstimatorConfig(
        fab_carbon_source=args.fab_source,
        package_carbon_source=args.fab_source,
        design_carbon_source=args.fab_source,
        wafer_diameter_mm=args.wafer_diameter_mm,
        include_wafer_waste=not args.no_wafer_waste,
        include_design=not args.no_design_cfp,
    )


def _print_sweep(session: Session, design_dir: str, nodes: List[float]) -> None:
    """Stream one row per node configuration of a design directory.

    A sweep of the directory's nodes on ``session``: rows are printed as
    their template groups are evaluated, in grid order, so huge sweeps
    start producing output at once and hold no result set in memory.
    """
    header = (
        f"{'configuration':<24} {'packaging':<20} {'Cmfg (kg)':>12} {'Cdes (kg)':>12} "
        f"{'C_HI (kg)':>12} {'Cemb (kg)':>12} {'Ctot (kg)':>12}"
    )
    print(header)
    print("-" * len(header))

    def print_rows(block) -> None:
        for record in block.records():
            label = "(" + ",".join(f"{int(n)}" for n in record["nodes"]) + ")"
            print(
                f"{label:<24} {record['packaging']:<20} "
                f"{record['manufacturing_carbon_g'] / 1000.0:>12.2f} "
                f"{record['design_carbon_g'] / 1000.0:>12.2f} "
                f"{record['hi_carbon_g'] / 1000.0:>12.2f} "
                f"{record['embodied_carbon_g'] / 1000.0:>12.2f} "
                f"{record['total_carbon_g'] / 1000.0:>12.2f}"
            )

    with _raise_as(SpecError, KeyError, ValueError):
        session.sweep(
            {"design_dirs": [design_dir], "nodes": nodes},
            collect_records=False,
            on_block=print_rows,
        )


#: Environment default of ``--compile-cache`` (sweep and serve).
COMPILE_CACHE_ENV = "ECO_CHIP_COMPILE_CACHE"


def resolve_compile_cache(explicit: Optional[str]) -> Optional[str]:
    """The persistent compile-cache directory for one run: the explicit
    ``--compile-cache``, else the ``ECO_CHIP_COMPILE_CACHE`` environment
    default (set once per machine), else none."""
    if explicit is not None:
        return explicit
    return os.environ.get(COMPILE_CACHE_ENV) or None


def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``eco-chip sweep`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="eco-chip sweep",
        description=(
            "Evaluate a declarative scenario grid (nodes x packaging x fab "
            "sources x lifetimes x volumes) in parallel, streaming results "
            "to a JSONL/CSV file.  Packaging entries may sweep "
            "per-architecture parameter axes: "
            "{\"type\": \"bridge\", \"params\": {\"bridge_range_mm\": [2, 4]}} "
            "(see 'eco-chip --list-packaging' for each architecture's axes)."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--spec", help="Sweep-spec file (.json or YAML-ish .yaml)")
    source.add_argument("--preset", help="Name of a built-in sweep preset (see --list-presets)")
    parser.add_argument(
        "--list-presets", action="store_true", help="List the built-in sweep presets and exit"
    )
    parser.add_argument(
        "--set",
        dest="axis_sets",
        action="append",
        default=[],
        metavar="AXIS=V1[,V2,...]",
        help=(
            "Sweep a registered axis over the comma-separated values, e.g. "
            "--set wafer_diameter_mm=300,450 or --set 'router_spec={ports: 8}' "
            "(repeatable; see 'eco-chip --list-axes' for the axis catalogue)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="Worker processes (1 = serial, default)"
    )
    parser.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help=(
            "Persistent on-disk compile cache: compiled templates and "
            "floorplan signatures are stored content-addressed under DIR "
            "and shared across runs, processes, and restarts "
            "(defaults to $ECO_CHIP_COMPILE_CACHE when set)"
        ),
    )
    parser.add_argument(
        "--out", help="Stream results to this file (.jsonl/.ndjson or .csv)"
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        help=(
            "Resume into this result file: scenarios whose ids are already "
            "in it are skipped, new records are appended (implies --out FILE)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "Retry each failing scenario up to N times (exponential backoff "
            "with deterministic jitter) before recording it as an error row"
        ),
    )
    parser.add_argument(
        "--scenario-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "Soft per-scenario time budget; with --jobs > 1 a hung worker "
            "chunk is killed and its scenarios requeued once the budget "
            "(scaled by chunk size) expires"
        ),
    )
    parser.add_argument(
        "--on-error",
        choices=["record", "raise"],
        default=None,
        help=(
            "What a scenario failure (after retries) does: 'record' stores "
            "a structured error row and continues, 'raise' aborts the sweep "
            "(default: record, when any resilience flag is given; without "
            "them failures abort as before)"
        ),
    )
    parser.add_argument(
        "--no-cost",
        action="store_true",
        help="Omit the cost_usd (dollar-cost model) column from the records",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="Print the N lowest-carbon scenarios (default: 5)"
    )
    parser.add_argument(
        "--pareto",
        metavar="OBJ1,OBJ2[,...]",
        help=(
            "Also print the Pareto front under the named comma-separated "
            "objectives (e.g. total_carbon_g,silicon_area_mm2)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="Only print the run summary line"
    )
    return parser


def _parse_axis_sets(entries: Sequence[str]) -> "dict":
    """Parse repeated ``--set AXIS=V1[,V2,...]`` flags into an axis mapping.

    Values use the YAML-ish inline grammar (scalars, ``[...]``, ``{...}``)
    split on top-level commas, then go through the axis's own parser and
    validator, so a typo fails here with the axis named — before any
    evaluation starts.

    Raises:
        KeyError: an unregistered axis name (message lists the catalogue).
        ValueError: malformed ``NAME=...`` syntax, an empty value list, a
            repeated axis, or a value the axis's validator rejects.
    """
    from repro.yamlish import split_inline

    axes: dict = {}
    for entry in entries:
        name, sep, text = entry.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"--set expects AXIS=V1[,V2,...], got {entry!r} "
                f"(see 'eco-chip --list-axes')"
            )
        axis = get_axis(name)  # raises KeyError listing registered axes
        if axis.name in axes:
            raise ValueError(
                f"--set {axis.name} given more than once; list every value "
                f"in one flag: --set {axis.name}=V1,V2,..."
            )
        parts = split_inline(text) if text.strip() else []
        if not parts:
            raise ValueError(f"--set {axis.name}: no values given")
        try:
            values = [axis.parse_text(part) for part in parts]
        except (TypeError, ValueError, KeyError) as exc:
            # KeyError included: axis validators that delegate to lookup
            # helpers (e.g. carbon sources) raise it for unknown names.
            raise ValueError(f"--set {axis.name}: {error_message(exc)}") from exc
        axes[axis.name] = values
    return axes


def _spec_config(
    spec_file: Optional[str],
    preset: Optional[str],
    axis_sets: Sequence[str],
    space: Optional[str] = None,
) -> Tuple[Dict[str, Any], Any]:
    """The spec mapping of a ``--spec`` file or a preset, with the ``--set``
    axes merged in; returns ``(config, base_dir)``.

    Sweeps merge the axes into the top level.  Searches name the ``space``
    key holding their sweep-spec mapping: the preset becomes that mapping
    and the axes go into it.

    Raises:
        OSError, KeyError, TypeError, ValueError: an unreadable spec file,
            an unknown preset or axis, a bad ``--set`` value, or an axis the
            spec already sweeps.
    """
    from repro.sweep.spec import load_spec_dict, preset_dict

    axes = _parse_axis_sets(axis_sets)
    if preset:
        config, base_dir = preset_dict(preset), None
        if space is not None:
            config = {space: config}
    else:
        config, base_dir = load_spec_dict(spec_file)
    target = config.get(space) if space is not None else config
    if axes and not isinstance(target, dict):
        raise ValueError(
            f"--set needs the spec's {space!r} to be a sweep-spec mapping to "
            f"merge axes into"
        )
    for name, values in axes.items():
        if name in target:
            raise ValueError(
                f"--set {name} conflicts with the {space or 'spec'}'s own "
                f"{name!r} axis; drop one of the two"
            )
        target[name] = values
    return config, base_dir


def _store_path(args: argparse.Namespace, resume_does: str) -> Optional[str]:
    """The store a sweep or search writes: ``--resume FILE`` implies
    ``--out FILE``, and the two may not name different files."""
    if args.resume and args.out and Path(args.out).resolve() != Path(args.resume).resolve():
        raise SpecError(f"--resume {resume_does}; drop --out or pass the same path")
    return args.resume or args.out


def _sweep_main(argv: Sequence[str]) -> int:
    """Implementation of ``eco-chip sweep``; returns a process exit code."""
    from repro.core.explorer import pareto_front
    from repro.sweep.engine import check_objectives
    from repro.sweep.spec import PRESETS, SweepSpec
    from repro.sweep.store import repair_torn_tail, rows_from_records

    parser = build_sweep_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in sorted(PRESETS):
            print(name)
        return 0
    if not args.spec and not args.preset:
        parser.print_help()
        return 1
    if args.jobs < 1:
        raise SpecError(f"--jobs must be >= 1, got {args.jobs}")
    if args.top < 0:
        raise SpecError(f"--top must be >= 0, got {args.top}")
    objectives: List[str] = []
    if args.pareto is not None:
        objectives = [name.strip() for name in args.pareto.split(",") if name.strip()]
        with _raise_as(SpecError, KeyError, ValueError, prefix="--pareto: "):
            check_objectives(objectives, include_cost=not args.no_cost)
    if args.retries is not None and args.retries < 0:
        raise SpecError(f"--retries must be >= 0, got {args.retries}")
    timeout = args.scenario_timeout
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise SpecError(f"--scenario-timeout must be > 0, got {timeout}")
    resilience = None
    if args.retries is not None or timeout is not None or args.on_error is not None:
        from repro.resilience import ResiliencePolicy, RetryPolicy

        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=(args.retries or 0) + 1),
            on_error=args.on_error or "record",
            scenario_timeout_s=timeout,
        )

    with _raise_as(SpecError, OSError, KeyError, TypeError, ValueError):
        config, base_dir = _spec_config(args.spec, args.preset, args.axis_sets)
        spec = SweepSpec.from_dict(config, base_dir=base_dir)
        count = spec.count()
    if not count:
        raise SpecError("the spec expands into zero scenarios")

    out_path = _store_path(args, "writes into the resumed file")
    with _raise_as(RuntimeJobError, OSError, prefix=f"cannot read resume file {args.resume}: "):
        if args.resume and repair_torn_tail(args.resume):
            print(f"repaired torn tail of {args.resume} (crashed run)")

    # Stream with bounded memory: a callback keeps a top-N heap, and
    # records are only accumulated when --pareto needs the full set.  A
    # resumed store's records come first, so the tables cover the whole
    # sweep, not just the new tail.
    top_n = args.top if not args.quiet else 0
    top_heap: List = []  # (-total_carbon_g, sequence, record)
    pareto_records: Optional[List] = [] if args.pareto else None
    sequence = itertools.count()

    def fold(block) -> None:
        """Fold a block's records into the top-N heap and the Pareto
        candidates."""
        for record in block.records():
            total_g = record.get("total_carbon_g")
            if total_g is None:
                # A contained failure (--retries/--on-error record): the
                # row holds a structured error payload, not metrics.
                continue
            if top_n > 0:
                heapq.heappush(top_heap, (-total_g, next(sequence), record))
                if len(top_heap) > top_n:
                    heapq.heappop(top_heap)
            if pareto_records is not None:
                pareto_records.append(record)

    # A bad request (an unknown store format, a resume store of another
    # schema, a value an evaluation rejects) is a spec error; I/O failures,
    # a live writer holding the store lock and an unusable compile cache
    # are runtime ones.
    with _raise_as(RuntimeJobError, OSError, RuntimeError), _raise_as(SpecError, ValueError):
        summary = Session(
            jobs=args.jobs,
            include_cost=not args.no_cost,
            compile_cache=resolve_compile_cache(args.compile_cache),
            resilience=resilience,
        ).sweep(
            spec,
            out=out_path,
            resume=bool(args.resume),
            collect_records=False,
            on_block=fold if top_n > 0 or pareto_records is not None else None,
        ).summary
    skipped = summary.skipped_count
    if skipped:
        print(f"resuming {args.resume}: {skipped} scenarios already evaluated")
    if skipped == count:
        print(f"nothing to do: all scenarios already in {args.resume}")
        return 0

    skip_note = f" ({skipped} resumed)" if skipped else ""
    error_note = f", {summary.error_count} failed" if summary.error_count else ""
    best = summary.best
    best_note = (
        "no successful scenarios"
        if best is None
        else f"best Ctot = {best['total_carbon_g'] / 1000.0:.2f} kg "
        f"({best['base']} nodes={best['nodes']} {best['packaging']}/{best['fab_source']})"
    )
    print(
        f"sweep {spec.name!r}: {summary.scenario_count} scenarios{skip_note}{error_note}, "
        f"jobs={args.jobs}, {best_note}"
    )
    if summary.store_path is not None:
        print(f"results written to {summary.store_path}")

    if top_n > 0:
        top_records = sorted(
            (record for _, _, record in top_heap), key=lambda r: r["total_carbon_g"]
        )
        print(f"\ntop {len(top_records)} scenarios by total carbon:")
        header = f"{'rank':>4} {'Ctot (kg)':>12} {'nodes':<16} {'packaging':<20} {'source':<14} base"
        print(header)
        print("-" * len(header))
        for rank, record in enumerate(top_records, start=1):
            nodes = record["nodes"]
            node_text = "(" + ",".join(f"{n:g}" for n in nodes) + ")" if nodes else "-"
            print(
                f"{rank:>4} {record['total_carbon_g'] / 1000.0:>12.2f} "
                f"{node_text:<16} {record['packaging']:<20} "
                f"{record['fab_source']:<14} {record['base']}"
            )

    if pareto_records is not None:
        with _raise_as(SpecError, KeyError):
            front = pareto_front(rows_from_records(pareto_records), objectives)
        print(f"\nPareto front under {objectives} ({len(front)} points):")
        for row in front:
            values = ", ".join(f"{name}={row.objective(name):.4g}" for name in objectives)
            print(f"  {row.label}: {values}")

    return 0


def build_search_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``eco-chip search`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="eco-chip search",
        description=(
            "Goal-driven adaptive search over a sweep grid: a strategy "
            "(random, successive_halving, pareto_refine) spends an "
            "evaluation budget on the most promising scenarios instead of "
            "enumerating the grid.  The spec file holds a 'space' key (an "
            "ordinary sweep spec), weighted 'objectives', optional hard "
            "'constraints', a 'budget' and a 'seed'; a fixed seed gives "
            "bit-identical results for every jobs count."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--spec", help="Search-spec file (.json or YAML-ish .yaml) with a 'space' key"
    )
    source.add_argument(
        "--space-preset",
        metavar="NAME",
        help=(
            "Search over a built-in sweep preset as the candidate space "
            "(see 'eco-chip sweep --list-presets')"
        ),
    )
    parser.add_argument(
        "--set",
        dest="axis_sets",
        action="append",
        default=[],
        metavar="AXIS=V1[,V2,...]",
        help=(
            "Add a registered axis to the candidate space, e.g. --set "
            "lifetimes=2,4,6 or --set wafer_diameter_mm=300,450 "
            "(repeatable; see 'eco-chip --list-axes')"
        ),
    )
    parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="Maximum distinct candidate evaluations (overrides the spec)",
    )
    parser.add_argument(
        "--strategy", default=None, metavar="NAME",
        help=(
            "Search strategy: random, successive_halving or pareto_refine "
            "(overrides the spec)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="Random seed of the candidate sequence (overrides the spec)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="Candidates per evaluation batch (overrides the spec)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="Worker processes (1 = serial, default)"
    )
    parser.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help=(
            "Persistent on-disk compile cache "
            "(defaults to $ECO_CHIP_COMPILE_CACHE when set)"
        ),
    )
    parser.add_argument(
        "--out", help="Stream evaluated records to this file (.jsonl/.ndjson or .csv)"
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        help=(
            "Resume a killed search from this result file: candidates whose "
            "rows are already in it are replayed instead of re-evaluated "
            "(implies --out FILE)"
        ),
    )
    parser.add_argument(
        "--no-cost",
        action="store_true",
        help="Omit the cost_usd (dollar-cost model) column from the records",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="Only print the run summary line"
    )
    return parser


def _search_main(argv: Sequence[str]) -> int:
    """Implementation of ``eco-chip search``; returns a process exit code."""
    from repro.search import SearchSpec
    from repro.sweep.store import SweepRow

    parser = build_search_parser()
    args = parser.parse_args(argv)

    if not args.spec and not args.space_preset:
        parser.print_help()
        return 1
    if args.jobs < 1:
        raise SpecError(f"--jobs must be >= 1, got {args.jobs}")

    with _raise_as(SpecError, OSError, KeyError, TypeError, ValueError):
        config, base_dir = _spec_config(
            args.spec, args.space_preset, args.axis_sets, space="space"
        )
        for key, value in (
            ("budget", args.budget),
            ("strategy", args.strategy),
            ("seed", args.seed),
            ("batch_size", args.batch_size),
        ):
            if value is not None:
                config[key] = value
        spec = SearchSpec.from_dict(config, base_dir=base_dir)
        spec.space.count()  # checks testcase names and node configs up front

    out_path = _store_path(args, "replays and extends the resumed file")
    # A bad resume store is a bad request; I/O failures, a live writer
    # holding the store lock and an unusable compile cache are runtime ones.
    with _raise_as(RuntimeJobError, OSError, RuntimeError), _raise_as(SpecError, ValueError):
        result = Session(
            jobs=args.jobs,
            include_cost=not args.no_cost,
            compile_cache=resolve_compile_cache(args.compile_cache),
        ).search(spec, out=out_path, resume=bool(args.resume))

    fraction = 100.0 * result.evaluated_fraction
    print(
        f"search {spec.name!r}: strategy={spec.strategy} seed={spec.seed}, "
        f"{result.evaluations} of {result.grid_size} grid points evaluated "
        f"({fraction:.1f}%, budget {result.budget}), "
        f"{len(result.rounds)} rounds, jobs={args.jobs}"
    )
    if result.best is None:
        print("no feasible point found within the budget")
    else:
        print(
            f"best: score = {result.best_score:.6g}, "
            f"Ctot = {result.best['total_carbon_g'] / 1000.0:.2f} kg, "
            f"scenario {result.best['scenario']} ({result.best_label})"
        )
    if result.store_path is not None:
        print(f"results written to {result.store_path}")

    if not args.quiet:
        header = (
            f"{'round':>5} {'eval':>6} {'replay':>6} {'best score':>14} "
            f"{'front':>6} {'+':>4} {'-':>4}"
        )
        print(f"\ntrajectory:\n{header}")
        print("-" * len(header))
        for stats in result.rounds:
            best_text = (
                f"{stats.best_score:14.6g}"
                if stats.best_index is not None
                else f"{'-':>14}"
            )
            print(
                f"{stats.round_index:>5} {stats.evaluated:>6} "
                f"{stats.replayed:>6} {best_text} {stats.front_size:>6} "
                f"{stats.front_entered:>4} {stats.front_left:>4}"
            )
        if result.front:
            metrics = list(spec.metric_names)
            print(f"\nPareto front under {metrics} ({len(result.front)} points):")
            for record in result.front:
                row = SweepRow(record)
                values = ", ".join(
                    f"{name}={row.objective(name):.4g}" for name in metrics
                )
                print(f"  [{record['scenario']}] {row.label}: {values}")

    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``eco-chip serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="eco-chip serve",
        description=(
            "Run the sweep-as-a-service HTTP job server: POST SweepSpec-"
            "shaped jobs to /v1/sweeps, poll /v1/sweeps/{id}, stream "
            "/v1/sweeps/{id}/results, scrape /v1/metrics.  Compiled "
            "templates are cached process-wide, so repeat traffic is "
            "evaluated without recompiling."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="Bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8437,
        help="Port to listen on; 0 picks an ephemeral port (default: 8437)",
    )
    parser.add_argument(
        "--store-dir", default="serve-jobs",
        help=(
            "Directory for per-job metadata and JSONL record stores; "
            "unfinished jobs found here are resumed on startup "
            "(default: ./serve-jobs)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="Worker threads evaluating jobs concurrently (default: 2)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=32,
        help="Pending-job queue bound; full rejects with 503 (default: 32)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="Worker processes per sweep; 1 keeps evaluation in-process "
             "and shares the compile cache (default: 1)",
    )
    parser.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help=(
            "Persistent on-disk compile cache: the shared compiled-template "
            "cache is mirrored content-addressed under DIR, so a restarted "
            "server starts warm (defaults to $ECO_CHIP_COMPILE_CACHE when "
            "set)"
        ),
    )
    parser.add_argument(
        "--quota", type=int, default=None, metavar="SCENARIOS",
        help=(
            "Per-client in-flight scenario budget (X-Client-Id header); "
            "submissions beyond it get 429 (default: unlimited)"
        ),
    )
    parser.add_argument(
        "--no-cost", action="store_true",
        help="Omit the cost_usd column from job records",
    )
    parser.add_argument(
        "--grace", type=float, default=30.0, metavar="SECONDS",
        help=(
            "Graceful-shutdown budget: on SIGINT/SIGTERM running jobs get "
            "this long to finish; stragglers are interrupted at their next "
            "record and stay resumable (default: 30)"
        ),
    )
    parser.add_argument(
        "--no-breaker", action="store_true",
        help=(
            "Disable the per-packaging-type circuit breaker (by default "
            "repeatedly failing job classes are rejected with 503 until a "
            "cooldown passes)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true", help="Log every HTTP request"
    )
    return parser


def _serve_main(argv: Sequence[str]) -> int:
    """Implementation of ``eco-chip serve``; returns a process exit code."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)

    for flag, value, minimum in (
        ("--workers", args.workers, 1),
        ("--queue-size", args.queue_size, 1),
        ("--jobs", args.jobs, 1),
        ("--quota", args.quota, 1),
    ):
        if value is not None and value < minimum:
            raise SpecError(f"{flag} must be >= {minimum}, got {value}")
    if not (math.isfinite(args.grace) and args.grace >= 0):
        raise SpecError(f"--grace must be >= 0, got {args.grace}")
    if not 0 <= args.port <= 65535:
        raise SpecError(f"--port must be 0..65535, got {args.port}")

    from repro.serve.app import create_server
    from repro.serve.quota import QuotaTracker

    quota = QuotaTracker(args.quota) if args.quota is not None else None
    with _raise_as(RuntimeJobError, OSError, prefix=f"cannot serve on {args.host}:{args.port}: "):
        server = create_server(
            args.host,
            args.port,
            store_dir=args.store_dir,
            workers=args.workers,
            queue_size=args.queue_size,
            jobs=args.jobs,
            include_cost=not args.no_cost,
            quota=quota,
            compile_cache_dir=resolve_compile_cache(args.compile_cache),
            breaker=False if args.no_breaker else None,
            verbose=args.verbose,
        )
    host, port = server.server_address[:2]
    print(
        f"serving sweeps on http://{host}:{port} "
        f"(workers={args.workers}, "
        f"jobs stored in {Path(args.store_dir).resolve()})",
        flush=True,
    )
    import signal

    def _on_sigterm(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            f"shutting down: draining running jobs (grace {args.grace:g}s; "
            f"stragglers are interrupted at their next record and stay "
            f"resumable)",
            flush=True,
        )
        server.close(drain=True, timeout=args.grace)
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    server.close(drain=True)
    return 0


def _estimate_main(argv: Sequence[str]) -> int:
    """Implementation of the plain ``eco-chip`` estimate; returns a process
    exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_testcases or args.list_packaging or args.list_axes:
        if args.list_testcases:
            for name in list_testcases():
                print(name)
        if args.list_packaging:
            from repro.packaging.registry import describe_packaging

            for line in describe_packaging():
                print(line)
        if args.list_axes:
            from repro.axes import describe_axes

            for line in describe_axes():
                print(line)
        return 0

    session = Session(_config_from_args(args), include_cost=False)

    node_sweep: List[float] = []
    if args.design_dir:
        with _raise_as(SpecError, FileNotFoundError, KeyError, ValueError):
            design = load_design_directory(args.design_dir)
        system = design.system
        node_sweep = design.node_sweep
    elif args.testcase:
        with _raise_as(SpecError, KeyError):
            system = get_testcase(args.testcase)
    else:
        parser.print_help()
        return 1

    report: SystemCarbonReport = session.estimate(system)
    print(report.summary())

    if args.output:
        with _raise_as(RuntimeJobError, OSError, prefix=f"cannot write report to {args.output}: "):
            path = write_report(report, args.output)
        print(f"\nreport written to {path}")

    if args.sweep_nodes:
        if not node_sweep:
            print(
                "\nno node_list.txt found; skipping the node sweep", file=sys.stderr
            )
        else:
            print("\nNode mix-and-match sweep:")
            _print_sweep(session, args.design_dir, node_sweep)

    return 0


_SUBCOMMANDS = {"sweep": _sweep_main, "search": _search_main, "serve": _serve_main}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    The one place an error is printed: a front-end raises
    :class:`~repro.serve.errors.SpecError` or
    :class:`~repro.serve.errors.RuntimeJobError`, and this prints it as
    ``error: [code] message`` and returns its exit code.
    """
    arguments = list(argv) if argv is not None else sys.argv[1:]
    command = _SUBCOMMANDS.get(arguments[0]) if arguments else None
    try:
        if command is not None:
            return command(arguments[1:])
        return _estimate_main(arguments)
    except ServeError as exc:
        print(exc.text(), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
