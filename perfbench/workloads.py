"""Seeded workloads of the repo benchmark: inputs, one timed op, output checks.

Every workload generates only axis *values* from its seed; grid sizes are
fixed, so the work per op does not depend on the seed.  Each workload object
does its set-up in ``__init__`` (spec generation, a ``jobs=1`` reference
evaluation, store writing for ``analyse``), exposes the timed ``op()`` and
an untimed ``check(output, op_index)`` that returns the list of problems
found (empty when the op's output is correct).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import os
import pickle
import random
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("sweep-bulk", "sweep-parallel", "sweep-churn", "analyse")

#: Pinned start method of the ``sweep-parallel`` worker pool.
MP_CONTEXT = "fork"

#: Rows per op checked against the scalar reference oracle.
ORACLE_SAMPLE = 32

#: Objectives of the two Pareto fronts the ``analyse`` op computes; the
#: 2-objective front uses a prefix of the 3-objective vectors.
PARETO3 = ("total_carbon_g", "cost_usd", "power_w")
PARETO2 = PARETO3[:2]

_GA102_GRID = {
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 10, 14, 22],
    "packaging": [
        "rdl_fanout", "silicon_bridge", "passive_interposer", "active_interposer", "3d",
    ],
    "carbon_sources": ["coal", "renewable_mix"],
}


# ---------------------------------------------------------------------------
# Seeded input generators (pure functions of the seed)
# ---------------------------------------------------------------------------
def _rng(stream: str, seed: int) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def bulk_spec_dict(seed: int, stream: str = "ga102-bulk") -> Dict[str, Any]:
    """ga102-grid x 10 lifetimes x 5 volumes = 32,000 scenarios, 320 templates."""
    rng = _rng(stream, seed)
    lifetimes = [quarter / 4 for quarter in sorted(rng.sample(range(2, 61), 10))]
    # Distinct milli-decade exponents give distinct volumes in [1e3, 1e7].
    volumes = [float(round(10 ** (e / 1000))) for e in sorted(rng.sample(range(3000, 7001), 5))]
    return {**_GA102_GRID, "name": stream, "lifetimes": lifetimes, "system_volumes": volumes}


def churn_spec_dict(seed: int) -> Dict[str, Any]:
    """3 testcases x all node mixes x 5 packagings x 3 wafers x 3 defect scales.

    6,480 scenarios, every one its own template, across 10 config contexts.
    """
    rng = _rng("churn", seed)
    return {
        "name": "churn",
        "testcases": ["ga102-3chiplet", "a15-3chiplet", "emr-2chiplet"],
        "nodes": _GA102_GRID["nodes"],
        "packaging": _GA102_GRID["packaging"],
        "wafer_diameter_mm": [float(d) for d in sorted(rng.sample(range(200, 451, 5), 3))],
        "defect_density_scale": [s / 100 for s in sorted(rng.sample(range(50, 201), 3))],
    }


def spec_dict(workload: str, seed: int) -> Dict[str, Any]:
    """The sweep-spec dictionary a workload evaluates for ``seed``."""
    if workload in ("sweep-bulk", "sweep-parallel"):
        return bulk_spec_dict(seed)
    if workload == "sweep-churn":
        return churn_spec_dict(seed)
    if workload == "analyse":
        return bulk_spec_dict(seed, stream="analyse-store")
    raise KeyError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Output checks (run outside the timed region)
# ---------------------------------------------------------------------------
def records_digest(records: Sequence[Mapping[str, Any]]) -> str:
    """Identity-independent digest of a record list (key order and exact floats).

    Hashed record by record, so the check adds no list-sized string to the
    peak RSS the benchmark reports.
    """
    hasher = hashlib.sha256()
    for record in records:
        hasher.update((repr(record) + "\n").encode("utf-8"))
    return hasher.hexdigest()


def jsonl_digest(records: Sequence[Mapping[str, Any]]) -> str:
    """Digest of the bytes a JSONL store holding ``records`` must contain."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update((json.dumps(dict(record), sort_keys=True) + "\n").encode("utf-8"))
    return hasher.hexdigest()


def oracle_mismatches(
    oracle: Any, scenarios: Sequence[Any], records: Mapping[int, Mapping[str, Any]]
) -> List[str]:
    """Rows whose ``total_carbon_g`` differs from ``Session.estimate``.

    ``records`` maps a scenario position to its record.  The workloads sweep
    no system-target axis, so building the system with the scenario's
    overrides and passing them again to ``estimate`` applies each once.
    """
    problems = []
    for position, record in records.items():
        scenario = scenarios[position]
        report = oracle.estimate(
            scenario.build_system(),
            overrides=scenario.overrides,
            fab_source=scenario.fab_source,
        )
        if record.get("scenario") != scenario.index:
            problems.append(f"row {position}: scenario id {record.get('scenario')!r}")
        elif record.get("total_carbon_g") != report.total_cfp_g:
            problems.append(
                f"row {position}: total_carbon_g {record.get('total_carbon_g')!r} "
                f"!= oracle {report.total_cfp_g!r}"
            )
    return problems


def pareto_mismatches(vectors: Sequence[Sequence[float]], front: Sequence[int]) -> List[str]:
    """Brute-force O(n * front) check of a claimed Pareto front (minimisation).

    No point may dominate a front member, and every point outside the front
    must be dominated by some front member (exact duplicates of a member
    belong to the front, as in ``pareto_front``).
    """
    import numpy as np

    matrix = np.asarray(vectors, dtype=float)
    members = sorted(set(front))
    if not members:
        return ["empty front"] if len(matrix) else []
    problems = []
    covered = np.zeros(len(matrix), dtype=bool)
    for member in members:
        point = matrix[member]
        beaten_by = (matrix <= point).all(axis=1) & (matrix < point).any(axis=1)
        if beaten_by.any():
            problems.append(f"front member {member} dominated by {int(np.argmax(beaten_by))}")
        covered |= (matrix >= point).all(axis=1) & (matrix > point).any(axis=1)
    covered[members] = True
    missing = np.flatnonzero(~covered)
    if len(missing):
        problems.append(f"{len(missing)} non-dominated points missing, e.g. {int(missing[0])}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class SweepWorkload:
    """``Session.sweep`` on a seeded grid, batch backend, checked per op.

    ``sweep-bulk`` streams to a JSONL store at ``jobs=1`` without collecting
    records (the ``eco-chip sweep --out`` shape); ``sweep-parallel`` runs
    the same grid at ``jobs=2`` and collects records; ``sweep-churn`` runs a
    compile-bound grid at ``jobs=1`` with no store.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        from repro import Session
        from repro.sweep.spec import SweepSpec

        self.name = name
        self.seed = seed
        self.spec = SweepSpec.from_dict(spec_dict(name, seed))
        self.rows_per_op = self.spec.count()
        self.scenarios = self.spec.expand()
        self.oracle = Session()
        self.jobs = 2 if name == "sweep-parallel" else 1
        self.session = Session(
            backend="batch",
            jobs=self.jobs,
            mp_context=MP_CONTEXT if self.jobs > 1 else None,
        )
        self.out = workdir / f"{name}.jsonl" if name == "sweep-bulk" else None
        # The jobs=1 reference every op must reproduce exactly.
        self.reference = list(Session(backend="batch").sweep(self.spec).records)
        self._expected_file_digest: Optional[str] = None
        problems = self._oracle_check(self.reference.__getitem__, op_index=-1)
        if len(self.reference) != self.rows_per_op or problems:
            raise RuntimeError(f"{name}: reference run is wrong: {problems[:3]}")

    def op(self, span: Any = None) -> Any:
        """One sweep; when tracing, the patched entry points record its spans."""
        return self.session.sweep(
            self.spec, out=self.out, collect_records=self.out is None
        )

    def _oracle_positions(self, op_index: int) -> List[int]:
        """The rows of op ``op_index`` checked against the oracle (seeded)."""
        rng = _rng(f"{self.name}-oracle-{op_index}", self.seed)
        return rng.sample(range(len(self.scenarios)), ORACLE_SAMPLE)

    def _oracle_check(self, record_at: Callable[[int], Mapping[str, Any]], op_index: int) -> List[str]:
        return oracle_mismatches(
            self.oracle,
            self.scenarios,
            {p: record_at(p) for p in self._oracle_positions(op_index)},
        )

    def check(self, output: Any, op_index: int) -> List[str]:
        if output.summary.scenario_count != self.rows_per_op:
            return [f"summary counts {output.summary.scenario_count} rows"]
        if self.out is None:
            records = output.records
            if len(records) != self.rows_per_op:
                return [f"{len(records)} rows, expected {self.rows_per_op}"]
            if list(records) != self.reference:
                return [f"record digest {records_digest(records)} != the reference's"]
            return self._oracle_check(records.__getitem__, op_index)
        # Streamed line by line, so the check adds no file-sized buffer to
        # the peak RSS the benchmark reports.
        positions = set(self._oracle_positions(op_index))
        sampled: Dict[int, Mapping[str, Any]] = {}
        hasher = hashlib.sha256()
        count = 0
        with open(self.out, "rb") as handle:
            for count, line in enumerate(handle, start=1):
                hasher.update(line)
                if count - 1 in positions:
                    sampled[count - 1] = json.loads(line)
        if count != self.rows_per_op:
            return [f"store holds {count} rows, expected {self.rows_per_op}"]
        if self._expected_file_digest is None:  # computed once, outside set-up
            self._expected_file_digest = jsonl_digest(self.reference)
        if hasher.hexdigest() != self._expected_file_digest:
            return ["store bytes differ from the jobs=1 reference records"]
        return self._oracle_check(sampled.__getitem__, op_index)

    def bytes_written(self) -> int:
        return self.out.stat().st_size if self.out is not None else 0

    def pickle_bytes(self, output: Any) -> int:
        """Computed pickled size of the op's records (what a pool would ship)."""
        if self.jobs == 1:
            return 0
        return len(pickle.dumps(list(output.records), protocol=pickle.HIGHEST_PROTOCOL))


class AnalyseWorkload:
    """Read side of the store: resume scan, reload, rows and two Pareto fronts."""

    name = "analyse"

    def __init__(self, seed: int, workdir: Path):
        from repro import Session
        from repro.sweep.spec import SweepSpec

        self.seed = seed
        self.path = workdir / "analyse.jsonl"
        spec = SweepSpec.from_dict(spec_dict("analyse", seed))
        self.rows_per_op = spec.count()
        result = Session(backend="batch").sweep(spec, out=self.path)
        self.reference = list(result.records)
        self.file_bytes = self.path.stat().st_size
        if len(self.reference) != self.rows_per_op:
            raise RuntimeError("analyse: store set-up wrote the wrong row count")

    def op(self, span: Any = None) -> Dict[str, Any]:
        """Run the read-side calls, each inside ``span(name)`` when tracing."""
        from repro.core.explorer import pareto_front
        from repro.sweep.store import completed_scenario_ids, load_records, rows_from_records

        span = span or (lambda name: contextlib.nullcontext())
        with span("store.resume_scan"):
            ids = completed_scenario_ids(self.path)
        with span("store.load"):
            records = load_records(self.path)
        with span("store.rows"):
            rows = rows_from_records(records)
        with span("explorer.pareto2"):
            front2 = pareto_front(rows, PARETO2)
        with span("explorer.pareto3"):
            front3 = pareto_front(rows, PARETO3)
        return {"ids": ids, "records": records, "rows": rows, "front2": front2, "front3": front3}

    def check(self, output: Mapping[str, Any], op_index: int) -> List[str]:
        if output["ids"] != set(range(self.rows_per_op)):
            return [f"resume scan found {len(output['ids'])} ids"]
        if output["records"] != self.reference:
            return [f"record digest {records_digest(output['records'])} != the reference's"]
        import numpy as np

        position = {id(row): index for index, row in enumerate(output["rows"])}
        objectives = operator.itemgetter(*PARETO3)
        vectors = np.asarray([objectives(record) for record in output["records"]], dtype=float)
        problems = []
        for key, count in (("front2", len(PARETO2)), ("front3", len(PARETO3))):
            front = [position[id(row)] for row in output[key]]
            problems += [f"{key}: {p}" for p in pareto_mismatches(vectors[:, :count], front)]
        return problems

    def bytes_read(self) -> int:
        """Bytes the op reads: the resume scan and the reload each read the file."""
        return 2 * self.file_bytes


def make_workload(name: str, seed: int, workdir: Path) -> Any:
    """Set up ``name`` for ``seed``, writing its files under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "analyse":
        return AnalyseWorkload(seed, workdir)
    if name in WORKLOADS:
        return SweepWorkload(name, seed, workdir)
    raise KeyError(f"unknown workload {name!r}; known: {list(WORKLOADS)}")


def environment_stamp(seed: int) -> Dict[str, Any]:
    """What makes two runs comparable: machine, interpreter, NumPy, pool, seed."""
    import platform

    from repro.fastpath import BatchEstimator

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_available": BatchEstimator().numpy_available,
        "mp_start_method": MP_CONTEXT,
        "seed": seed,
    }
