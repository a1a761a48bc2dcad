"""Typed goal-driven search specifications.

A :class:`SearchSpec` turns the paper's closing question — which
packaging/technology/operating point minimises carbon under cost and area
budgets — into a declarative object: a candidate *space* (an ordinary
:class:`~repro.sweep.spec.SweepSpec` grid, so every registered axis is
searchable), weighted/exponentiated *objectives* in the style of rad_gen's
``cost_fx_exps`` DSE configs, hard *constraints* (``area <= X mm^2``,
``cost <= $Y``), and a *budget* in evaluations.

The scalarisation is ``sum(weight * value ** exponent)`` over the
objectives; error records, missing metrics, NaNs and constraint violations
score ``inf`` (infeasible), so every ranking the strategies perform is a
total order with deterministic ``(score, index)`` tie-breaks.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.resilience.records import is_error_record
from repro.search.strategies import strategy_names
from repro.sweep.engine import METRIC_COLUMNS
from repro.sweep.spec import SweepSpec, load_spec_dict

__all__ = ["METRIC_ALIASES", "SearchConstraint", "SearchObjective", "SearchSpec"]

PathLike = Union[str, Path]

#: Shorthand metric spellings accepted in spec dictionaries, resolved to the
#: record-column names of :data:`repro.sweep.engine.METRIC_COLUMNS`.
METRIC_ALIASES: Dict[str, str] = {
    "cfp_total": "total_carbon_g",
    "carbon": "total_carbon_g",
    "cost": "cost_usd",
    "area": "silicon_area_mm2",
    "power": "power_w",
}


def resolve_metric(name: str) -> str:
    """Canonical record-metric name of ``name`` (alias-aware).

    Raises:
        KeyError: unknown metric, listing the known names and aliases.
    """
    key = str(name).strip()
    key = METRIC_ALIASES.get(key, key)
    if key not in METRIC_COLUMNS:
        raise KeyError(
            f"unknown search metric {name!r}; known metrics: "
            f"{sorted(METRIC_COLUMNS)}; aliases: {sorted(METRIC_ALIASES)}"
        )
    return key


def _require_finite(field: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class SearchObjective:
    """One weighted objective term: ``weight * metric ** exponent``.

    The rad_gen ``cost_fx_exps`` idiom: exponents shape how sharply a
    metric dominates the scalarised cost, weights trade metrics off against
    each other.  Every metric is minimised.
    """

    metric: str
    weight: float = 1.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", resolve_metric(self.metric))
        object.__setattr__(self, "weight", _require_finite("weight", self.weight))
        object.__setattr__(self, "exponent", _require_finite("exponent", self.exponent))
        if self.weight <= 0:
            raise ValueError(f"objective weight must be positive, got {self.weight}")

    def term(self, value: float) -> float:
        """This objective's contribution for a metric ``value``."""
        return self.weight * value**self.exponent


@dataclasses.dataclass(frozen=True)
class SearchConstraint:
    """A hard bound on a record metric; violating points are infeasible."""

    metric: str
    maximum: Optional[float] = None
    minimum: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", resolve_metric(self.metric))
        if self.maximum is None and self.minimum is None:
            raise ValueError(
                f"constraint on {self.metric!r} needs a maximum and/or minimum"
            )
        for field in ("maximum", "minimum"):
            value = getattr(self, field)
            if value is not None:
                object.__setattr__(self, field, float(value))

    def satisfied(self, value: float) -> bool:
        """Whether ``value`` honours the bound(s).  NaN never does."""
        if value != value:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        return True


def _parse_objectives(raw: Any) -> Tuple[SearchObjective, ...]:
    if raw is None:
        return (SearchObjective("total_carbon_g"),)
    if isinstance(raw, str):
        return (SearchObjective(raw),)
    objectives: List[SearchObjective] = []
    if isinstance(raw, Mapping):
        # {"total_carbon_g": 1.0} or {"cost_usd": {"weight": 2, "exponent": 1}}
        for metric, value in raw.items():
            if isinstance(value, Mapping):
                extra = set(value) - {"weight", "exponent"}
                if extra:
                    raise KeyError(
                        f"unknown objective keys {sorted(extra)} for metric "
                        f"{metric!r}; known keys: ['exponent', 'weight']"
                    )
                objectives.append(SearchObjective(metric, **dict(value)))
            else:
                objectives.append(SearchObjective(metric, weight=float(value)))
        return tuple(objectives)
    if isinstance(raw, Sequence):
        for entry in raw:
            if isinstance(entry, str):
                objectives.append(SearchObjective(entry))
            elif isinstance(entry, Mapping):
                if "metric" not in entry:
                    raise KeyError(
                        f"objective entry {entry!r} needs a 'metric' key"
                    )
                extra = set(entry) - {"metric", "weight", "exponent"}
                if extra:
                    raise KeyError(
                        f"unknown objective keys {sorted(extra)}; known keys: "
                        f"['exponent', 'metric', 'weight']"
                    )
                objectives.append(SearchObjective(**dict(entry)))
            elif isinstance(entry, SearchObjective):
                objectives.append(entry)
            else:
                raise TypeError(
                    f"objective entries must be metric names or dicts, got "
                    f"{entry!r}"
                )
        if not objectives:
            raise ValueError("objectives must not be empty")
        return tuple(objectives)
    raise TypeError(f"cannot parse objectives from {raw!r}")


def _parse_constraints(raw: Any) -> Tuple[SearchConstraint, ...]:
    if raw is None:
        return ()
    constraints: List[SearchConstraint] = []
    if isinstance(raw, Mapping):
        # {"silicon_area_mm2": 600.0} bounds the metric from above.
        for metric, bound in raw.items():
            if isinstance(bound, Mapping):
                extra = set(bound) - {"max", "min", "maximum", "minimum"}
                if extra:
                    raise KeyError(
                        f"unknown constraint keys {sorted(extra)} for metric "
                        f"{metric!r}; known keys: ['max', 'min']"
                    )
                constraints.append(
                    SearchConstraint(
                        metric,
                        maximum=bound.get("max", bound.get("maximum")),
                        minimum=bound.get("min", bound.get("minimum")),
                    )
                )
            else:
                constraints.append(SearchConstraint(metric, maximum=float(bound)))
        return tuple(constraints)
    if isinstance(raw, Sequence) and not isinstance(raw, str):
        for entry in raw:
            if isinstance(entry, SearchConstraint):
                constraints.append(entry)
            elif isinstance(entry, Mapping):
                if "metric" not in entry:
                    raise KeyError(
                        f"constraint entry {entry!r} needs a 'metric' key"
                    )
                extra = set(entry) - {"metric", "max", "min", "maximum", "minimum"}
                if extra:
                    raise KeyError(
                        f"unknown constraint keys {sorted(extra)}; known keys: "
                        f"['max', 'metric', 'min']"
                    )
                constraints.append(
                    SearchConstraint(
                        entry["metric"],
                        maximum=entry.get("max", entry.get("maximum")),
                        minimum=entry.get("min", entry.get("minimum")),
                    )
                )
            else:
                raise TypeError(
                    f"constraint entries must be dicts, got {entry!r}"
                )
        return tuple(constraints)
    raise TypeError(f"cannot parse constraints from {raw!r}")


#: Accepted top-level spec-dictionary keys.
_SPEC_KEYS = frozenset(
    {
        "name",
        "space",
        "objectives",
        "constraints",
        "budget",
        "strategy",
        "seed",
        "batch_size",
        "stall_rounds",
    }
)


@dataclasses.dataclass(frozen=True)
class SearchSpec:
    """A goal-driven search over a sweep grid.

    Attributes:
        space: The candidate grid (:class:`SweepSpec`; a spec mapping is
            accepted and converted).
        objectives: Weighted objective terms, scalarised by :meth:`score`.
        constraints: Hard metric bounds; violating points are infeasible.
        budget: Maximum distinct candidate evaluations (replayed rows of a
            resumed store count — resuming never re-spends budget).
        strategy: Registered strategy name
            (:func:`repro.search.strategies.strategy_names`).
        seed: Random seed; fixed seed means bit-identical candidate
            sequences and results for every jobs count.
        batch_size: Candidates per evaluation batch (one engine run each).
        stall_rounds: Churn-free rounds after which ``pareto_refine``
            stops early.
        name: Recorded in summaries and logs.
    """

    space: SweepSpec
    objectives: Tuple[SearchObjective, ...] = (SearchObjective("total_carbon_g"),)
    constraints: Tuple[SearchConstraint, ...] = ()
    budget: int = 256
    strategy: str = "successive_halving"
    seed: int = 0
    batch_size: int = 32
    stall_rounds: int = 2
    name: str = "search"

    def __post_init__(self) -> None:
        if isinstance(self.space, Mapping):
            object.__setattr__(self, "space", SweepSpec.from_dict(self.space))
        if not isinstance(self.space, SweepSpec):
            raise TypeError(
                f"space must be a SweepSpec or a spec mapping, got "
                f"{type(self.space).__name__}"
            )
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.objectives:
            raise ValueError("at least one objective is required")
        for objective in self.objectives:
            if not isinstance(objective, SearchObjective):
                raise TypeError(f"not a SearchObjective: {objective!r}")
        for constraint in self.constraints:
            if not isinstance(constraint, SearchConstraint):
                raise TypeError(f"not a SearchConstraint: {constraint!r}")
        seen = [objective.metric for objective in self.objectives]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate objective metrics: {seen}")
        if int(self.budget) < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        object.__setattr__(self, "budget", int(self.budget))
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        object.__setattr__(self, "batch_size", int(self.batch_size))
        if int(self.stall_rounds) < 1:
            raise ValueError(f"stall_rounds must be >= 1, got {self.stall_rounds}")
        object.__setattr__(self, "stall_rounds", int(self.stall_rounds))
        object.__setattr__(self, "seed", int(self.seed))
        if self.strategy not in strategy_names():
            raise ValueError(
                f"unknown search strategy {self.strategy!r}; registered "
                f"strategies: {strategy_names()}"
            )

    # -- scoring ----------------------------------------------------------------------
    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Objective metric names, in objective order."""
        return tuple(objective.metric for objective in self.objectives)

    def feasible(self, record: Mapping[str, Any]) -> bool:
        """Whether ``record`` is a successful evaluation inside every bound."""
        if is_error_record(record):
            return False
        for constraint in self.constraints:
            value = record.get(constraint.metric)
            if value is None or not constraint.satisfied(float(value)):
                return False
        return True

    def weighted_cost(self, record: Mapping[str, Any]) -> float:
        """``sum(weight * value ** exponent)`` over the objectives.

        ``inf`` for error records and for missing or NaN metric values —
        un-scorable points must never win a ranking.
        """
        if is_error_record(record):
            return float("inf")
        total = 0.0
        for objective in self.objectives:
            value = record.get(objective.metric)
            if value is None:
                return float("inf")
            value = float(value)
            if not math.isfinite(value):
                return float("inf")
            total += objective.term(value)
        return total

    def score(self, record: Mapping[str, Any]) -> float:
        """:meth:`weighted_cost`, with constraint violations scored ``inf``."""
        if not self.feasible(record):
            return float("inf")
        return self.weighted_cost(record)

    # -- construction -----------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, config: Mapping[str, Any], base_dir: Optional[PathLike] = None
    ) -> "SearchSpec":
        """Build a spec from a JSON/YAML-style dictionary.

        The ``space`` key holds an ordinary sweep-spec dictionary (any
        registered axis name is a valid key there); ``objectives`` accepts
        metric names, ``{metric: weight}`` mappings or
        ``[{"metric": ..., "weight": ..., "exponent": ...}]`` lists;
        ``constraints`` accepts ``{metric: max}`` mappings or
        ``[{"metric": ..., "max": ..., "min": ...}]`` lists.
        """
        unknown = sorted(set(config) - _SPEC_KEYS)
        if unknown:
            raise KeyError(
                f"unknown search-spec keys {unknown}; known keys: "
                f"{sorted(_SPEC_KEYS)}"
            )
        if "space" not in config:
            raise KeyError(
                "a search spec needs a 'space' key holding its sweep-spec grid"
            )
        space = config["space"]
        if isinstance(space, Mapping):
            space = SweepSpec.from_dict(space, base_dir=base_dir)
        return cls(
            space=space,
            objectives=_parse_objectives(config.get("objectives")),
            constraints=_parse_constraints(config.get("constraints")),
            budget=config.get("budget", 256),
            strategy=str(config.get("strategy", "successive_halving")),
            seed=config.get("seed", 0),
            batch_size=config.get("batch_size", 32),
            stall_rounds=config.get("stall_rounds", 2),
            name=str(config.get("name", "search")),
        )

    @classmethod
    def from_file(cls, path: PathLike) -> "SearchSpec":
        """Load a spec from a ``.json`` or YAML-ish ``.yaml``/``.yml`` file."""
        data, base_dir = load_spec_dict(path)
        return cls.from_dict(data, base_dir=base_dir)
