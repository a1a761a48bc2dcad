"""Goal-driven adaptive design-space exploration (:mod:`repro.search`).

Where :mod:`repro.sweep` *enumerates* a grid, this package *searches* one:
a :class:`SearchSpec` names the candidate space (an ordinary sweep grid —
any registered axis is searchable), weighted objectives, hard constraints
and an evaluation budget, and a pluggable :data:`Strategy` decides which
grid points to spend that budget on.  All evaluation routes through the
sweep engine (jobs>1, compile cache and resilience apply
unchanged), every evaluated point streams to the crash-safe result store
with a ``search_round`` column, and a killed search resumes from its store
without re-spending budget.

Entry points: :meth:`repro.api.Session.search`, the ``eco-chip search``
CLI subcommand, or :func:`run_search` directly.
"""

from repro.search.runner import RoundStats, SearchResult, run_search
from repro.search.space import GridSpace
from repro.search.spec import (
    METRIC_ALIASES,
    SearchConstraint,
    SearchObjective,
    SearchSpec,
)
from repro.search.strategies import (
    ParetoRefineStrategy,
    RandomStrategy,
    SearchContext,
    Strategy,
    SuccessiveHalvingStrategy,
    get_strategy,
    register_strategy,
    strategy_names,
)

__all__ = [
    "METRIC_ALIASES",
    "GridSpace",
    "ParetoRefineStrategy",
    "RandomStrategy",
    "RoundStats",
    "SearchConstraint",
    "SearchContext",
    "SearchObjective",
    "SearchResult",
    "SearchSpec",
    "Strategy",
    "SuccessiveHalvingStrategy",
    "get_strategy",
    "register_strategy",
    "run_search",
    "strategy_names",
]
