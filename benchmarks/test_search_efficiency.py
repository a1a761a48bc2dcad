"""Search-efficiency benchmark: adaptive search vs random sampling.

The acceptance bar of the ``repro.search`` PR: on a paper-scale grid
(``ga102-grid`` widened by a lifetime axis, 1920 points) the
``successive_halving`` strategy must land within 1% of the exhaustive
weighted-cost optimum while spending **at most 20% of the grid**, and must
need **no more evaluations to get there than seeded random sampling** with
the same budget.  The timed section is the full adaptive search loop on the
batch engine — proposal generation, mixed-radix decode and evaluation —
so strategy-overhead regressions show up alongside estimator ones.
"""

from __future__ import annotations

from conftest import print_series

from repro.search import SearchSpec, run_search
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec, preset_dict

#: Relative gap to the exhaustive optimum that counts as "reached it".
OPTIMUM_GAP = 0.01

#: Ceiling on evaluations as a fraction of the exhaustive grid.
EVALUATION_CEILING = 0.20

SPACE = dict(
    preset_dict("ga102-grid"), name="ga102-lifetimes", lifetimes=[2.0, 4.0, 6.0]
)  # 640 x 3 = 1920 points
BUDGET = 288  # 15% of the grid


def _spec(strategy: str) -> SearchSpec:
    return SearchSpec.from_dict(
        {
            "space": SPACE,
            "objectives": {"carbon": 1.0},
            "budget": BUDGET,
            "batch_size": 48,
            "seed": 0,
            "strategy": strategy,
        }
    )


def _evaluations_to_optimum(result, optimum: float) -> int:
    """Cumulative evaluations until the best score is within OPTIMUM_GAP."""
    spent = 0
    for stats in result.rounds:
        spent += stats.evaluated + stats.replayed
        if stats.best_score <= optimum * (1.0 + OPTIMUM_GAP):
            return spent
    return result.grid_size + 1  # never reached within the budget


def test_successive_halving_beats_random_to_the_optimum(benchmark):
    grid = SweepSpec.from_dict(SPACE)
    engine = SweepEngine()
    sh_spec = _spec("successive_halving")
    optimum = min(
        sh_spec.weighted_cost(record)
        for record in engine.iter_records(grid.expand())
    )

    sh_result = benchmark(run_search, sh_spec, SweepEngine())
    random_result = run_search(_spec("random"), SweepEngine())

    sh_evals = _evaluations_to_optimum(sh_result, optimum)
    random_evals = _evaluations_to_optimum(random_result, optimum)
    gap = (sh_result.best_score - optimum) / optimum
    print_series(
        "Search efficiency, ga102-lifetimes (1920 points, budget 288)",
        [
            f"  exhaustive optimum    : {optimum:14.1f} (weighted cost)",
            f"  successive_halving    : {sh_evals:5d} evals to within 1% "
            f"(final gap {100 * gap:.3f}%)",
            f"  random (same budget)  : {random_evals:5d} evals to within 1%",
            f"  grid fraction spent   : {100 * sh_result.evaluated_fraction:.1f}% "
            f"(ceiling {100 * EVALUATION_CEILING:.0f}%)",
        ],
    )
    assert sh_result.evaluations <= EVALUATION_CEILING * sh_result.grid_size
    assert gap <= OPTIMUM_GAP, f"successive_halving ended {100 * gap:.3f}% above"
    assert sh_evals <= random_evals, (
        f"successive_halving needed {sh_evals} evaluations to reach the "
        f"optimum but random sampling needed only {random_evals}"
    )
