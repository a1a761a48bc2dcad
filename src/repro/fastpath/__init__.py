"""Compiled batch fast path for CFP estimation.

Analyses a :class:`~repro.core.system.ChipletSystem` template once (area
scaling, packaging overheads, floorplan geometry, per-chiplet manufacturing/
design/operational coefficients) and then evaluates whole scenario batches
as plain arithmetic — bit-identical to the scalar
:class:`~repro.core.estimator.EcoChip` pipeline
(:func:`repro.sweep.engine.reference_records`).  It is the evaluation
engine behind :class:`repro.sweep.engine.SweepEngine` and every front-end
built on it.
"""

from repro.fastpath.batch import BatchEstimator, group_scenarios
from repro.fastpath.compiled import (
    ChipletTerms,
    CompiledSystem,
    CostTerms,
    PackagingTerms,
    SourceTerms,
    TemplateCompiler,
    compile_packaging,
    packaging_signature,
)
from repro.fastpath.diskcache import (
    CACHE_FORMAT_VERSION,
    DiskCompileCache,
    as_disk_cache,
)

__all__ = [
    "BatchEstimator",
    "CACHE_FORMAT_VERSION",
    "ChipletTerms",
    "CompiledSystem",
    "CostTerms",
    "DiskCompileCache",
    "PackagingTerms",
    "SourceTerms",
    "TemplateCompiler",
    "as_disk_cache",
    "compile_packaging",
    "group_scenarios",
    "packaging_signature",
]
