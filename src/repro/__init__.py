"""repro — reproduction of "Parallel Pair-HMM SNP Detection" (IPPS 2012).

GNUMAP-SNP rebuilt as a Python library: a quality-aware Pair-HMM read
aligner with marginal (forward-backward) base evidence — full or seed-guided
banded DP fills — an LRT SNP caller with Bonferroni/FDR cutoffs, three
genome-accumulator memory modes (NORM / CHARDISC / CENTDISC), and the
paper's two MPI parallelisation strategies running over a simulated
(virtual-time) cluster substrate.

Quickstart — :class:`repro.api.Engine` is the public entry point::

    from repro import Engine, PipelineConfig, build_workload
    wl = build_workload(scale="tiny")
    result = Engine(wl.reference, PipelineConfig()).run(wl.reads)
    for snp in result.snps:
        print(snp.pos, snp.ref_name, "->", snp.alt_name)

Parallel execution holds a persistent shared-memory worker pool for the
engine's lifetime; scope it with the context manager::

    with Engine(wl.reference, workers=4) as engine:
        result = engine.run(wl.reads)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
table/figure reproductions.
"""

from repro.api import CallResult, Engine
from repro.experiments.workload import Workload, build_workload
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.genome.variants import Variant, VariantCatalog
from repro.phmm.model import PHMMParams
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import MappingStats, PipelineResult

__version__ = "2.0.0"

# 2.0 removed the 1.x top-level deprecation shims (`repro.GnumapSnp` and the
# standalone multiprocessing entry point); use `repro.api.Engine` (serial and
# parallel behind one facade) — `repro.pipeline.gnumap.GnumapSnp` remains
# importable for internal/advanced use.

__all__ = [
    "Workload",
    "build_workload",
    "Read",
    "Reference",
    "Variant",
    "VariantCatalog",
    "PHMMParams",
    "ParallelConfig",
    "PipelineConfig",
    "Engine",
    "CallResult",
    "MappingStats",
    "PipelineResult",
    "__version__",
]
