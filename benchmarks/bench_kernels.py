"""Micro-kernel benchmarks: the hot paths in isolation.

These are classic pytest-benchmark targets (many rounds, statistical
timing): the batched forward/backward DP, posterior extraction, accumulator
scatter-adds for each memory mode, the LRT, and index construction.  They
are what you profile when optimising, and what guards against performance
regressions.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from conftest import OUTPUT_DIR, record

from repro.calling.lrt import lrt_statistic_diploid, lrt_statistic_monoploid
from repro.index.hashindex import GenomeIndex
from repro.memory.base import make_accumulator
from repro.observability import scope
from repro.phmm.banded import BandSpec, backward_banded, forward_banded
from repro.phmm.forward_backward import backward_batch, emissions_batch, forward_batch
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import posteriors_batch
from repro.phmm.pwm import pwm_from_codes
from repro.phmm.reference_impl import backward_naive, forward_naive
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from repro.util.rng import resolve_rng

B, N, M = 128, 62, 78


def _merge_ledger(update: dict) -> None:
    """Read-modify-write ``BENCH_kernels.json`` so the pipeline comparison
    and the kernel-throughput section can land in either order without one
    clobbering the other."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_kernels.json"
    doc = {}
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
    doc.update(update)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


@pytest.fixture(scope="module")
def phmm_batch():
    rng = resolve_rng(7)
    params = PHMMParams()
    pwms = np.stack(
        [
            pwm_from_codes(
                rng.integers(0, 4, N).astype(np.uint8),
                rng.uniform(0.001, 0.05, N),
            )
            for _ in range(B)
        ]
    )
    windows = rng.integers(0, 4, (B, M)).astype(np.uint8)
    pstar = emissions_batch(pwms, windows, params)
    return params, pwms, windows, pstar


def test_bench_emissions(benchmark, phmm_batch):
    params, pwms, windows, _ = phmm_batch
    out = benchmark(emissions_batch, pwms, windows, params)
    assert out.shape == (B, N, M)


def test_bench_forward(benchmark, phmm_batch):
    params, _, _, pstar = phmm_batch
    fwd = benchmark(forward_batch, pstar, params)
    assert np.isfinite(fwd.loglik).all()


def test_bench_backward(benchmark, phmm_batch):
    params, _, _, pstar = phmm_batch
    bwd = benchmark(backward_batch, pstar, params)
    assert bwd.bM.shape == (B, N + 1, M + 1)


def test_bench_forward_banded(benchmark, phmm_batch):
    params, _, _, pstar = phmm_batch
    band = BandSpec(n=N, m=M, center=8, width=10)
    fwd = benchmark(forward_banded, pstar, params, band)
    assert fwd.fM.shape == (B, N + 1, M + 1)


def test_bench_backward_banded(benchmark, phmm_batch):
    params, _, _, pstar = phmm_batch
    band = BandSpec(n=N, m=M, center=8, width=10)
    bwd = benchmark(backward_banded, pstar, params, band)
    assert bwd.bM.shape == (B, N + 1, M + 1)


def test_banded_vs_full_pipeline(scaling_workload):
    """End-to-end banded-vs-full comparison on the Fig. 4 workload.

    Not a pytest-benchmark target (single run each way): the payload is the
    DP-cell ledger and the call-identity check, persisted as
    ``BENCH_kernels.json`` for CI to publish.  Banding at defaults must cut
    DP cells >= 3x while leaving the SNP output untouched.
    """
    wl = scaling_workload

    def run(config):
        with scope() as reg:
            t0 = time.perf_counter()
            result = GnumapSnp(wl.reference, config).run(wl.reads)
            wall = time.perf_counter() - t0
            counters = reg.snapshot().counters
        return result, counters, wall

    full_res, full_c, full_wall = run(PipelineConfig())
    band_res, band_c, band_wall = run(PipelineConfig(band_mode="adaptive"))

    full_cells = full_c["phmm.cells_full"]
    banded_cells = band_c.get("phmm.cells_banded", 0)
    escape_cells = band_c.get("phmm.cells_full", 0)
    ratio = full_cells / (banded_cells + escape_cells)

    full_calls = [(s.pos, s.ref_name, s.alt_name) for s in full_res.snps]
    band_calls = [(s.pos, s.ref_name, s.alt_name) for s in band_res.snps]
    assert band_calls == full_calls, "banding changed the SNP output"
    assert ratio >= 3.0, f"banded cell reduction {ratio:.2f}x < 3x"

    payload = {
        "workload": {"reads": wl.n_reads, "genome_bp": len(wl.reference)},
        "full": {
            "cells": int(full_cells),
            "wall_seconds": full_wall,
            "reads_per_second": wl.n_reads / full_wall,
            "snps": len(full_calls),
        },
        "banded": {
            "cells_banded": int(banded_cells),
            "cells_full_escapes": int(escape_cells),
            "escapes": int(band_c.get("phmm.band_escapes", 0)),
            "wall_seconds": band_wall,
            "reads_per_second": wl.n_reads / band_wall,
            "snps": len(band_calls),
        },
        "cell_reduction": ratio,
        "calls_identical": band_calls == full_calls,
    }
    _merge_ledger(payload)
    record(
        "Banded kernels",
        f"full: {full_cells:,} cells in {full_wall:.1f}s | "
        f"banded: {banded_cells + escape_cells:,} cells in {band_wall:.1f}s "
        f"({band_c.get('phmm.band_escapes', 0)} escapes) | "
        f"reduction {ratio:.2f}x | calls identical: {band_calls == full_calls}",
    )


def test_batched_rowsweep_throughput(phmm_batch):
    """Batched row-sweep kernels vs the per-pair baseline.

    Not a pytest-benchmark target (single timed runs): the payload is the
    ``dp_cells_per_second`` ledger merged into ``BENCH_kernels.json`` for
    the CI perf gate.  Two contenders over the same (B, N, M) batch, each
    running forward *and* backward:

    * ``per_pair_naive`` — the per-pair/per-cell loops of
      ``reference_impl``, looped over the batch;
    * ``rowsweep_batched`` — the lfilter row-sweep kernels.

    The batched kernels must clear 10x the per-pair baseline with logliks
    equal to the naive ones to ``rtol=1e-9``.
    """
    params, _, _, pstar = phmm_batch
    dp_cells = 2 * B * N * M  # forward + backward

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return out, min(times)

    def per_pair():
        logliks = np.empty(B)
        for b in range(B):
            _, _, _, like = forward_naive(pstar[b], params)
            backward_naive(pstar[b], params)
            logliks[b] = np.log(like) if like > 0 else -np.inf
        return logliks

    naive_loglik, t_naive = best_of(per_pair, repeats=1)

    def rowsweep():
        fwd = forward_batch(pstar, params)
        backward_batch(pstar, params)
        return fwd.loglik

    rows_loglik, t_rows = best_of(rowsweep)

    speedup = t_naive / t_rows
    np.testing.assert_allclose(rows_loglik, naive_loglik, rtol=1e-9)
    assert speedup >= 10.0, f"rowsweep speedup {speedup:.1f}x < 10x"

    def lane(wall):
        return {
            "wall_seconds": wall,
            "dp_cells_per_second": dp_cells / wall,
            "speedup_vs_per_pair": t_naive / wall,
        }

    _merge_ledger(
        {
            "batched_kernels": {
                "batch": {
                    "pairs": B,
                    "read_len": N,
                    "window_len": M,
                    "dp_cells": dp_cells,
                },
                "per_pair_naive": lane(t_naive),
                "rowsweep_batched": lane(t_rows),
            }
        }
    )
    record(
        "Batched rowsweep kernels",
        f"{B} pairs x ({N} x {M}), {dp_cells:,} DP cells/pass-pair | "
        f"per-pair naive: {dp_cells / t_naive:,.0f} cells/s | "
        f"rowsweep: {dp_cells / t_rows:,.0f} cells/s "
        f"({speedup:.0f}x per-pair) | logliks match naive to rtol 1e-9",
    )


def test_bench_posteriors(benchmark, phmm_batch):
    params, pwms, windows, pstar = phmm_batch
    fwd = forward_batch(pstar, params)
    bwd = backward_batch(pstar, params)
    post = benchmark(posteriors_batch, pstar, pwms, windows, fwd, bwd, params)
    assert post.base_mass.shape == (B, M, 4)


@pytest.mark.parametrize("mode", ["NORM", "CHARDISC", "CENTDISC"])
def test_bench_accumulator_add(benchmark, mode):
    rng = resolve_rng(11)
    length = 100_000
    positions = rng.integers(0, length, 10_000)
    z = rng.dirichlet([8, 1, 1, 1, 0.2], size=10_000)
    acc = make_accumulator(mode, length)
    benchmark(acc.add, positions, z)


def test_bench_lrt_monoploid(benchmark):
    rng = resolve_rng(13)
    z = rng.gamma(2.0, 2.0, size=(50_000, 5))
    stat = benchmark(lrt_statistic_monoploid, z)
    assert stat.shape == (50_000,)


def test_bench_lrt_diploid(benchmark):
    rng = resolve_rng(17)
    z = rng.gamma(2.0, 2.0, size=(50_000, 5))
    stat, het = benchmark(lrt_statistic_diploid, z)
    assert het.dtype == bool


def test_bench_index_build(benchmark):
    ref, _ = simulate_genome(GenomeSpec(length=100_000, n_repeats=0), seed=3)
    index = benchmark(GenomeIndex, ref)
    assert index.n_indexed_positions > 0
