#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload batch-serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Inputs are generated from ``--seed``; the program only sees the generated
reads.  The run measures passes for about ``--seconds`` seconds (every
input instance gets at least one whole pass), checks every pass's SNP
calls, prints one line per metric with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1`` reports its per-layer metrics.  Every second op runs with
  the layer entry points wrapped (see ``layers.py``), so traced and
  untraced ops of the same kinds interleave and their ratio is the tracing
  overhead.

The full result -- metrics with units, bounds and sources, input
properties, environment and the program's own ``repro.metrics/v2``
snapshot -- is written to ``.perfbench/``; a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Scale preset of ``build_workload`` every workload uses.
SCALE = "tiny"
#: A pass whose calls score below this recall or precision fails its check.
MIN_SCORE = 0.75


@dataclass
class Op:
    kind: str
    seconds: float
    reads: int
    traced: bool
    ok: bool
    pass_no: int
    instance: int


class Runner:
    """Times calls into the program; in a traced run, every second op
    runs with the layer wrappers installed."""

    def __init__(self, trace: bool) -> None:
        from layers import SpanRecorder
        from repro.observability.snapshot import MetricsSnapshot

        self.trace = trace
        self.recorder = SpanRecorder() if trace else None
        self.ops: "list[Op]" = []
        self.program = MetricsSnapshot.empty()
        self.setup_seconds: "list[float]" = []
        self._pass_no = -1
        self._op_in_pass = 0
        self._instance = 0

    def begin_pass(self, instance: int) -> None:
        self._pass_no += 1
        self._op_in_pass = 0
        self._instance = instance

    def _wrapped(self, traced: bool, root: str) -> Any:
        if not traced:
            return nullcontext()
        assert self.recorder is not None
        return self.recorder.root(root)

    def setup(self, fn: Any, *args: Any) -> Any:
        """Time one set-up; in a traced run it is always traced."""
        if self.recorder is not None:
            self.recorder.install()
        try:
            with self._wrapped(self.trace, "setup"):
                started = time.perf_counter()
                handle = fn(*args)
                self.setup_seconds.append(time.perf_counter() - started)
        finally:
            if self.recorder is not None:
                self.recorder.uninstall()
        return handle

    def timed(self, kind: str, n_reads: int, fn: Any, *args: Any) -> "tuple[bool, Any]":
        from repro.observability import scope

        traced = self.trace and (self._op_in_pass + self._pass_no) % 2 == 0
        self._op_in_pass += 1
        if traced:
            assert self.recorder is not None
            self.recorder.install()
        result: Any = None
        try:
            with scope() as reg, self._wrapped(traced, kind):
                started = time.perf_counter()
                try:
                    result = fn(*args)
                    ok = True
                except Exception:  # a failed call is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                seconds = time.perf_counter() - started
            snapshot = reg.snapshot_values()
        finally:
            if traced:
                assert self.recorder is not None
                self.recorder.uninstall()
        if traced or not self.trace:
            self.program = self.program.merge(snapshot)
        self.ops.append(
            Op(kind, seconds, n_reads, traced, ok, self._pass_no, self._instance)
        )
        return ok, result


def tail(samples: "list[float]") -> "tuple[float, float]":
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  With 20 samples or fewer that percentile would sit
    at or below the median, so the median is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def environment() -> "dict[str, Any]":
    import numpy

    llc = 0
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        best_level = 0
        for entry in sorted(os.listdir(cache_dir)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(cache_dir, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(cache_dir, entry, "size")) as fh:
                size = fh.read().strip()
            if level >= best_level:
                best_level = level
                units = {"K": 1024, "M": 1024**2, "G": 1024**3}
                llc = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        llc = 0
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc_bytes": llc,
        "machine": platform.machine(),
    }


def measure(workload: Any, seed: int, seconds: float, trace: bool) -> "dict[str, Any]":
    from repro.api import Engine
    from repro.evaluation.metrics import compare_to_truth
    from repro.experiments.workload import SCALES, build_workload
    from repro.pipeline.config import PipelineConfig
    from workloads import PoolStaged, call_columns, calls_tsv

    def same_calls(a: str, b: str, exact: bool) -> bool:
        return a == b if exact else call_columns(a) == call_columns(b)

    instances = [
        build_workload(SCALE, seed=1000 * seed + 10 * i)
        for i in range(workload.instances)
    ]
    # Untimed warm-up so first-call costs of the process (imports, NumPy
    # dispatch caches) land in no measured op.
    with Engine(instances[0].reference, PipelineConfig()) as warm:
        warm.run(instances[0].reads[:64])

    runner = Runner(trace)
    first_tsv: "dict[int, str]" = {}
    scores = []
    failed_checks = 0
    # Reports differing only in float statistics where calls must match.
    report_mismatches = 0
    budget = seconds / len(instances)
    for i, wl in enumerate(instances):
        handle = None
        passes = 0
        deadline = last_pass = 0.0
        # Start another pass only while at least half of one still fits.
        while passes == 0 or time.perf_counter() + last_pass / 2 < deadline:
            if handle is None or workload.fresh_per_pass:
                for _ in range(workload.setup_repeats):
                    if handle is not None:
                        workload.teardown(handle)
                    handle = runner.setup(workload.setup, wl)
            if passes == 0:
                deadline = time.perf_counter() + budget
            runner.begin_pass(i)
            started = time.perf_counter()
            snps = workload.run_pass(handle, wl, runner.timed)
            last_pass = time.perf_counter() - started
            passes += 1
            if snps is None:
                continue  # the failing op is already counted
            tsv = calls_tsv(snps)
            counts = compare_to_truth(snps, wl.catalog)
            if i not in first_tsv:
                first_tsv[i] = tsv
                scores.append(counts)
            if not same_calls(tsv, first_tsv[i], exact=workload.exact_repeat):
                failed_checks += 1
            elif counts.recall < MIN_SCORE or counts.precision < MIN_SCORE:
                failed_checks += 1
            report_mismatches += tsv != first_tsv[i]
        workload.teardown(handle)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(workload, PoolStaged):
        peak_kb += workload.worker_hwm_kb
        # Outside every timed window and after the peak is read: the pool's
        # calls must match a serial run of the same reads.
        for i, wl in enumerate(instances):
            if i not in first_tsv:
                continue  # no pass finished; its failures are counted
            serial = workload.serial_reference(wl)
            if not same_calls(first_tsv[i], serial, exact=False):
                failed_checks += sum(
                    1 for op in runner.ops if op.kind == "call" and op.instance == i
                )
            report_mismatches += first_tsv[i] != serial

    length, _snps, coverage = SCALES[SCALE]
    wl0 = instances[0]
    program = runner.program
    reads_seeded = program.counter("seed.reads")
    inputs = {
        "scale": SCALE,
        "instances": len(instances),
        "instance_seeds": [w.seed for w in instances],
        "genome_bp": length,
        "reads_per_instance": [w.n_reads for w in instances],
        "read_length": len(wl0.reads[0]),
        "coverage": round(wl0.coverage, 3),
        "preset_coverage": coverage,
        # build_workload plants max(2, length // 15000) repeat pairs.
        "repeat_pairs": max(2, length // 15_000),
        "snps_per_instance": [len(w.catalog) for w in instances],
        "chunk_reads": workload.chunk_reads,
        "workers": workload.workers,
        "candidates_per_read": (
            program.counter("seed.candidates") / reads_seeded if reads_seeded else 0.0
        ),
    }
    return {
        "runner": runner,
        "scores": scores,
        "failed_checks": failed_checks,
        "report_mismatches": report_mismatches,
        "peak_rss_mb": peak_kb / 1024.0,
        "inputs": inputs,
    }


def end_to_end(m: "dict[str, Any]") -> "tuple[dict[str, float], dict[str, Any]]":
    from workloads import UPDATE_KINDS

    runner: Runner = m["runner"]
    ops = runner.ops
    updates = [op.seconds for op in ops if op.kind in UPDATE_KINDS]
    per_pass: "dict[int, list[Op]]" = {}
    for op in ops:
        per_pass.setdefault(op.pass_no, []).append(op)
    rates = [
        sum(op.reads for op in p) / sum(op.seconds for op in p)
        for p in per_pass.values()
        if all(op.ok for op in p)
    ]
    tp = sum(s.tp for s in m["scores"])
    fp = sum(s.fp for s in m["scores"])
    fn = sum(s.fn for s in m["scores"])
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok) + m["failed_checks"]
    tail_value, tail_pct = tail(updates)
    values = {
        "setup_s": statistics.median(runner.setup_seconds),
        "reads_per_s": statistics.median(rates) if rates else 0.0,
        "update_latency_p50_s": statistics.median(updates),
        "update_latency_tail_s": tail_value,
        "snp_recall": tp / (tp + fn) if tp + fn else 0.0,
        "snp_precision": tp / (tp + fp) if tp + fp else 0.0,
        "peak_rss_mb": m["peak_rss_mb"],
        "ops_ok_frac": 1.0 - min(failed, attempted) / attempted,
    }
    extra = {
        "ops_failed_frac": min(failed, attempted) / attempted,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "update_samples": len(updates),
        "update_latency_tail_percentile": tail_pct,
        "setup_samples": len(runner.setup_seconds),
        "passes": len(per_pass),
        "report_mismatches": m["report_mismatches"],
        "truth": {"tp": tp, "fp": fp, "fn": fn},
        "ops": [
            [op.kind, op.instance, op.pass_no, op.reads, op.seconds, op.traced, op.ok]
            for op in ops
        ],
    }
    return values, extra


def per_layer(m: "dict[str, Any]", workload: Any) -> "tuple[dict[str, float], dict[str, Any]]":
    from layers import ROOT_SPAN
    from repro.observability.histogram import ZERO_BUCKET

    runner: Runner = m["runner"]
    rec = runner.recorder
    assert rec is not None
    spans = rec.finished()
    self_times = rec.self_times()

    def root_of(idx: int) -> str:
        while spans[idx].parent >= 0:
            idx = spans[idx].parent
        return spans[idx].name

    by_name: "dict[str, float]" = {}
    spawn = wait = chunks = payload = 0.0
    wall = unattributed = 0.0
    for idx, (span, own) in enumerate(zip(spans, self_times)):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        if span.parent < 0:
            wall += span.seconds
            unattributed += own
        if span.name == "parallel.PersistentPool.run":
            if root_of(idx) == f"{ROOT_SPAN}.setup":
                spawn += own
            else:
                wait += own
                assert span.detail is not None
                chunks += span.detail["chunks"]
                payload += span.detail["payload_bytes"]

    def total(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    program = runner.program
    cells = program.counter("phmm.forward_cells") + program.counter("phmm.backward_cells")
    parallel = workload.workers > 1
    # Pool workers are out of the wrappers' reach: their stage time comes
    # from the worker snapshots the program merges into its own metrics.
    worker = {
        stage: program.span_seconds(f"map_reads/{stage}") if parallel else 0.0
        for stage in ("seed", "align", "accumulate")
    }
    kernel_s = worker["align"] if parallel else total(
        "phmm.align_batch", "phmm.align_batch_banded"
    )
    weights = program.histogram("pipeline.mapping_weight") or {"count": 0, "buckets": {}}
    zero = weights["buckets"].get(ZERO_BUCKET, 0)
    reads_seeded = program.counter("seed.reads")
    traced = sum(op.seconds for op in runner.ops if op.traced)
    untraced_mean: "dict[str, float]" = {}
    for kind in {op.kind for op in runner.ops}:
        plain = [op.seconds for op in runner.ops if op.kind == kind and not op.traced]
        if plain:
            untraced_mean[kind] = statistics.fmean(plain)
    expected = sum(untraced_mean.get(op.kind, op.seconds) for op in runner.ops if op.traced)
    values = {
        "index.build_s": total("index.GenomeIndex"),
        "index.seed_s": total("index.Seeder.candidates"),
        "index.candidates_per_read": (
            program.counter("seed.candidates") / reads_seeded if reads_seeded else 0.0
        ),
        "phmm.pwm_s": total(
            "phmm.pwm_from_read", "phmm.flat_pwm", "phmm.reverse_complement_pwm"
        ),
        "phmm.align_s": total(
            "phmm.build_windows", "phmm.align_batch", "phmm.align_batch_banded",
            "phmm.group_normalize",
        ),
        "phmm.cells": cells,
        "phmm.cells_per_s": cells / kernel_s if kernel_s > 0 else 0.0,
        "phmm.band_escapes": program.counter("phmm.band_escapes"),
        "phmm.useful_pair_frac": (
            1.0 - zero / weights["count"] if weights["count"] else 0.0
        ),
        "memory.add_s": total("memory.add"),
        "memory.snapshot_s": total("memory.snapshot"),
        "memory.merge_s": total("memory.merge"),
        "memory.accumulator_bytes": float(
            program.gauges.get("pipeline.peak_accumulator_bytes", 0.0)
        ),
        "calling.lrt_s": total("calling.SNPCaller.snps"),
        "calling.positions_tested": program.counter("caller.positions_tested"),
        "parallel.spawn_s": spawn,
        "parallel.wait_s": wait,
        "parallel.worker_busy_s": (
            program.span_seconds("map_reads") if parallel else 0.0
        ),
        "parallel.worker_seed_s": worker["seed"],
        "parallel.worker_align_s": worker["align"],
        "parallel.worker_accumulate_s": worker["accumulate"],
        "parallel.chunks": chunks,
        "parallel.payload_bytes": payload,
        "parallel.retries": program.counter("mp.chunk_retries"),
        "parallel.serial_fallbacks": program.counter("mp.serial_fallbacks"),
        "pipeline.wall_s": wall,
        "pipeline.unattributed_s": unattributed,
        "pipeline.trace_overhead_frac": traced / expected - 1.0 if expected else 0.0,
    }
    extra = {
        "self_seconds_by_entry_point": dict(sorted(by_name.items())),
        "spans": len(spans),
        "traced_ops": sum(1 for op in runner.ops if op.traced),
        "untraced_ops": sum(1 for op in runner.ops if not op.traced),
        "self_time_sum_s": sum(self_times),
    }
    return values, extra


#: Where each metric's value comes from (the rest are timed by the benchmark).
SOURCES = {
    "snp_recall": "scored: first-pass calls against the planted VariantCatalog",
    "snp_precision": "scored: first-pass calls against the planted VariantCatalog",
    "peak_rss_mb": "getrusage ru_maxrss, plus pool workers' VmHWM",
    "ops_ok_frac": "counted: 1 - failed / attempted calls",
    "parallel.chunks": "counted: payloads passed to PersistentPool.run",
    "index.candidates_per_read": "snapshot: seed.candidates / seed.reads",
    "phmm.cells": "snapshot: phmm.forward_cells + phmm.backward_cells",
    "phmm.cells_per_s": "snapshot cells / kernel self time",
    "phmm.band_escapes": "snapshot: phmm.band_escapes",
    "phmm.useful_pair_frac": "snapshot: pipeline.mapping_weight > 0 share",
    "memory.accumulator_bytes": "computed: gauge pipeline.peak_accumulator_bytes (array sizes)",
    "calling.positions_tested": "snapshot: caller.positions_tested",
    "parallel.worker_busy_s": "snapshot: worker span map_reads",
    "parallel.worker_seed_s": "snapshot: worker span map_reads/seed",
    "parallel.worker_align_s": "snapshot: worker span map_reads/align",
    "parallel.worker_accumulate_s": "snapshot: worker span map_reads/accumulate",
    "parallel.payload_bytes": "computed: chunk read arrays out + partial buffers back",
    "parallel.retries": "snapshot: mp.chunk_retries",
    "parallel.serial_fallbacks": "snapshot: mp.serial_fallbacks",
}


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Besides any pool worker still alive after an error, that includes the
    resource tracker ``multiprocessing`` spawns for shared memory: left
    alone it outlives this process, so it is closed and reaped here."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Closes the tracker's pipe and waits for it to exit; a no-op when
    # no tracker was started.
    resource_tracker._resource_tracker._stop()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    # Spawned pool workers import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    trace = bool(args.trace)

    try:
        m = measure(workload, args.seed, args.seconds, trace)
    finally:
        stop_children()
    e2e, e2e_extra = end_to_end(m)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, extra = per_layer(m, workload)
    else:
        values, extra = e2e, {}
    mismatch = {d["name"] for d in declared} ^ set(values)
    if mismatch:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
              file=sys.stderr)
        return 2

    from repro.observability import to_json_dict

    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    result = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {
            d["name"]: dict(
                metrics[d["name"]],
                better=d["better"],
                **({"bound": d["bound"]} if "bound" in d else {}),
                source=SOURCES.get(d["name"], "timed from outside"),
            )
            for d in declared
        },
        "details": dict(e2e_extra, **extra),
        "inputs": m["inputs"],
        "environment": environment(),
        "program_metrics": to_json_dict(m["runner"].program),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if trace:
        assert m["runner"].recorder is not None
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as fh:
            json.dump(m["runner"].recorder.to_json(), fh)

    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']:10s} {entry['source']}")
    if not trace:
        print(f"{'ops_failed_frac':32s} {e2e_extra['ops_failed_frac']:>16.6g} "
              f"{'fraction':10s} failed / attempted calls")
        print(f"tail = p{e2e_extra['update_latency_tail_percentile']:.1f} of "
              f"{e2e_extra['update_samples']} update latencies")
        print(f"reports differing only in float statistics: "
              f"{e2e_extra['report_mismatches']}")
    print("inputs " + json.dumps(m["inputs"], sort_keys=True))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": e2e_extra["failed"] == 0,
        "attempted": e2e_extra["attempted"],
        "failed": e2e_extra["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
