"""The paper's two MPI modes, written against the ``Comm`` API.

Read-spread ("shared memory" in Fig. 4)
    Every rank holds the whole genome, index and accumulator; reads are
    partitioned.  One accumulator reduction at the end.  Near-linear scaling
    — per-rank compute drops as 1/P and communication is a single payload.

Memory-spread
    The genome is split into contiguous segments (plus a halo so candidate
    windows never cross rank ownership); every rank sees every read
    (broadcast), seeds against its local sub-index, aligns only candidates
    it *owns* (candidate start inside the core segment), and per read-batch
    the ranks allreduce per-read likelihood totals so multiread weights are
    normalised globally — the communication that spoils scaling.  Evidence
    accumulated into the halo is shipped to the owning neighbour at the end.

Both programs compute real results (used by the correctness tests against
serial runs) while charging calibrated compute and modelled communication to
the virtual clocks (used by the Fig. 4/5 reproductions).

These drivers model the *paper's* cluster topology; the production
multi-core path on one machine is :mod:`repro.pipeline.mp_backend` backed
by the persistent shared-memory pool (:mod:`repro.parallel.pool`) — the
read-spread design realised with zero-copy genome/index broadcast instead
of per-rank replicas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calling.caller import SNPCaller
from repro.calling.records import SNPCall
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference, Segment
from repro.index.hashindex import GenomeIndex
from repro.index.seeding import Seeder
from repro.memory.base import Accumulator, make_accumulator
from repro.observability import span
from repro.parallel.comm import Comm
from repro.parallel.partition import (
    partition_reads_contiguous,
    take,
    validate_partition,
)
from repro.parallel.reduction import reduce_accumulator
from repro.phmm.alignment import align_batch, align_batch_banded, build_windows
from repro.phmm.pwm import flat_pwm, pwm_from_read, reverse_complement_pwm
from repro.pipeline.calibration import ComputeCalibration
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, MappingStats


@dataclass
class ParallelRunResult:
    """Root-rank result of a parallel run (None fields on non-root ranks)."""

    snps: "list[SNPCall] | None"
    stats: "MappingStats | None"


def _mean_read_len(reads: "list[Read]") -> int:
    """Mean read length for band-aware work estimates (0 when empty)."""
    if not reads:
        return 0
    return int(round(sum(len(r) for r in reads) / len(reads)))


def run_read_spread(
    comm: Comm,
    reference: Reference,
    reads: "list[Read]",
    config: PipelineConfig | None = None,
    calibration: ComputeCalibration | None = None,
) -> ParallelRunResult:
    """Read-partitioned SPMD program (call via ``Cluster.run``)."""
    config = config or PipelineConfig()
    pipe = GnumapSnp(reference, config)
    if calibration:
        comm.account_compute(calibration.index_seconds(len(reference)))

    slices = partition_reads_contiguous(len(reads), comm.size)
    if comm.rank == 0:
        # Cover+disjoint guard (vectorised, cheap at genome scale): a
        # partitioner regression must fail loudly before any rank maps a
        # read it doesn't own — or silently drops one nobody owns.
        validate_partition(slices, len(reads))
    local_reads = take(reads, slices[comm.rank])
    acc, stats = pipe.map_reads(local_reads)
    if calibration:
        comm.account_compute(
            calibration.mapping_seconds(
                stats.n_reads,
                stats.n_pairs,
                cell_fraction=config.band_cell_fraction(_mean_read_len(local_reads)),
            )
        )

    with span("reduce"):
        merged = reduce_accumulator(comm, acc, root=0)
    all_stats = comm.gather(stats, root=0)

    if comm.rank != 0:
        return ParallelRunResult(snps=None, stats=None)
    total = MappingStats()
    for s in all_stats:
        total.merge(s)
    if calibration:
        comm.account_compute(calibration.calling_seconds(len(reference)))
    snps = pipe.call_snps(merged)
    return ParallelRunResult(snps=snps, stats=total)


def run_memory_spread(
    comm: Comm,
    reference: Reference,
    reads: "list[Read] | None",
    config: PipelineConfig | None = None,
    calibration: ComputeCalibration | None = None,
    read_batch: int = 256,
) -> ParallelRunResult:
    """Genome-partitioned SPMD program (call via ``Cluster.run``).

    Only the root needs ``reads``; they are broadcast (a real, costed
    message) to every rank, as in the paper's memory-spread design.
    """
    config = config or PipelineConfig()
    if read_batch < 1:
        raise PipelineError("read_batch must be >= 1")
    reads = comm.bcast(reads, root=0)
    if reads is None:
        raise PipelineError("root must supply the reads")

    glen = len(reference)
    segments = Reference.split(reference, comm.size)
    seg = segments[comm.rank]
    max_read_len = max((len(r) for r in reads), default=0)
    halo = max_read_len + config.pad
    ext_start = max(0, seg.start - halo)
    ext_stop = min(glen, seg.stop + halo)
    local_ref = Reference(
        np.asarray(reference.codes[ext_start:ext_stop]),
        name=f"{reference.name}[{ext_start}:{ext_stop}]",
    )
    index = GenomeIndex(
        local_ref, k=config.k,
        max_positions_per_kmer=config.max_index_positions_per_kmer,
        seed_len=config.seeder.seed_len,
    )
    seeder = Seeder(index, config.seeder)
    if calibration:
        comm.account_compute(calibration.index_seconds(len(local_ref)))

    acc = make_accumulator(config.accumulator, len(local_ref))
    stats = MappingStats()

    for batch_lo in range(0, len(reads), read_batch):
        batch = reads[batch_lo : batch_lo + read_batch]
        _process_read_batch(
            comm, batch, seeder, local_ref, acc, seg, ext_start, config, stats,
            calibration,
        )

    with span("halo_exchange"):
        _halo_exchange(comm, acc, seg, ext_start, ext_stop, glen, halo, config)

    # Per-segment calling on the core region, then gather to root.
    caller = SNPCaller(config.caller)
    core_lo = seg.start - ext_start
    core_hi = seg.stop - ext_start
    z = acc.snapshot()[core_lo:core_hi]
    positions = np.arange(seg.start, seg.stop, dtype=np.int64)
    if calibration:
        comm.account_compute(calibration.calling_seconds(len(seg)))
    local_snps = caller.snps(z, reference.codes, positions=positions)

    gathered = comm.gather((local_snps, stats), root=0)
    if comm.rank != 0:
        return ParallelRunResult(snps=None, stats=None)
    snps: list[SNPCall] = []
    total = MappingStats()
    for part_snps, part_stats in gathered:
        snps.extend(part_snps)
        total.merge(part_stats)
    # Each read is seeded on every rank; report logical counts once.
    total.n_reads = len(reads)
    total.n_mapped = min(total.n_mapped, len(reads))
    snps.sort(key=lambda s: s.pos)
    return ParallelRunResult(snps=snps, stats=total)


def run_hybrid(
    comm: Comm,
    reference: Reference,
    reads: "list[Read] | None",
    config: PipelineConfig | None = None,
    calibration: ComputeCalibration | None = None,
    n_groups: int = 2,
    read_batch: int = 256,
) -> ParallelRunResult:
    """Two-level hybrid mode: memory-spread across groups, read-spread within.

    The paper's "distributed memory and/or shared memory" deployment:
    ``n_groups`` node groups each own one genome segment (so per-rank memory
    scales as 1/groups), while inside a group the reads are partitioned (so
    per-rank seeding/alignment work scales as 1/group_size, unlike pure
    memory-spread where every rank seeds every read).  Per-read score
    normalisation is a global allreduce; genome state reduces within each
    group, halos flow between neighbouring group leaders.

    ``comm.size`` must be divisible by ``n_groups``.
    """
    config = config or PipelineConfig()
    if n_groups < 1:
        raise PipelineError(f"n_groups must be >= 1, got {n_groups}")
    if comm.size % n_groups != 0:
        raise PipelineError(
            f"world size {comm.size} not divisible by n_groups {n_groups}"
        )
    rpg = comm.size // n_groups
    group = comm.rank // rpg
    subcomm = comm.split(color=group)
    reads = comm.bcast(reads, root=0)
    if reads is None:
        raise PipelineError("root must supply the reads")

    glen = len(reference)
    segments = Reference.split(reference, n_groups)
    seg = segments[group]
    max_read_len = max((len(r) for r in reads), default=0)
    halo = max_read_len + config.pad
    ext_start = max(0, seg.start - halo)
    ext_stop = min(glen, seg.stop + halo)
    local_ref = Reference(
        np.asarray(reference.codes[ext_start:ext_stop]),
        name=f"{reference.name}[{ext_start}:{ext_stop}]",
    )
    index = GenomeIndex(
        local_ref, k=config.k,
        max_positions_per_kmer=config.max_index_positions_per_kmer,
        seed_len=config.seeder.seed_len,
    )
    seeder = Seeder(index, config.seeder)
    if calibration:
        comm.account_compute(calibration.index_seconds(len(local_ref)))

    acc = make_accumulator(config.accumulator, len(local_ref))
    stats = MappingStats()
    for batch_lo in range(0, len(reads), read_batch):
        batch = reads[batch_lo : batch_lo + read_batch]
        mask = (np.arange(len(batch)) % rpg) == subcomm.rank
        _process_read_batch(
            comm, batch, seeder, local_ref, acc, seg, ext_start, config,
            stats, calibration, read_mask=mask,
        )

    # Genome state reduces within the group; only leaders keep going.
    with span("reduce"):
        merged = reduce_accumulator(subcomm, acc, root=0)
    gathered_stats = comm.gather(stats, root=0)

    local_snps: "list[SNPCall] | None" = None
    if subcomm.rank == 0:
        left = (group - 1) * rpg if group > 0 else None
        right = (group + 1) * rpg if group < n_groups - 1 else None
        with span("halo_exchange"):
            _halo_exchange(
                comm, merged, seg, ext_start, ext_stop, glen, halo, config,
                left=left, right=right,
            )
        caller = SNPCaller(config.caller)
        core_lo = seg.start - ext_start
        core_hi = seg.stop - ext_start
        z = merged.snapshot()[core_lo:core_hi]
        positions = np.arange(seg.start, seg.stop, dtype=np.int64)
        if calibration:
            comm.account_compute(calibration.calling_seconds(len(seg)))
        local_snps = caller.snps(z, reference.codes, positions=positions)

    gathered_snps = comm.gather(local_snps, root=0)
    if comm.rank != 0:
        return ParallelRunResult(snps=None, stats=None)
    snps: list[SNPCall] = []
    for part in gathered_snps:
        if part is not None:
            snps.extend(part)
    snps.sort(key=lambda s: s.pos)
    total = MappingStats()
    for s in gathered_stats:
        total.merge(s)
    total.n_reads = len(reads)
    total.n_mapped = min(total.n_mapped, len(reads))
    return ParallelRunResult(snps=snps, stats=total)


def _process_read_batch(
    comm: Comm,
    batch: "list[Read]",
    seeder: Seeder,
    local_ref: Reference,
    acc: Accumulator,
    seg: Segment,
    ext_start: int,
    config: PipelineConfig,
    stats: MappingStats,
    calibration: ComputeCalibration | None,
    read_mask: "np.ndarray | None" = None,
) -> None:
    """Align one batch of reads against the local segment with global weights.

    ``read_mask`` (hybrid mode) marks which batch reads *this* rank seeds;
    unmarked reads still occupy allreduce slots so other ranks' scores
    normalise correctly.
    """
    pwms: list[np.ndarray] = []
    starts: list[int] = []
    groups: list[int] = []
    centers: list[int] = []
    n_local_pairs = 0
    n_seeded = 0
    # Per-read local log-likelihoods gathered for global normalisation.
    for b, read in enumerate(batch):
        if read_mask is not None and not read_mask[b]:
            continue
        n_seeded += 1
        candidates = seeder.candidates(read)
        owned = [
            c
            for c in candidates
            if seg.contains(ext_start + c.start)
        ]
        if not owned:
            continue
        pwm_fwd = (
            pwm_from_read(read) if config.quality_aware else flat_pwm(read.codes)
        )
        pwm_rc: np.ndarray | None = None
        for cand in owned:
            pwm = pwm_fwd
            if cand.strand == -1:
                if pwm_rc is None:
                    pwm_rc = reverse_complement_pwm(pwm_fwd)
                pwm = pwm_rc
            pwms.append(pwm)
            starts.append(cand.start)
            groups.append(b)
            centers.append(config.pad + (cand.band_diagonal - cand.start))
            n_local_pairs += 1

    if calibration:
        comm.account_compute(
            calibration.mapping_seconds(
                n_seeded,
                n_local_pairs,
                cell_fraction=config.band_cell_fraction(_mean_read_len(batch)),
            )
        )

    if pwms:
        read_len = pwms[0].shape[0]
        if any(p.shape[0] != read_len for p in pwms):
            raise PipelineError(
                "memory-spread driver requires equal-length reads per batch"
            )
        width = read_len + 2 * config.pad
        pwm_arr = np.stack(pwms)
        start_arr = np.asarray(starts, dtype=np.int64)
        windows, valid = build_windows(local_ref.codes, start_arr - config.pad, width)
        if config.banding:
            outcome = align_batch_banded(
                pwm_arr,
                windows,
                config.phmm,
                np.asarray(centers, dtype=np.int64),
                config.band_w,
                tolerance=config.band_tolerance,
                adaptive=config.band_mode == "adaptive",
                mode=config.alignment_mode,
                edge_policy=config.edge_policy,
                valid=valid,
                groups=np.asarray(groups, dtype=np.int64),
                escape_min_ratio=config.min_ratio,
            )
        else:
            outcome = align_batch(
                pwm_arr,
                windows,
                config.phmm,
                mode=config.alignment_mode,
                edge_policy=config.edge_policy,
                valid=valid,
            )
    else:
        outcome = None

    # Global per-read normalisation: allreduce (logsumexp, max) across ranks.
    local_lse = np.full(len(batch), -np.inf)
    local_max = np.full(len(batch), -np.inf)
    if outcome is not None:
        for k, g in enumerate(groups):
            ll = outcome.loglik[k]
            local_lse[g] = np.logaddexp(local_lse[g], ll)
            local_max[g] = max(local_max[g], ll)
    packed = np.stack([local_lse, local_max])
    with span("allreduce_normalise"):
        global_packed = comm.allreduce(
            packed,
            op=lambda a, b: np.stack(
                [np.logaddexp(a[0], b[0]), np.maximum(a[1], b[1])]
            ),
        )
    global_lse, global_max = global_packed[0], global_packed[1]

    for b in range(len(batch)):
        stats.n_reads += 1
        if np.isfinite(global_lse[b]):
            stats.n_mapped += 1
        else:
            stats.n_unmapped += 1
    stats.n_pairs += n_local_pairs

    if outcome is None:
        return
    group_arr = np.asarray(groups)
    with np.errstate(invalid="ignore"):
        weights = np.exp(outcome.loglik - global_lse[group_arr])
        rel = np.exp(outcome.loglik - global_max[group_arr])
    weights = np.where(rel < config.min_ratio, 0.0, weights)
    weights = np.nan_to_num(weights, nan=0.0)

    width = pwm_arr.shape[1] + 2 * config.pad
    zw = outcome.z * weights[:, None, None]
    cols = (np.asarray(starts, dtype=np.int64) - config.pad)[:, None] + np.arange(
        width
    )[None, :]
    live = valid & (weights[:, None] > 0)
    if config.accumulator.upper() == "NORM":
        mask = live.ravel()
        acc.add(cols.ravel()[mask], zw.reshape(-1, 5)[mask])
    else:
        for k in range(zw.shape[0]):
            m = live[k]
            if m.any():
                acc.add(cols[k][m], zw[k][m])
    stats.n_batches += 1


def _halo_exchange(
    comm: Comm,
    acc: Accumulator,
    seg: Segment,
    ext_start: int,
    ext_stop: int,
    glen: int,
    halo: int,
    config: PipelineConfig,
    left: "int | None | str" = "default",
    right: "int | None | str" = "default",
) -> None:
    """Ship halo evidence to the owning neighbours and fold theirs in.

    Evidence this rank accumulated at positions left of its core belongs to
    the ``left`` neighbour; right of the core to ``right``.  The sentinel
    ``"default"`` means ``rank -+ 1`` (memory-spread); explicit ``None``
    means *no neighbour on that side* (hybrid group leaders at the genome
    ends).  Payloads are dense z slices (honestly sized); received slices
    are folded in via ``add``.
    """
    rank, size = comm.rank, comm.size
    if left == "default":
        left = rank - 1 if rank > 0 else None
    if right == "default":
        right = rank + 1 if rank < size - 1 else None
    if left is None and right is None:
        return
    snap = acc.snapshot()
    core_lo = seg.start - ext_start
    core_hi = seg.stop - ext_start

    # Exchange with left neighbour then right neighbour; even/odd phasing is
    # unnecessary because mailbox receives are non-rendezvous.
    if left is not None:
        comm.send((ext_start, snap[:core_lo].copy()), dest=left, tag=101)
    if right is not None:
        comm.send((seg.stop, snap[core_hi:].copy()), dest=right, tag=100)

    def fold(payload: tuple[int, np.ndarray]) -> None:
        global_lo, z = payload
        if z.size == 0:
            return
        local = np.arange(global_lo, global_lo + z.shape[0]) - ext_start
        keep = (local >= 0) & (local < acc.length)
        nz = z.sum(axis=1) > 0
        m = keep & nz
        if m.any():
            acc.add(local[m], z[m])

    if right is not None:
        fold(comm.recv(source=right, tag=101))
    if left is not None:
        fold(comm.recv(source=left, tag=100))
