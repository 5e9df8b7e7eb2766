"""Pipeline configuration.

One dataclass gathers every knob of the end-to-end run so experiments can be
described declaratively.  Sub-configurations (seeder, caller, parallel
execution) reuse their own dataclasses.

Parallel-execution knobs live in :class:`ParallelConfig` under
``PipelineConfig.parallel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calling.caller import CallerConfig
from repro.errors import ConfigError
from repro.index.seeding import SeederConfig
from repro.parallel.faults import parse_fault_spec
from repro.phmm.model import PHMMParams

#: Start methods the multiprocessing backend may be pinned to.
MP_START_METHODS = ("spawn", "fork", "forkserver")


@dataclass
class ParallelConfig:
    """Parallel-execution knobs: fleet shape, fault tolerance, chunk planning.

    Attributes
    ----------
    workers:
        Default worker-process count for ``Engine``/CLI runs; 1 means
        serial execution (no pool, no fleet).
    start_method:
        Multiprocessing start method for the real process backend, pinned
        explicitly (``"spawn"`` default) so span-stack and
        sanitizer-propagation semantics never depend on what a prior
        caller or the platform set.
    chunk_timeout:
        Per-chunk deadline in seconds for the fault-tolerant dispatcher; a
        worker past it is killed and the chunk retried.  The deadline
        clock only starts once the worker has reported ready, so one-time
        worker init never eats into a chunk's budget.
    max_retries:
        Re-dispatches per chunk after the first attempt; an exhausted
        chunk degrades to a serial re-run in the parent.
    backoff_base:
        Base of the exponential retry backoff: attempt ``a`` is requeued
        after ``backoff_base * 2**a`` seconds.
    chunks_per_worker:
        Static chunk granularity: reads are split into
        ``workers * chunks_per_worker`` chunks (capped by the read
        count), so a single recovery costs one chunk, not one worker's
        whole share.  The autotuner treats this as its starting split.
    fault_spec:
        Deterministic fault-injection spec for the recovery paths (see
        :mod:`repro.parallel.faults` for the grammar).  Empty (default)
        defers to the ``REPRO_FAULTS`` environment variable; both empty
        means no injection.
    autotune_chunks:
        Let the pool plan chunk counts from the LogGP cost model plus the
        live ``mp.chunk_map_seconds`` history instead of always using the
        static ``chunks_per_worker`` split.  Chunking never affects call
        results (per-read evidence is chunk-invariant), only latency.
    """

    workers: int = 1
    start_method: str = "spawn"
    chunk_timeout: float = 120.0
    max_retries: int = 2
    backoff_base: float = 0.05
    chunks_per_worker: int = 4
    fault_spec: str = ""
    autotune_chunks: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.start_method not in MP_START_METHODS:
            raise ConfigError(
                f"start_method must be one of {list(MP_START_METHODS)}, "
                f"got {self.start_method!r}"
            )
        if self.chunk_timeout <= 0:
            raise ConfigError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ConfigError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.chunks_per_worker < 1:
            raise ConfigError(
                f"chunks_per_worker must be >= 1, got {self.chunks_per_worker}"
            )
        # Fail fast on a malformed fault spec — at config time, in the
        # parent, not mid-run inside a worker.
        parse_fault_spec(self.fault_spec)


@dataclass
class TelemetryConfig:
    """Live telemetry plane knobs (off by default, zero-cost when off).

    Attributes
    ----------
    enabled:
        Turn on the sideband: pool workers stream periodic metric deltas
        + heartbeats to a parent-side
        :class:`~repro.observability.livestream.TelemetryAggregator`, and
        the Engine serves a Prometheus text-exposition endpoint over it.
        SNP calls are byte-identical with telemetry on or off — the live
        registry is separate from the authoritative result-path metrics.
    interval:
        Worker publish period in seconds (also the aggregator's drain
        cadence).  Smaller means fresher dashboards at slightly more
        sideband traffic.
    stall_after:
        Watchdog threshold in seconds: a worker whose heartbeat age *or*
        in-chunk busy time exceeds this is flagged stalled
        (``mp.worker_stalls`` + an ``mp.worker_stall`` trace instant) —
        early warning ahead of the per-chunk timeout kill.  Should sit
        well under ``parallel.chunk_timeout``.
    host, port:
        Bind address for the Prometheus endpoint.  ``port=0`` (default)
        picks an ephemeral port (read it from ``Engine.telemetry_url``);
        ``port=None`` disables the HTTP endpoint while keeping the
        in-process aggregator live (``repro top`` needs the endpoint).
    """

    enabled: bool = False
    interval: float = 1.0
    stall_after: float = 5.0
    host: str = "127.0.0.1"
    port: "int | None" = 0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(
                f"telemetry interval must be > 0, got {self.interval}"
            )
        if self.stall_after <= 0:
            raise ConfigError(
                f"telemetry stall_after must be > 0, got {self.stall_after}"
            )
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ConfigError(
                f"telemetry port must be in [0, 65535] or None, got {self.port}"
            )


@dataclass
class PipelineConfig:
    """Everything the GNUMAP-SNP driver needs besides the data.

    Attributes
    ----------
    k:
        Index mer-size (paper default 10).  With ``seeder.seed_len`` set,
        the index additionally carries a long-seed table at that width and
        seeding queries it instead (SNAP-style; see
        :class:`repro.index.seeding.SeederConfig`).
    pad:
        Genome bases added on each side of a candidate window so the
        semi-global PHMM can slide and open edge gaps.
    batch_size:
        Target number of (read, window) pairs per alignment batch; batches
        always end on read boundaries so mapping weights normalise within
        one batch.
    accumulator:
        "NORM", "CHARDISC" or "CENTDISC".
    edge_policy:
        z-vector edge handling, "mass" (default) or "paper" — see
        :mod:`repro.phmm.posterior`.
    min_ratio:
        Candidate locations below this likelihood ratio vs the read's best
        location are dropped from the multiread weighting.
    quality_aware:
        When False, PWMs collapse to the called base (ablation of the
        paper's quality extension).
    alignment_mode:
        "semiglobal" (default) or "global" (paper-literal boundary
        conditions; requires exact-footprint windows, only sensible with
        pad = 0).
    posterior_mode:
        "marginal" (default — the paper's forward-backward z-vectors over
        *all* alignments and locations) or "viterbi" (ablation: evidence
        from the single best alignment at the single best location, the
        philosophy of conventional mappers).
    band_mode:
        "off" (default — full O(N*M) fills), "fixed" (fill only a band of
        half-width ``band_w`` around each candidate's seed diagonal,
        unconditionally) or "adaptive" (banded, but pairs whose posterior
        band-edge mass exceeds ``band_tolerance`` re-run the full kernels —
        see :mod:`repro.phmm.banded`).  Banding applies to the marginal
        posterior path; the viterbi ablation always runs full matrices.
    band_w:
        Band half-width in window columns; a row covers ``2*band_w + 1``
        columns.  Must comfortably exceed the seeder's ``diagonal_slack``
        plus the indel drift you expect inside one read.
    band_tolerance:
        Escape threshold for ``band_mode="adaptive"``: the fraction of a
        read's posterior match mass allowed on band-created edge cells
        before the pair is re-run full-width.
    parallel:
        Parallel-execution sub-config (:class:`ParallelConfig`): fleet
        shape, per-chunk fault tolerance and chunk planning.
    telemetry:
        Live telemetry plane sub-config (:class:`TelemetryConfig`):
        worker metric streaming, stall watchdog and the Prometheus
        endpoint.  Off by default; never affects call results.
    """

    k: int = 10
    pad: int = 8
    batch_size: int = 512
    accumulator: str = "NORM"
    edge_policy: str = "mass"
    min_ratio: float = 1e-4
    quality_aware: bool = True
    alignment_mode: str = "semiglobal"
    posterior_mode: str = "marginal"
    band_mode: str = "off"
    band_w: int = 10
    band_tolerance: float = 1e-4
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    max_index_positions_per_kmer: int | None = 64
    phmm: PHMMParams = field(default_factory=PHMMParams)
    seeder: SeederConfig = field(default_factory=SeederConfig)
    caller: CallerConfig = field(default_factory=CallerConfig)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.pad < 0:
            raise ConfigError(f"pad must be >= 0, got {self.pad}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.accumulator.upper() not in (
            "NORM", "CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED",
        ):
            raise ConfigError(f"unknown accumulator {self.accumulator!r}")
        if self.edge_policy not in ("mass", "paper"):
            raise ConfigError(f"unknown edge_policy {self.edge_policy!r}")
        if not 0.0 <= self.min_ratio < 1.0:
            raise ConfigError(f"min_ratio must be in [0, 1), got {self.min_ratio}")
        if self.alignment_mode not in ("semiglobal", "global"):
            raise ConfigError(f"unknown alignment_mode {self.alignment_mode!r}")
        if self.posterior_mode not in ("marginal", "viterbi"):
            raise ConfigError(f"unknown posterior_mode {self.posterior_mode!r}")
        if self.band_mode not in ("off", "fixed", "adaptive"):
            raise ConfigError(
                f"band_mode must be 'off', 'fixed' or 'adaptive', "
                f"got {self.band_mode!r}"
            )
        if self.band_w < 1:
            raise ConfigError(f"band_w must be >= 1, got {self.band_w}")
        if not 0.0 <= self.band_tolerance < 1.0:
            raise ConfigError(
                f"band_tolerance must be in [0, 1), got {self.band_tolerance}"
            )
        if self.seeder.seed_len is not None and self.seeder.seed_len <= self.k:
            raise ConfigError(
                f"seeder.seed_len={self.seeder.seed_len} must exceed k={self.k}: "
                "the long-seed table is only worth building wider than the "
                "base index (drop --seed-len to seed at k)"
            )

    @property
    def banding(self) -> bool:
        """Whether the marginal alignment path runs banded kernels."""
        return self.band_mode != "off" and self.posterior_mode == "marginal"

    def band_cell_fraction(self, read_len: int) -> float:
        """Modelled fraction of full DP cells a banded fill computes.

        Used by the cost model / virtual clocks to charge band-aware compute:
        a band covers at most ``2*band_w + 1`` of the ``read_len + 2*pad``
        window columns per row.  Returns 1.0 when banding is off.
        """
        if not self.banding or read_len <= 0:
            return 1.0
        width = read_len + 2 * self.pad
        return min(1.0, (2 * self.band_w + 1) / width)

