"""Paired-end GNUMAP-SNP: the insert-size prior joins the multiread weights.

Extends the paper's posterior location weighting to read pairs: a pair's
candidate *placements* are joint hypotheses ``(c1, c2)`` over the mates'
candidate locations, scored

    joint(c1, c2) = loglik(c1) + loglik(c2) + log N(insert(c1, c2); mu, sd)

for properly oriented (inward-facing, positive-insert) combinations; each
mate's accumulation weight is its marginal over the joint softmax.  Mates
with no concordant partner fall back to single-end weighting times a
configured discordance penalty — so nothing is discarded, evidence is just
weighted by plausibility, in the spirit of the paper's "use all the
information in the data".

The payoff is repeat disambiguation: a mate anchored in unique sequence
concentrates its partner's weight on the true repeat copy, where the
single-end pipeline must split 50/50 (see
tests/pipeline/test_paired.py::TestRepeatDisambiguation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.memory.base import Accumulator
from repro.phmm.alignment import align_batch, build_windows
from repro.phmm.pwm import flat_pwm, pwm_from_read, reverse_complement_pwm
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, MappingStats, PipelineResult
from repro.simulate.paired import ReadPair
from repro.util.timers import TimerRegistry


@dataclass
class PairedConfig:
    """Pairing model on top of :class:`PipelineConfig`.

    ``discordant_logpenalty`` is the log-prior of an improperly paired (or
    singleton) placement relative to a concordant one at the modal insert —
    roughly log of the chimera/discordance rate.
    """

    insert_mean: float = 300.0
    insert_sd: float = 30.0
    discordant_logpenalty: float = -8.0

    def __post_init__(self) -> None:
        if self.insert_mean <= 0 or self.insert_sd <= 0:
            raise PipelineError("insert model parameters must be positive")
        if self.discordant_logpenalty > 0:
            raise PipelineError("discordant_logpenalty must be <= 0")

    def insert_logpdf(self, insert: np.ndarray) -> np.ndarray:
        """Gaussian log-density of observed insert sizes."""
        insert = np.asarray(insert, dtype=np.float64)
        return (
            -0.5 * ((insert - self.insert_mean) / self.insert_sd) ** 2
            - np.log(self.insert_sd * np.sqrt(2 * np.pi))
        )


@dataclass
class _MateCandidates:
    """Aligned candidates of one mate: locations, strands, logliks, z."""

    starts: np.ndarray
    strands: np.ndarray
    logliks: np.ndarray
    z: np.ndarray  # (n_cand, width, 5)
    cols: np.ndarray  # (n_cand, width) genome positions
    valid: np.ndarray  # (n_cand, width)


class PairedGnumap:
    """Paired-end driver wrapping the single-end pipeline machinery."""

    def __init__(
        self,
        reference: Reference,
        config: PipelineConfig | None = None,
        paired: PairedConfig | None = None,
    ) -> None:
        self.pipeline = GnumapSnp(reference, config)
        self.paired = paired or PairedConfig()

    @property
    def reference(self) -> Reference:
        return self.pipeline.reference

    @property
    def config(self) -> PipelineConfig:
        return self.pipeline.config

    # -- per-mate alignment ----------------------------------------------------
    def _align_mate(self, read: Read) -> "_MateCandidates | None":
        cfg = self.config
        candidates = self.pipeline.seeder.candidates(read)
        if not candidates:
            return None
        pwm_fwd = (
            pwm_from_read(read) if cfg.quality_aware else flat_pwm(read.codes)
        )
        pwm_rc = None
        pwms, starts, strands = [], [], []
        for cand in candidates:
            if cand.strand == 1:
                pwms.append(pwm_fwd)
            else:
                if pwm_rc is None:
                    pwm_rc = reverse_complement_pwm(pwm_fwd)
                pwms.append(pwm_rc)
            starts.append(cand.start)
            strands.append(cand.strand)
        n = len(read)
        width = n + 2 * cfg.pad
        start_arr = np.asarray(starts, dtype=np.int64)
        windows, valid = build_windows(
            self.reference.codes, start_arr - cfg.pad, width
        )
        outcome = align_batch(
            np.stack(pwms), windows, cfg.phmm,
            mode=cfg.alignment_mode, edge_policy=cfg.edge_policy, valid=valid,
        )
        cols = (start_arr - cfg.pad)[:, None] + np.arange(width)[None, :]
        return _MateCandidates(
            starts=start_arr,
            strands=np.asarray(strands),
            logliks=outcome.loglik,
            z=outcome.z,
            cols=cols,
            valid=valid,
        )

    # -- pairing ---------------------------------------------------------------
    def _pair_weights(
        self, m1: _MateCandidates, m2: _MateCandidates, read_len: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Marginal per-candidate weights from the joint placement softmax."""
        p = self.paired
        l1 = m1.logliks[:, None]  # (n1, 1)
        l2 = m2.logliks[None, :]  # (1, n2)
        s1 = m1.strands[:, None]
        s2 = m2.strands[None, :]
        pos1 = m1.starts[:, None].astype(np.float64)
        pos2 = m2.starts[None, :].astype(np.float64)
        # FR orientation: the forward mate lies 5' of the reverse mate.
        insert_fwd1 = pos2 + read_len - pos1  # valid when s1=+1, s2=-1
        insert_fwd2 = pos1 + read_len - pos2  # valid when s1=-1, s2=+1
        insert = np.where(s1 == 1, insert_fwd1, insert_fwd2)
        proper = (s1 != s2) & (insert >= 2 * read_len)
        # Every placement hypothesis explains BOTH mates' data: concordant
        # combinations earn the insert density, improper ones (same strand,
        # negative or absurd insert — i.e. a chimera or mis-seed) pay the
        # discordance prior instead.  Mates with *no* candidates at all are
        # handled by the caller's single-end fallback, so no extra singleton
        # hypotheses belong here (a singleton that ignored the partner's
        # likelihood would compare hypotheses over different data).
        joint = l1 + l2 + np.where(
            proper, p.insert_logpdf(insert), p.discordant_logpenalty
        )
        ceiling = np.max(joint) if joint.size else -np.inf
        if not np.isfinite(ceiling):
            return np.zeros(m1.logliks.size), np.zeros(m2.logliks.size)
        ej = np.exp(np.clip(joint - ceiling, -745.0, 0.0))
        total = ej.sum()
        w1 = ej.sum(axis=1) / total
        w2 = ej.sum(axis=0) / total
        return w1, w2

    # -- public API --------------------------------------------------------------
    def map_pairs(
        self,
        pairs: "list[ReadPair]",
        accumulator: Accumulator | None = None,
        timers: TimerRegistry | None = None,
    ) -> tuple[Accumulator, MappingStats]:
        """Align read pairs with joint insert-aware weighting (steps A-C)."""
        acc = (
            accumulator
            if accumulator is not None
            else self.pipeline.new_accumulator()
        )
        timers = timers if timers is not None else TimerRegistry()
        stats = MappingStats()
        dense = self.config.accumulator.upper() == "NORM"

        for pair in pairs:
            stats.n_reads += 2
            with timers["align"]:
                m1 = self._align_mate(pair.read1)
                m2 = self._align_mate(pair.read2)
            if m1 is None and m2 is None:
                stats.n_unmapped += 2
                continue
            with timers["accumulate"]:
                if m1 is not None and m2 is not None:
                    stats.n_mapped += 2
                    w1, w2 = self._pair_weights(m1, m2, len(pair.read1))
                    self._deposit(acc, m1, w1, dense)
                    self._deposit(acc, m2, w2, dense)
                    stats.n_pairs += m1.logliks.size + m2.logliks.size
                else:
                    # one mate unmapped: the other degrades to single-end
                    mate = m1 if m1 is not None else m2
                    stats.n_mapped += 1
                    stats.n_unmapped += 1
                    from repro.phmm.scoring import normalize_location_weights

                    w = normalize_location_weights(
                        mate.logliks, min_ratio=self.config.min_ratio
                    )
                    self._deposit(acc, mate, w, dense)
                    stats.n_pairs += mate.logliks.size
        return acc, stats

    @staticmethod
    def _deposit(acc: Accumulator, mate: _MateCandidates, weights: np.ndarray,
                 dense: bool) -> None:
        zw = mate.z * weights[:, None, None]
        live = mate.valid & (weights[:, None] > 0)
        if dense:
            m = live.ravel()
            acc.add(mate.cols.ravel()[m], zw.reshape(-1, 5)[m])
        else:
            for k in range(zw.shape[0]):
                m = live[k]
                if m.any():
                    acc.add(mate.cols[k][m], zw[k][m])

    def run(self, pairs: "list[ReadPair]") -> PipelineResult:
        """Full paired pipeline: map every pair, then call SNPs."""
        timers = TimerRegistry()
        acc, stats = self.map_pairs(pairs, timers=timers)
        snps = self.pipeline.call_snps(acc, timers=timers)
        return PipelineResult(snps=snps, accumulator=acc, stats=stats, timers=timers)
