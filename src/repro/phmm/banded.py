"""Seed-guided banded forward/backward kernels.

The full DP in :mod:`repro.phmm.forward_backward` fills every cell of every
``(N+1, M+1)`` matrix — ``O(N*M)`` per pair — even though the k-mer seeding
stage already told us *where* the read aligns: a candidate region is a
diagonal vote, and real alignments wander at most a few indels away from it.
Both gpuPairHMM (Schmidt et al.) and Endeavor (Graça & Ilic) exploit this:
fill only a band of half-width ``band_w`` around the seed diagonal and the
likelihood is recovered to rounding error at a fraction of the cells.

Band geometry
-------------
A :class:`BandSpec` fixes, for DP row ``i`` (read prefix length), the window
columns ``j`` with ``|j - (i + center)| <= band_w``, clipped to ``[0, M]``.
``center`` is the window column the read's first base is expected at — in the
pipeline every window is cut at ``candidate.start - pad``, so ``center`` is
``pad`` corrected by any clamping the seeder applied at genome edges.  Cells
outside the band are *log-domain −inf*: the scaled matrices simply keep their
zeros there, which the in-band recurrences read back as "no path enters from
outside the band".  When the band covers the whole matrix the banded kernels
perform bit-identical arithmetic to the full ones.

Escape hatch
------------
Banding is a bet that the alignment stays near the seed diagonal.  The bet is
audited, not trusted: :func:`band_edge_mass` measures the posterior
probability mass sitting on the *interior* band-edge cells (edges created by
the band, not by the matrix boundary).  A well-centred alignment leaves
essentially zero mass there (reaching the edge costs ``~q^band_w``); an
alignment squeezed against the edge — a long indel, a mis-centred seed —
lights it up.  :func:`repro.phmm.alignment.align_batch` re-runs such pairs
through the full kernels when ``band_mode="adaptive"``, so calls stay
faithful where the band assumption breaks.

Observability: banded fills charge the actually-computed cells to
``phmm.forward_cells``/``phmm.backward_cells`` (keeping those counters honest
DP-cell counts) plus ``phmm.cells_banded``; the full kernels charge
``phmm.cells_full``; escapes count under ``phmm.band_escapes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from repro.errors import AlignmentError
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.forward_backward import (
    _MODES,
    _TINY,
    BackwardResult,
    ForwardResult,
)
from repro.phmm.model import PHMMParams


@dataclass(frozen=True)
class BandSpec:
    """A diagonal band over an ``(N+1, M+1)`` DP matrix.

    Attributes
    ----------
    n:
        Read length (DP rows ``0..n``).
    m:
        Window length (DP columns ``0..m``).
    center:
        Expected window column of the read's first base: the seed predicts
        read base ``i`` consumes window column ``i + center``.
    width:
        Band half-width ``band_w``; row ``i`` spans columns
        ``[i + center - width, i + center + width]`` clipped to ``[0, m]``.
    """

    n: int
    m: int
    center: int
    width: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise AlignmentError("band requires N >= 1 and M >= 1")
        if self.width < 1:
            raise AlignmentError(f"band width must be >= 1, got {self.width}")

    def row_bounds(self, i: int) -> tuple[int, int]:
        """Inclusive in-band column range ``(lo, hi)`` for DP row ``i``.

        ``lo > hi`` means the band has slid entirely off the matrix for this
        row (the seed diagonal cannot carry the read that far); the row stays
        all-zero and the pair's likelihood collapses to ``-inf``.
        """
        lo = max(0, i + self.center - self.width)
        hi = min(self.m, i + self.center + self.width)
        return lo, hi

    def covers_matrix(self) -> bool:
        """True when every row's band spans all columns ``0..m`` (banded
        arithmetic is then bit-identical to the full kernels)."""
        for i in (0, self.n):
            lo, hi = self.row_bounds(i)
            if lo > 0 or hi < self.m:
                return False
        return True

    def interior_edges(self, i: int) -> tuple[int, int]:
        """Band-edge columns of row ``i`` that are *interior* to the matrix.

        Returns ``(lo_edge, hi_edge)`` with ``-1`` standing for "this side is
        clipped by the matrix boundary, not by the band" — mass at a matrix
        boundary is legitimate alignment geometry, only mass pressed against
        a band-created edge signals that the band is too narrow.
        """
        lo, hi = self.row_bounds(i)
        lo_edge = lo if lo > 0 and lo == i + self.center - self.width else -1
        hi_edge = hi if hi < self.m and hi == i + self.center + self.width else -1
        return lo_edge, hi_edge

    def n_cells(self) -> int:
        """DP cells inside the band (one state set per cell), rows ``1..n``."""
        total = 0
        for i in range(1, self.n + 1):
            lo, hi = self.row_bounds(i)
            if lo <= hi:
                total += hi - lo + 1
        return total

    def outside_mask(self) -> np.ndarray:
        """Boolean ``(n+1, m+1)`` mask, True strictly outside the band."""
        rows = np.arange(self.n + 1)[:, None]
        cols = np.arange(self.m + 1)[None, :]
        return np.abs(cols - rows - self.center) > self.width


def _check_inputs(pstar: np.ndarray, mode: str) -> tuple[int, int, int]:
    if mode not in _MODES:
        raise AlignmentError(f"mode must be one of {_MODES}, got {mode!r}")
    if pstar.ndim != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {pstar.shape}")
    B, N, M = pstar.shape
    if N == 0 or M == 0:
        raise AlignmentError("empty read or window")
    return B, N, M


def forward_banded(
    pstar: np.ndarray,
    params: PHMMParams,
    band: BandSpec,
    mode: str = "semiglobal",
) -> ForwardResult:
    """Banded scaled forward pass; same conventions as ``forward_batch``.

    All matrices keep their full ``(B, N+1, M+1)`` shape with exact zeros
    outside the band, so downstream posterior extraction is unchanged.
    """
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = _check_inputs(pstar, mode)
    if (band.n, band.m) != (N, M):
        raise AlignmentError(
            f"band is for ({band.n}, {band.m}), batch is ({N}, {M})"
        )
    reg = metrics()
    reg.inc("phmm.batches")
    reg.inc("phmm.pairs", B)
    n_cells = B * band.n_cells()
    reg.inc("phmm.forward_cells", n_cells)
    reg.inc("phmm.cells_banded", n_cells)
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    fM = np.zeros((B, N + 1, M + 1))
    fGX = np.zeros((B, N + 1, M + 1))
    fGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    lo0, hi0 = band.row_bounds(0)
    if mode == "semiglobal":
        # Free genome prefix, but only starts the band admits: the read may
        # begin at any in-band column of row 0.
        if lo0 <= hi0:
            fM[:, 0, lo0 : hi0 + 1] = 1.0
    else:
        if lo0 <= 0 <= hi0:
            fM[:, 0, 0] = 1.0

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])
    log_tiny = np.log(_TINY)

    for i in range(1, N + 1):
        lo, hi = band.row_bounds(i)
        if lo > hi:
            # Band slid off the matrix: nothing reachable from here on.
            log_scale[:, i] = log_scale[:, i - 1] + log_tiny
            continue
        jlo = max(lo, 1)  # M/GY cells exist only for j >= 1
        prevM = fM[:, i - 1, :]
        prevGX = fGX[:, i - 1, :]
        prevGY = fGY[:, i - 1, :]
        rowM = fM[:, i, :]
        if jlo <= hi:
            p_row = pstar[:, i - 1, jlo - 1 : hi]  # p*(i, j), j = jlo..hi
            rowM[:, jlo : hi + 1] = p_row * (
                TMM * prevM[:, jlo - 1 : hi]
                + TGM * (prevGX[:, jlo - 1 : hi] + prevGY[:, jlo - 1 : hi])
            )
        fGX[:, i, lo : hi + 1] = q * (
            TMG * prevM[:, lo : hi + 1] + TGG * prevGX[:, lo : hi + 1]
        )
        if jlo <= hi:
            # First-order in-row recurrence, zero-initialised at the band's
            # left edge (f_GY(i, jlo-1) is out of band, hence 0).
            drive = q * TMG * rowM[:, jlo - 1 : hi]
            fGY[:, i, jlo : hi + 1] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)
        s = np.maximum(
            np.maximum(
                rowM[:, lo : hi + 1].max(axis=1), fGX[:, i, lo : hi + 1].max(axis=1)
            ),
            fGY[:, i, lo : hi + 1].max(axis=1),
        )
        s = np.maximum(s, _TINY)
        fM[:, i, lo : hi + 1] /= s[:, None]
        fGX[:, i, lo : hi + 1] /= s[:, None]
        fGY[:, i, lo : hi + 1] /= s[:, None]
        log_scale[:, i] = log_scale[:, i - 1] + np.log(s)

    if mode == "semiglobal":
        total = fM[:, N, :].sum(axis=1) + fGX[:, N, :].sum(axis=1)
    else:
        total = fM[:, N, M] + fGX[:, N, M] + fGY[:, N, M]
    with np.errstate(divide="ignore"):
        loglik = np.log(np.maximum(total, 0.0)) + log_scale[:, N]
    result = ForwardResult(
        fM=fM, fGX=fGX, fGY=fGY, log_scale=log_scale, loglik=loglik, mode=mode
    )
    if sanitize.enabled():
        sanitize.check_forward(result)
        sanitize.check_band(result.fM, result.fGX, result.fGY, band=band, kind="forward")
    return result


def backward_banded(
    pstar: np.ndarray,
    params: PHMMParams,
    band: BandSpec,
    mode: str = "semiglobal",
) -> BackwardResult:
    """Banded scaled backward pass; same conventions as ``backward_batch``."""
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = _check_inputs(pstar, mode)
    if (band.n, band.m) != (N, M):
        raise AlignmentError(
            f"band is for ({band.n}, {band.m}), batch is ({N}, {M})"
        )
    n_cells = B * band.n_cells()
    reg = metrics()
    reg.inc("phmm.backward_cells", n_cells)
    reg.inc("phmm.cells_banded", n_cells)
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    bM = np.zeros((B, N + 1, M + 1))
    bGX = np.zeros((B, N + 1, M + 1))
    bGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    loN, hiN = band.row_bounds(N)
    if mode == "semiglobal":
        if loN <= hiN:
            bM[:, N, loN : hiN + 1] = 1.0
            bGX[:, N, loN : hiN + 1] = 1.0
    else:
        if loN <= M <= hiN:
            bM[:, N, M] = 1.0
            bGX[:, N, M] = 1.0
            bGY[:, N, M] = 1.0
        if loN <= hiN:
            # Trailing-genome G_Y chain, truncated at the band's left edge.
            for j in range(min(hiN, M - 1), loN - 1, -1):
                bGY[:, N, j] = q * TGG * bGY[:, N, j + 1]
            mhi = min(hiN, M - 1)
            if loN <= mhi:
                bM[:, N, loN : mhi + 1] = q * TMG * bGY[:, N, loN + 1 : mhi + 2]

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])
    log_tiny = np.log(_TINY)

    for i in range(N - 1, -1, -1):
        lo, hi = band.row_bounds(i)
        if lo > hi:
            log_scale[:, i] = log_scale[:, i + 1] + log_tiny
            continue
        L = hi - lo + 1
        nextM = bM[:, i + 1, :]
        nextGX = bGX[:, i + 1, :]
        # d[j] = p*(i+1, j+1) b_M(i+1, j+1) for j = lo..hi (zero at j = M).
        d = np.zeros((B, L))
        dhi = min(hi, M - 1)
        if lo <= dhi:
            d[:, : dhi - lo + 1] = (
                pstar[:, i, lo:dhi + 1] * nextM[:, lo + 1 : dhi + 2]
            )
        if i > 0:
            # Reversed first-order recurrence, zero-initialised at the band's
            # right edge (b_GY(i, hi+1) is out of band, hence 0).
            drive = (TGM * d)[:, ::-1]
            bGY[:, i, lo : hi + 1] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)[
                :, ::-1
            ]
        # gy_next[j] = b_GY(i, j+1), zero past the band edge.
        gy_next = np.zeros((B, L))
        gy_next[:, : L - 1] = bGY[:, i, lo + 1 : hi + 1]
        if hi < M:
            gy_next[:, L - 1] = bGY[:, i, hi + 1]  # always 0 (out of band)
        bM[:, i, lo : hi + 1] = TMM * d + q * TMG * (
            nextGX[:, lo : hi + 1] + gy_next
        )
        bGX[:, i, lo : hi + 1] = TGM * d + q * TGG * nextGX[:, lo : hi + 1]
        t = np.maximum(
            np.maximum(
                bM[:, i, lo : hi + 1].max(axis=1), bGX[:, i, lo : hi + 1].max(axis=1)
            ),
            bGY[:, i, lo : hi + 1].max(axis=1),
        )
        t = np.maximum(t, _TINY)
        bM[:, i, lo : hi + 1] /= t[:, None]
        bGX[:, i, lo : hi + 1] /= t[:, None]
        bGY[:, i, lo : hi + 1] /= t[:, None]
        log_scale[:, i] = log_scale[:, i + 1] + np.log(t)

    result = BackwardResult(bM=bM, bGX=bGX, bGY=bGY, log_scale=log_scale, mode=mode)
    if sanitize.enabled():
        sanitize.check_backward(result)
        sanitize.check_band(result.bM, result.bGX, result.bGY, band=band, kind="backward")
    return result


def band_edge_mass(match_posterior: np.ndarray, band: BandSpec) -> np.ndarray:
    """Posterior mass pressed against the band's interior edges, per pair.

    ``match_posterior`` is the ``(B, N, M)`` cell-posterior array from
    :class:`~repro.phmm.posterior.PosteriorResult` (row ``i-1``/col ``j-1``
    hold cell ``(i, j)``).  The return value is the summed match posterior on
    band-created edge cells divided by the read length — the fraction of the
    alignment that runs along the band boundary.  Matrix-boundary columns
    are never counted (mass there is legitimate edge-of-window geometry).
    """
    match_posterior = np.asarray(match_posterior)
    if match_posterior.ndim != 3:
        raise AlignmentError(
            f"match_posterior must be (B, N, M), got {match_posterior.shape}"
        )
    B, N, M = match_posterior.shape
    if (band.n, band.m) != (N, M):
        raise AlignmentError(
            f"band is for ({band.n}, {band.m}), posterior is ({N}, {M})"
        )
    edge = np.zeros(B)
    for i in range(1, N + 1):
        lo_edge, hi_edge = band.interior_edges(i)
        if lo_edge >= 1:
            edge += match_posterior[:, i - 1, lo_edge - 1]
        if hi_edge >= 1 and hi_edge != lo_edge:
            edge += match_posterior[:, i - 1, hi_edge - 1]
    return edge / float(N)
