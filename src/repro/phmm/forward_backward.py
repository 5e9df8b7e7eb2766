"""Batched, scaled forward/backward dynamic programmes.

This is the hot path of the whole system, engineered per the HPC guides:

* **Batch-first**: a batch of ``B`` (read, window) pairs is processed in
  ``(B, N+1, M+1)`` arrays; every DP step is a whole-row NumPy operation over
  the batch, so Python-level loop overhead is paid ``N`` times per batch
  instead of ``N*M`` times per alignment.
* **In-row recurrences as IIR filters**: ``f_GY(i, j)`` depends on
  ``f_GY(i, j-1)`` within the same row — a first-order linear recurrence —
  which :func:`scipy.signal.lfilter` evaluates at C speed along the last
  axis (the backward ``b_GY`` recurrence runs the same filter on the
  reversed row).
* **Per-row scaling** keeps values in float64 range; cumulative log scales
  are carried alongside so likelihoods and posteriors are exact.

Recursions (Durbin et al. 1998 ch. 4; see the note in
:mod:`repro.phmm.model` about the paper's forward-recursion typo)::

    f_M(i,j)  = p*(i,j) [T_MM f_M(i-1,j-1) + T_GM (f_GX + f_GY)(i-1,j-1)]
    f_GX(i,j) = q [T_MG f_M(i-1,j) + T_GG f_GX(i-1,j)]
    f_GY(i,j) = q [T_MG f_M(i,j-1) + T_GG f_GY(i,j-1)]

    b_M(i,j)  = p*(i+1,j+1) T_MM b_M(i+1,j+1) + q T_MG [b_GX(i+1,j) + b_GY(i,j+1)]
    b_GX(i,j) = p*(i+1,j+1) T_GM b_M(i+1,j+1) + q T_GG b_GX(i+1,j)
    b_GY(i,j) = p*(i+1,j+1) T_GM b_M(i+1,j+1) + q T_GG b_GY(i,j+1)

Two boundary modes:

``"semiglobal"`` (pipeline default)
    The read must be fully aligned but may land anywhere inside the window:
    ``f_M(0, j) = 1`` for every ``j`` (free genome prefix) and the likelihood
    sums ``f_M(N, j) + f_GX(N, j)`` over all ``j`` (free genome suffix).
``"global"``
    The paper's literal initialisation: ``f_M(0,0) = 1``, all other border
    cells zero, terminate at ``(N, M)`` with unit end weight on every state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from repro.errors import AlignmentError
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.model import PHMMParams

_MODES = ("semiglobal", "global")
_TINY = 1e-300


def emissions_batch(
    pwms: np.ndarray, windows: np.ndarray, params: PHMMParams
) -> np.ndarray:
    """Quality-aware match emissions ``p*`` for a batch.

    Parameters
    ----------
    pwms:
        ``(B, N, 4)`` read PWMs.
    windows:
        ``(B, M)`` genome window codes (``uint8``, N = 4 allowed).
    params:
        Model parameters (supplies the ``p[k, y]`` table).

    Returns
    -------
    ``(B, N, M)`` array with ``p*[b, i, j] = sum_k pwm[b,i,k] p[k, window[b,j]]``.
    """
    pwms = np.asarray(pwms, dtype=np.float64)
    windows = np.asarray(windows)
    if pwms.ndim != 3 or pwms.shape[2] != 4:
        raise AlignmentError(f"pwms must be (B, N, 4), got {pwms.shape}")
    if windows.ndim != 2 or windows.shape[0] != pwms.shape[0]:
        raise AlignmentError(
            f"windows must be (B, M) matching pwms batch, got {windows.shape}"
        )
    if windows.size and windows.max() > 4:
        raise AlignmentError("window codes must be in [0, 4]")
    # p[k, window[b, j]] -> (4, B, M); contract over k.
    emis_cols = params.emission[:, windows]
    return np.einsum("bik,kbj->bij", pwms, emis_cols, optimize=True)


@dataclass
class ForwardResult:
    """Scaled forward matrices plus log scales and total log-likelihood.

    ``fM/fGX/fGY`` are ``(B, N+1, M+1)`` *scaled* values: the true forward
    probability is ``fM[b, i, j] * exp(log_scale[b, i])``.  ``loglik`` is the
    per-pair total alignment log-likelihood under the chosen mode.
    """

    fM: np.ndarray
    fGX: np.ndarray
    fGY: np.ndarray
    log_scale: np.ndarray
    loglik: np.ndarray
    mode: str


@dataclass
class BackwardResult:
    """Scaled backward matrices; true value ``bM[b,i,j] * exp(log_scale[b,i])``."""

    bM: np.ndarray
    bGX: np.ndarray
    bGY: np.ndarray
    log_scale: np.ndarray
    mode: str


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise AlignmentError(f"mode must be one of {_MODES}, got {mode!r}")


def forward_batch(
    pstar: np.ndarray, params: PHMMParams, mode: str = "semiglobal"
) -> ForwardResult:
    """Run the scaled forward algorithm over a batch.

    ``pstar`` is the ``(B, N, M)`` emission array from
    :func:`emissions_batch`.
    """
    _check_mode(mode)
    pstar = np.asarray(pstar, dtype=np.float64)
    if pstar.ndim != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {pstar.shape}")
    B, N, M = pstar.shape
    if N == 0 or M == 0:
        raise AlignmentError("empty read or window")
    reg = metrics()
    reg.inc("phmm.batches")
    reg.inc("phmm.pairs", B)
    reg.inc("phmm.forward_cells", B * N * M)
    reg.inc("phmm.cells_full", B * N * M)
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    fM = np.zeros((B, N + 1, M + 1))
    fGX = np.zeros((B, N + 1, M + 1))
    fGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    if mode == "semiglobal":
        fM[:, 0, :] = 1.0
    else:
        # Paper-literal global borders: f_M(0,0) = 1, every other border cell
        # zero (the paper's initialisation step verbatim).
        fM[:, 0, 0] = 1.0

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])

    for i in range(1, N + 1):
        p_row = pstar[:, i - 1, :]  # p*(i, j) for j = 1..M
        prevM = fM[:, i - 1, :]
        prevGX = fGX[:, i - 1, :]
        prevGY = fGY[:, i - 1, :]
        rowM = fM[:, i, :]
        rowM[:, 1:] = p_row * (
            TMM * prevM[:, :-1] + TGM * (prevGX[:, :-1] + prevGY[:, :-1])
        )
        fGX[:, i, :] = q * (TMG * prevM + TGG * prevGX)
        drive = q * TMG * rowM[:, :-1]
        fGY[:, i, 1:] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)
        # Rescale the row (all three states share one scale so the recursion
        # stays exact); a zero row means the alignment has probability zero.
        s = np.maximum(
            np.maximum(rowM.max(axis=1), fGX[:, i, :].max(axis=1)),
            fGY[:, i, :].max(axis=1),
        )
        s = np.maximum(s, _TINY)
        fM[:, i, :] /= s[:, None]
        fGX[:, i, :] /= s[:, None]
        fGY[:, i, :] /= s[:, None]
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
    return result


def backward_batch(
    pstar: np.ndarray, params: PHMMParams, mode: str = "semiglobal"
) -> BackwardResult:
    """Run the scaled backward algorithm over a batch (same conventions)."""
    _check_mode(mode)
    pstar = np.asarray(pstar, dtype=np.float64)
    if pstar.ndim != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {pstar.shape}")
    B, N, M = pstar.shape
    if N == 0 or M == 0:
        raise AlignmentError("empty read or window")
    reg = metrics()
    reg.inc("phmm.backward_cells", B * N * M)
    reg.inc("phmm.cells_full", B * N * M)
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    bM = np.zeros((B, N + 1, M + 1))
    bGX = np.zeros((B, N + 1, M + 1))
    bGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    if mode == "semiglobal":
        bM[:, N, :] = 1.0
        bGX[:, N, :] = 1.0
        # bGY stays 0 at i = N: once the read is consumed, paths that keep
        # eating genome bases through G_Y are redundant with ending earlier.
    else:
        # Paper-literal: b_M(N,M) = b_GX(N,M) = b_GY(N,M) = 1, all other
        # far-border cells zero.  Note paths that still have trailing genome
        # bases to consume at i = N get weight zero under this convention,
        # exactly as in the paper's initialisation.
        bM[:, N, M] = 1.0
        bGX[:, N, M] = 1.0
        bGY[:, N, M] = 1.0
        # The row-N G_Y chain (consuming trailing genome bases) is part of
        # the paper's recursion domain: b_GY(N, j) = q T_GG b_GY(N, j+1),
        # and M at (N, j < M) can finish only by entering that chain.
        for j in range(M - 1, -1, -1):
            bGY[:, N, j] = q * TGG * bGY[:, N, j + 1]
        bM[:, N, :M] = q * TMG * bGY[:, N, 1:]

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])

    for i in range(N - 1, -1, -1):
        nextM = bM[:, i + 1, :]
        nextGX = bGX[:, i + 1, :]
        # d[j] = p*(i+1, j+1) * b_M(i+1, j+1): defined for j < M, zero at j = M.
        d = np.zeros((B, M + 1))
        d[:, :M] = pstar[:, i, :] * nextM[:, 1:]
        if i > 0:
            # b_GY row i: reversed first-order recurrence driven by T_GM * d.
            drive = (TGM * d[:, :M])[:, ::-1]
            bGY[:, i, :M] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)[:, ::-1]
            bGY[:, i, M] = 0.0
        # Row 0 keeps b_GY = 0 and drops the M -> G_Y term: the forward start
        # convention has f_GY(0, j) = 0 (genome bases before the first read
        # base are consumed by the start distribution, not by gap states), so
        # paths entering G_Y before consuming any read base must not count.
        gy_next = np.zeros((B, M + 1))
        gy_next[:, :M] = bGY[:, i, 1:]
        bM[:, i, :] = TMM * d + q * TMG * (nextGX + gy_next)
        bGX[:, i, :] = TGM * d + q * TGG * nextGX
        t = np.maximum(
            np.maximum(bM[:, i, :].max(axis=1), bGX[:, i, :].max(axis=1)),
            bGY[:, i, :].max(axis=1),
        )
        t = np.maximum(t, _TINY)
        bM[:, i, :] /= t[:, None]
        bGX[:, i, :] /= t[:, None]
        bGY[:, i, :] /= t[:, None]
        log_scale[:, i] = log_scale[:, i + 1] + np.log(t)

    result = BackwardResult(bM=bM, bGX=bGX, bGY=bGY, log_scale=log_scale, mode=mode)
    if sanitize.enabled():
        sanitize.check_backward(result)
    return result


def backward_loglik(fwd_pstar: np.ndarray, bwd: BackwardResult, mode: str) -> np.ndarray:
    """Total log-likelihood recomputed from the backward matrices.

    In semiglobal mode every path starts in ``M`` at some ``(0, j)`` with unit
    weight, so ``L = sum_j b_M(0, j)``; in global mode paths start at
    ``(0, 0)`` in ``M`` (or run through the leading-gap chain, which the
    backward matrices already account for), so ``L = b_M(0, 0) + b_GY-chain``
    — with the paper's zero-border initialisation simply ``b_M(0, 0)``.
    Used by tests as a consistency oracle against the forward likelihood.
    """
    _check_mode(mode)
    with np.errstate(divide="ignore"):
        if mode == "semiglobal":
            total = bwd.bM[:, 0, :].sum(axis=1)
        else:
            total = bwd.bM[:, 0, 0]
        return np.log(np.maximum(total, 0.0)) + bwd.log_scale[:, 0]
