"""Evaluation: minimum distance of the superimposed constellation and BER.

compute_med finds each superimposed codeword's nearest later codeword with
core.nearest_points, the one exact search the ML detector shares: a GEMM
screen over the pairs j > i, in float32 for constellations of moderate size
and magnitude, with near ties re-checked in float64 by
core.ordered_distances. That sums each squared distance over the real-split
dimensions one at a time in index order, so the MED and its pair are
bit-identical to a plain per-pair loop, which the test suite uses as an
independent oracle. simulate_ber runs seeded Monte Carlo trials through any
of the three detectors and reports Wilson intervals.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, count

import numpy as np

from .channel import ChannelRealization, apply_channel, ebn0_to_n0, split_real
from .core import (Codebook, ConfigError, DegenerateCodebookError, build_bit_matrix, nearest_points,
                   ordered_distances, superimposed_constellation, tuple_digits)
from .encoder import superimpose
from .mpa import MpaConfig, _FactorGraph, _ml_decisions, _mpa_decisions, _mpa_posteriors

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class MedReport:
    """Minimum squared Euclidean distance over the superimposed constellation."""

    med: float
    arg_pair: tuple  # the two message tuples achieving the minimum
    phi_size: int


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    bits: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float
    detector: str
    codebook_id: str
    user_errors: tuple = ()  # bit errors of each user; they sum to bit_errors


@dataclass(frozen=True)
class BerCurve:
    points: tuple


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = errors / n
    denom = 1.0 + WILSON_Z**2 / n
    center = (p + WILSON_Z**2 / (2 * n)) / denom
    half = WILSON_Z * np.sqrt(p * (1 - p) / n + WILSON_Z**2 / (4 * n**2)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return (lo, hi)


def compute_med(codebook: Codebook) -> MedReport:
    """Exact minimum pairwise squared distance over all M^J superimposed points.

    nearest_points gives each point i its nearest point j > i: a GEMM screen,
    in float32 unless the points are too few, too large or too small for it
    (see nearest_points), whose near ties, those within a rounding bound of
    the row's best, are re-checked exactly in float64, the lowest j winning.
    The MED is the smallest ordered_distances of these pairs, so it rounds
    as the naive per-pair loop does, and among equal minima the lowest
    (i, j) pair wins. Runtime is quadratic in M^J; core.SEARCH_GUARD rejects
    constellations above one million points.
    """
    pts = superimposed_constellation(codebook)
    nearest = nearest_points(pts[:-1], pts, after_self=True)
    d2 = ordered_distances(pts[:-1], pts[nearest])
    i = int(np.argmin(d2))  # first row: the lowest pair among equal minima
    best, best_pair = float(d2[i]), (i, int(nearest[i]))
    digits = tuple_digits(np.array(best_pair), codebook.config.M, codebook.config.J)
    return MedReport(med=best, arg_pair=tuple(map(tuple, digits.tolist())), phi_size=len(pts))


def compare_codebooks(named_codebooks: dict) -> list[tuple[str, float]]:
    """MED table for codebooks sharing one system configuration.

    Each codebook is normalized to unit per-user average energy first so the
    comparison is power-fair. Returns (name, med) rows sorted descending.
    """
    items = list(named_codebooks.items())
    if not items:
        return []
    ref = items[0][1].config
    for name, cb in items:
        if cb.config != ref:
            raise ConfigError(
                f"codebook {name!r} has config {cb.config}, expected {ref}: MEDs are not comparable"
            )
    rows = []
    for name, cb in items:
        try:
            cb = cb.normalized()
        except DegenerateCodebookError as exc:
            raise DegenerateCodebookError(f"codebook {name!r}: {exc}") from exc
        rows.append((name, compute_med(cb).med))
    rows.sort(key=lambda t: t[1], reverse=True)
    return rows


def _bit_error_table(m: int) -> np.ndarray:
    """(M, M) table of the bits in which the labels of symbols a and b differ."""
    b = build_bit_matrix(m)
    return (b[:, :, None] != b[:, None, :]).sum(axis=0)


def simulate_ber(codebook: Codebook, detector: str, ebn0_db_list, *,
                 min_errors: int = 200, max_bits: int = 100_000_000,
                 seed: int = 0, decoder=None, mpa_cfg: MpaConfig = MpaConfig(),
                 batch_size: int = 2000, workers: int = 1,
                 codebook_id: str = "") -> BerCurve:
    """Monte Carlo bit error rate of one codebook/detector combination.

    Per SNR point, random message tuples run through superposition, the AWGN
    channel and the chosen detector in chunks of batch_size tuples. Each point
    draws from one channel at its exact N0; all are built before any chunk
    runs, so an N0 that underflows to 0 (from about 3231 dB) raises ConfigError
    first. Chunk c of point i draws from the generator seeded (seed, i, c).
    Chunk results are taken in chunk order, and the point stops after the first
    chunk that brings its totals to min_errors bit errors or max_bits simulated
    bits, so a point does not depend on the worker count. One thread pool
    serves the whole call: it runs the chunks workers at a time, dropping those
    of a wave that follow the stopping chunk, and its threads share one
    decoder, whose inference forward writes no layer state. With workers=1 the
    chunks run one by one on the calling thread.

    The MPA detector decides a chunk by a float32 run (mpa._mpa_decisions,
    in blocks of 512 vectors with a complex64 channel metric) on the factor
    graph built once per call, and re-runs the rows it cannot vouch for,
    those with a top-two margin within its rounding bound, through the
    float64 _mpa_posteriors on the same graph, all of them past
    mpa.FLOAT32_MAX_E. Rows are independent, so every decision and every
    count is that of the float64 detector. A point keeps each user's bit
    errors beside their total, and the stopping rule reads the total.
    """
    if detector not in ("mpa", "ml", "neural"):
        raise ConfigError(f"unknown detector {detector!r}")
    if detector == "neural":
        if decoder is None:
            raise ConfigError("the neural detector needs a trained decoder model")
        decoder.check_fits(codebook.config)
    for name, value in (("batch_size", batch_size), ("min_errors", min_errors),
                        ("max_bits", max_bits), ("workers", workers)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cfg = codebook.config
    graph = _FactorGraph(codebook) if detector == "mpa" else None
    points = superimposed_constellation(codebook) if detector == "ml" else None
    errtab = _bit_error_table(cfg.M)

    def run_chunk(point_idx: int, chunk_idx: int, ch: ChannelRealization) -> np.ndarray:
        rng = np.random.default_rng([seed, point_idx, chunk_idx])
        msgs = rng.integers(0, cfg.M, size=(batch_size, cfg.J))
        tx = superimpose(codebook, msgs)
        r = apply_channel(tx, ch, rng)
        if detector == "mpa":
            dec, unsure = _mpa_decisions(r, graph, ch, mpa_cfg)
            dec[unsure] = np.argmax(_mpa_posteriors(r[unsure], codebook, ch, mpa_cfg, graph), axis=2)
        elif detector == "ml":
            dec = _ml_decisions(r, codebook, ch, points=points)
        else:
            dec = np.argmax(decoder.forward(split_real(r)), axis=2)
        return errtab[msgs, dec].sum(axis=0)  # (J,) bit errors per user

    channels = [(ebn0, ChannelRealization.awgn(cfg.K, ebn0_to_n0(ebn0, cfg.M))) for ebn0 in ebn0_db_list]
    chunk_bits = batch_size * cfg.J * cfg.bits_per_symbol
    rows = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = pool.map if workers > 1 else map
        for pt, (ebn0, ch) in enumerate(channels):
            point_chunk = partial(run_chunk, pt, ch=ch)
            waves = (run(point_chunk, range(c, c + workers)) for c in count(0, workers))
            user_errors = np.zeros(cfg.J, dtype=np.int64)
            bits = 0
            for e in chain.from_iterable(waves):
                user_errors += e
                errors = int(user_errors.sum())
                bits += chunk_bits
                if errors >= min_errors or bits >= max_bits:
                    break
            lo, hi = wilson_interval(errors, bits)
            rows.append(BerPoint(ebn0_db=float(ebn0), bits=bits, bit_errors=errors, ber=errors / bits,
                                 ci_low=lo, ci_high=hi, detector=detector, codebook_id=codebook_id,
                                 user_errors=tuple(user_errors.tolist())))
    return BerCurve(points=tuple(rows))
