"""Evaluation: minimum distance of the superimposed constellation and BER.

compute_med scans all pairs of the M^J superimposed codewords exactly with
core.squared_distance_blocks, the one nearest-point search, which the ML
detector shares. It sums each squared distance over the real-split
dimensions one at a time in index order, so the MED and its pair are
bit-identical to a plain per-pair loop, which the test suite uses as an
independent oracle. simulate_ber runs seeded Monte Carlo trials through any
of the three detectors and reports Wilson intervals.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, apply_channel, ebn0_to_n0, split_real
from .core import (Codebook, ConfigError, squared_distance_blocks, superimposed_constellation,
                   tuple_digits)
from .encoder import superimpose
from .mpa import N0_FLOOR, MpaConfig, _FactorGraph, _ml_decisions, _mpa_posteriors

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


@dataclass(frozen=True)
class BerCurve:
    points: tuple


def wilson_interval(errors: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = errors / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return (lo, hi)


def compute_med(codebook: Codebook, guard: int = 1_000_000) -> MedReport:
    """Exact minimum pairwise squared distance over all M^J superimposed points.

    squared_distance_blocks scans every pair of real-split points, so the MED
    rounds as the naive per-pair loop does; among equal minima the lowest
    (row, column) pair wins. Runtime is quadratic in M^J; the guard rejects
    constellations above one million points.
    """
    r = split_real(superimposed_constellation(codebook, guard))
    if len(r) < 2:
        raise ConfigError("need at least two constellation points")
    best, best_pair, a = np.inf, (0, 0), 0  # a: first row of the current block
    for d2 in squared_distance_blocks(r, r):
        rows = np.arange(d2.shape[0])
        d2[rows, a + rows] = np.inf
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        if d2[i, j] < best:  # strictly less: an earlier block keeps a tie
            best, best_pair = float(d2[i, j]), (a + int(i), int(j))
        a += d2.shape[0]
    digits = tuple_digits(np.array(best_pair), codebook.config.M, codebook.config.J)
    return MedReport(med=best, arg_pair=tuple(map(tuple, digits.tolist())), phi_size=len(r))


def compare_codebooks(named_codebooks) -> list[tuple[str, float]]:
    """MED table for codebooks sharing one system configuration.

    Each codebook is normalized to unit per-user average energy first so the
    comparison is power-fair. Returns (name, med) rows sorted descending.
    """
    items = list(named_codebooks.items()) if isinstance(named_codebooks, dict) else list(named_codebooks)
    if not items:
        return []
    ref = items[0][1].config
    for name, cb in items:
        if cb.config != ref:
            raise ConfigError(
                f"codebook {name!r} has config {cb.config}, expected {ref}: MEDs are not comparable"
            )
    rows = [(name, compute_med(cb.normalized()).med) for name, cb in items]
    rows.sort(key=lambda t: t[1], reverse=True)
    return rows


def _bit_error_table(m: int) -> np.ndarray:
    a = np.arange(m)
    xor = a[:, None] ^ a[None, :]
    return np.array([[bin(x).count("1") for x in row] for row in xor], dtype=np.int64)


def simulate_ber(codebook: Codebook, detector: str, ebn0_db_list, *,
                 min_errors: int = 200, max_bits: int = 100_000_000,
                 seed: int = 0, decoder=None, mpa_cfg: MpaConfig = MpaConfig(),
                 batch_size: int = 2000, workers: int = 1,
                 codebook_id: str = "", noise_free: bool = False) -> BerCurve:
    """Monte Carlo bit error rate of one codebook/detector combination.

    Per SNR point, random message tuples run through superposition, the AWGN
    channel and the chosen detector until min_errors bit errors or max_bits
    simulated bits. Chunk c of point i draws from generator seeded
    (seed, i, c), so results are reproducible for a fixed seed and
    independent of the worker count.
    """
    if detector not in ("mpa", "ml", "neural"):
        raise ConfigError(f"unknown detector {detector!r}")
    if detector == "neural":
        if decoder is None:
            raise ConfigError("the neural detector needs a trained decoder model")
        decoder.check_fits(codebook.config)
    for name, value in (("batch_size", batch_size), ("min_errors", min_errors),
                        ("max_bits", max_bits)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    cfg = codebook.config
    graph = _FactorGraph(codebook) if detector == "mpa" else None
    points = superimposed_constellation(codebook) if detector == "ml" else None
    errtab = _bit_error_table(cfg.M)
    bits_per_tuple = cfg.J * cfg.bits_per_symbol

    def run_chunk(point_idx: int, chunk_idx: int, n0: float) -> tuple[int, int]:
        rng = np.random.default_rng([seed, point_idx, chunk_idx])
        msgs = rng.integers(0, cfg.M, size=(batch_size, cfg.J))
        tx = superimpose(codebook, msgs)
        ch = ChannelRealization.awgn(cfg.K, max(n0, N0_FLOOR))
        r = apply_channel(tx, ch, rng, noise_free=noise_free)
        if detector == "mpa":
            dec = np.argmax(_mpa_posteriors(r, codebook, ch, mpa_cfg, graph), axis=2)
        elif detector == "ml":
            dec = _ml_decisions(r, codebook, ch, points=points)
        else:
            dec = np.argmax(decoder.forward(split_real(r)), axis=2)
        return int(errtab[msgs, dec].sum()), batch_size * bits_per_tuple

    rows = []
    for pt, ebn0 in enumerate(ebn0_db_list):
        n0 = ebn0_to_n0(ebn0, cfg.M)
        errors = 0
        bits = 0
        chunk = 0
        while errors < min_errors and bits < max_bits:
            wave = list(range(chunk, chunk + max(1, workers)))
            chunk += len(wave)
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(lambda c: run_chunk(pt, c, n0), wave))
            else:
                results = [run_chunk(pt, c, n0) for c in wave]
            for e, b in results:  # merge in chunk order
                errors += e
                bits += b
        lo, hi = wilson_interval(errors, bits)
        rows.append(
            BerPoint(
                ebn0_db=float(ebn0),
                bits=bits,
                bit_errors=errors,
                ber=errors / bits,
                ci_low=lo,
                ci_high=hi,
                detector=detector,
                codebook_id=codebook_id,
            )
        )
    return BerCurve(points=tuple(rows))
