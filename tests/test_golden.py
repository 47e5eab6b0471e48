"""Bit-identity record of the package's seeded outputs.

golden_seed7.json holds the seed-7 training trace and learned codebook, the
BER error counts of the three detectors and one gradient_check value, each as
the repr of the float (which round-trips bit-exactly). Any change that moves a
single bit of these fails here, with no tolerance. Regenerate the file with
`OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/test_golden.py` only for a
change that is meant to alter the numbers; before it writes, it prints each
key whose value changes, how many entries moved and the largest absolute
change.

The record depends on the BLAS thread count. It was taken with OpenBLAS on
2 threads, and conftest.py sets OPENBLAS_NUM_THREADS=2 before numpy is
imported. BLAS splits the decoder's matrix products by thread, which changes
their summation order: on 1 thread, the benchmark's setting, losses[8] reads
7.7921185505550215 instead of the recorded 7.792118550555022. The failure
message names the thread settings in effect.

The decoder trains in float32 (training.TRAIN_DTYPE) since the record was
last re-taken. The regenerator then reported: losses 20 of 20 entries moved,
largest absolute change 1.68e-07; codebook_real 48 of 96, at most 6.9e-09;
codebook_imag 48 of 96, at most 5.0e-09. The BER counts, the neural one
included, and gradient_check (a float64 decoder) did not move.
"""

import json
import os
from pathlib import Path

import numpy as np

from scmalink import (
    TrainConfig,
    data_path,
    default_init,
    gradient_check,
    read_codebook,
    simulate_ber,
    train,
)

GOLDEN = Path(__file__).with_name("golden_seed7.json")

TRAIN_SEED = 7
TRAIN_ITERATIONS = 20
TRAIN_BATCH = 1000
BER_EBN0_DB = 8.0
BER_SEED = 0
BER_BATCH = 1000
BER_BITS = 24_000  # two chunks of 1000 tuples of 12 bits


def _floats(values) -> list[str]:
    return [repr(float(x)) for x in values]


def record() -> dict:
    """Recompute every recorded value from the current code."""
    huawei = read_codebook(data_path("huawei_4x6.json"))
    cfg = TrainConfig(seed=TRAIN_SEED, n_iterations=TRAIN_ITERATIONS, batch_size=TRAIN_BATCH)
    gen, decoder = default_init(huawei.config, huawei.indicator, cfg, huawei)
    report = train(cfg, huawei.config, huawei.indicator, gen, decoder)

    def ber_errors(codebook, detector, decoder=None):
        # min_errors above the budget: every run simulates exactly BER_BITS
        pt = simulate_ber(codebook, detector, [BER_EBN0_DB], min_errors=BER_BITS + 1,
                          max_bits=BER_BITS, seed=BER_SEED, decoder=decoder,
                          batch_size=BER_BATCH).points[0]
        return [pt.bit_errors, pt.bits]

    entries = report.codebook.entries.ravel()
    return {
        "losses": _floats(report.losses),
        "codebook_real": _floats(entries.real),
        "codebook_imag": _floats(entries.imag),
        "ber_errors": {
            "mpa": ber_errors(huawei.normalized(), "mpa"),
            "ml": ber_errors(huawei.normalized(), "ml"),
            "neural": ber_errors(report.codebook, "neural", report.decoder),
        },
        "gradient_check": repr(gradient_check(np.random.default_rng(0))),
    }


def _numbers(value) -> list[float]:
    """Every number in a record value in order; floats are stored as reprs."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [float(value)]


def changes(old: dict, new: dict) -> list[str]:
    """One line per key whose value changes from old to new."""
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        if old.get(key) == new.get(key):
            continue
        if key not in old or key not in new:
            lines.append(f"{key}: {'added' if key not in old else 'removed'}")
            continue
        a, b = _numbers(old[key]), _numbers(new[key])
        if len(a) != len(b):
            lines.append(f"{key}: {len(a)} entries, now {len(b)}")
            continue
        moved = [abs(y - x) for x, y in zip(a, b) if repr(x) != repr(y)]
        lines.append(f"{key}: {len(moved)} of {len(a)} entries moved, largest absolute change {max(moved)!r}")
    return lines


def test_changes_names_each_moved_key():
    old = {"losses": ["1.0", "2.0", "0.0"], "ber_errors": {"ml": [5, 100]}, "gradient_check": "1e-09"}
    new = {"losses": ["1.0", "2.5", "-0.0"], "ber_errors": {"ml": [5, 100]}, "gradient_check": "2e-09"}
    assert changes(old, new) == ["losses: 2 of 3 entries moved, largest absolute change 0.5",
                                 "gradient_check: 1 of 1 entries moved, largest absolute change 1e-09"]
    assert changes(old, dict(old, losses=["1.0"], extra=[])) == ["losses: 3 entries, now 1", "extra: added"]
    assert changes(old, old) == []


def test_seeded_outputs_are_bit_identical():
    golden = json.loads(GOLDEN.read_text())
    got = record()
    assert got.keys() == golden.keys()
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    for key in golden:
        assert got[key] == golden[key], f"{key} (BLAS thread settings {threads}; recorded at the default)"


if __name__ == "__main__":
    new = record()
    print("\n".join(changes(json.loads(GOLDEN.read_text()), new)) or "no value changes")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
