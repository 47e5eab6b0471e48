"""Bit-identity record of the package's seeded outputs.

golden_seed7.json holds the seed-7 training trace and learned codebook, the
BER error counts of the three detectors and one gradient_check value, each as
the repr of the float (which round-trips bit-exactly). Any change that moves a
single bit of these fails here, with no tolerance. Regenerate the file with
`PYTHONPATH=src python tests/test_golden.py` only for a change that is meant
to alter the numbers.

The record depends on the BLAS thread count. It was taken with OpenBLAS on
2 threads, and conftest.py sets OPENBLAS_NUM_THREADS=2 before numpy is
imported. BLAS splits the decoder's matrix products by thread, which changes
their summation order: on 1 thread, the benchmark's setting, losses[8] reads
7.7921185505550215 instead of the recorded 7.792118550555022. The failure
message names the thread settings in effect.
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


def test_seeded_outputs_are_bit_identical():
    golden = json.loads(GOLDEN.read_text())
    got = record()
    assert got.keys() == golden.keys()
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    for key in golden:
        assert got[key] == golden[key], f"{key} (BLAS thread settings {threads}; recorded at the default)"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
