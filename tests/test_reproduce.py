"""Paper-reproduction gate: the learned codebook beats the Huawei baseline.

paper_seed7/ holds one training run of the shipped paper configuration
(data/paper_4x6.json: the 4x6 graph, M = 4, 2000 iterations at batch 1000,
seed 7, Eb/N0 ~ U(5, 11) dB, initialised from the Huawei codebook), written
by

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python -m scmalink.cli train \\
        --config src/scmalink/data/paper_4x6.json --out-dir tests/paper_seed7

and kept without its loss trace. The checkpoint's meta records the config
hash, the training dtype and the BLAS thread count. A retrain's bits depend
on that count, so these tests read the committed run and never retrain.

The gate's two assertions were fixed before the run: the learned MED is
above Huawei's, and at 8 dB Max-Log MPA's BER on the learned codebook is
below Huawei's, the two Wilson intervals apart at >= 10,000 errors each.
They are not relaxed, and the run is not re-seeded, cut short or moved to
another SNR to pass them.
"""

from pathlib import Path

import pytest

from scmalink import (compute_med, data_path, load_checkpoint, read_codebook,
                      read_experiment_config, simulate_ber)
from scmalink.fileio import codebook_to_dict
from scmalink.training import learned_codebook

RUN = Path(__file__).with_name("paper_seed7")
GATE_EBN0_DB = 8.0
GATE_ERRORS = 10_000


@pytest.fixture(scope="module")
def codebooks():
    return {"learned": read_codebook(RUN / "learned_codebook.json").normalized(),
            "huawei": read_codebook(data_path("huawei_4x6.json")).normalized()}


def test_learned_codebook_beats_huawei(codebooks):
    med = {name: compute_med(cb).med for name, cb in codebooks.items()}
    assert med["learned"] > med["huawei"]
    point = {name: simulate_ber(cb, "mpa", [GATE_EBN0_DB], min_errors=GATE_ERRORS, seed=0).points[0]
             for name, cb in codebooks.items()}
    assert min(p.bit_errors for p in point.values()) >= GATE_ERRORS
    assert point["learned"].ci_high < point["huawei"].ci_low


def test_run_is_of_the_shipped_configuration():
    gen, _, ind, meta = load_checkpoint(RUN / "checkpoint.bin")
    exp = read_experiment_config(data_path("paper_4x6.json"))
    assert meta["config_hash"] == exp.config_hash()
    huawei = read_codebook(data_path("huawei_4x6.json"))
    assert meta["init_codebook_hash"] == codebook_to_dict(huawei)["config_hash"]
    assert (meta["seed"], meta["iterations"], meta["aborted"]) == (exp.train.seed, exp.train.n_iterations, False)
    assert (meta["train_dtype"], meta["blas_threads"]) == ("float32", "2")
    # the committed codebook is the checkpoint's generators' encoding
    assert learned_codebook(gen, ind).entries.tobytes() == \
        read_codebook(RUN / "learned_codebook.json").entries.tobytes()
