"""Record the reference values the benchmark checks outputs against.

Run from the root of a source checkout, with the same BLAS thread count the
benchmark uses:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 benchmarks/record.py

It writes benchmarks/expected.json: the MED of the normalized Huawei
codebook, the learned MED after one seed-7 train() op of the train workload,
and the bit error count of every recorded simulation seed for each detector.
Re-record only when a change is meant to alter these numbers, and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main():
    raw = wl.huawei()
    cb = raw.normalized()
    out = {"huawei_med": wl.metrics.compute_med(cb).med}

    train = wl.Train(0, None)
    report = train.run(train.prepare(0))
    out["train"] = {"seed": wl.TRAIN_REF_SEED, "steps": wl.TRAIN_STEPS,
                    "learned_med": wl.metrics.compute_med(report.codebook).med}

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    decoder = wl.write_and_load_decoder(out_dir, raw)
    out["ber_bits"] = wl.BER_BITS
    out["ber_errors"] = {
        det: [wl.ber_point(cb, det, s, decoder).bit_errors for s in range(wl.BER_SEEDS)]
        for det in wl.BER_BITS
    }
    path = wl.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
