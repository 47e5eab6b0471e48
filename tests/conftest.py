import os
import sys
from pathlib import Path

# test_golden.py's record was taken with OpenBLAS on 2 threads, and BLAS splits
# the decoder's matrix products by thread, which changes their summation
# order; the count is pinned before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "2"

# appended, not prepended: a PYTHONPATH naming another copy of the package wins
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from scmalink import data_path, read_codebook  # noqa: E402


@pytest.fixture(scope="session")
def huawei_codebook():
    return read_codebook(data_path("huawei_4x6.json"))
