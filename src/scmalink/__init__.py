"""Downlink SCMA physical-layer toolkit.

Linear multi-user encoding, AWGN channel simulation, Max-Log MPA and ML
detection, a from-scratch multi-task neural decoder with joint training of
encoder and decoder, and MED / Monte Carlo BER evaluation.
"""

from pathlib import Path

from .channel import ChannelRealization, apply_channel, ebn0_to_n0, split_real
from .core import (
    Codebook,
    ConfigError,
    DegenerateCodebookError,
    IndicatorMatrix,
    ScmaError,
    SearchSpaceError,
    ShapeError,
    SystemConfig,
    build_bit_matrix,
    superimposed_constellation,
    tuple_digits,
)
from .encoder import (
    GeneratorSet,
    codeword_table,
    init_generators,
    normalize,
    superimpose,
)
from .fileio import (
    CodebookFormatError,
    ExperimentConfig,
    load_checkpoint,
    read_codebook,
    read_experiment_config,
    save_checkpoint,
    write_codebook,
)
from .metrics import (
    BerCurve,
    BerPoint,
    MedReport,
    compare_codebooks,
    compute_med,
    simulate_ber,
    wilson_interval,
)
from .mpa import MpaConfig, PosteriorSet, ml_detect, mpa_complexity, mpa_detect
from .nn import (
    AdamState,
    DenseLayer,
    MultiTaskDecoder,
    adam_step,
    cross_entropy,
    dnn_complexity,
)
from .training import (
    TrainConfig,
    TrainReport,
    default_init,
    gradient_check,
    lr_schedule,
    random_generators,
    sample_snr,
    train,
)

__version__ = "0.1.0"

_DATA_DIR = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    """Path of a data file shipped with the package (e.g. huawei_4x6.json)."""
    return _DATA_DIR / name
