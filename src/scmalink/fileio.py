"""File formats: JSON codebooks, experiment configs, binary checkpoints, CSV.

Codebooks and configs are structured text so they stay auditable; model
checkpoints are binary (magic number + JSON header + raw float64 arrays).
Complex values are serialized as [re, im] pairs of full-precision decimal
strings, which round-trip bit-exactly through repr/float.

All three formats carry the same "system" block, read and written by one pair
of helpers. Every malformed file raises CodebookFormatError naming the file
and the offending field: missing keys, values of the wrong type (a JSON
boolean is never a number), non-finite codewords, unknown config keys,
truncated checkpoints and bytes after a checkpoint's last array.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .core import (
    Codebook,
    ConfigError,
    IndicatorMatrix,
    ScmaError,
    ShapeError,
    SystemConfig,
    build_indicator,
)
from .encoder import GeneratorSet
from .nn import DenseLayer, MultiTaskDecoder
from .training import TrainConfig

CODEBOOK_FORMAT = "scmalink-codebook"
CODEBOOK_VERSION = 1
CHECKPOINT_MAGIC = b"SCMALNK\x01"
CHECKPOINT_VERSION = 1


class CodebookFormatError(ScmaError):
    """Malformed codebook or config file."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _content_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _read_json(path):
    p = Path(path)
    if not p.exists():
        raise CodebookFormatError(f"{p}: no such file")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CodebookFormatError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise CodebookFormatError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise CodebookFormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _check_keys(block, allowed, where: str):
    if not isinstance(block, dict):
        raise CodebookFormatError(f"{where}: expected an object, got {block!r}")
    unknown = set(block) - set(allowed)
    if unknown:
        raise CodebookFormatError(f"{where}: unknown keys {sorted(unknown)}")


def _typed(block, key: str, kind: type, where: str):
    """block[key] converted to kind; a JSON bool is rejected, not read as 0 or 1."""
    try:
        value = block[key]
        if isinstance(value, bool):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise CodebookFormatError(f"{where}: bad field {key!r} ({type(exc).__name__}: {exc})") from exc


# file key -> SystemConfig field, in file order
_SYSTEM_KEYS = {"users": "n_users", "resources": "n_resources",
                "nonzero": "n_nonzero", "alphabet": "alphabet_size"}


def _system_to_dict(cfg: SystemConfig) -> dict:
    return {key: getattr(cfg, name) for key, name in _SYSTEM_KEYS.items()}


def _system_from_dict(block, F, where: str) -> tuple[SystemConfig, IndicatorMatrix]:
    """A system block and its occupancy matrix, which must agree on J, K and N."""
    values = {name: _typed(block, key, int, where) for key, name in _SYSTEM_KEYS.items()}
    try:
        cfg = SystemConfig(**values)
    except ConfigError as exc:
        fields = ", ".join(map(repr, _SYSTEM_KEYS))
        raise CodebookFormatError(f"{where}: fields {fields} are not a valid system ({exc})") from exc
    try:
        ind = build_indicator(np.array(F))
    except (ValueError, ConfigError, ShapeError) as exc:  # ValueError: a ragged list of rows
        raise CodebookFormatError(f"{where}: bad field 'F' ({exc})") from exc
    if ind.n_users != cfg.J or ind.n_resources != cfg.K or ind.n_nonzero != cfg.N:
        raise CodebookFormatError(f"{where}: F matrix does not match the stated dimensions")
    return cfg, ind


def codebook_to_dict(codebook: Codebook, name: str = "", seed=None) -> dict:
    cfg = codebook.config
    codewords = [
        [
            [[_fmt(codebook.entries[j][k, m].real), _fmt(codebook.entries[j][k, m].imag)]
             for k in range(cfg.K)]
            for m in range(cfg.M)
        ]
        for j in range(cfg.J)
    ]
    body = {
        "system": _system_to_dict(cfg),
        "F": codebook.indicator.F.tolist(),
        "codewords": codewords,
    }
    return {
        "format": CODEBOOK_FORMAT,
        "version": CODEBOOK_VERSION,
        "name": name,
        "seed": seed,
        "config_hash": _content_hash(body),
        **body,
    }


def write_codebook(path, codebook: Codebook, name: str = "", seed=None) -> None:
    Path(path).write_text(json.dumps(codebook_to_dict(codebook, name, seed), indent=1) + "\n")


def _check_list(value, length: int, field: str, items: str, where: str) -> None:
    if not isinstance(value, list):
        raise CodebookFormatError(f"{where}: {field} must be a list of {length} {items}, got {value!r}")
    if len(value) != length:
        raise CodebookFormatError(f"{where}: {field} lists {len(value)} {items}, expected {length}")


def codebook_from_dict(doc: dict, where: str = "codebook") -> Codebook:
    if _require(doc, "format", where) != CODEBOOK_FORMAT:
        raise CodebookFormatError(f"{where}: format {doc.get('format')!r} is not {CODEBOOK_FORMAT!r}")
    if _require(doc, "version", where) != CODEBOOK_VERSION:
        raise CodebookFormatError(f"{where}: unsupported version {doc.get('version')!r}")
    cfg, ind = _system_from_dict(_require(doc, "system", where), _require(doc, "F", where),
                                 f"{where}.system")
    raw = _require(doc, "codewords", where)
    _check_list(raw, cfg.J, "codewords", "users", where)
    entries = np.zeros((cfg.J, cfg.K, cfg.M), dtype=complex)
    for j, user in enumerate(raw):
        _check_list(user, cfg.M, f"user {j}", "codewords", where)
        for m, cw in enumerate(user):
            _check_list(cw, cfg.K, f"user {j} codeword {m}", "entries", where)
            for k, pair in enumerate(cw):
                try:
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise TypeError("not a list of two numbers")
                    if any(isinstance(x, bool) for x in pair):
                        raise TypeError("a JSON boolean is not a number")
                    entries[j, k, m] = float(pair[0]) + 1j * float(pair[1])
                    if not np.isfinite(entries[j, k, m]):
                        raise ValueError("not finite")
                except (TypeError, ValueError) as exc:
                    raise CodebookFormatError(
                        f"{where}: user {j} codeword {m} resource {k}: bad [re, im] pair {pair!r}"
                    ) from exc
    # support violations surface as ConfigError naming (user, resource)
    return Codebook(entries=entries, config=cfg, indicator=ind)


def read_codebook(path) -> Codebook:
    return codebook_from_dict(_read_json(path), where=str(Path(path)))


@dataclass(frozen=True)
class PathsConfig:
    init_codebook: str | None = None
    output_dir: str = "."


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    indicator: IndicatorMatrix
    train: TrainConfig
    paths: PathsConfig = PathsConfig()

    def config_hash(self) -> str:
        """Hash of every field that changes training results."""
        return _content_hash(
            {"system": asdict(self.system), "F": self.indicator.F.tolist(),
             "train": asdict(self.train)}
        )


# config key -> TrainConfig field, where the two differ
_TRAIN_KEY_RENAMES = {"n_iterations": "iterations"}


def _train_from_dict(block, where: str) -> TrainConfig:
    types = get_type_hints(TrainConfig)
    keys = {_TRAIN_KEY_RENAMES.get(name, name): name for name in types}
    _check_keys(block, keys, where)
    values = {name: _typed(block, key, types[name], where) for key, name in keys.items() if key in block}
    try:
        return TrainConfig(**values)
    except ConfigError as exc:
        fields = ", ".join(map(repr, block))
        raise CodebookFormatError(f"{where}: fields {fields} are not a valid training config ({exc})") from exc


def experiment_config_from_dict(doc: dict, where: str = "config") -> ExperimentConfig:
    _check_keys(doc, {"system", "train", "paths"}, where)
    sysblock = _require(doc, "system", where)
    _check_keys(sysblock, {*_SYSTEM_KEYS, "F"}, f"{where}.system")
    cfg, ind = _system_from_dict(sysblock, _require(sysblock, "F", f"{where}.system"),
                                 f"{where}.system")

    train = _train_from_dict(_require(doc, "train", where), f"{where}.train")

    pa = doc.get("paths", {})
    _check_keys(pa, {"init_codebook", "output_dir"}, f"{where}.paths")
    for key, value in pa.items():  # str() accepts anything, so check the JSON type
        if not (isinstance(value, str) or (key == "init_codebook" and value is None)):
            raise CodebookFormatError(f"{where}.paths: bad field {key!r} (expected a string, got {value!r})")
    return ExperimentConfig(system=cfg, indicator=ind, train=train, paths=PathsConfig(**pa))


def read_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_dict(_read_json(path), where=str(Path(path)))


def save_checkpoint(path, gen: GeneratorSet, decoder: MultiTaskDecoder,
                    indicator: IndicatorMatrix, meta: dict | None = None) -> None:
    """Binary dump of all parameters plus enough topology to rebuild them."""
    arrays = [("gbar", gen.gbar)]
    layout = {"shared": [], "subnets": []}
    for i, layer in enumerate(decoder.shared):
        arrays += [(f"shared.{i}.w", layer.weights), (f"shared.{i}.b", layer.bias)]
        layout["shared"].append(layer.activation)
    # version 1 stores each user's subnetwork separately
    for j in range(decoder.n_users):
        for i, layer in enumerate(decoder.user_layers):
            arrays += [(f"subnet.{j}.{i}.w", layer.weights[j]), (f"subnet.{j}.{i}.b", layer.bias[j])]
        layout["subnets"].append([layer.activation for layer in decoder.user_layers])
    header = {
        "version": CHECKPOINT_VERSION,
        "system": _system_to_dict(gen.config),
        "F": indicator.F.tolist(),
        "layout": layout,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "meta": meta or {},
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str, where: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CodebookFormatError(f"{where}: truncated {what}")
    return buf


def load_checkpoint(path):
    """Returns (GeneratorSet, MultiTaskDecoder, IndicatorMatrix, meta).

    A bad magic number, a truncated file, a header that is not JSON or lacks
    a field, arrays whose shape or values the stored system or layout
    rejects, and bytes after the last array raise CodebookFormatError.
    """
    where = str(Path(path))
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CodebookFormatError(f"{where}: not a checkpoint file (bad magic)")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length", where))
        blob = _read_exact(fh, hlen, "header", where)
        try:
            header = json.loads(blob)
            if header["version"] != CHECKPOINT_VERSION:
                raise CodebookFormatError(
                    f"{where}: unsupported checkpoint version {header['version']!r}")
            cfg, ind = _system_from_dict(header["system"], header["F"], f"{where}.system")
            layout = header["layout"]
            values = {}
            for spec in header["arrays"]:
                shape = tuple(spec["shape"])
                count = int(np.prod(shape)) if shape else 1
                buf = _read_exact(fh, 8 * count, f"array {spec['name']!r}", where)
                values[spec["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            if fh.read(1):
                raise CodebookFormatError(f"{where}: trailing bytes after the last array")
            gen = GeneratorSet(gbar=values["gbar"], config=cfg)
            shared = [
                DenseLayer(values[f"shared.{i}.w"], values[f"shared.{i}.b"], act)
                for i, act in enumerate(layout["shared"])
            ]
            acts = layout["subnets"][0]
            if any(other != acts for other in layout["subnets"]):
                raise CodebookFormatError(f"{where}: user subnetworks differ in layout")
            users = range(len(layout["subnets"]))
            user_layers = [
                DenseLayer(np.stack([values[f"subnet.{j}.{i}.w"] for j in users]),
                           np.stack([values[f"subnet.{j}.{i}.b"] for j in users]), act)
                for i, act in enumerate(acts)
            ]
            decoder = MultiTaskDecoder(shared, user_layers)
            decoder.check_fits(cfg)
            meta = header["meta"]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CodebookFormatError(
                f"{where}: bad checkpoint header ({type(exc).__name__}: {exc})") from exc
        except (ShapeError, ConfigError) as exc:  # arrays the stored system or layout rejects
            raise CodebookFormatError(f"{where}: {exc}") from exc
    return gen, decoder, ind, meta


BER_CSV_HEADER = "ebn0_db,bits,bit_errors,ber,ci_low,ci_high,detector,codebook_id"


def ber_curve_to_csv(curve, path) -> None:
    lines = [BER_CSV_HEADER]
    for pt in curve.points:
        lines.append(
            f"{_fmt(pt.ebn0_db)},{pt.bits},{pt.bit_errors},{_fmt(pt.ber)},"
            f"{_fmt(pt.ci_low)},{_fmt(pt.ci_high)},{pt.detector},{pt.codebook_id}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def med_table_to_csv(rows, path) -> None:
    lines = ["name,med"] + [f"{name},{_fmt(med)}" for name, med in rows]
    Path(path).write_text("\n".join(lines) + "\n")
