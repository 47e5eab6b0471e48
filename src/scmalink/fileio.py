"""File formats: JSON codebooks, experiment configs, binary checkpoints, CSV.

Codebooks and configs are structured text so they stay auditable; model
checkpoints are binary (magic number + JSON header + raw float64 arrays).
Complex values are serialized as [re, im] pairs of full-precision decimal
strings, which round-trip bit-exactly through repr/float.

All three formats carry the same "system" block, read and written by one pair
of helpers. Every malformed file raises CodebookFormatError naming the file
and the offending field: missing keys, values of the wrong type (a JSON
boolean or string is never a number, an integer field takes no fraction, and
an entry of F is a JSON integer 0 or 1), non-finite codewords, unknown keys in
a config, at a codebook's top level, in any system block, and in a
checkpoint's header, layout and array entries, and a key given twice in one
JSON object of any of the three. A codebook's name must be a JSON string and
its seed a JSON integer >= 0 or null (_check_label, which scmalink export
applies to a checkpoint's meta seed too). A checkpoint is also rejected for a
bad magic number, a truncated file, a header that is not JSON, a layout other
than the rule's, array names other than its layout's in that order, a shape
that is not a list of non-negative integers, arrays the stored system or
layout rejects, a meta that is not an object, and bytes after its last array.

A checkpoint's layout names each layer's role, which follows from its
position: relu everywhere but each user's last layer, its softmax head, with
one layout for every user. _checkpoint_layout builds it from the layer and
user counts, for the writer and for the reader's check alike.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
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


def _read_bytes(path) -> bytes:
    p = Path(path)
    if not p.exists():
        raise CodebookFormatError(f"{p}: no such file")
    try:
        return p.read_bytes()
    except OSError as exc:  # a directory, say
        raise CodebookFormatError(f"{p}: cannot read ({exc.strerror})") from exc


def _parse_json(blob: bytes, where: str):
    """The JSON document in UTF-8 bytes, read from where. Bad text names its
    position, and a key given twice in one object names the key."""
    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise CodebookFormatError(f"{where}: key {key!r} given twice in one object")
            doc[key] = value
        return doc
    try:
        return json.loads(blob.decode("utf-8"), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise CodebookFormatError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise CodebookFormatError(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_json(path):
    return _parse_json(_read_bytes(path), str(Path(path)))


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
    """block[key] as kind: an int field takes a JSON integer, a float field a
    JSON integer or float. A bool or a string is neither, and 10.5 is no int."""
    try:
        value = block[key]
        if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    except (KeyError, TypeError, OverflowError) as exc:
        raise CodebookFormatError(f"{where}: bad field {key!r} ({type(exc).__name__}: {exc})") from exc


# file key -> SystemConfig field, in file order
_SYSTEM_KEYS = {"users": "n_users", "resources": "n_resources",
                "nonzero": "n_nonzero", "alphabet": "alphabet_size"}


def _system_to_dict(cfg: SystemConfig) -> dict:
    return {key: getattr(cfg, name) for key, name in _SYSTEM_KEYS.items()}


def _system_from_dict(block, F, where: str, extra=()) -> tuple[SystemConfig, IndicatorMatrix]:
    """A system block and its occupancy matrix, which must agree on J, K and N;
    the block may hold the keys in extra besides the system's own."""
    _check_keys(block, [*_SYSTEM_KEYS, *extra], where)
    values = {name: _typed(block, key, int, where) for key, name in _SYSTEM_KEYS.items()}
    try:
        cfg = SystemConfig(**values)
    except ConfigError as exc:
        fields = ", ".join(map(repr, _SYSTEM_KEYS))
        raise CodebookFormatError(f"{where}: fields {fields} are not a valid system ({exc})") from exc
    try:
        if any(type(x) is not int for row in F for x in row):  # true and 1.0 would pass as 1
            raise TypeError("entries must be JSON integers 0 or 1")
        ind = IndicatorMatrix(np.array(F))
        ind.check_fits(cfg)
    except (TypeError, ValueError, ConfigError, ShapeError) as exc:  # ValueError: a ragged list of rows
        raise CodebookFormatError(f"{where}: bad field 'F' ({exc})") from exc
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


def _check_label(name, seed, where: str) -> None:
    """A codebook's name must be a JSON string, and its seed a JSON integer >= 0 or null."""
    if not isinstance(name, str):
        raise CodebookFormatError(f"{where}: bad field 'name' (expected a string, got {name!r})")
    if seed is not None and (type(seed) is not int or seed < 0):  # a bool is no integer
        raise CodebookFormatError(f"{where}: bad field 'seed' (expected an integer >= 0 or null, got {seed!r})")


def codebook_from_dict(doc: dict, where: str = "codebook") -> Codebook:
    _check_keys(doc, ("format", "version", "name", "seed", "config_hash", "system", "F", "codewords"), where)
    if _require(doc, "format", where) != CODEBOOK_FORMAT:
        raise CodebookFormatError(f"{where}: format {doc.get('format')!r} is not {CODEBOOK_FORMAT!r}")
    if _typed(doc, "version", int, where) != CODEBOOK_VERSION:
        raise CodebookFormatError(f"{where}: unsupported version {doc.get('version')!r}")
    _check_label(doc.get("name", ""), doc.get("seed"), where)
    cfg, ind = _system_from_dict(_require(doc, "system", where), _require(doc, "F", where),
                                 f"{where}.system")
    raw = _require(doc, "codewords", where)
    _check_list(raw, cfg.J, "codewords", "users", where)
    for j, user in enumerate(raw):  # before an array sized by M is allocated
        _check_list(user, cfg.M, f"user {j}", "codewords", where)
    entries = np.zeros((cfg.J, cfg.K, cfg.M), dtype=complex)
    for j, user in enumerate(raw):
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
    codebook = Codebook(entries=entries, config=cfg, indicator=ind)
    if "config_hash" in doc:  # a file without one still loads
        want = codebook_to_dict(codebook)["config_hash"]
        if doc["config_hash"] != want:
            raise CodebookFormatError(f"{where}: field 'config_hash' is {doc['config_hash']!r}, "
                                      f"but the content hashes to {want!r}")
    return codebook


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
    cfg, ind = _system_from_dict(sysblock, _require(sysblock, "F", f"{where}.system"),
                                 f"{where}.system", extra=("F",))

    train = _train_from_dict(_require(doc, "train", where), f"{where}.train")

    pa = doc.get("paths", {})
    _check_keys(pa, {"init_codebook", "output_dir"}, f"{where}.paths")
    for key, value in pa.items():  # str() accepts anything, so check the JSON type
        if not (isinstance(value, str) or (key == "init_codebook" and value is None)):
            raise CodebookFormatError(f"{where}.paths: bad field {key!r} (expected a string, got {value!r})")
    return ExperimentConfig(system=cfg, indicator=ind, train=train, paths=PathsConfig(**pa))


def read_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_dict(_read_json(path), where=str(Path(path)))


def _checkpoint_names(n_shared: int, n_users: int, n_subnet: int) -> list[str]:
    """Version 1's array names in file order: gbar, the trunk, then user by user."""
    layers = [f"shared.{i}" for i in range(n_shared)]
    layers += [f"subnet.{j}.{i}" for j in range(n_users) for i in range(n_subnet)]
    return ["gbar", *(f"{layer}.{part}" for layer in layers for part in "wb")]


def _checkpoint_layout(n_shared: int, n_users: int, n_subnet: int) -> dict:
    """Version 1's layout block: relu layers, each user's last its softmax head."""
    return {"shared": ["relu"] * n_shared, "subnets": [["relu"] * (n_subnet - 1) + ["softmax"]] * n_users}


def save_checkpoint(path, gen: GeneratorSet, decoder: MultiTaskDecoder,
                    indicator: IndicatorMatrix, meta: dict | None = None) -> None:
    """Binary dump of all parameters plus enough topology to rebuild them."""
    # version 1 stores each user's subnetwork separately
    layers = [(layer.weights, layer.bias) for layer in decoder.shared]
    layers += [(layer.weights[j], layer.bias[j])
               for j in range(decoder.n_users) for layer in decoder.user_layers]
    arrays = [gen.gbar, *(a for pair in layers for a in pair)]
    names = _checkpoint_names(len(decoder.shared), decoder.n_users, len(decoder.user_layers))
    header = {
        "version": CHECKPOINT_VERSION,
        "system": _system_to_dict(gen.config),
        "F": indicator.F.tolist(),
        "layout": _checkpoint_layout(len(decoder.shared), decoder.n_users, len(decoder.user_layers)),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in zip(names, arrays)],
        "meta": meta or {},
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_exact(fh: io.BytesIO, n: int, what: str, where: str) -> bytes:
    if n > fh.getbuffer().nbytes - fh.tell():  # first: fh.read(n) overflows past sys.maxsize
        raise CodebookFormatError(f"{where}: truncated {what}")
    return fh.read(n)


def load_checkpoint(path):
    """Returns (GeneratorSet, MultiTaskDecoder, IndicatorMatrix, meta); a file
    the module docstring calls malformed raises CodebookFormatError."""
    where = str(Path(path))
    with io.BytesIO(_read_bytes(path)) as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CodebookFormatError(f"{where}: not a checkpoint file (bad magic)")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length", where))
        blob = _read_exact(fh, hlen, "header", where)
        try:
            header = _parse_json(blob, where)
            _check_keys(header, ("version", "system", "F", "layout", "arrays", "meta"), where)
            if _typed(header, "version", int, where) != CHECKPOINT_VERSION:
                raise CodebookFormatError(
                    f"{where}: unsupported checkpoint version {header['version']!r}")
            cfg, ind = _system_from_dict(header["system"], header["F"], f"{where}.system")
            layout = header["layout"]
            _check_keys(layout, ("shared", "subnets"), f"{where}.layout")
            try:
                counts = len(layout["shared"]), len(layout["subnets"]), len(layout["subnets"][0])
            except (KeyError, TypeError, IndexError):
                counts = None
            if counts is None or layout != _checkpoint_layout(*counts):
                raise CodebookFormatError(f"{where}: bad field 'layout' (not relu layers, each user's "
                                          f"last its softmax head, the same for every user: {layout!r})")
            names = _checkpoint_names(*counts)
            for i, spec in enumerate(header["arrays"]):
                _check_keys(spec, ("name", "shape"), f"{where}.arrays[{i}]")
            stored = [spec["name"] for spec in header["arrays"]]
            if stored != names:  # padded with values no name equals: a missing or extra array differs too
                i = next(i for i, (a, b) in enumerate(zip([*stored, None], [*names, ...])) if a != b)
                raise CodebookFormatError(f"{where}: array {i}: header {stored[i:i + 1]}, layout {names[i:i + 1]}")
            arrays = []
            for spec, name in zip(header["arrays"], names):
                shape = spec["shape"]
                if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
                    raise CodebookFormatError(f"{where}: array {name!r} has shape {shape!r}, "
                                              "not a list of integers >= 0")
                buf = _read_exact(fh, 8 * math.prod(shape), f"array {name!r}", where)
                arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
            if fh.read(1):
                raise CodebookFormatError(f"{where}: trailing bytes after the last array")
            values = iter(arrays)
            gen = GeneratorSet(gbar=next(values), config=cfg)
            shared = [DenseLayer(next(values), next(values)) for _ in layout["shared"]]
            users = [[(next(values), next(values)) for _ in acts] for acts in layout["subnets"]]
            # zip(*users) gives each depth's (w, b) per user, which the layer stacks
            user_layers = [DenseLayer(*map(np.stack, zip(*depth))) for depth in zip(*users)]
            decoder = MultiTaskDecoder(shared, user_layers)
            decoder.check_fits(cfg)
            meta = header["meta"]
            if not isinstance(meta, dict):
                raise CodebookFormatError(f"{where}: bad field 'meta' (expected an object, got {meta!r})")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CodebookFormatError(
                f"{where}: bad checkpoint header ({type(exc).__name__}: {exc})") from exc
        except (ShapeError, ConfigError) as exc:  # arrays the stored system or layout rejects
            raise CodebookFormatError(f"{where}: {exc}") from exc
    return gen, decoder, ind, meta


def write_csv(path, header, rows) -> None:
    """Column names, then one csv row per row; every float, numpy's too, by _fmt.

    The csv writer quotes a cell with a comma, a quote or a newline, but not
    one with a bare carriage return, which a reader takes for a line end, so
    a row holding one has every cell quoted."""
    with open(path, "w", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in (header, *rows):
            cells = [_fmt(x) if isinstance(x, float) else str(x) for x in row]
            (quoted if any("\r" in c for c in cells) else plain).writerow(cells)
