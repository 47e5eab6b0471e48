"""Seeded malformed-input fuzzer over the command line.

Each case edits one value of a valid document at a random path: it replaces
the value with one from POOL, deletes it, or inserts a POOL value beside it.
The documents are the Huawei codebook, a minimal training config and the
header of a recorded checkpoint; checkpoint cases also cut the file short.
Every case must exit 0 or 1, never 2 or with an exception, and an exit-1
message must name the file or one of the flags the command was given.
"""

import copy
import json
import random
import struct
from pathlib import Path

from scmalink import data_path
from scmalink.cli import run_cli
from scmalink.core import ScmaError
from scmalink.fileio import (CHECKPOINT_MAGIC, codebook_from_dict, codebook_to_dict,
                             experiment_config_from_dict)

HUAWEI = data_path("huawei_4x6.json")
CHECKPOINT_V1 = Path(__file__).resolve().parent / "checkpoint_v1.bin"

POOL = [None, True, 0, -1, 2**70, 1e308, float("nan"), float("inf"), "", "1",
        [], {}, [[0, 1], [1]], [[[]]]]


def _children(node):
    if isinstance(node, dict):
        return list(node)
    return list(range(len(node))) if isinstance(node, list) else []


def mutate(doc, rng):
    """A mutated copy of doc and the path of the edit. The walk from the root
    stops at each level with probability 1/2, so a header field is edited
    more often than one leaf of a long array; the root itself is replaced
    in one case of 20, which gives a top level that is not an object."""
    doc = copy.deepcopy(doc)
    if rng.random() < 0.05:
        return copy.deepcopy(rng.choice(POOL)), []
    path, parent = [], None
    node = doc
    while _children(node) and (parent is None or rng.random() > 1 / 2):
        key = rng.choice(_children(node))
        parent, node = node, node[key]
        path.append(key)
    value = copy.deepcopy(rng.choice(POOL))
    action = rng.choice(("replace", "delete", "insert"))
    if action == "delete":
        del parent[path[-1]]
    elif action == "insert" and isinstance(parent, list):
        parent.insert(path[-1], value)
    elif action == "insert":
        parent["extra"] = value
    else:
        parent[path[-1]] = value
    return doc, path


def rehashed(doc, path):
    """doc with its config_hash set to that of its content, when it carries
    one, the edit left it alone and the content parses; so the checks behind
    the hash stay reachable."""
    if not (isinstance(doc, dict) and "config_hash" in doc) or path[:1] == ["config_hash"]:
        return doc
    body = {key: value for key, value in doc.items() if key != "config_hash"}
    try:
        return dict(doc, config_hash=codebook_to_dict(codebook_from_dict(body))["config_hash"])
    except ScmaError:
        return doc


def more_than_one_iteration(doc):
    try:
        return experiment_config_from_dict(doc).train.n_iterations > 1
    except ScmaError:
        return False


def check_case(argv, path, capsys, failures, what):
    code = run_cli([str(a) for a in argv])
    err = capsys.readouterr().err
    named = [str(path), *(a for a in argv if str(a).startswith("--"))]
    if code not in (0, 1) or (code == 1 and not any(name in err for name in named)):
        failures.append(f"{what}: {argv[0]} exit {code}: {err.strip()}")


def test_codebook_mutations(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(0)
    original = json.loads(HUAWEI.read_text())
    path = tmp_path / "case.json"
    commands = (["med", "--codebook", path],
                ["compare", path],
                ["ber", "--codebook", path, "--snr", "8", "--max-bits", "1", "--out", tmp_path / "ber.csv"])
    failures = []
    for case in range(60):
        doc, edit = mutate(original, rng)
        path.write_text(json.dumps(rehashed(doc, edit)))
        check_case(commands[case % 3], path, capsys, failures, f"case {case}, edit at {edit}")
    assert not failures, "\n".join(failures)


def test_config_mutations(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(1)
    original = {
        "system": {"users": 6, "resources": 4, "nonzero": 2, "alphabet": 4,
                   "F": [[0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1],
                         [0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0]]},
        "train": {"iterations": 1, "batch_size": 8, "seed": 7, "alpha0": 0.001,
                  "ebn0_min_db": 5, "ebn0_max_db": 11},
        "paths": {"output_dir": "out"},
    }
    path = tmp_path / "case.json"
    failures = []
    case = 0
    while case < 40:
        doc, edit = mutate(original, rng)
        if more_than_one_iteration(doc):
            continue  # a valid config for a long run, such as one whose count was deleted
        path.write_text(json.dumps(doc))
        check_case(["train", "--config", path], path, capsys, failures, f"case {case}, edit at {edit}")
        case += 1
    assert not failures, "\n".join(failures)


def test_checkpoint_mutations(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2)
    raw = CHECKPOINT_V1.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header, arrays = json.loads(raw[12 : 12 + hlen]), raw[12 + hlen :]
    codebook = tmp_path / "v1.json"
    assert run_cli(["export", "--checkpoint", str(CHECKPOINT_V1), "--out", str(codebook)]) == 0
    path = tmp_path / "case.bin"
    commands = (["export", "--checkpoint", path, "--out", tmp_path / "out.json"],
                ["ber", "--codebook", codebook, "--detector", "neural", "--model", path,
                 "--snr", "8", "--max-bits", "1", "--out", tmp_path / "ber.csv"])
    failures = []
    for case in range(100):
        if case % 5 == 4:
            cut = rng.randrange(len(raw))
            path.write_bytes(raw[:cut])
            what = f"case {case}, cut at byte {cut}"
        else:
            doc, edit = mutate(header, rng)
            blob = json.dumps(doc).encode()
            path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + arrays)
            what = f"case {case}, edit at {edit}"
        for argv in commands:
            check_case(argv, path, capsys, failures, what)
    assert not failures, "\n".join(failures)

