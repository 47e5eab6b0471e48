import csv
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scmalink import (
    Codebook,
    ConfigError,
    IndicatorMatrix,
    MultiTaskDecoder,
    SystemConfig,
    data_path,
    load_checkpoint,
    read_codebook,
    read_experiment_config,
    save_checkpoint,
    write_codebook,
)
from scmalink import cli
from scmalink.fileio import (
    CHECKPOINT_MAGIC,
    CodebookFormatError,
    codebook_to_dict,
    experiment_config_from_dict,
    write_csv,
)
from scmalink.metrics import BerCurve, BerPoint
from scmalink.training import random_generators


def random_codebook(rng):
    cfg = SystemConfig(n_users=3, n_resources=3, n_nonzero=2, alphabet_size=4)
    ind = IndicatorMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    entries = np.zeros((3, 3, 4), dtype=complex)
    for j in range(3):
        rows = list(ind.supports[j])
        entries[j][rows, :] = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    return Codebook(entries=entries, config=cfg, indicator=ind)


class TestCodebookFiles:
    def test_shipped_huawei_loads(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        assert cb.config == SystemConfig(6, 4, 2, 4)
        assert cb.indicator.F.sum(axis=1).tolist() == [3, 3, 3, 3]

    def test_roundtrip_bit_exact(self, tmp_path):
        cb = random_codebook(np.random.default_rng(0))
        path = tmp_path / "cb.json"
        write_codebook(path, cb, name="random")
        back = read_codebook(path)
        assert np.array_equal(back.entries, cb.entries)
        assert np.array_equal(back.indicator.F, cb.indicator.F)

    def test_support_violation_names_user_and_resource(self, tmp_path):
        cb = random_codebook(np.random.default_rng(1))
        doc = codebook_to_dict(cb)
        doc["codewords"][0][0][2] = ["1.0", "0.0"]  # user 0 never uses resource 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="user 0.*resource 2"):
            read_codebook(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "scmalink-codebook",')
        with pytest.raises(CodebookFormatError, match=r":\d+:\d+:"):
            read_codebook(path)

    def test_bad_pair_reports_context(self, tmp_path):
        cb = random_codebook(np.random.default_rng(2))
        doc = codebook_to_dict(cb)
        doc["codewords"][1][2][0] = ["not-a-number", "0"]
        path = tmp_path / "badpair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match="user 1 codeword 2 resource 0"):
            read_codebook(path)

    # float() accepts all four; a JSON boolean is not a number and the MED of
    # a non-finite codeword reads nan
    @pytest.mark.parametrize("pair", [[True, False], ["0.5", True], ["inf", "0"], ["0", "nan"]],
                             ids=["bool-re", "bool-im", "inf-re", "nan-im"])
    def test_bool_or_non_finite_pair_rejected(self, tmp_path, pair):
        cb = random_codebook(np.random.default_rng(2))
        doc = codebook_to_dict(cb)
        doc["codewords"][1][2][0] = pair
        path = tmp_path / "badpair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match=r"user 1 codeword 2 resource 0: bad \[re, im\] pair"):
            read_codebook(path)

    # float() reads the string "12" as 1, then 2; the others have no usable pair
    @pytest.mark.parametrize("pair", [["0.5", "-0.25", "junk"], ["0.5"], "12", {"a": 1}],
                             ids=["three-entries", "one-entry", "string", "object"])
    def test_pair_must_be_a_list_of_two(self, tmp_path, pair):
        doc = codebook_to_dict(random_codebook(np.random.default_rng(2)))
        doc["codewords"][1][2][0] = pair
        path = tmp_path / "badpair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match=r"user 1 codeword 2 resource 0: bad \[re, im\] pair"):
            read_codebook(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda cw: 5, "codewords"),
        (lambda cw: cw[:2], "codewords"),
        (lambda cw: cw[:1] + [{"0": cw[1][0]}] + cw[2:], "user 1"),
        (lambda cw: cw[:1] + [cw[1][:3]] + cw[2:], "user 1"),
        (lambda cw: [cw[0], [cw[1][0], "codeword"] + cw[1][2:], cw[2]], "user 1 codeword 1"),
        (lambda cw: [cw[0], [cw[1][0], cw[1][1][:2]] + cw[1][2:], cw[2]], "user 1 codeword 1"),
    ], ids=["codewords-int", "two-users", "user-object", "three-codewords", "codeword-string",
            "two-entries"])
    def test_codeword_levels_must_be_lists_of_stated_length(self, tmp_path, edit, field):
        doc = codebook_to_dict(random_codebook(np.random.default_rng(3)))
        doc["codewords"] = edit(doc["codewords"])
        path = tmp_path / "badlevel.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match=re.escape(f"{path}: {field} ")):
            read_codebook(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CodebookFormatError, match="format"):
            read_codebook(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("codewords"), "missing field 'codewords'"),
        (lambda doc: doc.update(version=2), "unsupported version 2"),
    ], ids=["missing-codewords", "version-2"])
    def test_missing_field_or_unknown_version_names_file(self, tmp_path, edit, message):
        doc = codebook_to_dict(random_codebook(np.random.default_rng(3)))
        edit(doc)
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match=re.escape(f"{path}: {message}")):
            read_codebook(path)

    # 2^20 is above the largest alphabet; 2^16 is allowed, but its users list
    # 4 codewords. A (6, 4, M) complex array takes 100 MB and 25 MB
    @pytest.mark.parametrize("alphabet, message", [
        (2**20, "alphabet size must be at most 2^16"),
        (2**16, "user 0 lists 4 codewords, expected 65536"),
    ], ids=["2^20", "2^16"])
    def test_huge_alphabet_rejected_before_allocating(self, tmp_path, alphabet, message):
        doc = json.loads(Path(data_path("huawei_4x6.json")).read_text())
        doc["system"]["alphabet"] = alphabet
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with pytest.raises(CodebookFormatError, match=re.escape(message)):
                read_codebook(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2**20

    def test_missing_file(self):
        with pytest.raises(CodebookFormatError, match="no such file"):
            read_codebook("/nonexistent/cb.json")

    def test_embeds_provenance(self):
        cb = random_codebook(np.random.default_rng(3))
        doc = codebook_to_dict(cb, name="x", seed=42)
        assert doc["seed"] == 42
        assert len(doc["config_hash"]) == 16

    def test_content_hash_is_checked_when_present(self, tmp_path):
        shipped = data_path("huawei_4x6.json")
        stored = json.loads(shipped.read_text())["config_hash"]
        assert codebook_to_dict(read_codebook(shipped))["config_hash"] == stored
        doc = codebook_to_dict(random_codebook(np.random.default_rng(5)))
        doc["codewords"][1][3][0] = ["0.5", "-0.25"]  # user 1 occupies resource 0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match="'config_hash'"):
            read_codebook(path)
        del doc["config_hash"]
        path.write_text(json.dumps(doc))
        assert read_codebook(path).entries[1, 0, 3] == 0.5 - 0.25j

    # each loaded as version 1; the hash does not cover the version
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_is_a_json_integer(self, tmp_path, capsys, version):
        doc = codebook_to_dict(random_codebook(np.random.default_rng(3)))
        doc["version"] = version
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match=re.escape(f"{path}: bad field 'version'")):
            read_codebook(path)
        assert cli.run_cli(["med", "--codebook", str(path)]) == 1
        assert f"{path}: bad field 'version'" in capsys.readouterr().err

    def test_unknown_top_level_key_names_file_and_key(self, tmp_path, capsys):
        # config_hash covers the body only, so a key beside 'format' passed it
        doc = json.loads(Path(data_path("huawei_4x6.json")).read_text())
        doc["colour"] = 1
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(doc))
        assert cli.run_cli(["med", "--codebook", str(path)]) == 1
        assert f"{path}: unknown keys ['colour']" in capsys.readouterr().err

    def test_repeated_key_names_file_and_key(self, tmp_path, capsys):
        text = Path(data_path("huawei_4x6.json")).read_text()
        path = tmp_path / "cb.json"
        path.write_text('{"name": "other", ' + text.lstrip()[1:])
        assert cli.run_cli(["med", "--codebook", str(path)]) == 1
        assert f"{path}: key 'name' given twice in one object" in capsys.readouterr().err

    def test_unknown_system_key_names_file_and_key(self, tmp_path, capsys):
        # the Huawei codebook with a misspelt key and no hash to catch it once loaded
        doc = json.loads(Path(data_path("huawei_4x6.json")).read_text())
        del doc["config_hash"]
        doc["system"]["alphabt"] = 8
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(doc))
        assert cli.run_cli(["med", "--codebook", str(path)]) == 1
        assert f"{path}.system: unknown keys ['alphabt']" in capsys.readouterr().err

    # a codebook without config_hash: the content hash no longer stands in for the check
    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_f_entries_are_json_integers(self, tmp_path, entry):
        doc = codebook_to_dict(random_codebook(np.random.default_rng(0)))
        del doc["config_hash"]
        doc["F"][0][0] = entry  # was 1
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*'F'"):
            read_codebook(path)


# edits of a TestCheckpoint.small_checkpoint file: each takes its parsed
# header, which it edits in place, and its array bytes, and returns the array
# bytes to write. The 17 arrays are gbar (24 values), shared.0.w (48),
# shared.0.b (8), shared.1.w (48), shared.1.b (6), then user by user
# subnet.j.0.w (30), subnet.j.0.b (5), subnet.j.1.w (20) and subnet.j.1.b (4)
def _swapped(header, arrays):
    """Users 0 and 1 trade first-layer weights."""
    specs = header["arrays"]
    specs[5]["name"], specs[9]["name"] = specs[9]["name"], specs[5]["name"]
    return arrays


def _extra(header, arrays):
    header["arrays"].append({"name": "junk", "shape": [1]})
    return arrays + bytes(8)


def _repeated(header, arrays):
    """A second gbar, a copy of the first, after the last array."""
    header["arrays"].append({"name": "gbar", "shape": [3, 4, 2]})
    return arrays + arrays[: 8 * 24]


def _reordered(header, arrays):
    """shared.0.b, name, shape and values, before shared.0.w."""
    specs = header["arrays"]
    specs[1], specs[2] = specs[2], specs[1]
    return arrays[: 8 * 24] + arrays[8 * 72 : 8 * 80] + arrays[8 * 24 : 8 * 72] + arrays[8 * 80 :]


def _bias_too_short(header, arrays):
    header["arrays"][2]["shape"] = [7]
    return arrays[: 8 * 79] + arrays[8 * 80 :]


def _unknown_activation(header, arrays):
    header["layout"]["shared"][1] = "tanh"
    return arrays


def _no_user_layers(header, arrays):
    header["layout"]["subnets"] = [[], [], []]
    del header["arrays"][5:]
    return arrays[: 8 * 134]


def _three_d_trunk(header, arrays):
    header["arrays"][1]["shape"] = [1, 8, 6]
    header["arrays"][2]["shape"] = [1, 8]
    return arrays


def _width_chain_broken(header, arrays):
    header["arrays"][3]["shape"] = [6, 4]  # reads 4 of shared.0's 8 outputs
    return arrays[: 8 * 104] + arrays[8 * 128 :]


def _relu_head(header, arrays):
    header["layout"]["subnets"] = [["relu", "relu"]] * 3
    return arrays


def _layout_edit(key, value):
    """An edit setting header["layout"][key] to value."""
    def edit(header, arrays):
        header["layout"][key] = value
        return arrays
    return edit


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        sys_cfg = SystemConfig(3, 3, 2, 4)
        ind = IndicatorMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        rng = np.random.default_rng(4)
        gen = random_generators(sys_cfg, rng)
        dec = MultiTaskDecoder.build(rng, 2 * sys_cfg.K, sys_cfg.J, sys_cfg.M,
                                     shared_widths=(8, 6), subnet_widths=(5,))
        path = tmp_path / "model.bin"
        save_checkpoint(path, gen, dec, ind, meta={"seed": 9, "config_hash": "abc"})
        gen2, dec2, ind2, meta = load_checkpoint(path)
        assert np.array_equal(gen2.gbar, gen.gbar)
        assert np.array_equal(ind2.F, ind.F)
        assert meta == {"seed": 9, "config_hash": "abc"}
        for a, b in zip(dec.parameters(), dec2.parameters()):
            assert np.array_equal(a, b)
        x = rng.normal(size=(5, 6))
        assert dec2.forward(x) == pytest.approx(dec.forward(x), abs=0)

    def test_recorded_v1_file_still_loads(self, tmp_path):
        # checkpoint_v1.bin holds the (8, 6)/(5,) decoder of test_roundtrip,
        # written before the user subnetworks were stacked; the JSON next to
        # it is the repr of its forward output on a fixed input, recorded then
        recorded = Path(__file__).with_name("checkpoint_v1.bin")
        expected = json.loads(Path(__file__).with_name("checkpoint_v1_forward.json").read_text())
        gen, dec, ind, meta = load_checkpoint(recorded)
        x = np.array([[float(v) for v in row] for row in expected["input"]])
        got = [[[repr(float(v)) for v in user] for user in row] for row in dec.forward(x)]
        assert got == expected["probs"]
        resaved = tmp_path / "model.bin"
        save_checkpoint(resaved, gen, dec, ind, meta)
        assert resaved.read_bytes() == recorded.read_bytes()

    # the stored system has 2K = 6, J = 3 and M = 4; each decoder breaks one
    @pytest.mark.parametrize("input_width, n_users, n_messages", [(8, 3, 4), (6, 2, 4), (6, 3, 8)])
    def test_decoder_must_match_stored_system(self, tmp_path, input_width, n_users, n_messages):
        sys_cfg = SystemConfig(3, 3, 2, 4)
        ind = IndicatorMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        rng = np.random.default_rng(4)
        dec = MultiTaskDecoder.build(rng, input_width, n_users, n_messages,
                                     shared_widths=(8,), subnet_widths=(5,))
        path = tmp_path / "model.bin"
        save_checkpoint(path, random_generators(sys_cfg, rng), dec, ind)
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*decoder"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CodebookFormatError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def small_checkpoint(path):
        """A valid checkpoint file; returns (header dict, array bytes)."""
        sys_cfg = SystemConfig(3, 3, 2, 4)
        ind = IndicatorMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        rng = np.random.default_rng(4)
        dec = MultiTaskDecoder.build(rng, 2 * sys_cfg.K, sys_cfg.J, sys_cfg.M,
                                     shared_widths=(8, 6), subnet_widths=(5,))
        save_checkpoint(path, random_generators(sys_cfg, rng), dec, ind)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        return json.loads(raw[12 : 12 + hlen]), raw[12 + hlen :]

    @staticmethod
    def rewrite(path, header, arrays):
        blob = json.dumps(header).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + arrays)

    @pytest.mark.parametrize("key", ["system", "F", "layout", "arrays"])
    def test_header_missing_key(self, tmp_path, key):
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        del header[key]
        self.rewrite(path, header, arrays)
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*'{key}'"):
            load_checkpoint(path)

    def test_unknown_version_names_file(self, tmp_path):
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        header["version"] = 2
        self.rewrite(path, header, arrays)
        with pytest.raises(CodebookFormatError, match=re.escape(f"{path}: unsupported checkpoint version 2")):
            load_checkpoint(path)

    # each loaded as version 1
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_is_a_json_integer(self, tmp_path, capsys, version):
        def edit(header, arrays):
            header["version"] = version
            return arrays

        self.assert_rejected(tmp_path, capsys, edit,
                             f"bad field 'version' (TypeError: expected int, got {version!r})")

    # each loaded, the key ignored
    @pytest.mark.parametrize("block, where", [
        (lambda header: header, ""),
        (lambda header: header["system"], ".system"),
        (lambda header: header["layout"], ".layout"),
        (lambda header: header["arrays"][3], ".arrays[3]"),
    ], ids=["header", "system", "layout", "array-entry"])
    def test_unknown_keys_name_file_and_key(self, tmp_path, capsys, block, where):
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        block(header)["alphabt"] = 8
        self.rewrite(path, header, arrays)
        message = f"{path}{where}: unknown keys ['alphabt']"
        with pytest.raises(CodebookFormatError, match=re.escape(message)):
            load_checkpoint(path)
        out = tmp_path / "cb.json"
        assert cli.run_cli(["export", "--checkpoint", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_header_key_names_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        blob = json.dumps(header).replace('"users": 3', '"users": 3, "users": 4', 1).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + arrays)
        message = f"{path}: key 'users' given twice in one object"
        with pytest.raises(CodebookFormatError, match=re.escape(message)):
            load_checkpoint(path)
        out = tmp_path / "cb.json"
        assert cli.run_cli(["export", "--checkpoint", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_user_layouts_must_agree(self, tmp_path):
        # the decoder stacks the users' subnetworks, so they share one layout
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        header["layout"]["subnets"][1][0] = "linear"
        self.rewrite(path, header, arrays)
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}: bad field 'layout'"):
            load_checkpoint(path)

    def test_generator_shape_names_file(self, tmp_path):
        # gbar cut from the system's (J, 2N, log2 M) = (3, 4, 2) to (3, 2, 2)
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        assert header["arrays"][0] == {"name": "gbar", "shape": [3, 4, 2]}
        header["arrays"][0]["shape"] = [3, 2, 2]
        self.rewrite(path, header, arrays[: 8 * 12] + arrays[8 * 24 :])
        with pytest.raises(CodebookFormatError,
                           match=f"{re.escape(str(path))}.*generator stack shape"):
            load_checkpoint(path)

    def test_non_finite_weight_names_file(self, tmp_path):
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        assert header["arrays"][1]["name"] == "shared.0.w"  # right after the 24 gbar values
        self.rewrite(path, header, arrays[: 8 * 24] + struct.pack("<d", np.nan) + arrays[8 * 25 :])
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [10, 40])  # inside the length, inside the JSON
    def test_truncated_header(self, tmp_path, cut):
        path = tmp_path / "model.bin"
        self.small_checkpoint(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        self.small_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*trailing"):
            load_checkpoint(path)

    # the layout rule at its edges: no trunk layer, a head with no hidden user layer, one user
    @pytest.mark.parametrize("F, shared_widths, subnet_widths, layout", [
        ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], (), (5,),
         {"shared": [], "subnets": [["relu", "softmax"]] * 3}),
        ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], (8, 6), (),
         {"shared": ["relu", "relu"], "subnets": [["softmax"]] * 3}),
        ([[1], [1], [0]], (8, 6), (5,),
         {"shared": ["relu", "relu"], "subnets": [["relu", "softmax"]]}),
    ], ids=["no-trunk", "head-only", "one-user"])
    def test_roundtrip_at_layout_edges(self, tmp_path, F, shared_widths, subnet_widths, layout):
        ind = IndicatorMatrix(F)
        sys_cfg = SystemConfig(ind.n_users, ind.n_resources, 2, 4)
        rng = np.random.default_rng(5)
        dec = MultiTaskDecoder.build(rng, 2 * sys_cfg.K, sys_cfg.J, sys_cfg.M,
                                     shared_widths=shared_widths, subnet_widths=subnet_widths)
        path = tmp_path / "model.bin"
        save_checkpoint(path, random_generators(sys_cfg, rng), dec, ind)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        assert json.loads(raw[12 : 12 + hlen])["layout"] == layout
        _, dec2, _, _ = load_checkpoint(path)
        x = rng.normal(size=(5, 2 * sys_cfg.K))
        assert dec2.forward(x).tobytes() == dec.forward(x).tobytes()

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_f_entries_are_json_integers(self, tmp_path, entry):
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        header["F"][0][0] = entry  # was 1
        self.rewrite(path, header, arrays)
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*'F'"):
            load_checkpoint(path)

    def assert_rejected(self, tmp_path, capsys, edit, message):
        """A small checkpoint changed by edit: load_checkpoint raises, and
        export exits 1, with the file's name and then message."""
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        self.rewrite(path, header, edit(header, arrays))
        with pytest.raises(CodebookFormatError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)
        out = tmp_path / "cb.json"
        assert cli.run_cli(["export", "--checkpoint", str(path), "--out", str(out)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    # each once loaded: the extra array was ignored and the second gbar
    # replaced the first
    @pytest.mark.parametrize("edit, message", [
        (_swapped, "array 5: header ['subnet.1.0.w'], layout ['subnet.0.0.w']"),
        (_extra, "array 17: header ['junk'], layout []"),
        (_repeated, "array 17: header ['gbar'], layout []"),
        (_reordered, "array 1: header ['shared.0.b'], layout ['shared.0.w']"),
    ], ids=["swapped", "extra", "repeated", "reordered"])
    def test_array_names_must_be_the_layouts_in_order(self, tmp_path, capsys, edit, message):
        self.assert_rejected(tmp_path, capsys, edit, message)

    def test_missing_array_named(self, tmp_path, capsys):
        def edit(header, arrays):
            del header["arrays"][-1]
            return arrays[:-8 * 4]

        self.assert_rejected(tmp_path, capsys, edit, "array 16: header [], layout ['subnet.2.1.b']")

    @pytest.mark.parametrize("meta", [5, "x", [1], None])  # each made export exit 2
    def test_meta_must_be_an_object(self, tmp_path, capsys, meta):
        def edit(header, arrays):
            header["meta"] = meta
            return arrays

        self.assert_rejected(tmp_path, capsys, edit, f"bad field 'meta' (expected an object, got {meta!r})")

    # 1e308 and 2**70 made export exit 2, and -1 was called a truncated array
    @pytest.mark.parametrize("size, message", [
        (1e308, "array 'gbar' has shape [3, 4, 1e+308]"),
        (-1, "array 'gbar' has shape [3, 4, -1]"),
        (True, "array 'gbar' has shape [3, 4, True]"),
        (2**70, "truncated array 'gbar'"),
    ], ids=["1e308", "-1", "true", "2^70"])
    def test_shape_entries_are_non_negative_integers(self, tmp_path, capsys, size, message):
        def edit(header, arrays):
            header["arrays"][0]["shape"] = [3, 4, size]
            return arrays

        self.assert_rejected(tmp_path, capsys, edit, message)

    # the decoder's structural checks and the layout rule, each reached from a header
    @pytest.mark.parametrize("edit, message", [
        (_bias_too_short, "weights (8, 6) and bias (7,) are inconsistent"),
        (_unknown_activation, "bad field 'layout'"),
        (_no_user_layers, "bad field 'layout'"),
        (_three_d_trunk, "trunk layers take (out, in) weights"),
        (_width_chain_broken, "layer input width 4 does not match 8"),
        (_relu_head, "bad field 'layout'"),
        (_layout_edit("shared", ["relu", "softmax"]), "bad field 'layout'"),
        (_layout_edit("subnets", []), "bad field 'layout'"),  # was an IndexError
        (_layout_edit("shared", 3), "bad field 'layout'"),  # was a TypeError
        (_layout_edit("subnets", "relu"), "bad field 'layout'"),  # was "user subnetworks differ"
    ], ids=["bias", "activation", "no-user-layers", "3d-trunk", "width-chain", "head",
            "softmax-trunk", "no-users", "shared-int", "subnets-string"])
    def test_decoder_structure_checks_name_file(self, tmp_path, capsys, edit, message):
        self.assert_rejected(tmp_path, capsys, edit, message)


class TestExperimentConfig:
    def base_doc(self):
        return {
            "system": {
                "users": 6, "resources": 4, "nonzero": 2, "alphabet": 4,
                "F": [[0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1], [0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0]],
            },
            "train": {"alpha0": 0.001, "beta": 0.9, "decay_step": 500,
                      "batch_size": 1000, "iterations": 2000,
                      "ebn0_min_db": 5, "ebn0_max_db": 11, "seed": 7},
        }

    def test_parses(self):
        exp = experiment_config_from_dict(self.base_doc())
        assert exp.system.J == 6
        assert exp.train.n_iterations == 2000
        assert len(exp.config_hash()) == 16

    def test_unknown_keys_rejected(self):
        doc = self.base_doc()
        doc["train"]["learning_rate"] = 0.1
        with pytest.raises(CodebookFormatError, match="unknown keys"):
            experiment_config_from_dict(doc)

    def test_unknown_top_level_rejected(self):
        doc = self.base_doc()
        doc["extra"] = {}
        with pytest.raises(CodebookFormatError, match="unknown keys"):
            experiment_config_from_dict(doc)

    def test_inconsistent_f_rejected(self):
        doc = self.base_doc()
        doc["system"]["nonzero"] = 3
        with pytest.raises(CodebookFormatError, match="does not match"):
            experiment_config_from_dict(doc)

    def test_eval_block_rejected(self):
        doc = self.base_doc()
        doc["eval"] = {"min_errors": 100}
        with pytest.raises(CodebookFormatError, match="unknown keys"):
            experiment_config_from_dict(doc)

    def test_null_init_codebook_accepted(self):
        doc = self.base_doc()
        doc["paths"] = {"init_codebook": None, "output_dir": "runs"}
        assert experiment_config_from_dict(doc).paths.init_codebook is None

    def test_hash_covers_beta(self):
        doc = self.base_doc()
        plain = experiment_config_from_dict(doc).config_hash()
        doc["train"]["beta"] = 0.5
        assert experiment_config_from_dict(doc).config_hash() != plain

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_f_entries_are_json_integers(self, entry):
        doc = self.base_doc()
        doc["system"]["F"][0][1] = entry  # was 1
        with pytest.raises(CodebookFormatError, match="config.system.*'F'"):
            experiment_config_from_dict(doc)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.base_doc()))
        exp = read_experiment_config(path)
        assert exp.train.seed == 7

    def test_repeated_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.base_doc()).replace('"seed": 7', '"seed": 7, "seed": 3'))
        with pytest.raises(CodebookFormatError, match=re.escape(f"{path}: key 'seed' given twice")):
            read_experiment_config(path)


def test_ber_csv_schema(tmp_path, monkeypatch):
    point = BerPoint(8.0, 1000, 17, 0.017, 0.01, 0.027, "mpa", "huawei_4x6")
    monkeypatch.setattr(cli, "simulate_ber", lambda *a, **kw: BerCurve(points=(point,)))
    path = tmp_path / "ber.csv"
    assert cli.run_cli(["ber", "--codebook", str(data_path("huawei_4x6.json")), "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ebn0_db,bits,bit_errors,ber,ci_low,ci_high,detector,codebook_id"
    cells = lines[1].split(",")
    assert cells[1] == "1000" and cells[2] == "17" and cells[6] == "mpa" and cells[7] == "huawei_4x6"
    floats = (point.ebn0_db, point.ber, point.ci_low, point.ci_high)
    assert [cells[i] for i in (0, 3, 4, 5)] == [repr(float(x)) for x in floats]


def test_csv_cell_with_comma_quote_and_newline_round_trips(tmp_path):
    path = tmp_path / "table.csv"
    name = 'a,b "c"\nd'
    write_csv(path, ("name", "med"), [(name, 0.5534440688493857), ("plain", 1)])
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [["name", "med"], [name, "0.5534440688493857"], ["plain", "1"]]
    assert path.read_text().endswith("\nplain,1\n")
