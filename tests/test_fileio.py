import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from scmalink import (
    Codebook,
    ConfigError,
    MultiTaskDecoder,
    SystemConfig,
    build_indicator,
    data_path,
    load_checkpoint,
    read_codebook,
    read_experiment_config,
    save_checkpoint,
    write_codebook,
)
from scmalink.fileio import (
    CHECKPOINT_MAGIC,
    CodebookFormatError,
    ber_curve_to_csv,
    codebook_to_dict,
    experiment_config_from_dict,
)
from scmalink.metrics import BerCurve, BerPoint
from scmalink.training import random_generators


def random_codebook(rng):
    cfg = SystemConfig(n_users=3, n_resources=3, n_nonzero=2, alphabet_size=4)
    ind = build_indicator([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    entries = np.zeros((3, 3, 4), dtype=complex)
    for j in range(3):
        rows = list(ind.supports[j])
        entries[j][rows, :] = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    return Codebook(entries=entries, config=cfg, indicator=ind)


class TestCodebookFiles:
    def test_shipped_huawei_loads(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        assert cb.config == SystemConfig(6, 4, 2, 4)
        assert cb.indicator.row_degrees.tolist() == [3, 3, 3, 3]

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

    def test_missing_file(self):
        with pytest.raises(CodebookFormatError, match="no such file"):
            read_codebook("/nonexistent/cb.json")

    def test_embeds_provenance(self):
        cb = random_codebook(np.random.default_rng(3))
        doc = codebook_to_dict(cb, name="x", seed=42)
        assert doc["seed"] == 42
        assert len(doc["config_hash"]) == 16


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        sys_cfg = SystemConfig(3, 3, 2, 4)
        ind = build_indicator([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
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
        ind = build_indicator([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
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
        ind = build_indicator([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
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

    def test_user_layouts_must_agree(self, tmp_path):
        # the decoder stacks the users' subnetworks, so they share one layout
        path = tmp_path / "model.bin"
        header, arrays = self.small_checkpoint(path)
        header["layout"]["subnets"][1][0] = "linear"
        self.rewrite(path, header, arrays)
        with pytest.raises(CodebookFormatError, match=f"{re.escape(str(path))}.*differ"):
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

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.base_doc()))
        exp = read_experiment_config(path)
        assert exp.train.seed == 7


def test_ber_csv_schema(tmp_path):
    curve = BerCurve(points=(
        BerPoint(8.0, 1000, 17, 0.017, 0.01, 0.027, "mpa", "huawei_4x6"),
    ))
    path = tmp_path / "ber.csv"
    ber_curve_to_csv(curve, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ebn0_db,bits,bit_errors,ber,ci_low,ci_high,detector,codebook_id"
    cells = lines[1].split(",")
    assert cells[1] == "1000" and cells[6] == "mpa" and cells[7] == "huawei_4x6"
