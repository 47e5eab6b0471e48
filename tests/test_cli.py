import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scmalink import (MultiTaskDecoder, SystemConfig, data_path, paper_indicator_4x6,
                      random_generators, read_codebook, save_checkpoint)
from scmalink import cli
from scmalink.cli import parse_snr_spec, run_cli
from scmalink.fileio import CodebookFormatError


HUAWEI = str(data_path("huawei_4x6.json"))


class TestSnrSpec:
    def test_range_inclusive(self):
        assert parse_snr_spec("4:2:12") == [4.0, 6.0, 8.0, 10.0, 12.0]

    def test_comma_list(self):
        assert parse_snr_spec("5,7.5,10") == [5.0, 7.5, 10.0]

    def test_fractional_step(self):
        assert parse_snr_spec("0:0.5:1") == [0.0, 0.5, 1.0]

    def test_bad_spec(self):
        with pytest.raises(CodebookFormatError):
            parse_snr_spec("4:2")

    # an infinite stop never ends the range; the others give no point at all
    @pytest.mark.parametrize("spec", ["0:1:inf", "nan:1:5", "0:nan:5", "-inf:1:5", "12:2:4", "inf"])
    def test_non_finite_or_empty_rejected(self, spec):
        with pytest.raises(CodebookFormatError, match=re.escape(repr(spec))):
            parse_snr_spec(spec)

    def test_long_range_does_not_drift(self):
        points = parse_snr_spec("0:0.3:999")
        assert len(points) == 3331
        assert points[-1] == 999.0

    # a step below the float spacing at the start, 10^15 points, and a span
    # that overflows to inf: each is counted and rejected before any point is built
    @pytest.mark.parametrize("spec", ["1e20:1:1e21", "0:1e-9:1e6", "-1.7e308:1e-300:1.7e308"])
    def test_range_with_too_many_points_rejected_at_once(self, spec):
        t0 = time.perf_counter()
        with pytest.raises(CodebookFormatError, match=re.escape(repr(spec))):
            parse_snr_spec(spec)
        assert time.perf_counter() - t0 < 1.0

    def test_range_at_the_point_limit_accepted(self):
        assert len(parse_snr_spec(f"0:1:{cli.MAX_SNR_POINTS - 1}")) == cli.MAX_SNR_POINTS
        with pytest.raises(CodebookFormatError):
            parse_snr_spec(f"0:1:{cli.MAX_SNR_POINTS}")


class TestCliCommands:
    def test_med_prints_huawei_value(self, capsys):
        assert run_cli(["med", "--codebook", HUAWEI]) == 0
        out = capsys.readouterr().out
        med = float(out.split()[1])
        assert abs(med - 0.56) <= 0.02

    def test_med_missing_file_is_validation_error(self, capsys):
        assert run_cli(["med", "--codebook", "/no/such/file.json"]) == 1

    def test_usage_error_nonzero(self):
        assert run_cli(["frobnicate"]) == 1
        assert run_cli([]) == 1

    def test_module_run_exits_with_cli_status(self):
        # `python -m scmalink.cli` from a source checkout runs main()
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "scmalink.cli", "ber", "--detector", "bogus"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "invalid choice: 'bogus'" in proc.stderr

    def test_compare_single(self, capsys, tmp_path):
        csv = tmp_path / "table.csv"
        assert run_cli(["compare", f"huawei={HUAWEI}", "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("name,med")
        assert "huawei" in capsys.readouterr().out

    def test_ber_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code = run_cli([
            "ber", "--codebook", HUAWEI, "--detector", "mpa", "--snr", "8",
            "--min-errors", "20", "--max-bits", "30000", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ebn0_db,bits,bit_errors,ber,ci_low,ci_high,detector,codebook_id"
        assert len(lines) == 2

    def test_ber_out_in_missing_directory_fails_before_simulating(self, tmp_path, capsys,
                                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate_ber", lambda *a, **kw: calls.append((a, kw)))
        out = tmp_path / "missing" / "x.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--min-errors", "2000",
                        "--out", str(out)]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert "--out" in err and str(out.parent) in err
        assert not out.parent.exists()

    def test_ber_out_dir_default_file_name(self, tmp_path, capsys):
        out_dir = tmp_path / "new" / "dir"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--min-errors", "20",
                        "--max-bits", "30000", "--out-dir", str(out_dir)]) == 0
        out = out_dir / "ber_huawei_4x6_mpa.csv"
        assert out.read_text().startswith("ebn0_db,bits,")
        assert f"wrote {out}" in capsys.readouterr().out

    def test_gradcheck(self, capsys):
        assert run_cli(["gradcheck", "--trials", "3", "--seed", "1"]) == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_gradcheck_nan_error_fails(self, monkeypatch, capsys):
        errors = iter([1e-9, float("nan"), 1e-9])
        monkeypatch.setattr(cli, "gradient_check", lambda rng, step: next(errors))
        assert run_cli(["gradcheck", "--trials", "3"]) == 2
        assert "worst relative error nan" in capsys.readouterr().out

    def test_train_and_export_roundtrip(self, tmp_path, capsys):
        cfg = {
            "system": {
                "users": 6, "resources": 4, "nonzero": 2, "alphabet": 4,
                "F": [[0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1],
                      [0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0]],
            },
            "train": {"iterations": 3, "batch_size": 16, "seed": 3},
            "paths": {"init_codebook": HUAWEI, "output_dir": str(tmp_path)},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "checkpoint.bin").exists()
        assert (tmp_path / "learned_codebook.json").exists()
        trace = (tmp_path / "loss_trace.csv").read_text().strip().split("\n")
        assert trace[0] == "iteration,loss,learning_rate"
        assert len(trace) == 4

        out_cb = tmp_path / "exported.json"
        assert run_cli(["export", "--checkpoint", str(tmp_path / "checkpoint.bin"),
                        "--out", str(out_cb)]) == 0
        # the same codebook derivation as train's: only the name differs
        exported = json.loads(out_cb.read_text())
        learned = json.loads((tmp_path / "learned_codebook.json").read_text())
        assert exported.pop("name") == "exported" and learned.pop("name") == "learned"
        assert exported == learned

    def test_train_determinism(self, tmp_path):
        cfg = {
            "system": {
                "users": 6, "resources": 4, "nonzero": 2, "alphabet": 4,
                "F": [[0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1],
                      [0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0]],
            },
            "train": {"iterations": 4, "batch_size": 16, "seed": 9},
            "paths": {"init_codebook": HUAWEI},
        }
        outs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            cfg_path = tmp_path / f"exp_{run}.json"
            cfg["paths"]["output_dir"] = str(outdir)
            cfg_path.write_text(json.dumps(cfg))
            assert run_cli(["train", "--config", str(cfg_path)]) == 0
            outs.append((outdir / "learned_codebook.json").read_text())
        assert outs[0] == outs[1]

    def test_ber_neural_needs_model(self):
        assert run_cli(["ber", "--codebook", HUAWEI, "--detector", "neural",
                        "--snr", "8"]) == 1


PAPER_SYSTEM = {
    "users": 6, "resources": 4, "nonzero": 2, "alphabet": 4,
    "F": [[0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1],
          [0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0]],
}


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "block, key, value",
        [("train", "iterations", "many"), ("system", "users", "six"),
         ("train", "beta", True),
         # the right type, but values TrainConfig rejects
         ("train", "beta", 1.5), ("train", "alpha0", float("inf")),
         ("train", "ebn0_min_db", float("nan")), ("train", "decay_step", 0)],
    )
    def test_bad_config_value_names_file_and_field(self, tmp_path, capsys, block, key, value):
        cfg = {"system": dict(PAPER_SYSTEM),
               "train": {"iterations": 1, "batch_size": 4},
               "paths": {"output_dir": str(tmp_path)}}
        cfg[block][key] = value
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}.{block}" in err and repr(key) in err
        assert list(tmp_path.iterdir()) == [cfg_path]

    # str() would turn either value into a path, so each must be a JSON string
    @pytest.mark.parametrize("key, value", [("output_dir", 5), ("init_codebook", 7)])
    def test_non_string_path_names_file_and_field(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = {"system": dict(PAPER_SYSTEM),
               "train": {"iterations": 1, "batch_size": 4},
               "paths": {"output_dir": str(tmp_path), key: value}}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert str(cfg_path) in err and repr(key) in err
        assert not (tmp_path / "checkpoint.bin").exists()

    @pytest.mark.parametrize("snr", ["12:2:4", "nan:1:5", "0:1:inf"])
    def test_empty_or_non_finite_snr_range_is_validation_error(self, tmp_path, capsys, snr):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", snr, "--out", str(out)]) == 1
        assert repr(snr) in capsys.readouterr().err
        assert not out.exists()

    def test_compare_repeated_name_is_validation_error(self, capsys):
        assert run_cli(["compare", HUAWEI, HUAWEI]) == 1
        assert "'huawei_4x6'" in capsys.readouterr().err
        assert run_cli(["compare", f"H={HUAWEI}", f"H={HUAWEI}"]) == 1
        assert "'H'" in capsys.readouterr().err

    def test_non_numeric_snr_is_validation_error(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "abc", "--out", str(out)]) == 1
        assert not out.exists()

    def test_zero_bit_budget_is_validation_error(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--max-bits", "0",
                        "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_validation_error(self, tmp_path, capsys, workers):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--workers", workers,
                        "--out", str(out)]) == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_snr_list_is_validation_error(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", ",", "--out", str(out)]) == 1
        assert not out.exists()

    def test_ragged_f_names_file_and_field(self, tmp_path, capsys):
        doc = json.loads(Path(HUAWEI).read_text())
        doc["F"][1] = doc["F"][1][:-1]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "'F'" in err

    # values that parse but that SystemConfig or build_indicator reject
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["system"].update(alphabet=3), "'alphabet'"),
        (lambda doc: doc["F"][0].__setitem__(0, 2), "'F'"),
    ], ids=["alphabet-3", "F-entry-2"])
    def test_invalid_system_value_names_file_and_field(self, tmp_path, capsys, edit, field):
        doc = json.loads(Path(HUAWEI).read_text())
        edit(doc)
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and field in err

    def test_codewords_not_a_list_names_file_and_field(self, tmp_path, capsys):
        doc = json.loads(Path(HUAWEI).read_text())
        doc["codewords"] = 5
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "codewords" in err

    def test_non_utf8_codebook_names_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert run_cli(["med", "--codebook", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_neural_decoder_must_fit_codebook(self, tmp_path, capsys):
        # a consistent checkpoint of the 4x6 graph at M = 2, run on the M = 4 codebook
        sys_cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=2)
        rng = np.random.default_rng(0)
        dec = MultiTaskDecoder.build(rng, 8, 6, 2, shared_widths=(8,), subnet_widths=(4,))
        model = tmp_path / "m2.bin"
        save_checkpoint(model, random_generators(sys_cfg, rng), dec, paper_indicator_4x6())
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--detector", "neural", "--model", str(model),
                        "--snr", "8", "--max-bits", "1000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "2 messages" in err and "M = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--step", "0"), ("--step", "inf"),
                                             ("--tolerance", "nan"), ("--tolerance", "inf"),
                                             ("--tolerance", "0")])
    def test_invalid_gradcheck_flag_is_validation_error(self, capsys, flag, value):
        assert run_cli(["gradcheck", flag, value]) == 1
        assert flag.lstrip("-") in capsys.readouterr().err
