import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from scmalink import (IndicatorMatrix, MultiTaskDecoder, SystemConfig, compute_med, data_path,
                      load_checkpoint, random_generators, read_codebook, read_experiment_config,
                      save_checkpoint, write_codebook)
from scmalink import cli
from scmalink.cli import parse_snr_spec, run_cli
from scmalink.fileio import CodebookFormatError, codebook_from_dict, codebook_to_dict


HUAWEI = str(data_path("huawei_4x6.json"))
CHECKPOINT_V1 = str(Path(__file__).resolve().parent / "checkpoint_v1.bin")


def _rehashed(doc):
    """A copy of an edited codebook document whose config_hash is that of its
    content, so that the reader's deeper checks stay reachable."""
    body = {key: value for key, value in doc.items() if key != "config_hash"}
    return dict(doc, config_hash=codebook_to_dict(codebook_from_dict(body))["config_hash"])


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

    # an infinite stop or a zero step never ends the range; the others give no point at all
    @pytest.mark.parametrize("spec", ["0:1:inf", "nan:1:5", "0:nan:5", "-inf:1:5", "12:2:4", "inf", "4:0:12"])
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

    def test_med_csv_is_name_and_repr_of_the_med(self, tmp_path, capsys):
        csv = tmp_path / "med.csv"
        assert run_cli(["med", "--codebook", HUAWEI, "--csv", str(csv)]) == 0
        med = compute_med(read_codebook(HUAWEI).normalized()).med
        assert csv.read_text() == f"name,med\nhuawei_4x6,{float(med)!r}\n"

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

    def test_ber_mpa_past_the_bound_overflow(self, tmp_path, capsys, monkeypatch):
        # 1,100 iterations overflow the float32 pass's bound; one 16-vector chunk
        monkeypatch.setattr(cli, "simulate_ber", partial(cli.simulate_ber, batch_size=16))
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--mpa-iterations", "1100",
                        "--max-bits", "1", "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].startswith("8.0,192,")

    def test_ber_out_dir_default_file_name(self, tmp_path, capsys):
        out_dir = tmp_path / "new" / "dir"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--min-errors", "20",
                        "--max-bits", "30000", "--out-dir", str(out_dir)]) == 0
        out = out_dir / "ber_huawei_4x6_mpa.csv"
        assert out.read_text().startswith("ebn0_db,bits,")
        assert f"wrote {out}" in capsys.readouterr().out

    # the flags parse, but the SNR list, MpaConfig or simulate_ber rejects them
    @pytest.mark.parametrize("flag, value, message", [
        ("--min-errors", "0", "min_errors must be >= 1, got 0"),
        ("--max-bits", "0", "max_bits must be >= 1, got 0"),
        ("--workers", "0", "workers must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--mpa-iterations", "0", "n_iter must be >= 1, got 0"),
        ("--snr", "abc", "bad SNR value 'abc' in 'abc'"),
    ], ids=["min-errors", "max-bits", "workers", "seed", "mpa-iterations", "snr"])
    def test_rejected_ber_run_makes_no_out_dir(self, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "new"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--out-dir", str(out_dir),
                        flag, value]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ber_out_dir_in_unwritable_directory_fails_before_simulating(self, tmp_path, capsys,
                                                                          monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate_ber", lambda *a, **kw: calls.append((a, kw)))
        monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != tmp_path)
        out_dir = tmp_path / "new" / "dir"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "8", "--out-dir", str(out_dir)]) == 1
        assert calls == []
        assert f"--out-dir {out_dir}: cannot create the directory ({tmp_path} is not writable)" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # default_init rejects the init codebook: one on another graph, one with an all-zero user
    @pytest.mark.parametrize("init, message", [("other-graph", "'F'"),
                                               ("all-zero-user", "users [2] have all-zero codebooks")],
                             ids=["other-graph", "all-zero-user"])
    @pytest.mark.parametrize("via", ["--out-dir", "paths.output_dir"])
    def test_rejected_train_run_makes_no_out_dir(self, tmp_path, capsys, init, message, via):
        system = PAPER_SYSTEM
        init_path = HUAWEI
        if init == "other-graph":  # the paper graph with users 0 and 1 swapped
            system = dict(PAPER_SYSTEM, F=[[row[1], row[0], *row[2:]] for row in PAPER_SYSTEM["F"]])
        else:
            init_path = str(TestMalformedInputs._dead_user_codebook(tmp_path))
        out = tmp_path / "new" / "out"
        paths = {"init_codebook": init_path} | ({"output_dir": str(out)} if via == "paths.output_dir" else {})
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": system, "train": {"iterations": 1, "batch_size": 8},
                                   "paths": paths}))
        flag = ["--out-dir", str(out)] if via == "--out-dir" else []
        assert run_cli(["train", "--config", str(cfg), *flag]) == 1
        err = capsys.readouterr().err
        assert init_path in err and message in err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["ber", "train"])
    def test_accepted_run_makes_its_out_dir(self, tmp_path, capsys, command):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8},
                                   "paths": {"init_codebook": HUAWEI}}))
        out = tmp_path / "new" / "out"
        argv, written = {
            "ber": (["ber", "--codebook", HUAWEI, "--snr", "8", "--max-bits", "1"],
                    "ber_huawei_4x6_mpa.csv"),
            "train": (["train", "--config", str(cfg)], "checkpoint.bin"),
        }[command]
        assert run_cli([*argv, "--out-dir", str(out)]) == 0
        assert (out / written).is_file()

    # {file} is a regular file and {dir} a directory; every output is checked
    # before the command reads or computes anything
    @pytest.mark.parametrize("argv, flag, target", [
        (["ber", "--codebook", HUAWEI, "--snr", "8", "--out-dir", "{file}"], "--out-dir", "{file}"),
        (["ber", "--codebook", HUAWEI, "--snr", "8", "--out-dir", "{file}/sub"], "--out-dir", "{file}/sub"),
        (["ber", "--codebook", HUAWEI, "--snr", "8", "--out", "{dir}"], "--out", "{dir}"),
        (["med", "--codebook", HUAWEI, "--csv", "{dir}"], "--csv", "{dir}"),
        (["med", "--codebook", HUAWEI, "--csv", "{dir}/missing/x.csv"], "--csv", "{dir}/missing"),
        (["compare", HUAWEI, "--csv", "{dir}"], "--csv", "{dir}"),
        (["compare", HUAWEI, "--csv", "{dir}/missing/x.csv"], "--csv", "{dir}/missing"),
        (["export", "--checkpoint", CHECKPOINT_V1, "--out", "{dir}"], "--out", "{dir}"),
        (["export", "--checkpoint", CHECKPOINT_V1, "--out", "{dir}/missing/x.json"], "--out", "{dir}/missing"),
    ], ids=["ber-out-dir-file", "ber-out-dir-under-file", "ber-out-dir", "med-csv-dir",
            "med-csv-missing-dir", "compare-csv-dir", "compare-csv-missing-dir", "export-out-dir",
            "export-out-missing-dir"])
    def test_unusable_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch, argv, flag,
                                                   target):
        calls = []
        for name in ("simulate_ber", "compute_med", "compare_codebooks", "load_checkpoint"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append((a, kw)))
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()

        def place(text):
            return text.replace("{file}", str(tmp_path / "file")).replace("{dir}", str(tmp_path / "dir"))

        assert run_cli([place(a) for a in argv]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert f"{flag} " in err and place(target) in err

    def test_runtime_failure_exits_2(self, capsys, monkeypatch):
        def fail(codebook):
            raise MemoryError("no room for the constellation")

        monkeypatch.setattr(cli, "compute_med", fail)
        assert run_cli(["med", "--codebook", HUAWEI]) == 2
        assert "runtime error: no room for the constellation" in capsys.readouterr().err

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
        rows = [line.split(",") for line in trace[1:]]
        assert [int(row[0]) for row in rows] == [1, 2, 3]
        assert all(np.isfinite(float(cell)) for row in rows for cell in row[1:])

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

    def test_stored_config_hash_is_that_of_the_run(self, tmp_path, capsys):
        def config(seed):
            return {"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8, "seed": seed},
                    "paths": {"init_codebook": HUAWEI}}

        base = tmp_path / "seed3.json"
        base.write_text(json.dumps(config(3)))
        hashes = []
        for seed in (5, 6):
            out = tmp_path / f"run{seed}"
            assert run_cli(["train", "--config", str(base), "--seed", str(seed),
                            "--out-dir", str(out)]) == 0
            meta = load_checkpoint(out / "checkpoint.bin")[3]
            stated = tmp_path / f"seed{seed}.json"
            stated.write_text(json.dumps(config(seed)))
            assert meta["config_hash"] == read_experiment_config(stated).config_hash()
            assert meta["init_codebook_hash"] == json.loads(Path(HUAWEI).read_text())["config_hash"]
            hashes.append(meta["config_hash"])
        assert hashes[0] != hashes[1]

    def test_init_codebook_on_another_graph_names_file_and_field(self, tmp_path, capsys):
        # the paper graph with users 0 and 1 swapped; the Huawei file keeps its own
        system = dict(PAPER_SYSTEM, F=[[row[1], row[0], *row[2:]] for row in PAPER_SYSTEM["F"]])
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": system, "train": {"iterations": 1, "batch_size": 8},
                                   "paths": {"init_codebook": HUAWEI, "output_dir": str(tmp_path)}}))
        assert run_cli(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert HUAWEI in err and "'F'" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_relative_init_codebook_resolves_against_the_config_directory(self, tmp_path, capsys,
                                                                          monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "init.json").write_text(Path(HUAWEI).read_text())
        cfg = conf / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8},
                                   "paths": {"init_codebook": "init.json"}}))
        monkeypatch.chdir(tmp_path)  # init.json is not in the working directory
        assert run_cli(["train", "--config", str(cfg), "--out-dir", "out"]) == 0
        meta = load_checkpoint(tmp_path / "out" / "checkpoint.bin")[3]
        assert meta["init_codebook_hash"] == json.loads(Path(HUAWEI).read_text())["config_hash"]

    def test_aborted_training_keeps_its_record_and_exits_2(self, tmp_path, capsys, monkeypatch):
        real_train = cli.train
        monkeypatch.setattr(cli, "train", lambda *a, **kw: replace(
            real_train(*a, **kw), abort_reason="non-finite loss at iteration 2"))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8}}))
        assert run_cli(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "training aborted: non-finite loss at iteration 2" in capsys.readouterr().err
        meta = load_checkpoint(tmp_path / "checkpoint.bin")[3]
        assert meta["aborted"] is True and meta["iterations"] == 1

    def test_random_init_stores_no_codebook_hash(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8}}))
        assert run_cli(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert load_checkpoint(tmp_path / "checkpoint.bin")[3]["init_codebook_hash"] is None

    @pytest.mark.parametrize("via", ["--out-dir", "paths.output_dir"])
    @pytest.mark.parametrize("below", ["", "sub"])  # the file itself, or a directory under it
    def test_train_out_dir_that_cannot_be_made_fails_before_training(self, tmp_path, capsys,
                                                                    monkeypatch, via, below):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **kw: calls.append((a, kw)))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        paths = {"init_codebook": HUAWEI} | ({"output_dir": str(out)} if via == "paths.output_dir" else {})
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 300, "batch_size": 8},
                                   "paths": paths}))
        flag = ["--out-dir", str(out)] if via == "--out-dir" else []
        assert run_cli(["train", "--config", str(cfg), *flag]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert via in err and str(out) in err

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
         ("train", "ebn0_min_db", float("nan")), ("train", "decay_step", 0),
         # an int field takes no fraction, and no field takes a string
         ("train", "iterations", 10.5), ("train", "seed", 7.9), ("system", "users", 6.7),
         ("train", "batch_size", "1000"), ("train", "alpha0", "1e-3"),
         # numpy seeds no generator from a negative integer
         ("train", "seed", -1)],
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

    def test_alpha0_above_one_rejected_before_any_output(self, tmp_path, capsys):
        # alpha0 1e308 once trained for an iteration, overflowed the generator
        # norms and wrote an all-zero learned codebook, exiting 0
        out = tmp_path / "out"
        cfg = {"system": dict(PAPER_SYSTEM),
               "train": {"iterations": 1, "batch_size": 4, "alpha0": 1e308},
               "paths": {"output_dir": str(out)}}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}.train" in err and "'alpha0'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["ber", "train"])
    def test_negative_seed_flag_is_validation_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8}}))
        out = tmp_path / "out"
        argv, named = {
            "ber": (["ber", "--codebook", HUAWEI, "--snr", "8", "--seed", "-1", "--out", str(out)],
                    "seed must be >= 0"),
            "train": (["train", "--config", str(cfg), "--seed", "-2", "--out-dir", str(out)], "--seed"),
        }[command]
        assert run_cli(argv) == 1
        assert named in capsys.readouterr().err
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

    # values that parse but that SystemConfig or IndicatorMatrix reject, and
    # an int field given a fraction or a string
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["system"].update(alphabet=3), "'alphabet'"),
        (lambda doc: doc["F"][0].__setitem__(0, 2), "'F'"),
        (lambda doc: doc["system"].update(alphabet=4.9), "'alphabet'"),
        (lambda doc: doc["system"].update(alphabet=4.0), "'alphabet'"),
        (lambda doc: doc["system"].update(alphabet="4"), "'alphabet'"),
        (lambda doc: doc.update(F=[[]] * 4), "'F'"),
    ], ids=["alphabet-3", "F-entry-2", "alphabet-4.9", "alphabet-4.0", "alphabet-str", "F-no-columns"])
    def test_invalid_system_value_names_file_and_field(self, tmp_path, capsys, edit, field):
        doc = json.loads(Path(HUAWEI).read_text())
        edit(doc)
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and field in err

    @staticmethod
    def _dead_user_codebook(tmp_path):
        """The Huawei codebook with user 2's codewords all zero, re-hashed."""
        doc = json.loads(Path(HUAWEI).read_text())
        doc["codewords"][2] = [[["0.0", "0.0"]] * 4] * 4
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(_rehashed(doc)))
        return path

    def test_stale_content_hash_names_file_and_field(self, tmp_path, capsys):
        doc = json.loads(Path(HUAWEI).read_text())
        doc["codewords"][0][1][1] = ["0.5", "0.25"]  # user 0, message 1, resource 1
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        want = _rehashed(doc)["config_hash"]
        assert want != doc["config_hash"]
        assert run_cli(["med", "--codebook", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "'config_hash'" in err and repr(want) in err
        path.write_text(json.dumps(_rehashed(doc)))
        assert run_cli(["med", "--codebook", str(path)]) == 0

    # a batch numpy cannot allocate once exited 2, and an N0 that overflows
    # exited 1 only after training had started, without naming the file
    @pytest.mark.parametrize("train, field", [
        ({"batch_size": 2**70}, "batch_size"),
        ({"batch_size": 8, "ebn0_min_db": -5000, "ebn0_max_db": -4000}, "ebn0_min_db"),
    ], ids=["batch-2^70", "n0-overflow"])
    def test_train_config_that_fails_mid_run_is_rejected_first(self, tmp_path, capsys, train, field):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, **train},
                                   "paths": {"output_dir": str(tmp_path / "out")}}))
        assert run_cli(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}.train" in err and field in err
        assert not (tmp_path / "out").exists()

    def test_neural_model_of_another_system_names_flag_and_file(self, tmp_path, capsys):
        # a valid checkpoint of the 3x3 identity graph at M = 4, run on the 4x6 codebook
        sys_cfg = SystemConfig(n_users=3, n_resources=3, n_nonzero=1, alphabet_size=4)
        rng = np.random.default_rng(1)
        dec = MultiTaskDecoder.build(rng, 6, 3, 4, shared_widths=(8,), subnet_widths=(4,))
        model = tmp_path / "other.bin"
        save_checkpoint(model, random_generators(sys_cfg, rng), dec, IndicatorMatrix(np.eye(3, dtype=int)))
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--detector", "neural", "--model", str(model),
                        "--snr", "8", "--max-bits", "1000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"--model {model}: decoder input width 6" in err
        assert not out.exists()

    def test_export_of_an_all_zero_generator_names_the_checkpoint(self, tmp_path, capsys):
        sys_cfg = read_codebook(HUAWEI).config
        rng = np.random.default_rng(2)
        gen = random_generators(sys_cfg, rng)
        gen.gbar[1] = 0.0
        model = tmp_path / "zero.bin"
        save_checkpoint(model, gen, MultiTaskDecoder.build(rng, 8, 6, 4, shared_widths=(8,), subnet_widths=(4,)),
                        read_codebook(HUAWEI).indicator)
        out = tmp_path / "zero.json"
        assert run_cli(["export", "--checkpoint", str(model), "--out", str(out)]) == 1
        assert f"{model}: users [1] have all-zero generators" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["med", "ber", "compare", "train"])
    def test_all_zero_user_names_codebook_and_user(self, tmp_path, capsys, command):
        path = self._dead_user_codebook(tmp_path)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 4},
                                   "paths": {"init_codebook": str(path), "output_dir": str(tmp_path)}}))
        argv, named = {"med": (["med", "--codebook", str(path)], str(path)),
                       "ber": (["ber", "--codebook", str(path), "--snr", "8"], str(path)),
                       "compare": (["compare", f"Z={path}", f"huawei={HUAWEI}"], "'Z'"),
                       "train": (["train", "--config", str(cfg)], str(path))}[command]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert named in err and "users [2] have all-zero codebooks" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dead.json", "exp.json"]

    def test_all_zero_user_raw_med_is_zero(self, tmp_path, capsys):
        path = self._dead_user_codebook(tmp_path)
        assert run_cli(["med", "--codebook", str(path), "--raw"]) == 0
        assert capsys.readouterr().out.startswith("med 0\n")

    # |x|^2 of user 0 overflows to inf, which once divided the user to zeros
    # (med 0, exit 0), or underflows to 0, which once called it all-zero
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, message", [
        (1e160, "users [0] have codeword energy that overflows to inf"),
        (1e-170, "users [0] have nonzero codewords whose energy underflows to 0"),
    ], ids=["overflow", "underflow"])
    def test_user_energy_out_of_range_names_file_and_user(self, tmp_path, capsys, scale, message):
        cb = read_codebook(HUAWEI)
        entries = cb.entries.copy()
        entries[0] *= scale
        path = tmp_path / "scaled.json"
        write_codebook(path, replace(cb, entries=entries))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_snr_whose_n0_overflows_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--snr", "-4000", "--out", str(out)]) == 1
        assert "Eb/N0 -4000.0 dB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [None, 2, "x", []], ids=["null", "number", "string", "list"])
    def test_codebook_not_an_object_names_file(self, tmp_path, capsys, doc):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        assert f"{path}: expected an object, got {doc!r}" in capsys.readouterr().err

    # an alphabet of 2^70 once reached np.zeros((J, K, M)) and exited 2
    @pytest.mark.parametrize("command", ["med", "ber", "compare", "train"])
    def test_huge_alphabet_names_file_and_field(self, tmp_path, capsys, command):
        doc = json.loads(Path(HUAWEI).read_text())
        doc["system"]["alphabet"] = 2**70
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": dict(PAPER_SYSTEM, alphabet=2**70),
                                   "train": {"iterations": 1, "batch_size": 4},
                                   "paths": {"output_dir": str(tmp_path / "out")}}))
        argv, named = {"med": (["med", "--codebook", str(path)], path),
                       "ber": (["ber", "--codebook", str(path), "--snr", "8",
                                "--out-dir", str(tmp_path / "out")], path),
                       "compare": (["compare", f"H={HUAWEI}", f"X={path}"], path),
                       "train": (["train", "--config", str(cfg)], cfg)}[command]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert f"{named}.system" in err and "'alphabet'" in err and f"got {2**70}" in err
        assert not (tmp_path / "out").exists()

    def test_codewords_not_a_list_names_file_and_field(self, tmp_path, capsys):
        doc = json.loads(Path(HUAWEI).read_text())
        doc["codewords"] = 5
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["med", "--codebook", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "codewords" in err

    @pytest.mark.parametrize("argv", [
        ["med", "--codebook", "{dir}"],
        ["compare", "a={dir}"],
        ["train", "--config", "{dir}"],
        ["ber", "--codebook", HUAWEI, "--detector", "neural", "--model", "{dir}", "--snr", "8"],
        ["export", "--checkpoint", "{dir}", "--out", "{dir}.json"],
    ], ids=lambda argv: argv[0])
    def test_directory_given_as_input_file_names_it(self, tmp_path, capsys, argv):
        path = tmp_path / "adir"
        path.mkdir()
        assert run_cli([a.replace("{dir}", str(path)) for a in argv]) == 1
        assert f"{path}: cannot read (Is a directory)" in capsys.readouterr().err

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
        save_checkpoint(model, random_generators(sys_cfg, rng), dec, read_codebook(HUAWEI).indicator)
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--codebook", HUAWEI, "--detector", "neural", "--model", str(model),
                        "--snr", "8", "--max-bits", "1000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "2 messages" in err and "M = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--step", "0"), ("--step", "inf"),
                                             ("--tolerance", "nan"), ("--tolerance", "inf"),
                                             ("--tolerance", "0"), ("--seed", "-1")])
    def test_invalid_gradcheck_flag_is_validation_error(self, capsys, flag, value):
        assert run_cli(["gradcheck", flag, value]) == 1
        assert flag.lstrip("-") in capsys.readouterr().err

    def test_negative_progress_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"system": PAPER_SYSTEM, "train": {"iterations": 1, "batch_size": 8}}))
        assert run_cli(["train", "--config", str(cfg), "--progress", "-1",
                        "--out-dir", str(tmp_path / "out")]) == 1
        assert "--progress" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
