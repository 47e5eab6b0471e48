"""Command-line front end: train / med / ber / compare / gradcheck / export.

Exit codes: 0 on success, 1 on validation problems (bad flags, malformed
files, inconsistent inputs), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .core import Codebook, ConfigError, DegenerateCodebookError, ScmaError
from .fileio import (
    CodebookFormatError,
    codebook_to_dict,
    load_checkpoint,
    read_codebook,
    read_experiment_config,
    save_checkpoint,
    write_codebook,
    write_csv,
)
from .metrics import BerPoint, MpaConfig, compare_codebooks, compute_med, simulate_ber
from .training import TRAIN_DTYPE, default_init, gradient_check, learned_codebook, train

MAX_SNR_POINTS = 10_000


def _db(text: str, spec: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CodebookFormatError(f"bad SNR value {text!r} in {spec!r}") from None
    if not np.isfinite(value):
        raise CodebookFormatError(f"SNR value {text!r} in {spec!r} is not finite")
    return value


def parse_snr_spec(spec: str) -> list[float]:
    """Either a comma list '4,8,12' or an inclusive range 'start:step:stop'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CodebookFormatError(f"bad SNR range {spec!r}, expected start:step:stop")
        start, step, stop = (_db(p, spec) for p in parts)
        if step <= 0:
            raise CodebookFormatError(f"SNR range {spec!r} has a step that is not positive")
        count = (stop - start + 1e-9) // step + 1
        if not count <= MAX_SNR_POINTS:  # also rejects the NaN of an overflowed range
            raise CodebookFormatError(f"SNR range {spec!r} has more than {MAX_SNR_POINTS} points")
        points = [round(start + i * step, 10) for i in range(int(count))]
    else:
        points = [_db(p, spec) for p in spec.split(",") if p.strip()]
    if not points:
        raise CodebookFormatError(f"no SNR value in {spec!r}")
    return points


def _check_out_file(path, flag: str, make_dir: bool = False) -> None:
    """Reject an output file before any work: a directory, or one in a missing
    directory; with make_dir, in a directory that _check_out_dir rejects."""
    p = Path(path)
    if p.is_dir():
        raise ConfigError(f"{flag} {p}: is a directory")
    if make_dir:
        _check_out_dir(p.parent, flag)
    elif not p.parent.is_dir():
        raise ConfigError(f"{flag} {p}: directory {p.parent} does not exist")


def _check_out_dir(path, flag: str) -> None:
    """Reject an output directory that cannot be made, without making it: the
    path or its nearest existing ancestor must be a directory, and one the
    process may write to if the path is missing."""
    out = Path(path)
    base = out
    while not base.exists() and base != base.parent:
        base = base.parent
    if not base.is_dir():
        raise ConfigError(f"{flag} {out}: cannot create the directory ({base} is not a directory)")
    if base != out and not os.access(base, os.W_OK | os.X_OK):
        raise ConfigError(f"{flag} {out}: cannot create the directory ({base} is not writable)")


def _make_out_dir(path, where: str) -> Path:
    """Create an output directory; a failure names where the path came from."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{where} {out}: cannot create the directory ({exc.strerror})") from exc
    return out


def _read_normalized(path) -> Codebook:
    """The codebook file at unit energy per user; an all-zero user names the file."""
    try:
        return read_codebook(path).normalized()
    except DegenerateCodebookError as exc:
        raise DegenerateCodebookError(f"{path}: {exc}") from exc


def _cmd_med(args) -> int:
    if args.csv:
        _check_out_file(args.csv, "--csv")
    cb = read_codebook(args.codebook) if args.raw else _read_normalized(args.codebook)
    report = compute_med(cb)
    print(f"med {report.med:.6g}")
    print(f"constellation points {report.phi_size}")
    print(f"achieved by message tuples {report.arg_pair[0]} and {report.arg_pair[1]}")
    if args.csv:
        write_csv(args.csv, ("name", "med"), [(Path(args.codebook).stem, report.med)])
    return 0


def _cmd_compare(args) -> int:
    if args.csv:
        _check_out_file(args.csv, "--csv")
    named = {}  # name -> path; every name is checked before any codebook is read
    for item in args.codebooks:
        name, _, path = item.partition("=")
        if not path:
            name, path = Path(item).stem, item
        if not name:
            raise CodebookFormatError(f"codebook argument {item!r} has an empty NAME")
        if name in named:
            raise CodebookFormatError(f"codebook name {name!r} given twice")
        named[name] = path
    rows = compare_codebooks({name: read_codebook(path) for name, path in named.items()})
    width = max(len(n) for n in named)
    for name, med in rows:
        print(f"{name:<{width}}  {med:.6g}")
    if args.csv:
        write_csv(args.csv, ("name", "med"), rows)
    return 0


def _cmd_ber(args) -> int:
    cb = _read_normalized(args.codebook)
    decoder = None
    if args.detector == "neural":
        if not args.model:
            raise CodebookFormatError("--model checkpoint is required for the neural detector")
        _, decoder, _, _ = load_checkpoint(args.model)
        try:
            decoder.check_fits(cb.config)
        except ConfigError as exc:
            raise ConfigError(f"--model {args.model}: {exc}") from exc
    # --out-dir is made only once there is a curve to write, so a rejected run leaves none
    out = args.out or Path(args.out_dir) / f"ber_{Path(args.codebook).stem}_{args.detector}.csv"
    _check_out_file(out, "--out" if args.out else "--out-dir", make_dir=not args.out)
    curve = simulate_ber(
        cb,
        detector=args.detector,
        ebn0_db_list=parse_snr_spec(args.snr),
        min_errors=args.min_errors,
        max_bits=args.max_bits,
        seed=args.seed,
        decoder=decoder,
        mpa_cfg=MpaConfig(n_iter=args.mpa_iterations),
        workers=args.workers,
        codebook_id=Path(args.codebook).stem,
    )
    for pt in curve.points:
        print(
            f"{pt.ebn0_db:6.2f} dB  ber {pt.ber:.3e}  "
            f"[{pt.ci_low:.3e}, {pt.ci_high:.3e}]  ({pt.bit_errors}/{pt.bits} bits)"
        )
    columns = [f.name for f in fields(BerPoint) if f.name != "user_errors"]
    if not args.out:
        _make_out_dir(args.out_dir, "--out-dir")
    write_csv(out, columns, ([getattr(pt, c) for c in columns] for pt in curve.points))
    print(f"wrote {out}")
    return 0


def _blas_threads() -> str | None:
    """The BLAS thread count set in the environment, or None if unset.
    OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS; training's
    bits depend on the count, because BLAS splits a GEMM's sums by thread."""
    return next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ), None)


def _cmd_train(args) -> int:
    if args.progress < 0:
        raise ConfigError(f"--progress must be >= 0, got {args.progress}")
    exp = read_experiment_config(args.config)
    if args.seed is not None:  # the stored config hash is that of the run
        try:
            exp = replace(exp, train=replace(exp.train, seed=args.seed))
        except ConfigError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    init_cb = None
    if exp.paths.init_codebook:  # a relative path is read from the config file's directory
        init_path = Path(args.config).parent / exp.paths.init_codebook
        init_cb = read_codebook(init_path)
    try:
        gen, decoder = default_init(exp.system, exp.indicator, exp.train, init_cb)
    except (ConfigError, DegenerateCodebookError) as exc:  # default_init checks only the init codebook
        raise ConfigError(f"{init_path}: {exc}") from exc
    out = _make_out_dir(args.out_dir or exp.paths.output_dir,
                        "--out-dir" if args.out_dir else f"{args.config}: paths.output_dir")
    report = train(exp.train, exp.system, exp.indicator, gen, decoder,
                   progress_every=args.progress)
    if report.aborted:
        print(f"training aborted: {report.abort_reason}", file=sys.stderr)
    med = compute_med(report.codebook).med
    print(
        f"trained {report.iterations_run} iterations in {report.wall_seconds:.1f} s, "
        f"final loss {report.losses[-1]:.4f}, learned codebook med {med:.4f}"
    )
    meta = {"config_hash": exp.config_hash(), "seed": exp.train.seed,
            "init_codebook_hash": None if init_cb is None else codebook_to_dict(init_cb)["config_hash"],
            "iterations": report.iterations_run, "aborted": report.aborted,
            "train_dtype": np.dtype(TRAIN_DTYPE).name, "blas_threads": _blas_threads()}
    ckpt = out / "checkpoint.bin"
    save_checkpoint(ckpt, report.generators, report.decoder, exp.indicator, meta)
    cb_path = out / "learned_codebook.json"
    write_codebook(cb_path, report.codebook, name="learned", seed=exp.train.seed)
    trace = out / "loss_trace.csv"
    write_csv(trace, ("iteration", "loss", "learning_rate"),
              zip(range(1, report.iterations_run + 1), report.losses, report.learning_rates))
    print(f"wrote {ckpt}, {cb_path}, {trace}")
    return 0 if not report.aborted else 2


def _cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 0 < args.tolerance < np.inf:
        raise ConfigError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    rng = np.random.default_rng(args.seed)
    errors = []
    for i in range(args.trials):
        errors.append(gradient_check(rng, step=args.step))
        print(f"instance {i + 1:2d}: relative error {errors[-1]:.3e}")
    worst = np.max(errors)  # NaN if any instance is NaN
    print(f"worst relative error {worst:.3e} over {args.trials} instances")
    if not worst < args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:g}", file=sys.stderr)
        return 2
    return 0


def _cmd_export(args) -> int:
    _check_out_file(args.out, "--out")
    gen, _, ind, meta = load_checkpoint(args.checkpoint)
    try:
        codebook = learned_codebook(gen, ind)
    except DegenerateCodebookError as exc:
        raise DegenerateCodebookError(f"{args.checkpoint}: {exc}") from exc
    write_codebook(args.out, codebook, name=args.name, seed=meta.get("seed"))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmalink",
        description="Downlink SCMA toolkit: codebook training, MED and BER evaluation. "
        "Eb/N0 assumes unit average codeword energy per user, Eb = 1/log2(M).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("med", help="minimum squared distance of a codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--raw", action="store_true", help="skip per-user energy normalization")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_med)

    p = sub.add_parser("compare", help="MED table for several codebooks")
    p.add_argument("codebooks", nargs="+", metavar="NAME=PATH")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("ber", help="Monte Carlo bit error rate")
    p.add_argument("--codebook", required=True)
    p.add_argument("--detector", choices=("mpa", "ml", "neural"), default="mpa")
    p.add_argument("--model", default=None, help="checkpoint for the neural detector")
    p.add_argument("--snr", default="4:2:12", help="dB list '4,8' or range 'start:step:stop'")
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--max-bits", type=int, default=100_000_000)
    p.add_argument("--mpa-iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV file to write")
    p.add_argument("--out-dir", default=".",
                   help="directory for ber_<codebook stem>_<detector>.csv when --out is not given")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("train", help="run the training loop from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default=None, help="override the config output dir")
    p.add_argument("--progress", type=int, default=0, help="print every N iterations")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("export", help="convert a checkpoint to a codebook file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="exported")
    p.set_defaults(func=_cmd_export)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ScmaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
