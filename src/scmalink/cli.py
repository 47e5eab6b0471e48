"""Command-line front end: train / med / ber / compare / gradcheck / export.

Exit codes: 0 on success, 1 on validation problems (bad flags, malformed
files, inconsistent inputs), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data_path
from .core import ConfigError, ScmaError
from .fileio import (
    CodebookFormatError,
    ber_curve_to_csv,
    load_checkpoint,
    med_table_to_csv,
    read_codebook,
    read_experiment_config,
    save_checkpoint,
    write_codebook,
)
from .metrics import MpaConfig, compare_codebooks, compute_med, simulate_ber
from .training import default_init, gradient_check, learned_codebook, train

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
            raise CodebookFormatError("SNR range step must be positive")
        count = (stop - start + 1e-9) // step + 1
        if not count <= MAX_SNR_POINTS:  # also rejects the NaN of an overflowed range
            raise CodebookFormatError(f"SNR range {spec!r} has more than {MAX_SNR_POINTS} points")
        points = [round(start + i * step, 10) for i in range(int(count))]
    else:
        points = [_db(p, spec) for p in spec.split(",") if p.strip()]
    if not points:
        raise CodebookFormatError(f"no SNR value in {spec!r}")
    return points


def _cmd_med(args) -> int:
    cb = read_codebook(args.codebook)
    if not args.raw:
        cb = cb.normalized()
    report = compute_med(cb)
    print(f"med {report.med:.6g}")
    print(f"constellation points {report.phi_size}")
    print(f"achieved by message tuples {report.arg_pair[0]} and {report.arg_pair[1]}")
    if args.csv:
        med_table_to_csv([(Path(args.codebook).stem, report.med)], args.csv)
    return 0


def _cmd_compare(args) -> int:
    named = {}
    for item in args.codebooks:
        name, _, path = item.partition("=")
        if not path:
            name, path = Path(item).stem, item
        if name in named:
            raise CodebookFormatError(f"codebook name {name!r} given twice")
        named[name] = read_codebook(path)
    rows = compare_codebooks(named)
    width = max(len(n) for n in named)
    for name, med in rows:
        print(f"{name:<{width}}  {med:.6g}")
    if args.csv:
        med_table_to_csv(rows, args.csv)
    return 0


def _cmd_ber(args) -> int:
    cb = read_codebook(args.codebook).normalized()
    decoder = None
    if args.detector == "neural":
        if not args.model:
            raise CodebookFormatError("--model checkpoint is required for the neural detector")
        _, decoder, _, _ = load_checkpoint(args.model)
    out = args.out
    if not out:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        out = Path(args.out_dir) / f"ber_{Path(args.codebook).stem}_{args.detector}.csv"
    elif not Path(out).parent.is_dir():  # checked before the simulation, not after it
        raise ConfigError(f"--out {out}: directory {Path(out).parent} does not exist")
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
    ber_curve_to_csv(curve, out)
    print(f"wrote {out}")
    return 0


def _cmd_train(args) -> int:
    exp = read_experiment_config(args.config)
    train_cfg = exp.train
    if args.seed is not None:
        from dataclasses import replace

        train_cfg = replace(train_cfg, seed=args.seed)
    init_path = exp.paths.init_codebook
    init_cb = None
    if init_path:
        candidate = Path(init_path)
        if not candidate.exists():
            candidate = Path(args.config).parent / init_path
        init_cb = read_codebook(candidate)
    gen, decoder = default_init(exp.system, exp.indicator, train_cfg, init_cb)
    report = train(train_cfg, exp.system, exp.indicator, gen, decoder,
                   progress_every=args.progress)
    if report.aborted:
        print(f"training aborted: {report.abort_reason}", file=sys.stderr)
    med = compute_med(report.codebook).med
    print(
        f"trained {report.iterations_run} iterations in {report.wall_seconds:.1f} s, "
        f"final loss {report.losses[-1]:.4f}, learned codebook med {med:.4f}"
    )
    out = Path(exp.paths.output_dir) if not args.out_dir else Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": exp.config_hash(), "seed": train_cfg.seed,
            "iterations": report.iterations_run, "aborted": report.aborted}
    ckpt = out / "checkpoint.bin"
    save_checkpoint(ckpt, report.generators, report.decoder, exp.indicator, meta)
    cb_path = out / "learned_codebook.json"
    write_codebook(cb_path, report.codebook, name="learned", seed=train_cfg.seed)
    trace = out / "loss_trace.csv"
    with open(trace, "w") as fh:
        fh.write("iteration,loss,learning_rate\n")
        for i, (l, lr) in enumerate(zip(report.losses, report.learning_rates), start=1):
            fh.write(f"{i},{l!r},{lr!r}\n")
    print(f"wrote {ckpt}, {cb_path}, {trace}")
    return 0 if not report.aborted else 2


def _cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
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
    gen, _, ind, meta = load_checkpoint(args.checkpoint)
    write_codebook(args.out, learned_codebook(gen, ind), name=args.name, seed=meta.get("seed"))
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
