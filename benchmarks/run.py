"""scmalink benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from ./src,
so nothing needs to be installed. The runner starts every workload process
with the BLAS thread count fixed to BLAS_THREADS, so that one source of
spread is gone and the count is known.

With --trace 0 it first starts SETUP_REPEATS fresh processes that only set
the workload up (imports, reading the codebook, building the initial state,
generating inputs) and reports their median time as setup_s, at the
reference speed of the calibration kernel in workloads.py. Then one process
runs the workload for T seconds and reports throughput. With
--trace 1 one process runs the workload plain for T/2 seconds and the same
operations again under the tracer, and reports the per-layer metrics.

Standard output ends with two JSON lines: the run record (code identity, seed,
environment, op-time quantiles), then the result object. The record is also
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170  # the whole run, set-up processes included
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_SCRIPT = BENCH_DIR / "workloads.py"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, deadline):
    """Run a workload process to completion; kill it at the deadline."""
    proc = subprocess.Popen([sys.executable, str(WORKLOAD_SCRIPT)] + args, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return out


def setup_seconds(workload, seed, deadline):
    """Median set-up time of fresh processes that only set the workload up.

    Each process's wall time, from its start to the end of its set-up, is
    divided by the host slowdown the process measured with the calibration
    kernel right after. Returns the median and the (wall seconds, slowdown)
    samples.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        out = json.loads(run_child(["--workload", workload, "--seed", str(seed), "--setup-only"],
                                   deadline).strip().splitlines()[-1])
        samples.append((out["ready"] - t0, out["slowdown"]))
    return statistics.median(wall / slowdown for wall, slowdown in samples), samples


def code_identity():
    """Git commit when the checkout is a repository, and a hash of src/."""
    sha = None
    if Path(".git").exists():  # else git would look in parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for p in sorted(Path("src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p).encode() + b"\0" + p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="scmalink benchmark runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (Path("src") / "scmalink" / "__init__.py").is_file():
        sys.exit("src/scmalink not found: run from the root of a scmalink source checkout")
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **code_identity()}
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        child_args += ["--trace-out", str(out_dir / f"{stem}.spans.jsonl")]
    else:
        record["setup_s"], record["setup_samples_s"] = setup_seconds(args.workload, args.seed, deadline)
    result = json.loads(run_child(child_args, deadline).strip().splitlines()[-1])
    record.update(result.pop("env"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": record["setup_s"], "unit": "s"}
    record["result"] = result
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "result"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
