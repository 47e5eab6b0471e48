"""Workload bodies of the scmalink benchmark.

run.py starts this file as a child process, from the root of a source
checkout, with the BLAS thread count fixed in its environment. It imports the
package from ./src, builds the workload's inputs from the workload seed, then
runs a closed loop: one caller that waits for each operation before making
the next. Every operation's output is checked after the loop against values
recorded in expected.json or against the batched detector on the same input.

    python3 benchmarks/workloads.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmarks/workloads.py --workload NAME --seed N --setup-only

The last stdout line is a JSON object: "correct", "attempted", "failed",
"metrics" and "env" (run.py strips "env" into the run record).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from scmalink import channel, core, data_path, fileio, metrics, mpa, training  # noqa: E402

import tracing  # noqa: E402

EBN0_DB = 8.0
BER_BATCH = 2000
# bits per simulate_ber point; a chunk is 2000 vectors of 12 bits
BER_BITS = {"mpa": 2 * 24000, "ml": 24000, "neural": 10 * 24000}
BER_SEEDS = 64  # simulation seeds with recorded error counts
TRAIN_STEPS = 20  # training steps per timed train() call
TRAIN_BATCH = 1000
TRAIN_REF_SEED = 7
DETECT_VECTORS = 256
# relative tolerances for recorded floating-point values; error counts and
# decisions must match exactly
MED_RTOL = 1e-12
LEARNED_MED_RTOL = 1e-6


@functools.cache
def expected():
    """Values recorded with the benchmark (see record.py)."""
    return json.loads((BENCH_DIR / "expected.json").read_text())


def huawei():
    return fileio.read_codebook(data_path("huawei_4x6.json"))


def write_and_load_decoder(workdir, cb):
    """The seed-7 default_init decoder after a checkpoint round trip."""
    gen, dec = training.default_init(cb.config, cb.indicator,
                                     training.TrainConfig(seed=TRAIN_REF_SEED), cb)
    path = Path(workdir) / "decoder.ckpt"
    fileio.save_checkpoint(path, gen, dec, cb.indicator)
    _, loaded, _, _ = fileio.load_checkpoint(path)
    path.unlink()
    return loaded


class Train:
    """default_init from the Huawei codebook, then train() at batch 1000.

    Each op is one train() call of TRAIN_STEPS steps on the paper
    configuration (M=4, Eb/N0 ~ U(5, 11) dB). Op 0 uses training seed 7, whose
    learned MED is recorded; later ops use seeds derived from the workload
    seed. Per-step cost does not depend on the seed or the step count.
    """

    unit = "training step"
    calibrated = True

    def __init__(self, seed, workdir):
        self.seed = seed
        self.load(workdir)
        self.init = training.default_init(self.cb.config, self.ind, self.config(0), self.cb)

    def load(self, workdir):
        self.cb = huawei()
        self.ind = self.cb.indicator

    def decoders(self):
        return [self.init[1]]

    def config(self, i):
        seed = TRAIN_REF_SEED if i == 0 else int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return training.TrainConfig(seed=seed, n_iterations=TRAIN_STEPS, batch_size=TRAIN_BATCH)

    def prepare(self, i):
        cfg = self.config(i)
        if i == 0:
            gen, dec = self.init[0], copy.deepcopy(self.init[1])
        else:
            gen, dec = training.default_init(self.cb.config, self.ind, cfg, self.cb)
        return cfg, gen, dec

    def run(self, prep):
        cfg, gen, dec = prep
        return training.train(cfg, self.cb.config, self.ind, gen, dec)

    def items(self, out):
        return out.iterations_run * TRAIN_BATCH

    def units(self, out):
        return out.iterations_run

    def check(self, i, out):
        errs = []
        if out.aborted or out.iterations_run != TRAIN_STEPS:
            errs.append(f"op {i}: ran {out.iterations_run} of {TRAIN_STEPS} steps ({out.abort_reason})")
        if not np.all(np.isfinite(out.losses)):
            errs.append(f"op {i}: non-finite loss")
        if i == 0:
            med = metrics.compute_med(out.codebook).med
            want = expected()["train"]["learned_med"]
            if not abs(med - want) <= LEARNED_MED_RTOL * want:
                errs.append(f"op 0: learned MED {med!r}, recorded {want!r}")
        return errs

    @staticmethod
    def same(a, b):
        return np.array_equal(a.losses, b.losses) and np.array_equal(a.codebook.entries, b.codebook.entries)


class Med:
    """compute_med on the normalized Huawei codebook.

    Op i relabels each user's messages by a permutation drawn from the
    workload seed. That reorders the 4096 constellation points but leaves
    the set of pairwise distances, and so the MED, bit for bit unchanged.
    """

    unit = "compute_med call"
    calibrated = False

    def __init__(self, seed, workdir):
        self.seed = seed
        self.load(workdir)

    def load(self, workdir):
        self.cb = huawei().normalized()

    def decoders(self):
        return []

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i])
        cfg = self.cb.config
        entries = np.stack([self.cb.entries[j][:, rng.permutation(cfg.M)] for j in range(cfg.J)])
        return core.Codebook(entries=entries, config=cfg, indicator=self.cb.indicator)

    def run(self, cb):
        return metrics.compute_med(cb)

    def items(self, out):
        return out.phi_size * (out.phi_size - 1) // 2

    def units(self, out):
        return 1

    def check(self, i, out):
        want = expected()["huawei_med"]
        if not abs(out.med - want) <= MED_RTOL * want:
            return [f"op {i}: MED {out.med!r}, recorded {want!r}"]
        return []

    @staticmethod
    def same(a, b):
        return a.med == b.med and a.arg_pair == b.arg_pair


def ber_point(cb, detector, ber_seed, decoder=None):
    """One fixed-budget BER point: min_errors above the budget, so the
    amount of work does not depend on detection quality."""
    bits = BER_BITS[detector]
    curve = metrics.simulate_ber(cb, detector, [EBN0_DB], min_errors=bits + 1, max_bits=bits,
                                 seed=ber_seed, decoder=decoder, batch_size=BER_BATCH, workers=1)
    return curve.points[0]


class _DetectorWorkload:
    """Shared set-up of the workloads that run one detector."""

    def load(self, workdir):
        raw = huawei()
        self.cb = raw.normalized()
        self.decoder = write_and_load_decoder(workdir, raw) if self.detector == "neural" else None

    def decoders(self):
        return [self.decoder] if self.decoder is not None else []


class Ber(_DetectorWorkload):
    """One simulate_ber point at 8 dB, batch 2000, one worker.

    Each point has a fixed bit budget and min_errors above it, so the work
    does not depend on detection quality. Op i uses simulation seed
    (workload seed + i) mod the number of recorded seeds; its error count
    must equal the recorded one.
    """

    unit = "2000-vector chunk"

    def __init__(self, detector, seed, workdir):
        self.detector = detector
        self.seed = seed
        self.calibrated = detector != "ml"
        self.bits = BER_BITS[detector]
        self.load(workdir)

    def prepare(self, i):
        return (self.seed + i) % BER_SEEDS

    def run(self, ber_seed):
        p = ber_point(self.cb, self.detector, ber_seed, self.decoder)
        return ber_seed, p.bit_errors, p.bits

    def items(self, out):
        return out[2]

    def units(self, out):
        return out[2] // (BER_BATCH * self.cb.config.J * self.cb.config.bits_per_symbol)

    def check(self, i, out):
        ber_seed, errors, bits = out
        want = expected()["ber_errors"][self.detector][ber_seed]
        if bits != self.bits or errors != want:
            return [f"op {i}: seed {ber_seed}: {errors} errors in {bits} bits, "
                    f"recorded {want} in {self.bits}"]
        return []

    @staticmethod
    def same(a, b):
        return a == b


class Detect(_DetectorWorkload):
    """One pre-generated received vector through one detector per op.

    Vectors are random message tuples through the normalized Huawei
    codebook plus AWGN at 8 dB, drawn from the workload seed. Each decision
    must equal the batched detector's decision for the same vector.
    """

    unit = "detection"
    calibrated = True

    def __init__(self, detector, seed, workdir):
        self.detector = detector
        self.load(workdir)
        cb = self.cb
        self.ch = channel.ChannelRealization.awgn(cb.config.K, channel.ebn0_to_n0(EBN0_DB, cb.config.M))
        rng = np.random.default_rng([seed, 1])
        msgs = rng.integers(0, cb.config.M, size=(DETECT_VECTORS, cb.config.J))
        tx = sum(cb.entries[j].T[msgs[:, j]] for j in range(cb.config.J))
        self.received = channel.apply_channel(tx, self.ch, rng)

    def prepare(self, i):
        return i % DETECT_VECTORS

    def run(self, v):
        r = self.received[v]
        if self.detector == "mpa":
            return v, mpa.mpa_detect(r, self.cb, self.ch).hard_decisions()
        if self.detector == "ml":
            return v, mpa.ml_detect(r, self.cb, self.ch)
        return v, np.argmax(self.decoder.forward(channel.split_real(r)), axis=1)

    def items(self, out):
        return 1

    def units(self, out):
        return 1

    def reference(self):
        """Batched decisions for every pre-generated vector."""
        if not hasattr(self, "_ref"):
            r = self.received
            if self.detector == "mpa":
                self._ref = np.argmax(mpa._mpa_posteriors(r, self.cb, self.ch, mpa.MpaConfig()), axis=2)
            elif self.detector == "ml":
                self._ref = mpa._ml_decisions(r, self.cb, self.ch)
            else:
                self._ref = np.argmax(self.decoder.forward(channel.split_real(r)), axis=2)
        return self._ref

    def check(self, i, out):
        v, dec = out
        want = self.reference()[v]
        if not np.array_equal(dec, want):
            return [f"op {i}: vector {v}: decision {dec.tolist()}, batched {want.tolist()}"]
        return []

    @staticmethod
    def same(a, b):
        return a[0] == b[0] and np.array_equal(a[1], b[1])


WORKLOADS = {
    "train": Train,
    "evaluate.med": Med,
    "evaluate.mpa": lambda seed, wd: Ber("mpa", seed, wd),
    "evaluate.ml": lambda seed, wd: Ber("ml", seed, wd),
    "evaluate.neural": lambda seed, wd: Ber("neural", seed, wd),
    "detect_single.mpa": lambda seed, wd: Detect("mpa", seed, wd),
    "detect_single.ml": lambda seed, wd: Detect("ml", seed, wd),
    "detect_single.neural": lambda seed, wd: Detect("neural", seed, wd),
}


# Host speed on a shared machine drifts by up to 2x over seconds. Core-bound
# work (small numpy calls, interpreter overhead, GEMMs) slows down together
# with a fixed kernel of the same kind, so for workloads marked `calibrated`
# each block of ops is bracketed by runs of that kernel, and an op's time
# divided by the kernel's local slowdown against CALIBRATION_REF_S is its time
# at the reference speed. Memory-bound workloads (MED, the ML search) do not
# track the kernel, and are reported as timed.
CALIBRATION_REF_S = 2.4e-3  # a kernel time on a 2-core x86-64 box; sets the scale only
CALIBRATION_BLOCK_S = 0.2  # op time between kernel runs
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.normal(size=(64, 64))
_CAL_X = _CAL_RNG.normal(size=64)
_CAL_B = _CAL_RNG.normal(size=(1000, 64))


def calibration_seconds(warm_up=False):
    """Time of one run of the fixed calibration kernel: small matrix-vector
    products with interpreter overhead, then batch-1000 GEMMs. The first run
    in a process is slower, so `warm_up` runs the kernel once untimed first."""
    if warm_up:
        calibration_seconds()
    t0 = time.perf_counter()
    for _ in range(200):
        float(np.tanh(_CAL_A @ _CAL_X).sum())
    for _ in range(5):
        y = np.maximum(_CAL_B @ _CAL_A, 0.0)
        float((y * y).sum())
    return time.perf_counter() - t0


def closed_loop(w, seconds=None, n_ops=None):
    """Run ops back to back until `seconds` pass or `n_ops` ops are done.

    Returns (op index, seconds, output, slowdown) per op; only the call itself
    is timed. `slowdown` is the mean calibration time of the runs before and
    after the op's block, over CALIBRATION_REF_S, or 1 for a workload that is
    not calibrated.
    """
    def calibrate(warm_up=False):
        return calibration_seconds(warm_up) if w.calibrated else CALIBRATION_REF_S

    samples = []
    block = []
    clock = time.perf_counter
    deadline = clock() + seconds if seconds is not None else None
    cal_before = calibrate(warm_up=True)
    block_start = clock()
    i = 0
    while (i < n_ops) if n_ops is not None else (i == 0 or clock() < deadline):
        prep = w.prepare(i)
        t0 = clock()
        out = w.run(prep)
        block.append((i, clock() - t0, out))
        i += 1
        last = (i >= n_ops) if n_ops is not None else clock() >= deadline
        if last or clock() - block_start >= CALIBRATION_BLOCK_S:
            cal_after = calibrate()
            slowdown = (cal_before + cal_after) / 2 / CALIBRATION_REF_S
            samples += [(j, dt, o, slowdown) for j, dt, o in block]
            block, cal_before, block_start = [], cal_after, clock()
    return samples


def check_all(w, samples):
    """Failed checks per op; an op with any failed check is a failed op."""
    return [errs for errs in (w.check(i, out) for i, _, out, _ in samples) if errs]


def depth_of_shape(decoders):
    """Depth label of each dense layer weight shape of the given decoders."""
    labels = {}
    for dec in decoders:
        layers = list(getattr(dec, "shared", [])) + list(getattr(dec, "subnets", [[]])[0])
        for label, layer in zip(tracing.DEPTHS, layers):
            labels[layer.weights.shape] = label
    return labels


def ml_bytes_per_vector(w):
    """Peak bytes numpy allocates in one single-vector ML search.

    The constellation is built beforehand, so the peak covers the distance
    temporaries only. Allocation sizes are deterministic, so this repeats
    exactly.
    """
    pts = core.superimposed_constellation(w.cb)
    ch = channel.ChannelRealization.awgn(w.cb.config.K, 1.0)
    r = np.zeros((1, w.cb.config.K), dtype=complex)
    tracemalloc.start()
    try:
        mpa._ml_decisions(r, w.cb, ch, points=pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_run(w, seconds, workdir, trace_path):
    """Plain ops for half the time, then the same ops again under the tracer.

    Returns (samples of both phases, per-layer metrics, failed checks).
    """
    plain = closed_loop(w, seconds=seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer, depth_of_shape(w.decoders()))
    try:
        w.load(workdir)
        setup_spans = tracer.since(0)
        n_setup = len(tracer.spans)
        traced = closed_loop(w, n_ops=len(plain))
        op_spans = tracer.since(n_setup)
    finally:
        tracer.restore()
    errs = [f"attribute not restored: {a}" for a in tracer.unrestored()]
    for (i, _, a, _), (_, _, b, _) in zip(plain, traced):
        if not w.same(a, b):
            errs.append(f"op {i}: traced output differs from the plain output")
    tracer.write(trace_path)
    units = sum(w.units(out) for _, _, out, _ in traced)
    ml_bytes = ml_bytes_per_vector(w) if any(s[0] == "mpa.ml_decisions" for s in op_spans) else 0
    overhead = reference_seconds(traced) / reference_seconds(plain) - 1.0
    per_layer = {k: {"value": v, "unit": tracing.unit(k)} for k, v in
                 tracing.per_layer_metrics(op_spans, units, setup_spans, ml_bytes, overhead).items()}
    if tracer.missing:
        print("not traced (attribute missing): " + ", ".join(tracer.missing), file=sys.stderr)
    return plain + traced, per_layer, errs


def reference_seconds(samples):
    """Total op time at the calibration reference speed."""
    return sum(dt / slowdown for _, dt, _, slowdown in samples)


def throughput(w, samples):
    """Items per second of the median op, at the calibration reference speed."""
    return float(np.median([w.items(out) * slowdown / dt for _, dt, out, slowdown in samples]))


def wall_throughput(w, samples):
    """Items per second of the median op, as timed."""
    return float(np.median([w.items(out) / dt for _, dt, out, _ in samples]))


def quantiles(values):
    qs = (0, 10, 25, 50, 75, 90, 99, 100)
    return dict(zip((f"p{q}" for q in qs), np.percentile(values, qs).tolist()))


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            # run.py takes the set-up time from its own start time and `ready`
            # (wall clock, shared by processes), and puts it at reference speed
            ready = time.time()
            slowdown = calibration_seconds(warm_up=True) / CALIBRATION_REF_S
            print(json.dumps({"ready": ready, "slowdown": slowdown}))
            return 0
        if args.trace:
            samples, metric_values, trace_errs = traced_run(w, args.seconds, workdir, args.trace_out)
        else:
            samples = closed_loop(w, seconds=args.seconds)
            metric_values = {"throughput": {"value": throughput(w, samples), "unit": "1/s"}}
            trace_errs = []
    failures = check_all(w, samples)
    # the traced run's neutrality and restore checks count as one more op
    attempted = len(samples) + args.trace
    if trace_errs:
        failures.append(trace_errs)
    for e in [e for errs in failures for e in errs][:20]:
        print(f"check failed: {e}", file=sys.stderr)
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_values,
        "env": dict(environment(), ops=len(samples), unit=w.unit,
                    wall_throughput=wall_throughput(w, samples),
                    op_seconds=quantiles([dt for _, dt, _, _ in samples]),
                    slowdown=quantiles([sd for _, _, _, sd in samples])),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
