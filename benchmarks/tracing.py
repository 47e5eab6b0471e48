"""In-process tracing for the scmalink benchmark.

The tracer swaps the module and class attributes through which one scmalink
layer calls another for timing wrappers, keeps every span in memory, and puts
the original attributes back afterwards. Nothing under src/ is edited: the
wrappers exist only in the benchmark process, and only while tracing is on.

A span is (name, start, end, parent, extra): `parent` is the index of the
enclosing span (-1 at top level) and `extra` a number the wrapper derived from
the call's arguments (rows, flop, array counts). The layer of a span is the
part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("core", "encoder", "channel", "mpa", "nn", "training", "metrics", "fileio")
DEPTHS = ("trunk0", "trunk1", "sub0", "sub1", "sub2", "sub3")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attr, original)
        self.missing = []  # "owner.attr" names that were not there to wrap

    def patch(self, owner, attr, name, extra=None):
        """Replace owner.attr by a timing wrapper.

        `name` is a span name or a function of the call's positional
        arguments; `extra` maps the positional arguments to a number.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (
                    name(args) if callable(name) else name,
                    t0,
                    t1,
                    parent,
                    extra(args) if extra else 0,
                )

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def since(self, start):
        """Spans recorded from index `start` on, parents re-indexed to match."""
        return [(name, t0, t1, parent - start if parent >= start else -1, extra)
                for name, t0, t1, parent, extra in self.spans[start:]]

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def unrestored(self):
        """Wrapped attributes that do not hold their original object."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patched
            if owner.__dict__.get(attr) is not original
        ]

    def write(self, path, max_spans=20_000):
        """A per-name summary line, then the first `max_spans` spans, one JSON
        line each, times in seconds from the first span."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summarize(self.spans), "spans": len(self.spans)}) + "\n")
            for name, t0, t1, parent, extra in self.spans[:max_spans]:
                fh.write(json.dumps({"name": name, "start": t0 - t_base, "end": t1 - t_base,
                                     "parent": parent, "extra": extra}) + "\n")


def install(tracer, depth_of_shape):
    """Wrap every cross-layer call site the benchmark's workloads reach.

    `depth_of_shape` maps a dense layer's weight shape to its depth label.
    """
    from scmalink import channel, fileio, metrics, mpa, nn, training

    def rows(args):
        return args[0].shape[0]

    def dense(kind):
        return lambda args: f"nn.{kind}[{depth_of_shape.get(args[0].weights.shape, '?')}]"

    def decoder_flop(factor):
        # multiply-adds per sample from the decoder's own widths, times rows
        def flop(args):
            dec, x = args[0], args[1]
            chain, sub = dec.widths()
            macs = sum(a * b for a, b in zip(chain, chain[1:]))
            macs += dec.n_users * sum(a * b for a, b in zip(sub, sub[1:]))
            n = x.shape[0] if getattr(x, "ndim", 1) > 1 else 1
            return factor * n * macs
        return flop

    def med_pairs(args):
        cfg = args[0].config
        n = cfg.M**cfg.J
        return n * (n - 1) // 2

    for name, attr in (("training.train", "train"),
                       ("training.loss_and_gradients", "_loss_and_gradients"),
                       ("training.encoder_forward", "_encoder_forward"),
                       ("training.labels", "_labels_from_bits"),
                       ("nn.cross_entropy", "cross_entropy"),
                       ("encoder.normalize", "normalize"),
                       ("encoder.codeword_table", "codeword_table"),
                       ("channel.ebn0_to_n0", "ebn0_to_n0")):
        tracer.patch(training, attr, name)
    tracer.patch(training, "adam_step", "nn.adam_step", extra=lambda args: len(args[0]))

    tracer.patch(nn.MultiTaskDecoder, "forward", "nn.decoder_forward", extra=decoder_flop(2))
    tracer.patch(nn.MultiTaskDecoder, "backward_cross_entropy", "nn.decoder_backward",
                 extra=decoder_flop(4))
    tracer.patch(nn.DenseLayer, "forward", dense("dense_forward"))
    tracer.patch(nn.DenseLayer, "backward", dense("dense_backward"))
    tracer.patch(nn.DenseLayer, "backward_preact", dense("dense_backward_preact"))

    tracer.patch(metrics, "compute_med", "metrics.compute_med", extra=med_pairs)
    tracer.patch(metrics, "simulate_ber", "metrics.simulate_ber")
    tracer.patch(metrics, "apply_channel", "channel.apply_channel")
    tracer.patch(metrics, "split_real", "channel.split_real")
    tracer.patch(metrics, "ebn0_to_n0", "channel.ebn0_to_n0")
    tracer.patch(channel, "sample_noise_split", "channel.noise")
    tracer.patch(channel, "split_real", "channel.split_real")
    for owner in (metrics, mpa):
        tracer.patch(owner, "superimposed_constellation", "core.superimposed_constellation")
        tracer.patch(owner, "_FactorGraph", "mpa.factor_graph")
        tracer.patch(owner, "_mpa_posteriors", "mpa.posteriors", extra=rows)
        tracer.patch(owner, "_ml_decisions", "mpa.ml_decisions", extra=rows)
    tracer.patch(mpa, "PosteriorSet", "mpa.posterior_set")
    tracer.patch(mpa, "mpa_detect", "mpa.mpa_detect")
    tracer.patch(mpa, "ml_detect", "mpa.ml_detect")

    for attr in ("read_codebook", "load_checkpoint", "save_checkpoint"):
        tracer.patch(fileio, attr, f"fileio.{attr}")


def summarize(spans):
    """Per span name: call count, total time, total self time, summed extra."""
    child_time = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0})
    for idx, (name, t0, t1, parent, extra) in enumerate(spans):
        s = out[name]
        s["calls"] += 1
        s["total"] += t1 - t0
        s["self"] += t1 - t0 - child_time[idx]
        s["extra"] += extra
    return out


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return {"nn.gflops": "GFLOP/s", "nn.gflop.computed": "GFLOP",
            "mpa.ml_bytes_per_vector": "bytes", "trace.overhead_share": "ratio"}.get(name, "count")


def per_layer_metrics(spans, units, fileio_spans, ml_bytes, overhead_share):
    """The per-layer metrics, each per work unit of the workload.

    `spans` are the traced ops' spans, `units` the work units they did,
    `fileio_spans` the spans of the traced set-up file reads (reported per
    call), `ml_bytes` the measured peak bytes of one single-vector ML search
    (0 when the workload runs no ML search).
    """
    s = summarize(spans)  # a defaultdict: names never called read as zeros

    def total(name):
        return s[name]["total"]

    def selft(name):
        return s[name]["self"]

    def calls(name):
        return s[name]["calls"]

    def extra(name):
        return s[name]["extra"]

    def per_unit_ms(seconds):
        return 1e3 * seconds / units

    m = {}
    for layer in LAYERS:
        if layer != "fileio":  # set-up only; reported per call below
            m[f"{layer}.self_ms"] = per_unit_ms(
                sum(v["self"] for k, v in list(s.items()) if k.split(".")[0] == layer))

    dense_calls = 0
    for d in DEPTHS:
        # a relu layer's backward encloses its backward_preact; a softmax
        # head's backward_preact is called directly
        m[f"nn.fwd_ms.{d}"] = per_unit_ms(total(f"nn.dense_forward[{d}]"))
        m[f"nn.bwd_ms.{d}"] = per_unit_ms(
            total(f"nn.dense_backward_preact[{d}]") + selft(f"nn.dense_backward[{d}]"))
        dense_calls += calls(f"nn.dense_forward[{d}]") + calls(f"nn.dense_backward_preact[{d}]")
    m["nn.forward_ms"] = per_unit_ms(total("nn.decoder_forward"))
    m["nn.backward_ms"] = per_unit_ms(total("nn.decoder_backward"))
    m["nn.cross_entropy_ms"] = per_unit_ms(total("nn.cross_entropy"))
    m["nn.adam_ms"] = per_unit_ms(total("nn.adam_step"))
    m["nn.dense_calls"] = dense_calls / units
    m["nn.adam_arrays"] = extra("nn.adam_step") / calls("nn.adam_step") if calls("nn.adam_step") else 0
    flop = extra("nn.decoder_forward") + extra("nn.decoder_backward")
    m["nn.gflop.computed"] = flop / units / 1e9
    decoder_time = total("nn.decoder_forward") + total("nn.decoder_backward")
    m["nn.gflops"] = flop / decoder_time / 1e9 if decoder_time else 0.0

    m["training.encoder_forward_ms"] = per_unit_ms(total("training.encoder_forward"))
    m["training.labels_ms"] = per_unit_ms(total("training.labels"))
    m["training.generator_grad_self_ms"] = per_unit_ms(selft("training.loss_and_gradients"))
    m["training.loop_self_ms"] = per_unit_ms(selft("training.train"))

    # self times: on one-vector calls the graph and the constellation are
    # built inside these two, and are reported on their own
    post = selft("mpa.posteriors")
    m["mpa.posteriors_ms"] = per_unit_ms(post)
    m["mpa.vectors_per_s"] = extra("mpa.posteriors") / post if post else 0.0
    m["mpa.graph_build_ms"] = per_unit_ms(total("mpa.factor_graph"))
    m["mpa.graph_builds"] = calls("mpa.factor_graph") / units
    m["mpa.posterior_set_ms"] = per_unit_ms(total("mpa.posterior_set"))
    ml = selft("mpa.ml_decisions")
    m["mpa.ml_ms"] = per_unit_ms(ml)
    m["mpa.ml_vectors_per_s"] = extra("mpa.ml_decisions") / ml if ml else 0.0
    m["mpa.ml_bytes_per_vector"] = ml_bytes

    m["core.constellation_ms"] = per_unit_ms(total("core.superimposed_constellation"))
    m["core.constellation_builds"] = calls("core.superimposed_constellation") / units

    m["metrics.med_self_ms"] = per_unit_ms(selft("metrics.compute_med"))
    m["metrics.med_pairs.computed"] = extra("metrics.compute_med") / units
    m["metrics.ber_self_ms"] = per_unit_ms(selft("metrics.simulate_ber"))

    m["channel.apply_ms"] = per_unit_ms(total("channel.apply_channel"))
    m["channel.noise_ms"] = per_unit_ms(total("channel.noise"))

    f = summarize(fileio_spans)
    for attr in ("read_codebook", "load_checkpoint"):
        v = f.get(f"fileio.{attr}")
        m[f"fileio.{attr}_ms"] = 1e3 * v["total"] / v["calls"] if v else 0.0

    m["trace.overhead_share"] = overhead_share
    m["trace.spans_per_unit"] = len(spans) / units
    return m
