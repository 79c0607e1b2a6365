"""Per-layer tracing of megsim from outside the package.

A :class:`Tracer` wraps the public functions of every megsim module where
their callers look them up, records one span per call and keeps per-span
totals in memory: call count, inclusive time (``.s``) and self time
(``.self_s``, the span minus the time its child spans cover). Counters such
as rows or symbols are taken at the same boundaries. Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

``SPANS`` is the single table of what is traced. Each entry names the
workloads that exercise the span and the end-to-end metric it should
move, so a trace can be read against the end-to-end numbers.
"""

import functools
import hashlib
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str            # "<module>.<function>" or "<module>.<Class>.<method>"
    fields: tuple        # metric suffixes reported for this span
    exercised_by: tuple  # workloads on which the span must record calls
    moves: str           # end-to-end metric and workload the span should move


SPANS = (
    Span("nn.Adam.step", ("calls", "self_s", "elements"), ("train", "power"),
         "wall_s: train (~80 %), power (~2 %); sweep none"),
    Span("nn.DenseLayer.forward", ("calls", "rows", "self_s"),
         ("train", "sweep", "power"), "wall_s: train, sweep, power"),
    Span("nn.DenseLayer.backward", ("calls", "self_s"), ("train", "power"),
         "wall_s: train, power"),
    Span("nn.save_network", ("s",), ("train",), "wall_s: train"),
    Span("nn.load_network", ("s",), ("sweep", "power"),
         "setup_s: sweep, power"),
    Span("genmodel.train_autoencoder", ("s",), ("train",), "wall_s: train"),
    Span("genmodel.train_denoiser", ("s",), ("train",), "wall_s: train"),
    Span("genmodel.generate_latent", ("calls", "s"),
         ("sweep", "power", "train"),
         "wall_s: sweep; power env construction; train codec stage"),
    Span("genmodel.Denoiser.predict", ("calls", "self_s"),
         ("sweep", "power", "train"),
         "wall_s: sweep; power env construction; train codec stage"),
    Span("genmodel.AutoencoderPair.decode", ("calls", "rows", "self_s"),
         ("sweep", "power"), "wall_s: power, sweep"),
    Span("seedcodec.train_codec", ("s",), ("train",), "wall_s: train"),
    Span("seedcodec.CodecPair.compress", ("calls", "self_s"),
         ("sweep", "power"), "wall_s: sweep, power"),
    Span("seedcodec.CodecPair.decompress", ("calls", "self_s"), ("sweep",),
         "wall_s: sweep"),
    Span("seedcodec.CodecPair.decode_flat", ("calls", "self_s"),
         ("sweep", "power"), "wall_s: sweep, power"),
    Span("channel.transmit", ("calls", "symbols", "self_s"), ("sweep",),
         "wall_s: sweep only"),
    Span("channel.equalize", ("calls", "self_s", "erasures"),
         ("sweep", "power"), "wall_s: sweep, power"),
    Span("protocol.run_end_to_end", ("calls", "s"), ("sweep",),
         "wall_s: sweep"),
    Span("protocol.es_handle_request", ("calls", "s"), ("sweep", "power"),
         "wall_s: sweep; power env construction"),
    Span("protocol.transmit_stream", ("self_s",), ("sweep",), "wall_s: sweep"),
    Span("protocol.recover_stream", ("self_s",), ("sweep",), "wall_s: sweep"),
    Span("protocol.ue_receive", ("s",), ("sweep",), "wall_s: sweep"),
    Span("metrics.fid", ("calls", "s"), ("power", "sweep"),
         "wall_s: power (~32 %), sweep (~5 %)"),
    Span("metrics.frechet_distance", ("calls", "self_s"), ("power", "sweep"),
         "wall_s: power (~32 %), sweep (~5 %)"),
    Span("metrics.FeatureExtractor.extract",
         ("calls", "rows", "self_s", "repeat_share"), ("power", "sweep"),
         "wall_s: power"),
    Span("power_rl.SeedTransmissionEnv.rollout", ("calls", "self_s"),
         ("power",), "wall_s: power"),
    Span("power_rl.SeedTransmissionEnv.step", ("calls", "self_s"),
         ("power",), "wall_s: power"),
    Span("power_rl.PpoAgent.act", ("calls", "self_s"), ("power",),
         "wall_s: power"),
    Span("power_rl.ppo_update", ("calls", "s"), ("power",), "wall_s: power"),
    Span("power_rl.evaluate", ("calls", "s"), ("power",), "wall_s: power"),
    Span("experiments.load_bundle", ("calls", "s"), ("sweep", "power"),
         "setup_s: sweep, power; wall_s: sweep (loads the bundle twice)"),
    Span("experiments.cmd_train", ("s",), ("train",), "root span of train"),
    Span("experiments.cmd_sweep", ("s",), ("sweep",), "root span of sweep"),
    Span("experiments.cmd_power", ("s",), ("power",), "root span of power"),
)

# metrics that belong to no single span: (name, unit, moves)
EXTRA_METRICS = (
    ("protocol.degraded_share", "ratio",
     "degraded results / results of run_end_to_end; sweep statistics"),
    ("trace.overhead_s", "s",
     "traced minus untraced wall_s of the same workload"),
)

_UNITS = {"calls": "count", "rows": "count", "elements": "count",
          "symbols": "count", "erasures": "count", "self_s": "s", "s": "s",
          "repeat_share": "ratio"}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, moves), in report order."""
    rows = [(f"{span.name}.{field}", _UNITS[field], span.moves)
            for span in SPANS for field in span.fields]
    return rows + list(EXTRA_METRICS)


# -- counters taken at span boundaries ---------------------------------------

def _adam_elements(tracer, args, result):
    tracer.count("nn.Adam.step.elements", sum(np.size(p) for p in args[1]))


def _dense_rows(tracer, args, result):
    x = np.asarray(args[1])
    tracer.count("nn.DenseLayer.forward.rows", 1 if x.ndim == 1 else len(x))


def _decode_rows(tracer, args, result):
    pair, latent = args[0], args[1]
    tracer.count("genmodel.AutoencoderPair.decode.rows",
                 np.size(latent) // int(np.prod(pair.latent_shape)))


def _transmit_symbols(tracer, args, result):
    tracer.count("channel.transmit.symbols", np.size(args[0]))


def _extract_rows(tracer, args, result):
    batch = np.ascontiguousarray(args[1], dtype=np.float32)
    tracer.count("metrics.FeatureExtractor.extract.rows", len(batch))
    key = (batch.shape, hashlib.blake2b(batch.tobytes(),
                                        digest_size=16).digest())
    if key in tracer.extracted:
        tracer.count("metrics.FeatureExtractor.extract.repeats", 1)
    tracer.extracted.add(key)


def _degraded(tracer, args, result):
    for generation in result.results.values():
        tracer.count("protocol.degraded_results", int(generation.degraded))
        tracer.count("protocol.results", 1)


_COUNTERS = {
    "nn.Adam.step": _adam_elements,
    "nn.DenseLayer.forward": _dense_rows,
    "genmodel.AutoencoderPair.decode": _decode_rows,
    "channel.transmit": _transmit_symbols,
    "metrics.FeatureExtractor.extract": _extract_rows,
    "protocol.run_end_to_end": _degraded,
}


class Tracer:
    """Span totals and counters for the megsim functions in ``SPANS``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.errors = defaultdict(int)      # (span name, exception type)
        self.extracted = set()
        self._open = []                     # [start, child time] per span
        self._patched = []                  # (owner, attribute, original)

    def count(self, name, amount):
        self.counters[name] += int(amount)

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            tracer._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                tracer._open.pop()
                span = end - frame[0]
                tracer.calls[name] += 1
                tracer.inclusive[name] += span
                tracer.self_time[name] += span - frame[1]
                if tracer._open:
                    tracer._open[-1][1] += span
            if counter is not None:
                counter(tracer, args, result)
                # counting is tracer work: keep it out of every open span
                spent = perf_counter() - end
                for outer in tracer._open:
                    outer[0] += spent
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every span's function at each binding its callers use."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        for span in SPANS:
            module_name, _, attr = span.name.partition(".")
            module = importlib.import_module(f"megsim.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(span.name,
                                                      owner.__dict__[method]))
                continue
            original = getattr(module, attr)
            traced = self._wrap(span.name, original)
            # ``from module import name`` copies the binding into the
            # importing module, so patch every megsim module that holds it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "megsim" \
                        and vars(mod).get(attr) is original:
                    self._patch(mod, attr, traced)

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self):
        """Per-layer values for every span metric, keyed by metric name."""
        out = {}
        for span in SPANS:
            for field in span.fields:
                key = f"{span.name}.{field}"
                if field == "calls":
                    out[key] = self.calls[span.name]
                elif field == "s":
                    out[key] = self.inclusive[span.name]
                elif field == "self_s":
                    out[key] = self.self_time[span.name]
                elif field == "erasures":
                    out[key] = self.errors[span.name, "ChannelErasure"]
                elif field == "repeat_share":
                    calls = self.calls[span.name]
                    out[key] = self.counters[f"{span.name}.repeats"] / calls \
                        if calls else 0.0
                else:
                    out[key] = self.counters[key]
        results = self.counters["protocol.results"]
        out["protocol.degraded_share"] = \
            self.counters["protocol.degraded_results"] / results \
            if results else 0.0
        return out
