"""Dense-network substrate with hand-derived gradients.

Everything runs on plain numpy arrays, float32 by default; the gradient
checks rebuild layers in float64. There is no autodiff graph: each
layer knows its own backward pass, and the optimizer steps each network's
one parameter vector. Every layer takes a 2-d batch [B, n]; one sample is
a batch of one. Without caching, ``forward`` also takes a stack [S, B, n]:
matmul makes one BLAS call per batch, so each batch gets the arithmetic of
a call of its own. Forward passes are pure functions of (parameters,
input); caching for backward is opt-out via ``cache=False`` so read-only
callers can share a network across threads.

The row count of a call can change a product's bits: on OpenBLAS 0.3.31
a [M, 128] x [128, 64] product rounds differently at M <= 17 than at
M >= 20, while every other layer shape of the desk sweep gives the same
bits at M = 16 up to 1,200. So a sweep, which serves and receives several
cells of P rows at once, runs only its two 128 -> 64 layers, the codec
encoder and the feature extractor's last layer, on the stack [S, P, n],
one call per cell. The denoiser runs on the server batch's flat rows
[S·P, n], 400 of them for the desk grid's 25 cells, and the autoencoder
decoder and the extractor's 2048 -> 128 first layer on a receiver
chunk's. That holds at the desk's P = 16; at P = 8 the denoiser's
layers, at P = 4 the decoder's first and below P = 4 the extractor's
first round differently on flat rows.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import DimensionError, StateError, TrainingError
from .util import as_rng, replace_file

ACTIVATIONS = ("none", "relu", "tanh")

_MAGIC = b"MEGN"
_FORMAT_VERSION = 1


def _batch(x, dtype, stack=False):
    """Input as a batch [B, n] of ``dtype``, or with ``stack`` [S, B, n]."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 and not (stack and x.ndim == 3):
        raise DimensionError(f"expected a 2-d batch [B, n] (or a stack [S, B, "
                             f"n] for an uncached forward), got {x.shape}")
    return x


class _Layer:
    """Parameter bookkeeping shared by the layers. A :class:`Network` turns
    the ``param_attrs`` into views of its ``flat`` and sets ``grads`` to
    views of its ``grad``: the arrays ``backward`` writes into (without
    them, ``backward`` returns new arrays)."""

    param_attrs = ()
    network = grads = None

    def params(self):
        return [getattr(self, attr) for attr in self.param_attrs]

    def param_names(self):
        return [f"{self.name}.{attr}" for attr in self.param_attrs]

    @property
    def param_count(self):
        return sum(p.size for p in self.params())

    def _cached(self):
        """What the last caching forward kept for ``backward``."""
        if self._cache is None:
            raise StateError(f"backward on {self.name!r} before forward")
        return self._cache


class DenseLayer(_Layer):
    """Fully connected layer: y = activation(x @ W.T + b).

    Weights are [out_features, in_features]; bias is [out_features].
    Weights are drawn from ``rng``; without one they start at zero, for a
    layer that :func:`load_network` fills.
    """

    kind = "dense"
    param_attrs = ("weights", "bias")

    def __init__(self, in_features, out_features, activation="none",
                 rng=None, name=None, dtype=np.float32):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.activation = activation
        self.name = name or f"dense{in_features}x{out_features}"
        self.dtype = np.dtype(dtype)
        shape = (out_features, in_features)
        if rng is None:       # a skeleton to be filled: no draws
            self.weights = np.zeros(shape, dtype=self.dtype)
        else:
            bound = np.sqrt(1.0 / in_features)
            self.weights = as_rng(rng).uniform(-bound, bound, shape) \
                .astype(self.dtype)
        self.bias = np.zeros(out_features, dtype=self.dtype)
        self._cache = None

    def descriptor(self):
        return {"kind": "dense", "in_features": self.in_features,
                "out_features": self.out_features,
                "activation": self.activation, "name": self.name}

    def forward(self, x, cache=True):
        x = _batch(x, self.dtype, stack=not cache)
        if x.shape[-1] != self.in_features:
            raise DimensionError(
                f"layer {self.name!r} expects trailing dimension "
                f"{self.in_features}, got {x.shape[-1]}")
        pre = x @ self.weights.T
        pre += self.bias
        if self.activation == "relu":
            out = np.maximum(pre, 0)
        elif self.activation == "tanh":
            out = np.tanh(pre)
        else:
            out = pre
        if cache:
            self._cache = (x, pre, out)
        return out

    def backward(self, upstream, input_grad=True):
        """Return (input_grad, weight_grad, bias_grad) for the cached forward;
        ``input_grad=False`` skips the input gradient and returns None."""
        x, pre, out = self._cached()
        g = _batch(upstream, self.dtype)
        if g.shape != pre.shape:
            raise DimensionError(
                f"upstream gradient shape {g.shape} does not match "
                f"output shape {pre.shape} of layer {self.name!r}")
        if self.activation == "relu":
            g = g * (pre > 0)
        elif self.activation == "tanh":
            g = g * (1.0 - out * out)
        grad_w, grad_b = self.grads or (None, None)
        grad_w = np.matmul(g.T, x, out=grad_w)
        grad_b = g.sum(axis=0, out=grad_b)
        if not input_grad:
            return None, grad_w, grad_b
        return g @ self.weights, grad_w, grad_b


class Normalize(_Layer):
    """Parameter-free mean/variance normalization over the trailing
    dimension."""

    kind = "normalize"

    def __init__(self, normalized_size, epsilon=1e-6, name=None, dtype=np.float32):
        self.normalized_size = int(normalized_size)
        self.epsilon = float(epsilon)
        self.name = name or f"{self.kind}{normalized_size}"
        self.dtype = np.dtype(dtype)
        self._cache = None

    def descriptor(self):
        return {"kind": self.kind, "size": self.normalized_size,
                "epsilon": self.epsilon, "name": self.name}

    def forward(self, x, cache=True):
        x = _batch(x, self.dtype, stack=not cache)
        if x.shape[-1] != self.normalized_size:
            raise DimensionError(
                f"layer {self.name!r} normalizes size {self.normalized_size}, "
                f"got trailing dimension {x.shape[-1]}")
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = centered * inv
        if cache:
            self._cache = (x_hat, inv)
        return x_hat

    def backward(self, upstream, input_grad=True):
        x_hat, inv = self._cached()
        if not input_grad:
            return (None,)
        g = _batch(upstream, self.dtype)
        n_mean = g.mean(axis=1, keepdims=True)
        proj = (g * x_hat).mean(axis=1, keepdims=True)
        return (inv * (g - n_mean - x_hat * proj),)


class LayerNorm(Normalize):
    """Normalization followed by a learned elementwise affine map."""

    kind = "layernorm"
    param_attrs = ("gain", "offset")

    def __init__(self, normalized_size, epsilon=1e-6, name=None, dtype=np.float32):
        super().__init__(normalized_size, epsilon, name, dtype)
        self.gain = np.ones(self.normalized_size, dtype=self.dtype)
        self.offset = np.zeros(self.normalized_size, dtype=self.dtype)

    def forward(self, x, cache=True):
        return self.gain * super().forward(x, cache) + self.offset

    def backward(self, upstream, input_grad=True):
        """Return (input_grad, gain_grad, offset_grad); ``input_grad=False``
        skips the input gradient and returns None."""
        x_hat, _ = self._cached()
        g = _batch(upstream, self.dtype)
        grad_gain, grad_offset = self.grads or (None, None)
        grad_gain = np.sum(g * x_hat, axis=0, out=grad_gain)
        grad_offset = g.sum(axis=0, out=grad_offset)
        if not input_grad:
            return None, grad_gain, grad_offset
        (g_x,) = super().backward(g * self.gain)
        return g_x, grad_gain, grad_offset


class Network:
    """A stack of layers applied in order, with a chained backward pass.

    The layers' parameters are views of one vector ``flat``, in params()
    order. The first backward allocates ``grad`` of the same size, which
    every later one overwrites. A layer belongs to one network.
    """

    def __init__(self, layers, name="net"):
        self.layers = list(layers)
        self.name = name
        self.flat = np.empty(self.param_count, self.layers[0].dtype)
        self.grad = None
        for layer, views in zip(self.layers, self._views(self.flat)):
            if layer.network is not None:
                raise ValueError(f"layer {layer.name!r} already belongs to "
                                 f"network {layer.network!r}")
            layer.network = name
            for attr, view in zip(layer.param_attrs, views):
                view[...] = getattr(layer, attr)
                setattr(layer, attr, view)

    def _views(self, vector):
        """``vector`` cut into one list of parameter-shaped views per layer."""
        ends = np.cumsum([p.size for p in self.params()], dtype=int)
        pieces = iter(np.split(vector, ends[:-1]))
        return [[next(pieces).reshape(p.shape) for p in layer.params()]
                for layer in self.layers]

    def bind_grad(self):
        """Allocate ``grad`` if absent, as the layers' gradient arrays."""
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
            for layer, views in zip(self.layers, self._views(self.grad)):
                layer.grads = views

    def release_grad(self):
        """Drop ``grad``: a trained network need not hold its gradients."""
        self.grad = None
        for layer in self.layers:
            layer.grads = None

    def forward(self, x, cache=True):
        for layer in self.layers:
            x = layer.forward(x, cache=cache)
        return x

    def backward(self, upstream, input_grad=True):
        """Fill ``grad``; return (input_grad, [per-parameter views of
        ``grad`` in params() order]). ``input_grad=False`` skips the first
        layer's input gradient and returns None for it."""
        self.bind_grad()
        grads = []
        g = upstream
        for i in range(len(self.layers) - 1, -1, -1):
            result = self.layers[i].backward(g, input_grad=input_grad or i > 0)
            g = result[0]
            grads[:0] = result[1:]
        return g, grads

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def param_names(self):
        return [f"{self.name}.{n}" for layer in self.layers
                for n in layer.param_names()]

    def name_at(self, index):
        """Name of the parameter that holds element ``index`` of ``flat``."""
        ends = np.cumsum([p.size for p in self.params()])
        return self.param_names()[int(np.searchsorted(ends, index, "right"))]

    def descriptors(self):
        return [layer.descriptor() for layer in self.layers]

    @property
    def param_count(self):
        return sum(layer.param_count for layer in self.layers)


# Elements per Adam work block, set by timing one step on the desk
# autoencoder's 698,816 float32 parameters (139,456 encoder and 559,360
# decoder) on a 2-core Xeon with 2 MiB of L2 per core: 1.89 ms at 65,536,
# 1.88 ms at 32,768, 2.14 ms at 16,384, 1.99 ms at 131,072 and 2.35 ms at
# 262,144. A block's six streams (p, g, m, v and two scratch blocks,
# 1.5 MiB) stay resident in L2.
ADAM_BLOCK = 65536
# Steps between flushes of first moments that are about to turn subnormal.
ADAM_FLUSH_EVERY = 16


class Adam:
    """Adam optimizer with bias correction; moments are zero-initialized.

    The moments ``m`` and ``v`` live in each parameter's own dtype: float32
    for every trained network, float64 for the gradient-checking copies. A
    gradient of another dtype is rounded to the parameter's once, on entry.
    ``step`` computes the efficient form of Kingma & Ba (arXiv:1412.6980,
    section 2) in that dtype

        m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        p -= (alpha_t m) / (sqrt(v) + eps_hat)
        alpha_t = lr sqrt(c2) / c1;  eps_hat = eps sqrt(c2)

    streaming each parameter through ``ADAM_BLOCK``-element scratch blocks
    with in-place ufuncs. Every op is elementwise and correctly rounded, so
    blocking cannot change a value. An infinite ``v`` would freeze its
    element, so a ``v`` that overflows, as a float32 one does once a
    gradient exceeds about 6e20 in magnitude, raises TrainingError; any
    other overflow in a step raises numpy's FloatingPointError.

    A unit that stops receiving gradient (a dead ReLU) decays its ``m``
    by b1 per step into subnormals, where arithmetic is many times slower.
    So every ``ADAM_FLUSH_EVERY`` steps, right after the ``m`` update,
    ``step`` zeroes each element of ``m`` that passes two tests: ``|m|``
    is below :meth:`flush_threshold`, under which ``m`` or ``alpha_t m``
    would turn subnormal before the next flush; and ``alpha_t |m| /
    eps_hat``, rounding included, is below a quarter of ``spacing(p)``,
    half the gap from ``p`` to its nearer neighbour. Under zero gradient
    that bound is the largest update the moment can still make, and it
    only shrinks (``m`` decays, ``alpha_t / eps_hat = lr / (eps c1)``
    falls), so the unflushed arithmetic never moves ``p`` either: every
    parameter stays bit-identical. A gradient that returns later meets a
    moment that differs by less than the threshold.
    """

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self._moments = None
        self._scratch = {}

    def _block(self, name, dtype, size):
        """Reusable scratch block, grown to ``size`` (at most ADAM_BLOCK)."""
        key = (name, dtype.str)
        buf = self._scratch.get(key)
        if buf is None or buf.size < size:
            buf = self._scratch[key] = np.empty(size, dtype=dtype)
        return buf

    def _rates(self):
        """(alpha_t, eps_hat_t) as Python floats, so every op that uses
        them runs in the parameter's dtype."""
        c2 = 1.0 - self.beta2 ** self.step_count
        return (self.learning_rate * math.sqrt(c2)
                / (1.0 - self.beta1 ** self.step_count),
                self.epsilon * math.sqrt(c2))

    def flush_threshold(self, dtype):
        """Magnitude below which a first moment of ``dtype``, or alpha_t
        times it, turns subnormal before the next flush; from step 1 on."""
        decay = self.beta1 ** ADAM_FLUSH_EVERY * min(1.0, self._rates()[0])
        return float(np.finfo(dtype).tiny) / decay if decay else math.inf

    def _flush_bounds(self, dtype):
        """(rate, cap, exponent mask) for :func:`_flush_moments`."""
        info = np.finfo(dtype)
        alpha, eps_hat = self._rates()
        # alpha_t (1 + margin) / eps_hat bounds each later update with the
        # rounding of its ops; 2 / eps_hat adds, for any nonzero |m|, more
        # than the absolute error of a subnormal product or quotient. The
        # scale compares with 2**floor(log2 |p|), not spacing(p) / 4.
        rate = (alpha * (1.0 + 2.0 ** -16) + 2.0 * (1.0 + eps_hat)) \
            / eps_hat * 2.0 ** (info.nmant + 2)
        x = dtype.type
        with np.errstate(over="ignore"):
            cap = x(self.flush_threshold(dtype)) * x(rate)
        return rate, cap, ~(-1 << (info.bits - 1)) & (-1 << info.nmant)

    def step(self, params, grads, names=None):
        """Update params in place from grads; returns the params list.

        A name may be a function from an element index to a label, such as
        a network's ``name_at`` when ``params`` holds its ``flat`` vector.
        Raises TrainingError naming the first parameter whose gradient holds
        a NaN or infinity in the parameter's dtype, before any parameter or
        moment changes, and naming the element whose ``v`` overflows, with
        the elements before it already stepped.
        """
        if len(grads) != len(params):
            raise ValueError(f"{len(grads)} gradients for {len(params)} "
                             "parameters")
        def label(i, element=0):
            name = names[i] if names else f"param[{i}]"
            return name(element) if callable(name) else name
        # rounded to the parameter's dtype once, on entry, so the check below
        # also refuses a float64 gradient beyond that dtype's range
        grads = [np.asarray(g, dtype=p.dtype) for p, g in zip(params, grads)]
        for i, g in enumerate(grads):
            if not np.isfinite(g).all():
                bad = label(i, int(np.argmin(np.isfinite(g))))
                raise TrainingError(f"non-finite gradient for {bad}")
        for i, (p, g) in enumerate(zip(params, grads)):
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {label(i)} is not C-contiguous; "
                                 "Adam updates it through a flat view")
            if g.size != p.size:
                raise ValueError(f"gradient for {label(i)} has {g.size} "
                                 f"elements, parameter has {p.size}")
        if self._moments is None:
            self._moments = [(np.zeros_like(p), np.zeros_like(p))
                             for p in params]
        if len(params) != len(self._moments):
            raise ValueError("parameter list changed size between steps")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        alpha, eps_hat = self._rates()
        flush = self.step_count % ADAM_FLUSH_EVERY == 0 and eps_hat > 0
        width = min(ADAM_BLOCK, max((p.size for p in params), default=0))
        for i, (p, g, (m, v)) in enumerate(zip(params, grads, self._moments)):
            pf, gf, mf, vf = (p.reshape(-1), g.reshape(-1), m.reshape(-1),
                              v.reshape(-1))
            a_buf = self._block("a", p.dtype, width)
            b_buf = self._block("b", p.dtype, width)
            if flush:
                keep_buf = self._block("keep", np.dtype(bool), width)
                bounds = self._flush_bounds(p.dtype)
            with np.errstate(over="raise"):
                for s in range(0, pf.size, ADAM_BLOCK):
                    e = min(s + ADAM_BLOCK, pf.size)
                    n = e - s
                    pc, gc, mc, vc = pf[s:e], gf[s:e], mf[s:e], vf[s:e]
                    a, b = a_buf[:n], b_buf[:n]
                    mc *= b1
                    np.multiply(gc, 1.0 - b1, out=a)
                    mc += a
                    if flush:
                        _flush_moments(pc, mc, a, b, keep_buf[:n], *bounds)
                    vc *= b2
                    np.multiply(gc, 1.0 - b2, out=a)
                    try:
                        a *= gc
                        vc += a
                    except FloatingPointError:
                        # the inf is in a if the square overflowed, else in v
                        k = int(np.argmin(np.isfinite(a) & np.isfinite(vc)))
                        raise TrainingError(
                            f"second moment of {label(i, s + k)} overflows "
                            f"{p.dtype} at element {s + k} (gradient "
                            f"{gc[k]:.3g})")
                    np.sqrt(vc, out=b)
                    b += eps_hat
                    np.multiply(mc, alpha, out=a)
                    a /= b
                    pc -= a
        return params


def _flush_moments(p, m, a, b, keep, rate, cap, exponent):
    """Zero the moments that pass both flush tests (see :class:`Adam`),
    working in ``a``, ``b`` and ``keep``; a zero moment keeps its sign."""
    np.abs(m, out=a)
    with np.errstate(over="ignore", invalid="ignore"):
        a *= rate
    # the exponent bits alone: 2**floor(log2 |p|), 0 for a subnormal p
    bits = b.view(f"u{b.itemsize}")
    np.bitwise_and(p.view(bits.dtype), exponent, out=bits)
    # a < cap is the same test as |m| < threshold: rounding is monotone
    np.fmin(b, cap, out=b)
    np.greater_equal(a, b, out=keep)
    m *= keep


def layer_from_descriptor(desc, rng=None):
    """A new float32 layer of the ``descriptor()`` dict ``desc``; a dense
    layer draws its weights from ``rng`` (without one, they start at
    zero)."""
    if desc["kind"] == "dense":
        return DenseLayer(desc["in_features"], desc["out_features"],
                          desc["activation"], rng, desc["name"])
    norm = {"normalize": Normalize, "layernorm": LayerNorm}[desc["kind"]]
    return norm(desc["size"], desc["epsilon"], desc["name"])


def parameter_count(descriptors) -> int:
    """Total parameter count of ``descriptor()`` dicts, from the metadata
    alone: it never allocates weights."""
    total = 0
    for desc in descriptors:
        if desc["kind"] == "dense":
            total += (desc["in_features"] + 1) * desc["out_features"]
        elif desc["kind"] == "layernorm":
            total += 2 * desc["size"]
        elif desc["kind"] != "normalize":
            raise ValueError(f"unknown layer kind {desc['kind']!r}")
    return total


def network_vectors(networks):
    """``Adam.step`` arguments: each network's ``flat``, grad, name_at."""
    return ([net.flat for net in networks], [net.grad for net in networks],
            [net.name_at for net in networks])


def save_network(path, *networks, extra=None, name=None):
    """Serialize a float32 network to a versioned binary file.

    Layout: magic ``MEGN``, u8 format version, u32 metadata length, JSON
    metadata (layer descriptors plus an optional caller dict), then each
    parameter array as raw little-endian float32 bytes in params() order,
    which is the network's ``flat`` vector. Several networks are stored
    back to back as one file called ``name``. The round trip is bit-exact.
    """
    if any(net.flat.dtype != "<f4" for net in networks):
        raise ValueError("only float32 networks are serialized")
    meta = {"name": name or networks[0].name,
            "layers": [d for net in networks for d in net.descriptors()],
            "extra": extra or {}}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with replace_file(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BI", _FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for net in networks:
            fh.write(net.flat.data)


def _read_meta(fh, path):
    if fh.read(4) != _MAGIC:
        raise ValueError(f"{path} is not a network file (bad magic)")
    version, meta_len = struct.unpack("<BI", fh.read(5))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    return json.loads(fh.read(meta_len).decode("utf-8"))


def network_extra(path):
    """The caller metadata saved with a network, without reading its
    weights; a file whose size does not fit its layers is refused."""
    with open(path, "rb") as fh:
        meta = _read_meta(fh, path)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
    need = 4 * parameter_count(meta["layers"])
    if payload != need:
        raise ValueError(f"{path} holds {payload} weight bytes, not the "
                         f"{need} its layers need")
    return meta["extra"]


def load_network(path, *networks):
    """Fill float32 ``networks`` in place from a file saved by
    :func:`save_network` with the same layers; returns the saved caller
    metadata."""
    if any(net.flat.dtype != "<f4" for net in networks):
        raise ValueError("only float32 networks are loaded")
    layers = [d for net in networks for d in net.descriptors()]
    with open(path, "rb") as fh:
        meta = _read_meta(fh, path)
        if layers != meta["layers"]:
            raise ValueError(f"{path} holds layers {meta['layers']}, not "
                             f"{layers}")
        # straight into each vector, so loading never holds a second copy
        # of the weights
        for net in networks:
            if fh.readinto(net.flat) != net.flat.nbytes:
                raise ValueError(f"{path} is truncated")
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes")
    return meta["extra"]

