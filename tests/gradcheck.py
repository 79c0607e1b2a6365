"""Finite-difference gradient checks: float64 copies of layers, networks
and codecs, and central differences of a scalar loss."""

import copy

import numpy as np

from megsim import nn


def clone_layer(layer, dtype):
    """A copy outside any network, its parameters cast to ``dtype``."""
    dup = copy.copy(layer)
    dup.dtype, dup._cache = np.dtype(dtype), None
    dup.network = dup.grads = None
    for attr in layer.param_attrs:
        setattr(dup, attr, getattr(layer, attr).astype(dtype))
    return dup


def clone_network(net, dtype):
    return nn.Network([clone_layer(layer, dtype) for layer in net.layers],
                      net.name)


def clone_codec(pair, dtype):
    dup = copy.copy(pair)
    dup.net = clone_network(pair.net, dtype)
    dup.enc, dup.d1, dup.n1, dup.d2, dup.n2, dup.d3, dup.ln = dup.net.layers
    return dup


def numeric_gradient(loss_fn, arrays, step=1e-4):
    """Central finite-difference gradients of a scalar loss.

    ``loss_fn`` takes no arguments and reads ``arrays`` in place; arrays
    should be float64 for the check to be tight.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = loss_fn()
            flat[i] = keep - step
            lo = loss_fn()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads
