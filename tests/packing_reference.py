"""The distinct-unit packing that `dyckrnn.builders.LstmParams.packed`
replaced, kept as the reference its five outputs must match byte for byte:
two `np.unique` sorts over the gate units' bytes, one per activation group."""

from __future__ import annotations

import numpy as np


def packed(net):
    """(W^T, U^T, b, sigmoids, inverse) of an LstmParams, as np.unique
    finds its distinct gate units: columns in the sorted order of the
    units' bytes, each kept at its first occurrence."""
    d = net.hidden_size
    W = np.concatenate([net.W_f, net.W_i, net.W_o, net.W_c])
    U = np.concatenate([net.U_f, net.U_i, net.U_o, net.U_c])
    b = np.concatenate([net.b_f, net.b_i, net.b_o, net.b_c])
    units = np.ascontiguousarray(np.column_stack([W, U, b]))
    keys = units.view(np.dtype((np.void, units[0].nbytes)))[:, 0]
    sig, sig_inv = np.unique(keys[:3 * d], return_index=True,
                             return_inverse=True)[1:]
    tanh, tanh_inv = np.unique(keys[3 * d:], return_index=True,
                               return_inverse=True)[1:]
    keep = np.concatenate([sig, 3 * d + tanh])
    inverse = np.concatenate([sig_inv, sig.size + tanh_inv])
    return (np.ascontiguousarray(W[keep].T),
            np.ascontiguousarray(U[keep].T), b[keep], sig.size, inverse)
