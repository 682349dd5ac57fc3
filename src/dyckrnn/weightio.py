"""Weight-file serialization.

A weight document is JSON:

    {
      "schema_version": 1,
      "architecture": "simple" | "lstm" | "naive",
      "k": int, "m": int,
      "encoding_kind": "onehot" | "binary" | null,
      "numeric_config": {"beta": f, "lambda": f, "zeta": f},
      "matrices": {name: {"shape": [...], "data": [row-major floats]}}
    }

Floats survive the JSON round trip bit-for-bit (shortest-repr encoding).
Loading checks every matrix shape against the architecture's hidden size d:
W* (d, d), U* (d, 2k), b* (d,), E (2k, 2k), V (2k+1, d), b_v (2k+1,).
Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .automaton import DyckParams
from .builders import (LstmParams, NaiveDfaParams, SimpleRnnParams,
                       build_encoding, enumerate_states, hidden_units)
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE
from .numerics import NumericConfig

SCHEMA_VERSION = 1

_SIMPLE_MATS = ("W", "U", "b", "E", "V", "b_v")
_MATS = {ARCH_SIMPLE: _SIMPLE_MATS, ARCH_NAIVE: _SIMPLE_MATS,
         ARCH_LSTM: ("W_f", "U_f", "b_f", "W_i", "U_i", "b_i", "W_o", "U_o",
                     "b_o", "W_c", "U_c", "b_c", "E", "V", "b_v")}


def to_document(paramset) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "architecture": paramset.architecture,
        "k": paramset.k,
        "m": paramset.m,
        "encoding_kind": None if paramset.encoding is None else paramset.encoding.kind,
        "numeric_config": paramset.numeric.to_dict(),
        "matrices": {},
    }
    for name in _MATS[paramset.architecture]:
        arr = getattr(paramset, name)
        doc["matrices"][name] = {"shape": list(arr.shape),
                                 "data": arr.ravel().tolist()}
    return doc


def from_document(doc: dict):
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported weight schema {doc.get('schema_version')!r}")
    try:
        arch, k, m = doc["architecture"], int(doc["k"]), int(doc["m"])
        enc_kind, matrices = doc.get("encoding_kind"), doc["matrices"]
        numeric = NumericConfig.from_dict(doc["numeric_config"])
        entries = {name: (tuple(matrices[name]["shape"]), matrices[name]["data"])
                   for name in _MATS.get(arch, ())}
    except KeyError as exc:
        raise ValueError(f"weight document has no {exc}") from None
    if arch not in _MATS:
        raise ValueError(f"unknown architecture {arch!r}")
    d = hidden_units(arch, enc_kind, k, m)
    shapes = {"W": (d, d), "U": (d, 2 * k), "b": (d,), "E": (2 * k, 2 * k),
              "V": (2 * k + 1, d), "b_v": (2 * k + 1,)}
    mats = {}
    for name, (shape, data) in entries.items():
        expected, mat = shapes.get(name, shapes[name[0]]), np.array(data, dtype=float)
        if shape != expected or mat.size != np.prod(expected):
            raise ValueError(f"matrix {name} has shape {shape} with {mat.size} "
                             f"values; {arch} at k={k}, m={m} needs {expected}")
        mats[name] = mat.reshape(shape)
    params = DyckParams(k, m)
    if arch == ARCH_SIMPLE:
        enc = build_encoding(params, enc_kind, ARCH_SIMPLE)
        return SimpleRnnParams(k=k, m=m, encoding=enc, numeric=numeric, **mats)
    if arch == ARCH_LSTM:
        enc = build_encoding(params, enc_kind, ARCH_LSTM)
        return LstmParams(k=k, m=m, encoding=enc, numeric=numeric, **mats)
    return NaiveDfaParams(k=k, m=m, numeric=numeric, scale=2.0 * numeric.beta,
                          states=enumerate_states(params), **mats)


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_weights(path: str, paramset):
    atomic_write_text(path, json.dumps(to_document(paramset)) + "\n")


def load_weights(path: str):
    with open(path) as handle:
        return from_document(json.load(handle))
