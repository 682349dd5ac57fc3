"""Weight-file serialization.

A weight document is JSON:

    {
      "schema_version": 2,
      "architecture": "simple" | "lstm" | "naive",
      "k": int, "m": int,
      "encoding_kind": "onehot" | "binary" | null,
      "numeric_config": {"beta": f, "lambda": f, "zeta": f},
      "matrices": {name: {"shape": [...], "data": [row-major floats]}}
    }

Matrices are listed in _MATS; inputs are one-hot, so none embeds them.
Schema 1 documents also carry an input embedding E and load only when E is
the (2k, 2k) identity.

Floats survive the JSON round trip bit-for-bit (shortest-repr encoding).
Loading refuses a k or m that is not a JSON integer and a matrix entry that
is not finite, and checks every matrix shape against the architecture's
hidden size d: W* (d, d), U* (d, 2k), b* (d,), V (2k+1, d), b_v (2k+1,).
Files are written atomically (temp file, then rename), one matrix at a
time, so saving never holds the whole document as text.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

import numpy as np

from .automaton import DyckParams
from .builders import LstmParams, RnnParams, build_encoding, hidden_units
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE
from .numerics import NumericConfig

SCHEMA_VERSION = 2

_RNN_MATS = ("W", "U", "b", "V", "b_v")
_MATS = {ARCH_SIMPLE: _RNN_MATS, ARCH_NAIVE: _RNN_MATS,
         ARCH_LSTM: ("W_f", "U_f", "b_f", "W_i", "U_i", "b_i", "W_o", "U_o",
                     "b_o", "W_c", "U_c", "b_c", "V", "b_v")}


def _header(paramset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "architecture": paramset.architecture,
        "k": paramset.k,
        "m": paramset.m,
        "encoding_kind": None if paramset.encoding is None else paramset.encoding.kind,
        "numeric_config": paramset.numeric.to_dict(),
    }


def _matrix(paramset, name: str) -> dict:
    arr = getattr(paramset, name)
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def to_document(paramset) -> dict:
    return {**_header(paramset),
            "matrices": {name: _matrix(paramset, name)
                         for name in _MATS[paramset.architecture]}}


def _document_text(paramset):
    """json.dumps(to_document(paramset)) + "\n", one matrix at a time."""
    yield json.dumps(_header(paramset))[:-1] + ', "matrices": {'
    for i, name in enumerate(_MATS[paramset.architecture]):
        yield (", " if i else "") + json.dumps(name) + ": "
        yield json.dumps(_matrix(paramset, name))
    yield "}}\n"


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is a JSON {type(value).__name__}, not an object")
    return value


def from_document(doc: dict):
    version = _object(doc, "weight document").get("schema_version")
    if version not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported weight schema {version!r}")
    try:
        arch, k, m = doc["architecture"], doc["k"], doc["m"]
        enc_kind = doc.get("encoding_kind")
        matrices = _object(doc["matrices"], "matrices")
        numeric = NumericConfig.from_dict(
            _object(doc["numeric_config"], "numeric_config"))
        names = _MATS.get(arch, ()) + (("E",) if version == 1 else ())
        entries = {name: (_object(matrices[name], f"matrix {name}")["shape"],
                          np.array(matrices[name]["data"], dtype=float))
                   for name in names}
    except KeyError as exc:
        raise ValueError(f"weight document has no {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed weight document: {exc}") from None
    if arch not in _MATS:
        raise ValueError(f"unknown architecture {arch!r}")
    for name, value in (("k", k), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"weight document {name} is {json.dumps(value)}, "
                             f"not an integer")
    d = hidden_units(arch, enc_kind, k, m)
    shapes = {"W": (d, d), "U": (d, 2 * k), "b": (d,), "E": (2 * k, 2 * k),
              "V": (2 * k + 1, d), "b_v": (2 * k + 1,)}
    mats = {}
    for name, (shape, mat) in entries.items():
        if not isinstance(shape, list):
            raise ValueError(f"matrix {name} has shape {shape!r}, not a list")
        expected = shapes.get(name, shapes[name[0]])
        if tuple(shape) != expected or mat.size != np.prod(expected):
            raise ValueError(f"matrix {name} has shape {tuple(shape)} with "
                             f"{mat.size} values; {arch} at k={k}, m={m} needs "
                             f"{expected}")
        if not np.isfinite(mat).all():
            raise ValueError(f"matrix {name} holds a value that is not finite")
        mats[name] = mat.reshape(expected)
    if version == 1 and not np.array_equal(mats.pop("E"), np.eye(2 * k)):
        raise ValueError("matrix E is not the identity (schema 1 input embedding)")
    params = DyckParams(k, m)
    enc = None if arch == ARCH_NAIVE else build_encoding(params, enc_kind, arch)
    if arch == ARCH_LSTM:
        return LstmParams(k=k, m=m, encoding=enc, numeric=numeric, **mats)
    return RnnParams(architecture=arch, k=k, m=m, encoding=enc,
                     numeric=numeric, **mats)


def atomic_write_text(path: str, text: str):
    _atomic_write(path, (text,))


def _atomic_write(path: str, chunks):
    """Write the strings of `chunks` in turn to a temp file, then rename it
    to path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_weights(path: str, paramset):
    _atomic_write(path, _document_text(paramset))


def load_weights(path: str):
    # weight files repeat a few distinct values: parse each spelling once
    # and share the float, rather than holding one object per entry
    with open(path) as handle:
        try:
            doc = json.load(handle,
                            parse_float=functools.lru_cache(None)(float))
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path} is not a JSON weight file: {exc}") from None
    return from_document(doc)
