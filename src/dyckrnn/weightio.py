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
load_header reads and checks the fields before "matrices" alone, decoding
them one top-level value at a time from the file's first characters; the
matrices are neither read nor checked.  Both loads run the header through
one check, so a header fault reads the same either way.  Files are written atomically (temp file,
then rename), one matrix at a time, so saving never holds the whole
document as text; each distinct value of a matrix is spelled once.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import NamedTuple

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


def _matrix_text(arr: np.ndarray) -> str:
    """json.dumps of the matrix's entry in to_document, with each distinct
    value spelled once.  Values are told apart by their bytes, so -0.0 and
    0.0 keep their own spellings."""
    values, inverse = np.unique(arr.ravel().view(np.int64), return_inverse=True)
    spelled = [json.dumps(v) for v in values.view(np.float64).tolist()]
    data = ", ".join(map(spelled.__getitem__, inverse.tolist()))
    return f'{{"shape": {json.dumps(list(arr.shape))}, "data": [{data}]}}'


def _document_text(paramset):
    """json.dumps(to_document(paramset)) + "\n", one matrix at a time."""
    yield json.dumps(_header(paramset))[:-1] + ', "matrices": {'
    for i, name in enumerate(_MATS[paramset.architecture]):
        yield (", " if i else "") + json.dumps(name) + ": "
        yield _matrix_text(getattr(paramset, name))
    yield "}}\n"


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is a JSON {type(value).__name__}, not an object")
    return value


class Header(NamedTuple):
    """A weight document's checked fields other than its matrices."""

    version: int
    architecture: str
    k: int
    m: int
    encoding_kind: str | None
    numeric: NumericConfig
    hidden_size: int


def _check_header(doc) -> Header:
    version = _object(doc, "weight document").get("schema_version")
    if version not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported weight schema {version!r}")
    try:
        arch, k, m = doc["architecture"], doc["k"], doc["m"]
        numeric = NumericConfig.from_dict(
            _object(doc["numeric_config"], "numeric_config"))
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
    DyckParams(k, m)
    enc_kind = doc.get("encoding_kind")
    return Header(version, arch, k, m, enc_kind, numeric,
                  hidden_units(arch, enc_kind, k, m))


def from_document(doc: dict):
    version, arch, k, m, enc_kind, numeric, d = _check_header(doc)
    names = _MATS[arch] + (("E",) if version == 1 else ())
    try:
        matrices = _object(doc["matrices"], "matrices")
        entries = {name: (_object(matrices[name], f"matrix {name}")["shape"],
                          np.array(matrices[name]["data"], dtype=float))
                   for name in names}
    except KeyError as exc:
        raise ValueError(f"weight document has no {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed weight document: {exc}") from None
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
    to path.  A failure names path and leaves no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def save_weights(path: str, paramset):
    _atomic_write(path, _document_text(paramset))


class _Floats(dict):
    """The float of each spelling, parsed the first time it is read: weight
    files repeat a few distinct values, so each entry shares one object."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def _parse(path: str, parse):
    """parse(handle) of the open file; text that is not JSON, or not text,
    is refused naming path."""
    with open(path) as handle:
        try:
            return parse(handle)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path} is not a JSON weight file: {exc}") from None


def load_weights(path: str):
    return from_document(_parse(path, lambda handle: json.loads(
        handle.read(), parse_float=_Floats().__getitem__)))


_HEADER_FIELDS = frozenset(("schema_version", "architecture", "k", "m",
                            "encoding_kind", "numeric_config"))
_WS = r"[ \t\n\r]*"
# the opening brace or a comma, a member name, and its colon
_MEMBER = re.compile(rf'{_WS}([{{,]){_WS}("(?:[^"\\\x00-\x1f]|\\.)*"){_WS}:{_WS}')
_DECODE = json.JSONDecoder().raw_decode
# save_weights writes the header fields first, in a few hundred characters
_HEAD_CHARS = 4096


def _header_members(text: str) -> dict | None:
    """The top-level members of a weight document's text, decoded one value
    at a time up to "matrices" once every header field has been read (a
    "matrices" before one of them is decoded past); None when the text
    ends, breaks or closes first."""
    fields, at, opening = {}, 0, "{"
    try:
        while (member := _MEMBER.match(text, at)) and member[1] == opening:
            key, opening = json.loads(member[2]), ","
            if key == "matrices" and _HEADER_FIELDS <= fields.keys():
                return fields
            fields[key], at = _DECODE(text, member.end())
    except ValueError:  # cut off, or not JSON
        pass
    return None


def _header_fields(handle) -> dict:
    """The header members from the file's first characters alone; a file
    they do not hold (not an object, a fault, a long or late header) is
    parsed whole, so a refusal is json's own."""
    head = handle.read(_HEAD_CHARS)
    fields = _header_members(head)
    return json.loads(head + handle.read()) if fields is None else fields


def load_header(path: str) -> Header:
    """The checked header of a weight file, its matrices left unread."""
    return _check_header(_parse(path, _header_fields))
