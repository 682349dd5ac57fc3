"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
module and attribute name; a rename that breaks `--trace 1` fails here."""

import importlib
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def test_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    missing = [f"{module}.{attr}" for module, attr in tracer.SPANS
               if not callable(getattr(importlib.import_module(f"dyckrnn.{module}"),
                                       attr, None))]
    assert missing == []
    from dyckrnn import encodings, sampler
    # the attempt counter calls the walk as fn(k, m, max_len, rand)
    assert list(inspect.signature(sampler._attempt).parameters) == [
        "k", "m", "max_len", "rand"]
    assert callable(sampler._sample_codes)
    assert callable(encodings.Encoding.decode_slot)
