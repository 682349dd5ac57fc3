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


def test_lstm_walk_calls_numerics_through_traced_bindings(monkeypatch):
    """The block step and the readout call the saturating functions and
    softmax through the `runtime` attributes the tracer wraps, once per
    block step and once per readout."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer_module = importlib.import_module("tracer")
    from dyckrnn import runtime
    from dyckrnn.automaton import DyckParams
    from dyckrnn.builders import build_lstm
    from dyckrnn.encodings import BINARY
    from dyckrnn.sampler import SamplerConfig, sample_strings

    p = DyckParams(2, 3)
    net = build_lstm(p, BINARY)
    corpus = sample_strings(SamplerConfig(p, seed=0), 300)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        steps = readouts = 0
        for _, _, t, h, _, _ in runtime.walk(net, corpus):
            steps += t > 0
            runtime.readout(net, h)
            readouts += 1
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert steps > 0
    assert metrics["numerics.sat_sigmoid.calls"] == steps
    assert metrics["numerics.sat_tanh.calls"] == steps
    assert metrics["numerics.softmax.calls"] == readouts
