"""Reports of the corpus suites, the closing metric and the enumeration
suites, compared with the JSON files recorded under tests/golden/.

Every field must match exactly but the margins extremes `min_allowed` and
`max_disallowed`, which are compared at a relative tolerance of 1e-12: their
readout sums round with the CPU's BLAS.  To record the files again, from
the repository root:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest

from dyckrnn import cli, product, verify
from dyckrnn.automaton import DyckParams
from dyckrnn.builders import build
from dyckrnn.encodings import BINARY, ONEHOT
from dyckrnn.sampler import SamplerConfig, sample_strings
from conftest import zero_close_rows
from test_verify import softened

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FOUR = [("simple", ONEHOT), ("simple", BINARY), ("lstm", ONEHOT), ("lstm", BINARY)]
ROUNDED = ("min_allowed", "max_disallowed")


def corpus_reports(k, m, strings, seed, sabotage=None):
    """The corpus suites' reports for the four constructions."""
    p = DyckParams(k, m)
    corpus = sample_strings(SamplerConfig(p, seed=seed), strings)
    out = []
    for arch, enc in FOUR:
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        out.append([r.as_dict() for r in verify.check_corpus_suites(net, corpus)])
    return out


def closed_8_3():
    """The closed product graph answers: the benchmark's corpus."""
    return corpus_reports(8, 3, 1000, 2026)


def walked_8_5():
    """The corpus uses too few of the automaton's edges for a closure."""
    return corpus_reports(8, 5, 2000, 0)


def floored_2_3():
    """Sabotaged nets at the default node table and at its floor, where
    the closure is given up at once and the corpus walk empties its table
    (softened nets); at the default table a softened net's closure is given
    up past its edge limit."""
    out = {}
    for table in (0, product.CORPUS_TABLE_BYTES):
        with mock.patch.object(product, "CORPUS_TABLE_BYTES", table):
            for sabotage in (zero_close_rows, softened):
                out[f"{sabotage.__name__} {table}"] = corpus_reports(
                    2, 3, 300, 3, sabotage)
    return out


def closing_metric_capped():
    """The closing metric at its default readout table and at its floor of
    BLOCK_ROWS rows, intact and softened."""
    p = DyckParams(2, 3)
    corpus = sample_strings(SamplerConfig(p, seed=3), 300)
    out = {}
    for table in (0, verify._READOUT_TABLE_BYTES):
        with mock.patch.object(verify, "_READOUT_TABLE_BYTES", table):
            for arch, enc in FOUR:
                for sabotage in (None, softened):
                    net = build(arch, p, enc)
                    report = verify.closing_metric(sabotage(net) if sabotage
                                                   else net, corpus)
                    out[f"{arch} {enc} {sabotage is not None} {table}"] = {
                        "value": report.value,
                        "per_separation": [[sep, *counts] for sep, counts
                                           in report.per_separation.items()],
                        "missing_separations": report.missing_separations,
                        "readout_rows": report.readout_rows}
    return out


def enumeration_3_3():
    """verify's equivalence and cross suites at (3, 3) up to length 8: the
    JSON report and what it prints."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["verify", "-k", "3", "-m", "3", "--max-len", "8",
                             "--suite", "equivalence", "--suite", "cross",
                             "--json-report", path])
        with open(path) as handle:
            report = json.load(handle)
    return {"exit": code, "stdout": stdout.getvalue(), "report": report}


CASES = [closed_8_3, walked_8_5, floored_2_3, closing_metric_capped,
         enumeration_3_3]


def golden_path(case):
    return os.path.join(GOLDEN, f"report_{case.__name__}.json")


def assert_matches(got, want, key=None):
    """Equal JSON values, the margins extremes at a relative 1e-12."""
    assert type(got) is type(want), key
    if isinstance(want, dict):
        assert list(got) == list(want), key
        for name in want:
            assert_matches(got[name], want[name], name)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for a, b in zip(got, want):
            assert_matches(a, b, key)
    elif key in ROUNDED:
        assert got == pytest.approx(want, rel=1e-12, abs=0), key
    else:
        assert got == want, key


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_reports_match_the_recorded_ones(case):
    with open(golden_path(case)) as handle:
        want = json.load(handle)
    # a JSON round trip, as the files hold them
    assert_matches(json.loads(json.dumps(case())), want)


if __name__ == "__main__":
    for case in CASES:
        with open(golden_path(case), "w") as handle:
            json.dump(case(), handle, indent=1)
            handle.write("\n")
        print(f"wrote {golden_path(case)}")
