"""Property tests of the CLI's file boundaries: `verify --weights` and
`metric --weights/--corpus` read weight documents and corpus texts that
differ from valid ones in one field.  Whatever the field holds, a run exits
0, 1 or 2 without a traceback, and a refusal (exit 2) prints exactly one
`error:` line."""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyckrnn.automaton import DyckParams
from dyckrnn.builders import build
from dyckrnn.cli import main
from dyckrnn.sampler import SamplerConfig, format_corpus, sample_strings
from dyckrnn.weightio import to_document

P = DyckParams(2, 2)
CONSTRUCTIONS = (("simple", "onehot"), ("lstm", "binary"), ("naive", None))

# what a mutated field may hold: any JSON value, numbers far out of range
# included
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats() | st.text(max_size=6))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)
# a corpus word or header value: bracket and number characters mostly, with
# a digit that int() reads but the corpus format does not write
WORDS = st.text(alphabet="()$0123456789-+=k x#١", max_size=8) | SCALARS.map(str)
PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def document(arch: str, enc) -> str:
    return json.dumps(to_document(build(arch, P, enc)))


@functools.lru_cache(maxsize=None)
def corpus_text() -> str:
    cfg = SamplerConfig(P, seed=0)
    return format_corpus(cfg, sample_strings(cfg, 8))


def fields(doc, path=()):
    """Every field of a JSON document by its path of keys and indices;
    of a long list, its first two entries and its last."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from fields(value, path + (key,))
    elif isinstance(doc, list):
        for i in sorted({0, 1, len(doc) - 1} & set(range(len(doc)))):
            yield from fields(doc[i], path + (i,))


def assert_boundary(files: dict, *argv: str):
    """Run the CLI on `files` (name -> text) written to a fresh directory,
    each argv entry naming one by its key; the run must exit 0, 1 or 2,
    and print exactly one `error:` line when it exits 2."""
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(directory, name)
            with open(paths[name], "w") as handle:
                handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2), code
    if code == 2:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")


@st.composite
def mutated_documents(draw):
    """A weight document of one construction at (2, 2), with one field set
    to another JSON value or removed."""
    arch, enc = draw(st.sampled_from(CONSTRUCTIONS))
    doc = json.loads(document(arch, enc))
    path = draw(st.sampled_from([p for p in fields(doc) if p]))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JSON_VALUES)
    return json.dumps(doc)


@st.composite
def mutated_corpora(draw):
    """The (2, 2) corpus text with one header field's value, one word or
    one line replaced, or one line removed."""
    lines = corpus_text().splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    words = lines[row].split()
    how = draw(st.sampled_from(["word", "line", "drop"]))
    if how == "word":
        at = draw(st.integers(2 if row == 0 else 0, len(words) - 1))
        key, eq, _ = words[at].partition("=")
        words[at] = key + eq + draw(WORDS) if row == 0 else draw(WORDS)
        lines[row] = " ".join(words)
    elif how == "line":
        lines[row] = draw(WORDS)
    else:
        del lines[row]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


class TestWeightDocuments:
    @PROPERTY
    @given(mutated_documents())
    def test_verify(self, text):
        assert_boundary({"w.json": text}, "verify", "-k", "2", "-m", "2",
                        "--weights", "w.json", "--suite", "stack", "--suite",
                        "margins", "--suite", "saturation", "--strings", "5")

    @PROPERTY
    @given(mutated_documents(), st.booleans())
    def test_metric(self, text, baseline):
        assert_boundary({"w.json": text, "c.txt": corpus_text()}, "metric",
                        "--weights", "w.json", "--corpus", "c.txt",
                        *(["--uniform-baseline"] if baseline else []))


class TestCorpusTexts:
    @PROPERTY
    @given(mutated_corpora(), st.sampled_from(CONSTRUCTIONS), st.booleans())
    def test_metric(self, text, construction, baseline):
        assert_boundary({"w.json": document(*construction), "c.txt": text},
                        "metric", "--weights", "w.json", "--corpus", "c.txt",
                        *(["--uniform-baseline"] if baseline else []))
