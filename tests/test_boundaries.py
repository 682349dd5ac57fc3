"""Property tests of the CLI's boundaries: `verify --weights` and
`metric --weights/--corpus` read weight documents and corpus texts that
differ from valid ones in one field, and every subcommand reads argv that
differs from a valid one a token at a time.  Whatever the field or argv
holds, a run exits 0, 1 or 2 without a traceback, and a refusal (exit 2)
prints exactly one `error:` line."""

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
# argv that each exit 0 in well under a second, naming files as
# assert_boundary does
ARGVS = (("check", "-k", "2", "-m", "2", "(1 (2 )2 )1 $"),
         ("trace", "-k", "2", "-m", "2", "--arch", "lstm", "--enc", "binary",
          "(1 (2"),
         ("verify", "-k", "2", "-m", "2", "--suite", "equivalence", "--suite",
          "cross", "--max-len", "4"),
         ("verify", "-k", "2", "-m", "2", "--weights", "w.json", "--suite",
          "stack", "--strings", "5", "--epsilon", "0.2"),
         ("verify", "-k", "2", "-m", "2", "--suite", "collide", "-d", "1",
          "-p", "2"),
         ("metric", "--weights", "w.json", "--corpus", "c.txt",
          "--threshold", "0.5"))
# what replaces an argv token: options, values and files, misplaced or
# malformed; numbers stay small, so no run builds a large network
JUNK = (st.sampled_from(["", "-", "--", "-k", "-m", "--suite", "--weights",
                         "--max-len", "--arch", "all", "naive", "binary",
                         "0", "-1", "1", "3", "nan", "inf", "1e400", "$",
                         "(3", "w.json", "c.txt", "."])
        | st.text(alphabet="-()$ .0123xkm", max_size=3))
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


@st.composite
def mutated_argv(draw):
    """One of ARGVS with one to three tokens, one at a time, dropped,
    duplicated or replaced by junk."""
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "duplicate", "replace"]))
        at = draw(st.integers(0, len(argv) - 1))
        if how == "drop":
            del argv[at]
        elif how == "duplicate":
            argv.insert(at, argv[at])
        else:
            argv[at] = draw(JUNK)
    return argv


class TestArgv:
    @PROPERTY
    @given(mutated_argv())
    def test_mutated_argv(self, argv):
        assert_boundary({"w.json": document("lstm", "binary"),
                         "c.txt": corpus_text()}, *argv)
