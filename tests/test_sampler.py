import math

import pytest

from dyckrnn.automaton import DyckParams, depth, is_member
from dyckrnn.sampler import (SamplerConfig, corpus_statistics, default_max_len,
                             format_corpus, parse_corpus, sample_corpus,
                             sample_string, sample_strings)


def test_every_sample_is_a_member():
    for k, m in [(1, 1), (2, 3), (8, 3)]:
        p = DyckParams(k, m)
        cfg = SamplerConfig(p, seed=5)
        for string in sample_strings(cfg, 200):
            assert is_member(p, string)


def test_depths_never_exceed_bound():
    p = DyckParams(2, 3)
    for string in sample_strings(SamplerConfig(p, seed=9), 300):
        body = string[:-1]
        for t in range(len(body) + 1):
            assert 0 <= depth(body[:t]) <= 3


def test_same_seed_same_corpus():
    cfg = SamplerConfig(DyckParams(2, 3), seed=7)
    first = sample_corpus(cfg, 2000)
    second = sample_corpus(cfg, 2000)
    assert first == second


def test_different_seeds_differ():
    p = DyckParams(2, 3)
    a = sample_corpus(SamplerConfig(p, seed=1), 500)
    b = sample_corpus(SamplerConfig(p, seed=2), 500)
    assert a != b


def test_sample_string_deterministic():
    cfg = SamplerConfig(DyckParams(3, 2), seed=123)
    assert sample_string(cfg) == sample_string(cfg)


def test_single_string_views_agree():
    cfg = SamplerConfig(DyckParams(3, 2), seed=123)
    assert sample_string(cfg) == sample_strings(cfg, 1)[0] == sample_corpus(cfg, 1)[0]


def test_no_string_drawn_past_the_last_kept(monkeypatch):
    import dyckrnn.sampler as sampler
    calls = []
    original = sampler._sample_codes

    def counting(cfg, rand):
        calls.append(1)
        return original(cfg, rand)

    monkeypatch.setattr(sampler, "_sample_codes", counting)
    cfg = SamplerConfig(DyckParams(2, 3), seed=3)
    corpus = sample_corpus(cfg, 1000)
    assert len(calls) == len(corpus)
    calls.clear()
    assert len(sample_strings(cfg, 25)) == 25
    assert len(calls) == 25


def test_corpus_reaches_token_count():
    cfg = SamplerConfig(DyckParams(2, 3), seed=0)
    corpus = sample_corpus(cfg, 5000)
    total = sum(len(s) for s in corpus)
    assert total >= 5000
    # no overshoot beyond one string
    assert total - len(corpus[-1]) < 5000


def test_length_window_respected():
    cfg = SamplerConfig(DyckParams(2, 5), seed=4, min_len=11, max_len=41)
    for string in sample_strings(cfg, 100):
        assert 11 <= len(string) <= 41


def test_default_windows():
    assert default_max_len(3) == 84
    assert default_max_len(5) == 180
    assert SamplerConfig(DyckParams(2, 3), seed=0).max_len == 84
    assert SamplerConfig(DyckParams(2, 5), seed=0).max_len == 180


def test_empty_window_exhausts_retries():
    # every string has odd length, so a [2,2] window has zero mass
    cfg = SamplerConfig(DyckParams(1, 1), seed=0, min_len=2, max_len=2,
                        max_retries=500)
    with pytest.raises(RuntimeError, match="500 attempts"):
        sample_string(cfg)


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        SamplerConfig(DyckParams(1, 1), seed=0, min_len=9, max_len=3)


def _decision_stats(strings, m):
    """Recover the action taken at each decision point of each walk."""
    empty_end = empty_push = mid_push = mid_pop = 0
    push_types: dict[int, int] = {}
    for string in strings:
        d = 0
        for token in string:
            if d == 0:
                if token.kind == "end":
                    empty_end += 1
                else:
                    empty_push += 1
            elif d < m:
                if token.kind == "open":
                    mid_push += 1
                else:
                    mid_pop += 1
            # at d == m the pop is forced; not a decision
            if token.kind == "open":
                push_types[token.index] = push_types.get(token.index, 0) + 1
                d += 1
            elif token.kind == "close":
                d -= 1
    return empty_end, empty_push, mid_push, mid_pop, push_types


def test_action_frequencies_uniform():
    """With a wide-open window (no rejection bias), realized action
    frequencies at each decision point are uniform to within 1% over 1e5
    decisions, and bracket types are uniform within 3 sigma."""
    p = DyckParams(4, 3)
    cfg = SamplerConfig(p, seed=31, min_len=1, max_len=10**9)
    corpus = sample_corpus(cfg, 120_000)
    empty_end, empty_push, mid_push, mid_pop, push_types = _decision_stats(
        corpus, p.m)

    n_empty = empty_end + empty_push
    assert n_empty >= 10**5 / 4
    assert abs(empty_end / n_empty - 0.5) <= 0.01

    n_mid = mid_push + mid_pop
    assert abs(mid_push / n_mid - 0.5) <= 0.01

    n_push = sum(push_types.values())
    expected = n_push / p.k
    sigma = math.sqrt(n_push * (1 / p.k) * (1 - 1 / p.k))
    for i in range(1, p.k + 1):
        assert abs(push_types.get(i, 0) - expected) <= 3 * sigma


def test_corpus_file_round_trip(tmp_path):
    p = DyckParams(2, 3)
    cfg = SamplerConfig(p, seed=17)
    corpus = sample_corpus(cfg, 800)
    text = format_corpus(cfg, corpus)
    header, strings = parse_corpus(text)
    assert header["k"] == 2 and header["m"] == 3 and header["seed"] == 17
    assert header["min_len"] == 1 and header["max_len"] == 84
    assert header["prng"] == "numpy-pcg64"
    assert strings == corpus


def test_strings_share_vocabulary_tokens():
    """Sampled and parsed strings reuse one Token per vocabulary item."""
    p = DyckParams(2, 3)
    cfg = SamplerConfig(p, seed=17)
    corpus = sample_corpus(cfg, 400)
    _, parsed = parse_corpus(format_corpus(cfg, corpus))
    for strings in (corpus, parsed):
        tokens = [t for s in strings for t in s]
        assert len({id(t) for t in tokens}) == len(set(tokens)) <= 2 * p.k + 1


def test_no_strings_refused():
    cfg = SamplerConfig(DyckParams(2, 2), seed=0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_strings"):
            sample_strings(cfg, n)


def test_corpus_missing_header_rejected():
    with pytest.raises(ValueError, match="header"):
        parse_corpus("(1 )1 $\n")


def test_corpus_statistics():
    from dyckrnn.automaton import parse_string
    p = DyckParams(1, 2)
    corpus = [parse_string("(1 (1 )1 )1 $"),  # hits full depth after 2 tokens
              parse_string("(1 )1 $")]        # never reaches full depth
    stats = corpus_statistics(p, corpus)
    assert stats["strings"] == 2 and stats["tokens"] == 8
    assert stats["hitting_observations"] == 1
    assert stats["mean_hitting_time"] == 2.0


def test_hitting_time_reported_on_sampled_corpus():
    p = DyckParams(2, 3)
    corpus = sample_strings(SamplerConfig(p, seed=6), 500)
    stats = corpus_statistics(p, corpus)
    assert stats["hitting_observations"] > 0
    # empty-to-full needs at least m pushes
    assert stats["mean_hitting_time"] >= p.m
