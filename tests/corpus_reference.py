"""Reference oracle for the batched corpus walk: the corpus suites and the
closing metric checked one prefix at a time, string by string in corpus
order, with the scalar helpers (step, decode_stack, next_distribution,
allowed_row_mask), the closing events and corpus statistics read off Token
strings, and the block step as it was before saturated entries skipped the
transcendentals (clip, exp or tanh on every entry, gates joined by
concatenate and gathered to the full gate block through the packed
inverse).  The tests require the block walk to report what this reports."""

from __future__ import annotations

import numpy as np

from dyckrnn.automaton import EMPTY, format_string, transition
from dyckrnn.encodings import ARCH_LSTM
from dyckrnn.numerics import epsilon_for
from dyckrnn.runtime import (StackDecodeError, decode_stack, initial_state,
                             next_distribution, step)
from dyckrnn.verify import (CORPUS_SUITES, ClosingMetricReport,
                            VerificationReport, _instance, allowed_row_mask)


def sat_sigmoid(cfg, arr):
    core = 1.0 / (1.0 + np.exp(-np.clip(arr, -cfg.beta, cfg.beta)))
    return np.where(arr >= cfg.beta, 1.0, np.where(arr <= -cfg.beta, 0.0, core))


def sat_tanh(cfg, arr):
    core = np.tanh(np.clip(arr, -cfg.beta, cfg.beta))
    return np.where(arr >= cfg.beta, 1.0, np.where(arr <= -cfg.beta, -1.0, core))


def step_rows(paramset, h, c, cols):
    """(h, c, acts) after one step of every row, as runtime.step_rows."""
    num = paramset.numeric
    Wt, Ut, b = paramset.packed[:3]
    pre = h @ Wt + Ut[cols] + b
    if paramset.architecture != ARCH_LSTM:
        return sat_sigmoid(num, pre), None, pre
    # the LSTM's product runs on the distinct gate units, as the kernel's
    # does: BLAS rounding of an unsaturated entry depends on the column count
    sigmoids, inverse = paramset.packed[3:]
    acts = np.concatenate([sat_sigmoid(num, pre[..., :sigmoids]),
                           sat_tanh(num, pre[..., sigmoids:])],
                          axis=-1)[..., inverse]
    d = paramset.hidden_size
    f, i, o, c_tilde = (acts[..., :d], acts[..., d:2 * d],
                        acts[..., 2 * d:3 * d], acts[..., 3 * d:])
    c_new = f * c + i * c_tilde
    return o * np.tanh(c_new), c_new, acts


def corpus_statistics(params, corpus) -> dict:
    """sampler.corpus_statistics, one Token at a time."""
    n_tokens = 0
    hit_total = 0
    hit_count = 0
    for string in corpus:
        n_tokens += len(string)
        depths = [0]
        for token in string:
            if token.kind == "open":
                depths.append(depths[-1] + 1)
            elif token.kind == "close":
                depths.append(depths[-1] - 1)
        next_full = [None] * (len(depths) + 1)
        for t in range(len(depths) - 1, -1, -1):
            next_full[t] = t if depths[t] == params.m else next_full[t + 1]
        for t, d in enumerate(depths):
            if d == 0 and next_full[t] is not None:
                hit_total += next_full[t] - t
                hit_count += 1
    return {
        "strings": len(corpus),
        "tokens": n_tokens,
        "mean_len": n_tokens / len(corpus) if corpus else float("nan"),
        "mean_hitting_time": hit_total / hit_count if hit_count else None,
        "hitting_observations": hit_count,
    }


def closing_metric_uniform(params, corpus, threshold=0.8) -> ClosingMetricReport:
    """verify.closing_metric_uniform over the Token closing events."""
    buckets: dict[int, list[int]] = {}
    for string in corpus:
        for _, sep in _closing_events(string):
            entry = buckets.setdefault(sep, [0, 0])
            entry[0] += int((1.0 / params.k) > threshold)
            entry[1] += 1
    if not buckets:
        return ClosingMetricReport(float("nan"), {}, [])
    per = {sep: (c, t) for sep, (c, t) in buckets.items()}
    fractions = [c / t for c, t in per.values()]
    missing = [sep for sep in range(0, max(per) + 1, 2) if sep not in per]
    return ClosingMetricReport(float(np.mean(fractions)), per, missing)


def _closing_events(string):
    """Yield (prefix_position, separation) for each close bracket.

    Separation counts the tokens strictly between the open bracket and its
    matching close; it is always even.
    """
    opens: list[tuple[int, int]] = []
    for pos, token in enumerate(string):
        if token.kind == "open":
            opens.append((pos, token.index))
        elif token.kind == "close":
            if not opens or opens[-1][1] != token.index:
                raise ValueError(f"corpus string is not well nested at token "
                                 f"{pos + 1}: {format_string(string)}")
            yield pos, pos - opens.pop()[0] - 1


def walk(paramset, string, want_trace=False):
    """(position, state, trace, next token) for every prefix of a string;
    the end mark is never consumed."""
    state, trace = initial_state(paramset), None
    for pos, token in enumerate(string):
        yield pos, state, trace, token
        if token.kind == "end":
            return
        state, trace = step(paramset, state, token, want_trace)
    yield len(string), state, trace, None


def _lstm_hidden_ok(paramset, state, dfa_state) -> bool:
    w = paramset.encoding.width
    stack = dfa_state.stack
    expected = np.zeros(paramset.hidden_size)
    if stack:
        j = len(stack) - 1
        expected[j * w:(j + 1) * w] = np.tanh(paramset.encoding.codeword(stack[-1]))
    return np.array_equal(state.h, expected)


def check_corpus_suites(paramset, corpus, suites=tuple(CORPUS_SUITES),
                        epsilon=None) -> list[VerificationReport]:
    params = paramset.dyck_params
    k = params.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    dis_bound = 1.0 / (10.0 * k)
    lstm = paramset.architecture == ARCH_LSTM
    details = {"stack": {"strings": len(corpus)}, "saturation": {},
               "margins": {"epsilon": eps, "disallowed_bound": dis_bound,
                           "min_allowed": 1.0, "max_disallowed": 0.0}}

    def stack(pos, state, trace, dfa):
        try:
            decoded = decode_stack(paramset, state)
        except StackDecodeError as exc:
            return f"@ token {pos}: decode failure: {exc}"
        if decoded != dfa:
            return f"@ token {pos}: decoded {decoded}, automaton {dfa}"
        if lstm and not _lstm_hidden_ok(paramset, state, dfa):
            return f"@ token {pos}: hidden state is not the exposed top slot"
        return None

    def margins(pos, state, trace, dfa):
        dist = next_distribution(paramset, state)
        mask = allowed_row_mask(params, dfa)
        lo = dist[mask].min()
        hi = dist[~mask].max() if (~mask).any() else 0.0
        seen = details["margins"]
        seen["min_allowed"] = min(seen["min_allowed"], lo)
        seen["max_disallowed"] = max(seen["max_disallowed"], hi)
        if lo < eps or hi > dis_bound:
            return (f"@ prefix length {pos}: min allowed {lo:.6g} (eps {eps:.6g}), "
                    f"max disallowed {hi:.6g} (bound {dis_bound:.6g})")
        return None

    def saturation(pos, state, trace, dfa):
        binary = (trace.f, trace.i, trace.o) if lstm else (state.h,)
        ternary = (trace.c_tilde, state.c) if lstm else ()
        ok = (all(np.all((v == 0.0) | (v == 1.0)) for v in binary)
              and all(np.all(np.isin(v, (-1.0, 0.0, 1.0))) for v in ternary))
        return None if ok else f"@ token {pos}"

    checks = {"stack": stack, "margins": margins, "saturation": saturation}
    checked = dict.fromkeys(suites, 0)
    counter: dict[str, str] = {}
    pending = list(dict.fromkeys(suites))
    for string in corpus:
        if not pending:
            break
        for pos, state, trace, token in walk(paramset, string,
                                             "saturation" in pending):
            dfa = transition(params, dfa, string[pos - 1]) if pos else EMPTY
            for suite in [s for s in pending
                          if (token is not None if s == "margins" else pos)]:
                checked[suite] += 1
                fault = checks[suite](pos, state, trace, dfa)
                if fault:
                    counter[suite] = f"{format_string(string)} {fault}"
                    pending.remove(suite)
            if not pending:
                break
    return [VerificationReport(
        suite=CORPUS_SUITES[s], instance=_instance(paramset), checked=checked[s],
        passed=s not in counter, counterexample=counter.get(s),
        details=details[s]) for s in suites]


def closing_metric(paramset, corpus, threshold=0.8) -> ClosingMetricReport:
    k = paramset.k
    buckets: dict[int, list[int]] = {}
    for string in corpus:
        events = dict(_closing_events(string))
        for pos, state, _, token in walk(paramset, string):
            if pos in events:
                dist = next_distribution(paramset, state)
                p_close = dist[k:2 * k].sum()
                entry = buckets.setdefault(events[pos], [0, 0])
                entry[0] += int((dist[k + token.index - 1] / p_close) > threshold)
                entry[1] += 1
    if not buckets:
        return ClosingMetricReport(float("nan"), {}, [])
    per = {sep: (c, t) for sep, (c, t) in buckets.items()}
    fractions = [c / t for c, t in per.values()]
    missing = [sep for sep in range(0, max(per) + 1, 2) if sep not in per]
    return ClosingMetricReport(float(np.mean(fractions)), per, missing)
