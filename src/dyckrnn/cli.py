"""Command-line front end.

Subcommands: build (weight files), sample (corpora), check (membership of a
token string), verify (correctness suites), metric (bracket-closing score).
Exit status is 0 exactly when every requested check passes; 2 signals a
usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .automaton import (ACCEPT, Corpus, DyckParams, EMPTY, REJECT,
                        format_string, parse_string, transition, vocabulary)
from .builders import DEFAULT_PARAMETER_BUDGET, build
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, ONEHOT
from .numerics import NumericConfig
from .runtime import serial_blas
from .sampler import (SamplerConfig, corpus_statistics, format_corpus,
                      parse_corpus, parse_corpus_header, sample_corpus,
                      sample_strings, window_log_mass)
from .verify import (CORPUS_SUITES, Enumeration, QuantizedEncoder,
                     VerificationReport, applicable_constructions,
                     check_corpus_suites, check_full_depth_distinctness,
                     closing_metric, closing_metric_uniform,
                     cross_constructions, find_collision)
from .weightio import atomic_write_text, load_header, load_weights, save_weights

SUITES = ("equivalence", "stack", "margins", "saturation", "distinct",
          "collide", "cross")


def _add_language_args(parser, required=True):
    parser.add_argument("-k", type=int, required=required, help="bracket types")
    parser.add_argument("-m", type=int, required=required, help="depth bound")


def _add_numeric_args(parser):
    parser.add_argument("--beta", type=float, default=None,
                        help="saturation threshold (default 20)")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="recurrent scale (default 2*beta/gamma + 1)")
    parser.add_argument("--zeta", type=float, default=None,
                        help="readout scale (default (ln(10k)+0.5)/gamma)")


def _numeric_config(args, k: int) -> NumericConfig:
    kwargs = {}
    if args.beta is not None:
        kwargs["beta"] = args.beta
    return NumericConfig.for_language(k, zeta=args.zeta, lam=args.lam, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckrnn",
        description="Build, run, and verify bracket-language generator networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a weight file")
    _add_language_args(p_build)
    p_build.add_argument("--arch", choices=(ARCH_SIMPLE, ARCH_LSTM, ARCH_NAIVE),
                         default=ARCH_SIMPLE)
    p_build.add_argument("--enc", choices=(ONEHOT, BINARY), default=None,
                         help="slot encoding (default onehot; not applicable "
                              "to the naive architecture)")
    _add_numeric_args(p_build)
    p_build.add_argument("--naive-budget", type=int,
                         default=DEFAULT_PARAMETER_BUDGET,
                         help="dense parameter budget for the automaton network")
    p_build.add_argument("-o", "--output", required=True, help="weight file path")

    p_sample = sub.add_parser("sample", help="sample a corpus file")
    _add_language_args(p_sample)
    p_sample.add_argument("--tokens", type=int, required=True,
                          help="minimum cumulative token count")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--min-len", type=int, default=1)
    p_sample.add_argument("--max-len", type=int, default=None)
    p_sample.add_argument("-o", "--output", required=True, help="corpus file path")

    p_check = sub.add_parser("check", help="membership of one token string")
    _add_language_args(p_check)
    p_check.add_argument("string", help='token string, e.g. "(1 (2 )2 )1 $"')

    p_verify = sub.add_parser("verify", help="run correctness suites")
    _add_language_args(p_verify)
    p_verify.add_argument("--suite", action="append", choices=SUITES + ("all",),
                          default=None, help="suite selection (repeatable)")
    p_verify.add_argument("--arch",
                          choices=(ARCH_SIMPLE, ARCH_LSTM, ARCH_NAIVE, "all"),
                          default="all")
    p_verify.add_argument("--enc", choices=(ONEHOT, BINARY, "all"), default="all")
    p_verify.add_argument("--weights", default=None,
                          help="verify this weight file instead of building")
    _add_numeric_args(p_verify)
    p_verify.add_argument("--max-len", type=int, default=8,
                          help="string length cap for enumeration suites")
    p_verify.add_argument("--strings", type=int, default=1000,
                          help="sampled corpus size for corpus suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--epsilon", type=float, default=None)
    p_verify.add_argument("-d", "--units", type=int, default=1,
                          help="encoder width for the collision suite")
    p_verify.add_argument("-p", "--bits", type=int, default=1,
                          help="encoder bits per unit for the collision suite")
    p_verify.add_argument("--encoder-seed", type=int, default=0)
    p_verify.add_argument("--naive-budget", type=int,
                          default=DEFAULT_PARAMETER_BUDGET)
    p_verify.add_argument("--json-report", default=None)
    p_verify.add_argument("--text-report", default=None)

    p_metric = sub.add_parser("metric", help="bracket-closing confidence score")
    p_metric.add_argument("--weights", required=True)
    p_metric.add_argument("--corpus", required=True)
    p_metric.add_argument("--uniform-baseline", action="store_true",
                          help="score the uniform-over-closes baseline instead")
    p_metric.add_argument("--threshold", type=float, default=0.8)
    return parser


def cmd_build(args) -> int:
    params = DyckParams(args.k, args.m)
    numeric = _numeric_config(args, args.k)
    if args.arch == ARCH_NAIVE and args.enc is not None:
        raise ValueError("the naive architecture has no slot encoding; drop --enc")
    enc = None if args.arch == ARCH_NAIVE else args.enc or ONEHOT
    paramset = build(args.arch, params, enc, numeric,
                     parameter_budget=args.naive_budget)
    save_weights(args.output, paramset)
    print(f"hidden_units: {paramset.hidden_size}")
    print(f"wrote {args.output}")
    return 0


def cmd_sample(args) -> int:
    params = DyckParams(args.k, args.m)
    cfg = SamplerConfig(params, seed=args.seed, min_len=args.min_len,
                        max_len=args.max_len)
    corpus = sample_corpus(cfg, args.tokens)
    atomic_write_text(args.output, format_corpus(cfg, corpus))
    stats = corpus_statistics(params, corpus)
    print(f"wrote {stats['strings']} strings ({stats['tokens']} tokens) "
          f"to {args.output}")
    if stats["mean_hitting_time"] is not None:
        print(f"mean empty-to-full hitting time: "
              f"{stats['mean_hitting_time']:.2f} tokens "
              f"({stats['hitting_observations']} observations)")
    print(f"window mass: {_format_log_probability(window_log_mass(cfg))} "
          f"(share of unconditioned walks ending with a length in "
          f"[{cfg.min_len}, {cfg.max_len}])")
    return 0


def _format_log_probability(log_p: float) -> str:
    """A probability given by its natural log, as d.ddde-XX; it may be far
    below the smallest double."""
    exponent = math.floor(log_p / math.log(10))
    mantissa = round(math.exp(log_p - exponent * math.log(10)), 3)
    if mantissa >= 10:
        mantissa, exponent = mantissa / 10, exponent + 1
    return f"{mantissa:.3f}e{exponent:+03d}"


def cmd_check(args) -> int:
    params = DyckParams(args.k, args.m)
    tokens = parse_string(args.string)
    state = EMPTY
    for pos, token in enumerate(tokens, start=1):
        prev = state
        state = transition(params, state, token)
        if state == REJECT:
            print(f"false at position {pos} ({format_string([token])} from "
                  f"state {prev})")
            return 1
    if state == ACCEPT:
        print("true")
        return 0
    print(f"false (no end-of-string; final state {state})")
    return 1


def _verify_constructions(args, construction):
    if args.weights:
        paramset = load_weights(args.weights)
        if (paramset.k, paramset.m) != (args.k, args.m):
            raise ValueError(f"{args.weights} holds weights for k={paramset.k}, "
                             f"m={paramset.m} but -k {args.k} -m {args.m} was given")
        return [paramset]
    selected = []
    for arch, enc in applicable_constructions(args.k):
        if args.arch != "all" and arch != args.arch:
            continue
        if args.enc != "all" and enc is not None and enc != args.enc:
            continue
        selected.append(construction(arch, enc))
    if not selected:
        raise ValueError(f"no construction matches --arch {args.arch} "
                         f"--enc {args.enc} at k={args.k}")
    return selected


def cmd_verify(args) -> int:
    suites = args.suite or ["all"]
    if "all" in suites:
        suites = list(SUITES)
    params = DyckParams(args.k, args.m)
    reports: list[VerificationReport] = []

    # Each construction this command builds is built once, so the suites
    # that read it share one parameter object and the product graph walked
    # for it.  Under --weights, only cross builds, and the file's network
    # stands in for the default construction of its architecture and
    # encoding.  Cross leaves out one the parameter budget refuses; a
    # construction the other suites read is refused before any suite runs.
    # Numeric overrides are checked whether or not a suite builds, and
    # refused with --weights, whose file holds its own constants.
    built = {}
    overrides = [flag for flag, value in (("--beta", args.beta),
                                          ("--lambda", args.lam),
                                          ("--zeta", args.zeta))
                 if value is not None]
    if args.weights and overrides:
        raise ValueError(f"{', '.join(overrides)} cannot be given with "
                         f"--weights: the weight file holds its own constants")
    numeric = None if args.weights else _numeric_config(args, args.k)

    def construction(arch, enc):
        if (arch, enc) not in built:
            built[arch, enc] = build(arch, params, enc, numeric,
                                     parameter_budget=args.naive_budget)
        return built[arch, enc]

    # a weight file is read and checked whatever the suites
    needs_nets = args.weights or any(
        s in suites for s in ("equivalence", "distinct", *CORPUS_SUITES))
    constructions = _verify_constructions(args, construction) if needs_nets else None
    if args.weights:
        (loaded,) = constructions
        built[loaded.architecture, loaded.encoding and loaded.encoding.kind] = loaded
    enumeration = Enumeration(params, args.max_len, args.epsilon)

    # one walk per corpus string and construction serves every corpus
    # suite; the sampled Corpus counts its arrays once for all of them
    corpus_suites = [s for s in suites if s in CORPUS_SUITES]
    corpus_reports = []
    if corpus_suites:
        corpus = sample_strings(SamplerConfig(params, seed=args.seed),
                                args.strings)
        corpus_reports = [dict(zip(corpus_suites, check_corpus_suites(
            ps, corpus, corpus_suites, epsilon=args.epsilon)))
            for ps in constructions]

    # the equivalence and cross suites read one walk of the language beside
    # every construction either compares, walked when the first of them runs
    crossed = (cross_constructions(args.k, construction) if "cross" in suites
               else ([], None))
    enumerated = [*(constructions if "equivalence" in suites else ()),
                  *crossed[0]]
    for suite in suites:
        if suite in ("equivalence", "cross"):
            enumeration.walk(enumerated)
        if suite == "equivalence":
            reports.extend(enumeration.equivalence(ps) for ps in constructions)
        elif suite in CORPUS_SUITES:
            reports.extend(by_suite[suite] for by_suite in corpus_reports)
        elif suite == "distinct":
            for ps in constructions:
                reports.append(check_full_depth_distinctness(ps))
        elif suite == "collide":
            reports.append(_collision_report(args, params))
        elif suite == "cross":
            reports.append(enumeration.cross(*crossed))

    for report in reports:
        print(report.summary_line())
    if args.text_report:
        atomic_write_text(args.text_report,
                          "\n".join(r.summary_line() for r in reports) + "\n")
    if args.json_report:
        atomic_write_text(args.json_report,
                          json.dumps([r.as_dict() for r in reports], indent=2) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _collision_report(args, params: DyckParams) -> VerificationReport:
    encoder = QuantizedEncoder.from_table(args.units, args.bits, args.k,
                                          seed=args.encoder_seed)
    collision = find_collision(encoder, params)
    pigeonhole = encoder.state_budget < params.k**params.m
    passed = (collision is not None) if pigeonhole else True
    details = {"d": args.units, "p": args.bits,
               "state_budget": encoder.state_budget,
               "full_depth_strings": params.k**params.m,
               "collision": collision.describe() if collision else None}
    return VerificationReport(
        suite="lower_bound_collision",
        instance={"k": params.k, "m": params.m, "d": args.units, "p": args.bits},
        checked=params.k**params.m, passed=passed,
        counterexample=None if passed else "pigeonhole collision not found",
        details=details)


def _refuse_outside(params: DyckParams, corpus: Corpus):
    """Refuse the first corpus string outside the language, naming it: the
    metrics score whatever they are given.  Parsing has already refused
    indices above k and end marks before the end."""
    lengths = corpus.offsets[1:] - corpus.offsets[:-1]
    rejected = corpus.rejections(params.m)
    bad = (rejected < lengths) | (corpus.consumed() == lengths)
    if not bad.any():
        return
    i = int(bad.argmax())
    pos, fault = int(rejected[i]), "has no end mark"
    if pos < lengths[i]:
        at = corpus.offsets[i] + pos
        fault = {"open": f"is deeper than m={params.m} at token {pos + 1}",
                 "close": f"is not well nested at token {pos + 1}",
                 "end": f"ends at depth {corpus.depths()[at]}"
                 }[vocabulary(params.k)[corpus.codes[at]].kind]
    raise ValueError(f"corpus string {fault}: {format_string(corpus[i])}")


def cmd_metric(args) -> int:
    # the baseline reads only the weight file's k and m
    weights = (load_header if args.uniform_baseline else load_weights)(args.weights)
    with open(args.corpus) as handle:
        text = handle.read()
    header = parse_corpus_header(text)  # before the header's k sizes anything
    if (header["k"], header["m"]) != (weights.k, weights.m):
        raise ValueError(f"corpus is for k={header['k']}, m={header['m']} but "
                         f"weights are for k={weights.k}, m={weights.m}")
    params = DyckParams(weights.k, weights.m)
    _, corpus = parse_corpus(text)
    _refuse_outside(params, corpus)
    if args.uniform_baseline:
        report = closing_metric_uniform(params, corpus, threshold=args.threshold)
    else:
        report = closing_metric(weights, corpus, threshold=args.threshold)
    for line in report.table_lines():
        print(line)
    if report.missing_separations:
        print(f"empty separation buckets (excluded from the mean): "
              f"{report.missing_separations}")
    if not args.uniform_baseline:
        print(f"readout rows: {report.readout_rows} for {report.closes} closes")
    print(f"mean_p: {report.value}")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser every main call reads: parsing builds a new namespace each
    time and leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"build": cmd_build, "sample": cmd_sample, "check": cmd_check,
                "verify": cmd_verify, "metric": cmd_metric}
    try:
        with serial_blas():
            return handlers[args.command](args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
