"""Finite-precision recurrent generators for bounded-depth bracket languages.

Hand-built simple-RNN and LSTM weight sets that provably generate the
k-type, depth-m bracket language with saturating arithmetic, plus the
automaton oracle, a seeded sampler, and the verification suites that check
every construction claim by enumeration and on sampled corpora.
"""

from .automaton import (ACCEPT, EMPTY, REJECT, DfaState, DyckParams, Token,
                        allowed_tokens, close_bracket, depth, format_string,
                        is_member, open_bracket, parse_string, run,
                        stack_state, transition, vocabulary)
from .builders import (LstmParams, RnnParams, build, build_lstm,
                       build_naive_dfa_rnn, build_readout, build_simple_rnn,
                       hidden_units)
from .encodings import (ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, Encoding,
                        ONEHOT, build_encoding)
from .numerics import (GAMMA, NumericConfig, epsilon_for, sat_sigmoid,
                       sat_tanh, softmax, zeta_for)
from .runtime import (NetworkState, SlotView, StackDecodeError, StepTrace,
                      decode_stack, initial_state, next_distribution,
                      run_prefix, slot_view, step)
from .sampler import (SamplerConfig, corpus_statistics, sample_corpus,
                      sample_string, sample_strings)
from .verify import (Collision, QuantizedEncoder, VerificationReport,
                     check_corpus_suites, check_cross_construction_agreement,
                     check_full_depth_distinctness,
                     check_generation_equivalence, check_probability_margins,
                     check_saturation_exactness, check_stack_correspondence,
                     closing_metric, closing_metric_uniform, find_collision)
from .weightio import load_weights, save_weights

__version__ = "0.1.0"
