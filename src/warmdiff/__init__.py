"""Masked-diffusion decoding with warm-start initialization.

Core pieces: a mask-sentinel vocabulary and diffusion state, synthetic
denoisers (context-gain oracle, bigram mixture), warm proposers, the
token-injection / embedding-interpolation warm-start operator, a
confidence-threshold decoder with decaying stochastic remasking, and a
seeded experiment harness with a CLI.
"""

from .bigram import BigramModel, load_corpus
from .core import (
    DeterministicRng,
    DiffusionState,
    EmbeddingOverride,
    EmbeddingTable,
    Vocabulary,
    all_mask_init,
    softmax,
)
from .decoder import (
    DecodeConfig,
    DecodeTrace,
    IterationRecord,
    apply_remask,
    confidences,
    decode,
    remask_rates,
    select_unmask,
)
from .denoiser import DenoiseContext, NoisyOracleParams, markov_logits, noisy_oracle_logits, prepare
from .harness import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    MetricsRecord,
    RunResult,
    build_config,
    check_trace_invariants,
    exact_match,
    run_experiment,
    run_one,
    sweep,
    token_accuracy,
)
from .proposal import propose_corrupted, propose_markov
from .warmstart import WarmStartConfig, inject_tokens, interpolate_embeddings, warm_init

__version__ = "0.1.0"
