"""Every faithful-oracle run takes the NFE the closed-form law gives.

The law (tests/nfe_law.py) is computed in exact rational arithmetic from the
printed parameters, so it also holds the decoder to the strict `> tau` rule
where a confidence equals tau exactly, as at the boundary configs below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfe_law import exact_mean_nfe, nfe_law, threshold_count
from warmdiff.core import DeterministicRng, Vocabulary
from warmdiff.decoder import DecodeConfig, decode
from warmdiff.denoiser import NoisyOracleParams, prepare
from warmdiff.harness import build_config, run_one
from warmdiff.proposal import propose_corrupted
from warmdiff.warmstart import WarmStartConfig, warm_init

# Parameters on a 1/100 grid: a confidence c0 + gamma * r / n is then either
# tau or at least 1/(100 n) away from it, far more than a float ulp.
percent = st.integers(0, 100).map(lambda k: k / 100)


@st.composite
def faithful_runs(draw):
    V = draw(st.integers(2, 64))
    n = draw(st.integers(1, 40))
    c0 = draw(st.integers(100 // V + 1, 100).map(lambda k: k / 100))  # c0 > 1/V
    c_max = draw(st.integers(round(c0 * 100), 100).map(lambda k: k / 100))
    params = NoisyOracleParams(c0=c0, gamma=draw(st.integers(0, 200).map(lambda k: k / 100)), c_max=c_max)
    tau = draw(st.integers(1, 100).map(lambda k: k / 100))
    target = np.array(draw(st.lists(st.integers(0, V - 1), min_size=n, max_size=n)), dtype=np.int64)
    method = draw(st.sampled_from(["none", "token-injection"]))
    wcfg = WarmStartConfig(method=method, rho=draw(percent))
    return Vocabulary(V), params, tau, target, wcfg, draw(percent), draw(st.integers(0, 2**32))


def decode_faithful(vocab, params, tau, target, wcfg, epsilon, seed):
    rng = DeterministicRng(seed)
    init = warm_init(vocab, propose_corrupted(vocab, target, epsilon, rng), None, wcfg, rng)
    denoiser, ctx = prepare(target, params, init)
    return init, decode(denoiser, ctx, init, DecodeConfig(tau=tau), rng)


@settings(max_examples=400, deadline=None)
@given(faithful_runs())
def test_every_run_takes_the_nfe_of_the_law(run):
    vocab, params, tau, target, wcfg, epsilon, seed = run
    init, trace = decode_faithful(vocab, params, tau, target, wcfg, epsilon, seed)
    masked = int(init.masked().sum())
    correct = int(((init.tokens == target) & ~init.masked()).sum())
    r_star = threshold_count(len(target), params.c0, params.gamma, params.c_max, tau)
    assert trace.nfe == nfe_law(masked, correct, r_star)
    assert not trace.capped


@pytest.mark.parametrize("n, nfe", [(12, 12), (18, 17), (24, 22), (30, 27), (36, 32)])
def test_boundary_configs_hold_the_strict_threshold(n, nfe):
    """With the defaults (c0 0.4, gamma 0.6, tau 0.9) and no warm start, the
    confidence after 5n/6 forced reveals is exactly 0.9, which does not
    unmask in parallel; one more forced reveal does."""
    cfg = build_config({"n": n, "num_runs": 1})
    assert threshold_count(n, cfg.oracle.c0, cfg.oracle.gamma, cfg.oracle.c_max, cfg.decode.tau) == 5 * n // 6 + 1
    result, trace, _ = run_one(cfg, 0)
    assert result.nfe == nfe == nfe_law(n, 0, 5 * n // 6 + 1)
    assert [len(rec.unmasked) for rec in trace.iterations] == [1] * (nfe - 1) + [n - nfe + 1]
    assert [c for _, _, c in trace.iterations[5 * n // 6].unmasked] == [0.9]


@pytest.mark.parametrize(
    "n, c0, gamma, tau",
    [(16, 0.15, 0.8, 0.7), (24, 0.2, 0.4, 0.35), (15, 0.4, 0.25, 0.6), (39, 0.55, 0.45, 0.85), (32, 0.15, 0.8, 0.75)],
)
def test_levels_that_equal_tau_in_decimal_do_not_pass_it(n, c0, gamma, tau):
    """In these configs the float sum c0 + gamma * (r / n) lands one ulp above
    tau at the r where the decimal value equals tau; the exact levels do not."""
    r_star = threshold_count(n, c0, gamma, 0.99, tau)
    assert c0 + gamma * ((r_star - 1) / n) > tau
    vocab = Vocabulary(64)
    target = np.arange(n) % 64
    _, trace = decode_faithful(vocab, NoisyOracleParams(c0=c0, gamma=gamma), tau, target, WarmStartConfig(), 0.0, 0)
    assert trace.nfe == nfe_law(n, 0, r_star)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), percent, st.data())
def test_boundary_parameters_through_the_law(n, rho, data):
    """The boundary parameters with token injection: every run still obeys
    the law, whatever its injected count."""
    vocab = Vocabulary(64)
    target = np.array(data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)), dtype=np.int64)
    wcfg = WarmStartConfig(method="token-injection", rho=rho)
    epsilon, seed = data.draw(percent), data.draw(st.integers(0, 2**32))
    init, trace = decode_faithful(vocab, NoisyOracleParams(), 0.9, target, wcfg, epsilon, seed)
    correct = int(((init.tokens == target) & ~init.masked()).sum())
    assert trace.nfe == nfe_law(int(init.masked().sum()), correct, threshold_count(n, 0.4, 0.6, 0.99, 0.9))


def test_exact_mean_is_a_finite_multinomial_sum():
    # No warm start: every run forces r* reveals, then unmasks the rest.
    assert exact_mean_nfe(24, 0.4, 0.6, 0.99, 0.9, 0.0, 0.0) == 22
    # Full injection of the target leaves nothing to decode.
    assert exact_mean_nfe(24, 0.4, 0.6, 0.99, 0.9, 1.0, 0.0) == 0
    # n = 1: decoded in one call unless injected.
    assert exact_mean_nfe(1, 0.4, 0.6, 0.99, 0.9, 0.25, 0.5) == 0.75
