"""Closed-form NFE of the faithful oracle, in exact rational arithmetic.

Take the faithful oracle with no embedding bonus, a start whose injected
tokens are never remasked, and c0 > 1/V, so that the target token is the
argmax of every row. All masked positions then share one confidence,
min(c_max, c0 + gamma * r / n), where r counts the correctly revealed
positions. Each iteration either unmasks every masked position at once
(confidence > tau) or forces exactly one of them, which reveals its target
token and raises r by one. A run with m masked positions and r0 correct
injected tokens therefore takes min(m, 1 + max(0, r* - r0)) denoiser calls,
where r* is the least r whose confidence exceeds tau.

Parameters are read as the decimals they print as (`Fraction(repr(float(x)))`),
independently of the engine's float path.
"""

from fractions import Fraction
from math import comb, inf


def exact(x) -> Fraction:
    return Fraction(repr(float(x)))


def threshold_count(n, c0, gamma, c_max, tau):
    """r*: the least r in 0..n with min(c_max, c0 + gamma * r / n) > tau, or
    infinity when there is none."""
    c0, gamma, c_max, tau = map(exact, (c0, gamma, c_max, tau))
    if c_max <= tau:
        return inf
    return next((r for r in range(n + 1) if c0 + gamma * Fraction(r, n) > tau), inf)


def nfe_law(masked, correct_injected, r_star):
    """Denoiser calls of one run with `masked` positions to decode."""
    return min(masked, 1 + max(0, r_star - correct_injected))


def exact_mean_nfe(n, c0, gamma, c_max, tau, rho, epsilon) -> Fraction:
    """Mean NFE over token-injection starts from the corrupted-oracle proposer.

    Each position is independently a correct injected token (probability
    rho * (1 - epsilon)), a wrong one (rho * epsilon; a substitution never
    equals the target) or masked (1 - rho), so the mean is a finite sum over
    the multinomial of the three counts.
    """
    rho, epsilon = exact(rho), exact(epsilon)
    p_right, p_wrong, p_masked = rho * (1 - epsilon), rho * epsilon, 1 - rho
    r_star = threshold_count(n, c0, gamma, c_max, tau)
    total = Fraction(0)
    for right in range(n + 1):
        for wrong in range(n + 1 - right):
            masked = n - right - wrong
            weight = comb(n, right) * comb(n - right, wrong) * p_right**right * p_wrong**wrong * p_masked**masked
            total += weight * nfe_law(masked, right, r_star)
    return total
