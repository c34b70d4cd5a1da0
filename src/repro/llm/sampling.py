"""Temperature and top-p effects on the Yes/No decision.

The paper's parameter-tuning experiment (§IV-C4) varies Gemini's
``temperature`` (0.1 / 1.0 / 1.5) and ``top_p`` (0.5 / 0.75 / 0.95)
and finds only marginal F1 movement ("Top-P adjustments mainly
influence output variety rather than task performance").

The simulation reproduces that flatness with the decomposition real
VLMs exhibit:

* the model's *perceptual* uncertainty — whether it believes the
  indicator is present — is sampled from the calibrated response
  policy and is independent of the sampling parameters;
* the *token-level* distribution over "Yes"/"No" is then strongly
  saturated toward the intended answer (confidence logit
  :data:`TOKEN_CONFIDENCE_LOGIT`).  Temperature rescales that token
  logit and top-p truncates the token nucleus, so extreme settings
  add (or remove) only a small answer-flip probability.

At the default settings (T=1.0, top-p=0.95) the nucleus collapses to
the intended token, so calibration at defaults is exact.
"""

from __future__ import annotations

import numpy as np

#: Token confidence logit for a maximally uncertain perception.
TOKEN_BASE_LOGIT = 2.5

#: Extra token confidence per unit of perceptual certainty |2q - 1|.
#: A model that is perceptually sure emits its answer token with
#: logit ≈ 6.5 — effectively deterministic at any temperature ≤ 2.
TOKEN_CERTAINTY_GAIN = 4.0

#: Floor that keeps the logit rescale finite at temperature → 0.
_MIN_TEMPERATURE = 0.02


def token_fidelity(p_yes: float, temperature: float, top_p: float) -> float:
    """Probability the emitted token matches the intended answer.

    The intended token's confidence grows with perceptual certainty
    (``|2 p_yes - 1|``): a model that clearly sees the indicator will
    not flip its answer at any temperature, while borderline cases
    carry genuine token-level entropy.  Nucleus sampling keeps only
    the intended token whenever its probability reaches ``top_p``
    (the dominant token always enters the nucleus first), making the
    emission deterministic.
    """
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p out of range: {top_p}")
    if not 0.0 <= temperature <= 2.0:
        raise ValueError(f"temperature out of range: {temperature}")
    certainty = abs(2.0 * float(np.clip(p_yes, 0.0, 1.0)) - 1.0)
    z0 = TOKEN_BASE_LOGIT + TOKEN_CERTAINTY_GAIN * certainty
    z = z0 / max(temperature, _MIN_TEMPERATURE)
    p_intended = float(1.0 / (1.0 + np.exp(-z)))
    if p_intended >= top_p:
        return 1.0
    return p_intended


def effective_yes_probability(
    p_yes: float, temperature: float, top_p: float
) -> float:
    """Overall P(answer = Yes) including the token-flip channel.

    Analytic (no sampling); used by the calibration fitter so fitted
    policies account for the full sampling pipeline.
    """
    fidelity = token_fidelity(p_yes, temperature, top_p)
    return p_yes * fidelity + (1.0 - p_yes) * (1.0 - fidelity)


def sample_yes(
    p_yes: float,
    temperature: float,
    top_p: float,
    rng: np.random.Generator,
) -> bool:
    """Draw the Yes/No decision: perceptual draw, then token emission."""
    intended = bool(rng.random() < p_yes)
    fidelity = token_fidelity(p_yes, temperature, top_p)
    if fidelity >= 1.0 or rng.random() < fidelity:
        return intended
    return not intended
