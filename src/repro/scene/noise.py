"""Gaussian noise injection at controlled signal-to-noise ratios.

The paper's robustness ablation (Fig. 3) corrupts test images with
additive Gaussian noise at SNR levels from 5 to 30 dB in 5 dB steps.
SNR is defined against the image's mean signal power, so a 5 dB image
is dominated by noise while a 30 dB image is only lightly grainy.
"""

from __future__ import annotations

import numpy as np

#: The SNR sweep used in Figure 3 (dB).
PAPER_SNR_LEVELS_DB = (5, 10, 15, 20, 25, 30)


def signal_power(image: np.ndarray) -> float:
    """Mean signal power of an image in float [0, 1] units."""
    as_float = _to_float(image)
    return float(np.mean(np.square(as_float)))


def noise_sigma_for_snr(image: np.ndarray, snr_db: float) -> float:
    """Noise standard deviation achieving ``snr_db`` on ``image``."""
    power = signal_power(image)
    if power == 0.0:
        return 0.0
    return float(np.sqrt(power / (10.0 ** (snr_db / 10.0))))


def add_gaussian_noise(
    image: np.ndarray,
    snr_db: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Return a copy of ``image`` corrupted to the target SNR.

    Accepts uint8 or float input; returns the same dtype.  Pixels are
    clipped to the valid range after corruption (as a camera sensor
    would saturate), which makes the *measured* SNR slightly higher
    than nominal at very low SNR — the standard convention.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    as_float = _to_float(image)
    sigma = noise_sigma_for_snr(image, snr_db)
    noisy = as_float + rng.normal(0.0, sigma, size=as_float.shape)
    np.clip(noisy, 0.0, 1.0, out=noisy)
    if image.dtype == np.uint8:
        return (noisy * 255.0 + 0.5).astype(np.uint8)
    return noisy.astype(image.dtype)


def _to_float(image: np.ndarray) -> np.ndarray:
    if image.dtype == np.uint8:
        return image.astype(np.float64) / 255.0
    return image.astype(np.float64)
