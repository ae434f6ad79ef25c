"""Failure interarrival distributions.

The paper's model assumes exponential interarrivals (Poisson failures,
"electrical devices in mid-life" [Yang 2007]).  Weibull and lognormal
are provided for the robustness ablation: field studies (Schroeder &
Gibson) find Weibull shape < 1 fits real HPC failure logs better, and
the ablation benchmark measures how much that violates the model.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from ..errors import ConfigurationError


class Distribution(Protocol):
    """Interface: positive random interarrival times with a known mean."""

    mean: float

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one interarrival time."""
        ...  # pragma: no cover - protocol


class Exponential:
    """Exponential interarrivals — the paper's Poisson assumption."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean}")
        self.mean = mean

    def sample(self, rng: np.random.Generator) -> float:
        """Draw from Exp(1/mean)."""
        return float(rng.exponential(scale=self.mean))


class Weibull:
    """Weibull interarrivals with the given mean and shape.

    ``shape < 1`` gives a decreasing hazard (infant-mortality-like
    clustering), which is what real failure logs show.
    """

    def __init__(self, mean: float, shape: float = 0.7) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean}")
        if shape <= 0:
            raise ConfigurationError(f"shape must be > 0, got {shape}")
        self.mean = mean
        self.shape = shape
        # scale chosen so the distribution mean equals `mean`.
        self._scale = mean / math.gamma(1.0 + 1.0 / shape)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw from Weibull(shape) scaled to the requested mean."""
        return float(self._scale * rng.weibull(self.shape))


class LogNormal:
    """Lognormal interarrivals with the given mean and coefficient of variation."""

    def __init__(self, mean: float, cv: float = 1.0) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean}")
        if cv <= 0:
            raise ConfigurationError(f"cv must be > 0, got {cv}")
        self.mean = mean
        self._sigma = math.sqrt(math.log1p(cv**2))
        self._mu = math.log(mean) - 0.5 * self._sigma**2

    def sample(self, rng: np.random.Generator) -> float:
        """Draw from LogNormal(mu, sigma) with the requested mean/CV."""
        return float(rng.lognormal(mean=self._mu, sigma=self._sigma))
