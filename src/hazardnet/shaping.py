"""Time-shaping kernels and baseline hazard families.

A shaping function maps a parent's infection age into the covariate that
drives the additive hazard of a target node; each variant has a closed-form
integral. Baselines are the parent-independent component of the
multiplicative hazard, again with closed-form interval integrals and exact
inverses (used by the cascade sampler).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exponential"
POWER = "power"
RAYLEIGH = "rayleigh"
SHAPING_VARIANTS = (EXPONENTIAL, POWER, RAYLEIGH)

CONSTANT = "constant"
LINEAR = "linear"
INVERSE = "inverse"
BASELINE_VARIANTS = (CONSTANT, LINEAR, INVERSE)

_MAX_LOG_SCALE = math.log(sys.float_info.max)  # largest a0 with a finite exp(a0)


@dataclass(frozen=True)
class ShapingFunction:
    """One of the three kernel families driving additive hazards.

    exponential: a unit step once the parent is infected.
    power:       1/(t - t_parent), switched on only after a minimum delay
                 ``delta`` (the kernel is not integrable at zero age).
    rayleigh:    linear growth t - t_parent.
    """

    variant: str
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in SHAPING_VARIANTS:
            raise ValueError(f"unknown shaping variant {self.variant!r}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be a positive finite delay")

    def hazard(self, t_parent, t) -> np.ndarray:
        """Kernel value at time ``t`` for a parent infected at ``t_parent``.

        Zero whenever t <= t_parent (and, for the power kernel, whenever the
        age is below ``delta``).
        """
        tp = np.asarray(t_parent, dtype=np.float64)
        age = np.asarray(t, dtype=np.float64) - tp
        if self.variant == EXPONENTIAL:
            return np.where(age > 0.0, 1.0, 0.0)
        if self.variant == RAYLEIGH:
            return np.maximum(age, 0.0)
        return np.where(age >= self.delta, 1.0 / np.maximum(age, self.delta), 0.0)

    def cumulative(self, t_parent, t) -> np.ndarray:
        """Integral of :meth:`hazard` from ``t_parent`` up to ``t``."""
        tp = np.asarray(t_parent, dtype=np.float64)
        age = np.asarray(t, dtype=np.float64) - tp
        if self.variant == EXPONENTIAL:
            return np.maximum(age, 0.0)
        if self.variant == RAYLEIGH:
            return 0.5 * np.maximum(age, 0.0) ** 2
        return np.log(np.maximum(age / self.delta, 1.0))


@dataclass(frozen=True)
class Baseline:
    """Parent-independent hazard component of the multiplicative model.

    The scale enters through ``log_scale`` (= a0), so the rate is exp(a0),
    exp(a0) * t or exp(a0) / t. The inverse variant is singular at the
    origin; its integrals clamp the lower limit at ``epsilon``, i.e. the
    rate is treated as zero on [0, epsilon).
    """

    variant: str
    log_scale: float = 0.0
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if self.variant not in BASELINE_VARIANTS:
            raise ValueError(f"unknown baseline variant {self.variant!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be a positive finite clamp")
        if not math.isfinite(self.log_scale):
            raise ValueError("log_scale must be finite")
        if self.log_scale > _MAX_LOG_SCALE:
            raise ValueError(f"log_scale {self.log_scale} is too large: exp(log_scale) overflows")

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale)

    def rate(self, t) -> np.ndarray:
        """Baseline hazard value at time ``t`` (0 where the clamp applies)."""
        tt = np.asarray(t, dtype=np.float64)
        if self.variant == CONSTANT:
            return np.full_like(tt, self.scale)
        if self.variant == LINEAR:
            return self.scale * np.maximum(tt, 0.0)
        return np.where(tt >= self.epsilon, self.scale / np.maximum(tt, self.epsilon), 0.0)

    def log_rate(self, t) -> np.ndarray:
        """log of :meth:`rate`; -inf where the rate is zero."""
        tt = np.asarray(t, dtype=np.float64)
        with np.errstate(divide="ignore"):
            if self.variant == CONSTANT:
                return np.full_like(tt, self.log_scale)
            if self.variant == LINEAR:
                return np.where(tt > 0.0, self.log_scale + np.log(np.maximum(tt, 1e-300)), -np.inf)
            return np.where(
                tt >= self.epsilon,
                self.log_scale - np.log(np.maximum(tt, self.epsilon)),
                -np.inf,
            )

    def integral(self, a, b) -> np.ndarray:
        """Closed-form integral of the rate over [a, b]; 0 when b <= a."""
        lo = np.asarray(a, dtype=np.float64)
        hi = np.maximum(np.asarray(b, dtype=np.float64), lo)
        if self.variant == CONSTANT:
            return self.scale * (hi - lo)
        if self.variant == LINEAR:
            return 0.5 * self.scale * (hi**2 - lo**2)
        eps = self.epsilon
        return self.scale * np.log(np.maximum(hi, eps) / np.maximum(lo, eps))

    def invert_integral(self, a, target) -> np.ndarray:
        """Smallest t >= a with integral(a, t) == target, elementwise.

        Exact inverse of :meth:`integral`; every variant has unbounded mass,
        so a solution always exists for finite targets. It is inf, without a
        warning, where it lies beyond the float range.
        """
        lo = np.asarray(a, dtype=np.float64)
        mass = np.asarray(target, dtype=np.float64)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.variant == CONSTANT:
                out = lo + mass / self.scale
            elif self.variant == LINEAR:
                out = np.sqrt(np.maximum(lo, 0.0) ** 2 + 2.0 * mass / self.scale)
            else:
                out = np.maximum(lo, self.epsilon) * np.exp(mass / self.scale)
        return np.where(mass <= 0.0, lo, out)


# what drives a network's hazards: a kernel for an additive network, a
# baseline for a multiplicative one
Model = ShapingFunction | Baseline
