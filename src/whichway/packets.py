"""Gaussian wave packets and their free-space spreading.

Only the transverse screen coordinate is modelled; forward motion enters
through the single combination tau = (de Broglie wavelength) x (flight
distance) / 2pi, which plays the role of (hbar t / m).  Everything is SI
meters; tau has units of m^2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _require_positive(name: str, value: float) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return v


@dataclass(frozen=True)
class Geometry:
    """Physical layout of the experiment (all lengths in meters).

    wavelength   -- de Broglie wavelength of the particle
    slit_sep     -- center-to-center slit separation
    screen_dist  -- slit plane to detection screen
    packet_width -- Gaussian width of the packet emerging from each slit
    """

    wavelength: float
    slit_sep: float
    screen_dist: float
    packet_width: float

    def __post_init__(self):
        for name in ("wavelength", "slit_sep", "screen_dist", "packet_width"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        if self.slit_sep <= 4.0 * self.packet_width:
            warnings.warn(
                f"slit_sep = {self.slit_sep:g} m is within 4 packet widths "
                f"({self.packet_width:g} m); the two packets overlap already at the slits",
                stacklevel=2,
            )


def effective_tau(geom: Geometry) -> float:
    """The evolution parameter accumulated over the flight to the screen:
    wavelength * screen_dist / 2pi (units m^2)."""
    return geom.wavelength * geom.screen_dist / (2.0 * math.pi)


def spread_sigma(eps: float, tau: float) -> float:
    """Width of the evolved packet: sqrt(eps^2 + (tau / 2 eps)^2)."""
    eps = _require_positive("eps", eps)
    return math.hypot(eps, tau / (2.0 * eps))


def evolution_constants(eps: float, tau: float) -> tuple[complex, complex]:
    """(A_t, beta) of the evolved packet A_t exp(-(x-center)^2 / beta).

    beta = 4 eps^2 + 2 i tau and
    A_t = (1/sqrt2) [sqrt(2 pi) (eps + i tau / 2 eps)]^(-1/2), principal
    branch.  Past the float range A_t is not finite, without a warning.
    """
    eps = _require_positive("eps", eps)
    if not math.isfinite(tau):
        raise ValidationError(f"tau must be finite, got {tau!r}")
    with np.errstate(all="ignore"):
        prefactor = 1.0 / math.sqrt(2.0) / np.sqrt(
            math.sqrt(2.0 * math.pi) * (eps + 0.5j * tau / eps))
    return complex(prefactor), 4.0 * eps * eps + 2.0j * tau


def evolved_amplitude(x, center: float, eps: float, tau: float):
    """Complex amplitude of the packet after accumulating evolution ``tau``.

    A_t exp(-(x-center)^2 / beta) with A_t and beta from
    :func:`evolution_constants`; its intensity integrates to 1/2.  Negative
    tau is allowed (it yields the complex conjugate, a time-reversal check);
    accepts scalars or arrays.
    """
    prefactor, beta = evolution_constants(eps, tau)
    x = np.asarray(x, dtype=float)
    out = prefactor * np.exp(-((x - center) ** 2) / beta)
    return out if out.ndim else complex(out)
