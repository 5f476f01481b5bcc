"""Gaussian wave packets and their free-space spreading.

Only the transverse screen coordinate is modelled; forward motion enters
through the single combination tau = (de Broglie wavelength) x (flight
distance) / 2pi, which plays the role of (hbar t / m).  Everything is SI
meters; tau has units of m^2.

The module also holds the rule a screen grid's bounds and point count obey.
It imports no NumPy at load: ``Geometry`` and the grid rule are what every
config needs, and the ``bohr`` subcommand needs nothing else.  The two
functions that compute with NumPy import it when called.
"""
from __future__ import annotations

import math
import sys
import warnings

from ._record import Record, init_field
from .errors import ValidationError

#: The most float64 values one NumPy array can hold: NumPy's intp is C's
#: ssize_t, whose largest value is sys.maxsize.
MAX_FLOATS = sys.maxsize // 8
#: The smallest normal float64 (NumPy's finfo(float).smallest_normal): below
#: it a float has lost digits.
SMALLEST_NORMAL = sys.float_info.min


def _require_positive(name: str, value: float) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return v


class Geometry(Record):
    """Physical layout of the experiment (all lengths in meters).

    wavelength   -- de Broglie wavelength of the particle
    slit_sep     -- center-to-center slit separation
    screen_dist  -- slit plane to detection screen
    packet_width -- Gaussian width of the packet emerging from each slit
    """

    __slots__ = _fields = ("wavelength", "slit_sep", "screen_dist", "packet_width")

    def __init__(self, wavelength: float, slit_sep: float, screen_dist: float,
                 packet_width: float):
        wavelength = _require_positive("wavelength", wavelength)
        slit_sep = _require_positive("slit_sep", slit_sep)
        screen_dist = _require_positive("screen_dist", screen_dist)
        packet_width = _require_positive("packet_width", packet_width)
        init_field(self, "wavelength", wavelength)
        init_field(self, "slit_sep", slit_sep)
        init_field(self, "screen_dist", screen_dist)
        init_field(self, "packet_width", packet_width)
        init_field(self, "_values", (wavelength, slit_sep, screen_dist, packet_width))
        if self.slit_sep <= 4.0 * self.packet_width:
            warnings.warn(
                f"slit_sep = {self.slit_sep:g} m is within 4 packet widths "
                f"({self.packet_width:g} m); the two packets overlap already at the slits",
                stacklevel=2,  # the code that built the Geometry
            )


def point_count(n_points) -> int:
    """n_points as an int, if it is a whole number a grid can hold."""
    if not 2 <= n_points <= MAX_FLOATS or int(n_points) != n_points:
        raise ValidationError(
            f"n_points must be an integer from 2 to {MAX_FLOATS}, got {n_points!r}"
        )
    return int(n_points)


def grid_points(x_min: float, x_max: float, n_points) -> int:
    """Check the bounds and point count of a uniform screen grid; returns
    n_points as an int.

    The bounds must be finite and increasing, and the spacing
    (x_max - x_min) / (n_points - 1) a normal float: a subnormal spacing has
    lost its precision, and the trapezoid integral over such a grid is too
    small to normalize by.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValidationError("grid bounds must be finite")
    if not x_min < x_max:
        raise ValidationError(f"x_min must be below x_max, got [{x_min}, {x_max}]")
    n_points = point_count(n_points)
    spacing = (x_max - x_min) / (n_points - 1)
    if not SMALLEST_NORMAL <= spacing < math.inf:
        raise ValidationError(f"grid spacing {spacing!r} m is not a normal float")
    return n_points


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
    import numpy as np

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
    import numpy as np

    prefactor, beta = evolution_constants(eps, tau)
    x = np.asarray(x, dtype=float)
    out = prefactor * np.exp(-((x - center) ** 2) / beta)
    return out if out.ndim else complex(out)
