"""Bohr's answer to Einstein's recoiling slit, as numbers.

A which-way record taken from the slit's recoil needs a momentum resolution
delta_px = (h / wavelength)(d / L).  By the uncertainty relation that blurs
the slit's position by delta_x = wavelength L / (4 pi d), a fixed share 1/4pi
of the fringe pitch wavelength L / d, whatever the geometry.

Only ``math`` is needed: this module and ``packets`` import no NumPy, so the
``bohr`` subcommand runs without loading it.
"""
from __future__ import annotations

import math

from ._record import Record, init_field
from .errors import NumericFailure, ValidationError
from .packets import SMALLEST_NORMAL, Geometry

#: Planck's constant in J s, exact in the 2019 SI.
PLANCK_H = 6.62607015e-34


class BohrReport(Record):
    """Back-of-envelope recoil bookkeeping in SI units.

    The blur-to-pitch ratio delta_x / fringe_sep is derived, and is the
    geometry-free constant 1/4pi; construction rejects anything else.
    """

    __slots__ = _fields = ("delta_px", "delta_x", "fringe_sep", "ratio")

    def __init__(self, delta_px: float, delta_x: float, fringe_sep: float):
        ratio = delta_x / fringe_sep
        if not abs(ratio - 0.25 / math.pi) <= 1e-12:  # NaN included
            raise ValidationError(f"ratio {ratio!r} is not the recoil constant 1/4pi")
        init_field(self, "delta_px", delta_px)
        init_field(self, "delta_x", delta_x)
        init_field(self, "fringe_sep", fringe_sep)
        init_field(self, "ratio", ratio)
        init_field(self, "_values", (delta_px, delta_x, fringe_sep, ratio))


def bohr_analysis(geom: Geometry) -> BohrReport:
    """The recoil estimate: momentum spread, implied slit-position blur, fringe pitch.

    delta_px = (h / wavelength)(d / L); delta_x = wavelength L / (4 pi d) is
    the minimum-uncertainty position blur for that momentum resolution, and
    the Young fringe pitch is wavelength L / d.  Their ratio is the constant
    1/4pi for every geometry, which is the whole point: the blur is the same
    order as the pitch.  h is Planck's constant at its exact 2019 SI value.
    Raises NumericFailure when a number overflows, or when the blur delta_x,
    the smaller of the two lengths, or the momentum spread delta_px is not a
    normal float, the rule ScreenGrid applies to its spacing: below that,
    the number has lost digits.
    """
    lam, d, dist = geom.wavelength, geom.slit_sep, geom.screen_dist
    delta_px = (PLANCK_H / lam) * (d / dist)
    delta_x = lam * dist / (4.0 * math.pi * d)
    fringe_sep = lam * dist / d
    for name, value in (("delta_px", delta_px), ("delta_x", delta_x), ("fringe_sep", fringe_sep)):
        if not math.isfinite(value):
            raise NumericFailure(f"non-finite {name} in recoil report")
    if not delta_x >= SMALLEST_NORMAL:
        raise NumericFailure(
            f"delta_x {delta_x!r} m is below the normal floats in recoil report "
            f"(fringe_sep {fringe_sep!r} m)"
        )
    if not delta_px >= SMALLEST_NORMAL:
        raise NumericFailure(
            f"delta_px {delta_px!r} kg m/s is below the normal floats in recoil report"
        )
    return BohrReport(delta_px=delta_px, delta_x=delta_x, fringe_sep=fringe_sep)
