"""Dense-grid intensity kernels.

All kernels take scalar physics parameters and return unnormalized
intensities in the convention where the full (equal-amplitude) pattern
integrates to ~1.  The direct and conditional routes start from the two
evolved branch packets: they depend on the geometry and the grid only, while
detector states and path amplitudes merely weight and mix them, so a sweep
over detector states can evolve them once and combine them per state.
"""
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class BranchPackets:
    """Both evolved packets on one grid.

    g1 is centered at +slit_sep/2 (the branch tied to detector state d1),
    g2 at -slit_sep/2.
    """

    g1: np.ndarray
    g2: np.ndarray

    @cached_property
    def moduli(self) -> tuple[np.ndarray, np.ndarray]:
        """|g1|^2 and |g2|^2."""
        g1, g2 = self.g1, self.g2
        return g1.real**2 + g1.imag**2, g2.real**2 + g2.imag**2


def direct_grid(packets: BranchPackets, a1, a2, ip):
    """Screen intensity from the complex amplitudes of both branches.

    ip is the detector overlap <d1|d2>; a1, a2 are the (complex, normalized)
    path amplitudes.
    """
    mod1, mod2 = packets.moduli
    cross = np.conj(a1) * a2 * ip * np.conj(packets.g1) * packets.g2
    # 2 (|a1|^2 mod1 + |a2|^2 mod2 + 2 Re cross), summed in one array
    out = abs(a1) ** 2 * mod1
    out += abs(a2) ** 2 * mod2
    out += 2.0 * cross.real
    out *= 2.0
    return out


def closed_grid(xs, slit_sep, eps, tau, s, theta):
    """Closed-form screen intensity for equal path amplitudes."""
    envelope, interference = closed_parts_grid(xs, slit_sep, eps, tau, s, theta)
    return envelope + interference


def closed_parts_grid(xs, slit_sep, eps, tau, s, theta):
    """(envelope, interference) decomposition of the closed-form intensity.

    envelope: Gaussian-cosh hump sum; interference: the overlap-weighted
    cosine cross term.  Their sum is the closed-form intensity.
    """
    xs = np.asarray(xs, dtype=float)
    sig2 = eps * eps + (tau / (2.0 * eps)) ** 2
    kap = slit_sep * tau / (4.0 * eps**4 + tau * tau)
    pref = 1.0 / math.sqrt(2.0 * math.pi * sig2)
    gauss = pref * np.exp(-(xs * xs + 0.25 * slit_sep * slit_sep) / (2.0 * sig2))
    envelope = gauss * np.cosh(xs * slit_sep / (2.0 * sig2))
    interference = gauss * (s * np.cos(kap * xs - theta))
    return envelope, interference


def conditional_grid(packets: BranchPackets, a1, a2, b_d1, b_d2, p_d1, p_d2):
    """Screen intensities conditioned on the two detector-basis outcomes.

    b_d1 = <b|d1> etc. for the first basis state, p_* for its orthogonal
    partner.  Returns the two branch intensities; their sum equals
    direct_grid for the same state.
    """
    g1, g2 = packets.g1, packets.g2
    u = _SQRT2 * (b_d1 * a1 * g1 + b_d2 * a2 * g2)
    v = _SQRT2 * (p_d1 * a1 * g1 + p_d2 * a2 * g2)
    return u.real**2 + u.imag**2, v.real**2 + v.imag**2
