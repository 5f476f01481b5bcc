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

import numpy as np

from .errors import NumericFailure


@dataclass(frozen=True, eq=False)
class BranchPackets:
    """What the screen intensity needs of both evolved packets on one grid.

    mod1 = |g1|^2, mod2 = |g2|^2, and cross_re, cross_im the real and
    imaginary parts of conj(g1) g2; g1 is centered at +slit_sep/2 (the branch
    tied to detector state d1), g2 at -slit_sep/2.  All four arrays are
    read-only.
    """

    mod1: np.ndarray
    mod2: np.ndarray
    cross_re: np.ndarray
    cross_im: np.ndarray


def branch_packets(xs, centers, prefactor: complex, beta: complex) -> BranchPackets:
    """The packets g_j = prefactor exp(-(x - c_j)^2 / beta), in real arithmetic.

    With q = 1/beta and u_j = (x - c_j)^2:
    |g_j|^2 = |prefactor|^2 exp(-2 Re(q) u_j) and
    conj(g1) g2 = |prefactor|^2 exp(-Re(q) (u1 + u2)) exp(i Im(q) (u1 - u2)).
    The phase takes u1 - u2 as (c2 - c1) (2x - c1 - c2), which does not
    cancel far from the slits.  At most five grid-sized arrays are alive at
    once.
    """
    c1, c2 = centers
    q = 1.0 / beta
    amp2 = abs(prefactor) ** 2
    phase = np.multiply(xs, 2.0)
    phase -= c1 + c2
    phase *= q.imag * (c2 - c1)
    u1 = np.subtract(xs, c1)
    u1 *= u1
    u2 = np.subtract(xs, c2)
    u2 *= u2
    for u in (u1, u2):  # u_j becomes exp(-Re(q) u_j)
        u *= -q.real
        np.exp(u, out=u)
    cross_re = np.cos(phase)
    cross_im = np.sin(phase, out=phase)
    mag = u1 * u2
    mag *= amp2
    cross_re *= mag
    cross_im *= mag
    for e in (u1, u2):  # exp(-Re(q) u_j) becomes |g_j|^2
        e *= e
        e *= amp2
    for arr in (u1, u2, cross_re, cross_im):
        arr.flags.writeable = False
    return BranchPackets(u1, u2, cross_re, cross_im)


def combine(packets: BranchPackets, w1: float, w2: float, c: complex):
    """2 (w1 |g1|^2 + w2 |g2|^2 + 2 Re(c conj(g1) g2)) as a fresh array."""
    out = w1 * packets.mod1
    out += w2 * packets.mod2
    out += (2.0 * c.real) * packets.cross_re
    out -= (2.0 * c.imag) * packets.cross_im
    out *= 2.0
    return out


def direct_grid(packets: BranchPackets, a1, a2, ip):
    """Screen intensity from the complex amplitudes of both branches.

    ip is the detector overlap <d1|d2>; a1, a2 are the (complex, normalized)
    path amplitudes.
    """
    return combine(packets, abs(a1) ** 2, abs(a2) ** 2, a1.conjugate() * a2 * ip)


def closed_parts_grid(xs, slit_sep, eps, tau, s, theta):
    """(envelope, interference) decomposition of the closed-form intensity.

    envelope: Gaussian-cosh hump sum; interference: the overlap-weighted
    cosine cross term.  Their sum is the closed-form intensity.
    """
    xs = np.asarray(xs, dtype=float)
    try:
        sig2 = eps * eps + (tau / (2.0 * eps)) ** 2
        kap = slit_sep * tau / (4.0 * eps**4 + tau * tau)
    except OverflowError:  # a float power past the float range raises
        raise NumericFailure("the closed form's spread overflows for this geometry") from None
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
    def outcome(k1, k2):
        # |sqrt2 (k1 g1 + k2 g2)|^2 with k_j = <basis state|d_j> a_j
        return combine(packets, abs(k1) ** 2, abs(k2) ** 2, k1.conjugate() * k2)

    return outcome(b_d1 * a1, b_d2 * a2), outcome(p_d1 * a1, p_d2 * a2)
