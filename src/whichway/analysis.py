"""Quantitative complementarity: distinguishability, visibility, duality reports.

The numeric visibility estimator takes pattern samples and no geometry
argument, but it reads the geometry the samples keep: its which-way
reference, ``PatternSamples.which_way()``, comes from the direct route's
packets for the samples' ``geom`` and ``path_weights``, whichever route
made the samples.  It reads a pattern against its which-way reference: the
same pattern with its cross term removed, which is what the screen shows
when the detector states are orthogonal (as which-way experiments record
it).  Their difference is
the interference term itself, so no envelope is fitted.  A pattern that
stays within 1e-9 of its peak from its reference is fringe-free (visibility
0).  Otherwise the spectrum of every other sample of the weighted
difference, zero-padded to a power of two, locates the fringe wavenumber at
its largest interior bin, refined by a 3-point quadratic fit in k; the
difference is demodulated there over every sample and divided by the
reference's integral.  Half the samples hold the lobe as long as there are
at least 4 samples per fringe, and the power-of-two length spares an odd
grid the slow FFT of its own length.  The demodulation sum is a block split
that needs cos and sin at O(sqrt n) angles, not at every sample.  For a pure
detector state of overlap s this reads s exp(-d^2 / 8 sigma_t^2) to about
1e-10 of s in the far field and 1e-7 of s in the near field.

The estimator's regime: the fringes must clear the spectrum's bin 1 (more
than about one fringe period over the grid), the grid must have at least 4
samples per fringe (pattern_on_grid and conditional_patterns refuse fewer
than 8), and it must hold the envelope, to about 7 sigma_t either side.  A
grid that cuts the envelope lets the cosine's counter-rotating half leak
into the demodulated bin and biases the contrast, by about 1e-4 of s on
default_grid's 5 fringe widths at a slit separation of 25 packet widths;
those 5 fringe widths hold the envelope to 1e-9 only up to about 10 packet
widths.  Packets that overlap at the slits (slit separation within 4 packet
widths, which Geometry warns about) are read the same way.
``oscillatory_residual`` fits a smooth envelope to the samples alone
instead, with NumPy's polyfit (about 1.5 ms on 8192 points on one Xeon
core); it is a diagnostic, not on the estimator's path, and no subcommand
calls it.

Extrema positions (plateau-aware scan plus 3-point parabolic refinement) are
exposed separately for fringe-spacing measurements and eraser checks.

The recoil report (``PLANCK_H``, ``BohrReport``, ``bohr_analysis``) lives in
``recoil``, which imports no NumPy.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._record import Record, init_field
from .errors import ValidationError
from .packets import Geometry, effective_tau, spread_sigma
from .pattern import (
    EraserResult,
    JointState,
    PatternSamples,
    ScreenGrid,
    default_grid,
    pattern_on_grid,
)
from .qubit import DetectorPair, PAULI_Z, mub_basis, variance

#: Largest deviation from the which-way reference, relative to the peak, below
#: which a pattern counts as fringe-free.
FLATNESS_RTOL = 1e-9

#: Slack on the duality inequalities (absorbs estimator error at the bound).
DUALITY_TOL = 1e-9

#: The eraser observable's basis, built once for every duality report.
_ERASER_BASIS = mub_basis()

class DualityReport(Record):
    """Distinguishability/visibility figures plus both duality inequalities.

    The ok flags are derived from the numbers: egy_ok checks
    D^2 + V^2 = lhs <= 1, unc_ok the uncertainty-derived bound
    lhs <= rhs_unc, both within DUALITY_TOL.  The uncertainty-derived right
    side can never exceed 1 for a pure detector state (that is the sum
    uncertainty at work); construction enforces it.  ``_fields`` orders
    the scan-duality columns.
    """

    __slots__ = _fields = ("D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs", "rhs_unc",
                           "egy_ok", "unc_ok")

    def __init__(self, D: float, V_bound: float, V_numeric: float, dP2: float, dQ2: float,
                 lhs: float, rhs_unc: float):
        if rhs_unc > 1.0 + 1e-12:
            raise ValidationError(
                f"rhs_unc = {rhs_unc!r} exceeds 1: variances inconsistent "
                "with a pure detector state"
            )
        egy_ok = bool(lhs <= 1.0 + DUALITY_TOL)
        unc_ok = bool(lhs <= rhs_unc + DUALITY_TOL)
        init_field(self, "D", D)
        init_field(self, "V_bound", V_bound)
        init_field(self, "V_numeric", V_numeric)
        init_field(self, "dP2", dP2)
        init_field(self, "dQ2", dQ2)
        init_field(self, "lhs", lhs)
        init_field(self, "rhs_unc", rhs_unc)
        init_field(self, "egy_ok", egy_ok)
        init_field(self, "unc_ok", unc_ok)
        init_field(self, "_values",
                   (D, V_bound, V_numeric, dP2, dQ2, lhs, rhs_unc, egy_ok, unc_ok))


def distinguishability(pair: DetectorPair) -> float:
    """Probability amplitude of correctly identifying the path: sqrt(1 - s^2)."""
    return math.sqrt(max(1.0 - pair.overlap_mag**2, 0.0))


def visibility_bound(pair: DetectorPair) -> float:
    """Upper bound on fringe visibility: the overlap magnitude itself.

    It reads the pair only, so it assumes the equal path amplitudes of the
    JointState that ``duality_report`` builds; on other path weights the
    bound is 2|c| of ``JointState.path_state``.
    """
    return pair.overlap_mag


def local_visibility(x: float, geom: Geometry, pair: DetectorPair) -> float:
    """Fringe contrast at screen position x: s / cosh(x d / 2 sigma_t^2).

    It reads the pair only, so it assumes the equal path amplitudes of the
    JointState that ``duality_report`` builds; on a path state (w1, w2, c)
    the contrast is 2|c| / (w1 e^{+x d/2 sigma_t^2} + w2 e^{-x d/2 sigma_t^2}).
    """
    sig = spread_sigma(geom.packet_width, effective_tau(geom))
    return pair.overlap_mag / math.cosh(x * geom.slit_sep / (2.0 * sig * sig))


# ---------------------------------------------------------------------------
# sample-driven estimators
# ---------------------------------------------------------------------------

def local_extrema(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of interior local maxima and minima, plateau-aware.

    Exact ties (symmetric grids produce them at the center) are resolved by
    carrying the previous slope sign through the flat run.
    """
    dy = np.diff(np.asarray(ys, dtype=float))
    sgn = np.sign(dy)
    nz = sgn != 0
    if not nz.any():
        return np.array([], dtype=int), np.array([], dtype=int)
    # fill zero-slope runs with the nearest preceding (then following) sign
    idx = np.where(nz, np.arange(len(sgn)), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, sgn[np.maximum(idx, 0)], 0.0)
    first = np.argmax(nz)
    filled[:first] = sgn[first]
    flips = np.where(filled[1:] != filled[:-1])[0] + 1
    maxima = flips[(filled[flips - 1] > 0) & (filled[flips] < 0)]
    minima = flips[(filled[flips - 1] < 0) & (filled[flips] > 0)]
    return maxima.astype(int), minima.astype(int)


def refine_extremum(xs: np.ndarray, ys: np.ndarray, i: int) -> tuple[float, float]:
    """3-point parabolic refinement of the extremum at sample index i."""
    if i <= 0 or i >= len(ys) - 1:
        return float(xs[i]), float(ys[i])
    y0, y1, y2 = float(ys[i - 1]), float(ys[i]), float(ys[i + 1])
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(xs[i]), y1
    h = float(xs[i + 1] - xs[i])
    shift = 0.5 * (y0 - y2) / denom
    return float(xs[i]) + shift * h, y1 - 0.25 * (y0 - y2) * shift


def extrema_positions(pattern: PatternSamples, kind: str = "maxima",
                      window: float | None = None) -> np.ndarray:
    """Refined positions of the pattern's local maxima or minima, sorted.

    window limits the scan to |x| <= window (useful to stay on the central
    fringes where the envelope is flat).
    """
    if kind not in ("maxima", "minima"):
        raise ValidationError(f"kind must be 'maxima' or 'minima', got {kind!r}")
    xs = pattern.grid.xs()
    ys = pattern.intensity
    mx, mn = local_extrema(ys)
    idx = mx if kind == "maxima" else mn
    pos = np.array([refine_extremum(xs, ys, i)[0] for i in idx])
    if window is not None:
        pos = pos[np.abs(pos) <= window]
    return np.sort(pos)


def fringe_spacing(pattern: PatternSamples, kind: str = "maxima",
                   window: float | None = None) -> float:
    """Mean gap between adjacent extrema of the chosen kind."""
    pos = extrema_positions(pattern, kind=kind, window=window)
    if len(pos) < 2:
        raise ValidationError(f"need at least two {kind} to measure a spacing")
    return float(np.mean(np.diff(pos)))


def oscillatory_residual(pattern: PatternSamples) -> float:
    """Max deviation from the best smooth envelope, relative to the peak.

    The envelope is exp of a quartic in the normalised abscissa, fitted by
    NumPy's polyfit to the log of every sample above 1e-12 of the peak,
    weighted by intensity.  The family reproduces every fringe-free pattern
    this toolkit emits (Gaussian-cosh hump sums and displaced single humps)
    to rounding, while oscillations are left in the residual.  The samples
    are first scaled by the power of two that brings the peak into
    [0.5, 1): the scaling is exact, so the fit sees the same bits, and the
    residual is the same number, at every intensity scale, and the weights'
    squares cannot overflow.  The envelope is capped at e times the peak.
    With fewer than five samples above the floor, polyfit warns
    RankWarning and the residual stays finite.
    This is a diagnostic from the samples alone: numeric_visibility does not
    call it and fits nothing.
    """
    ys = pattern.intensity
    peak = float(ys.max())
    if peak <= 0.0:
        return 0.0
    fitted = ys > peak * 1e-12
    x = pattern.grid.xs()[fitted]
    u = x - x.mean()
    u /= x.std() or 1.0
    shift = math.frexp(peak)[1]
    w = np.ldexp(ys[fitted], -shift)
    top = math.ldexp(peak, -shift)
    poly = np.polynomial.polynomial
    envelope = poly.polyval(u, poly.polyfit(u, np.log(w), 4, w=w))
    np.minimum(envelope, math.log(top) + 1.0, out=envelope)
    return float(np.max(np.abs(w - np.exp(envelope)))) / top


def _dft_modulus(c: np.ndarray, step: float) -> float:
    """|sum_j c_j e^{-i step j}| with O(sqrt n) cos and sin calls.

    On a uniform grid x_j = x_0 + j h this is |sum_j c_j e^{-i k x_j}| for
    step = k h: the factor e^{-i k x_0} has modulus 1.  Split j = m a + b,
    with m a power of two near sqrt(n) and c zero-padded to whole rows of
    m; the inner sums over b are two mat-vecs of the (rows, m) block against
    cos and sin of step b, and the outer sum weights them by e^{-i step m a}.
    """
    n = len(c)
    m = 1 << ((n - 1).bit_length() // 2)
    rows = -(-n // m)
    if rows * m != n:
        c = np.concatenate((c, np.zeros(rows * m - n)))
    block = c.reshape(rows, m)
    cos_b, sin_b = _cis(step, m)
    re_b, im_b = block @ cos_b, block @ sin_b
    cos_a, sin_a = _cis(step * m, rows)
    return math.hypot(cos_a @ re_b - sin_a @ im_b, cos_a @ im_b + sin_a @ re_b)


def _cis(step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of step j for j = 0 .. count - 1, each as accurate as cos
    and sin themselves.

    Rounding step j would move each angle by up to half an ulp of itself,
    and in _dft_modulus one such error is shared by a whole row of the
    block, so it does not average out.  Instead step = hi + lo, with hi cut
    to 53 - p bits by Veltkamp's split (count <= 2^p): every j hi is exact,
    and the rest j lo, below 2^(p - 53) of the angle, enters to first order.
    """
    j = _indices(count)
    split = step * ((1 << (count - 1).bit_length()) + 1)
    hi = split - (split - step)
    angle = j * hi
    rest = j * (step - hi)
    cos, sin = np.cos(angle), np.sin(angle)
    return cos - rest * sin, sin + rest * cos


@lru_cache(maxsize=4)
def _indices(count: int) -> np.ndarray:
    """0 .. count - 1 as read-only floats, kept for the last few counts: a
    grid's demodulation asks for the same two on every pattern."""
    j = np.arange(count, dtype=float)
    j.flags.writeable = False
    return j


def numeric_visibility(pattern: PatternSamples) -> float:
    """Fringe contrast of the samples, read against their which-way reference.

    The reference I_ww is the intensity I with its cross term removed, so
    I - I_ww is the interference term itself and no envelope is fitted.  A
    pattern whose I - I_ww stays below FLATNESS_RTOL of its peak is
    fringe-free and returns exactly 0, before any spectrum.  Otherwise the
    fringe lobe of r = w (I - I_ww), w the trapezoid weights, is found in the
    rfft of r's even-indexed samples, zero-padded to the next power of two.
    With at least 4 samples per fringe the lobe lies below that spectrum's
    Nyquist bin, n/4 of the full spectrum's, and only the bins above n/4,
    rounding residue for a resolved pattern, alias onto it.  The largest
    interior bin, refined by a 3-point quadratic fit on the log-magnitudes
    (exact for the Gaussian lobes produced here), gives the fringe
    wavenumber k, and the contrast is 2 |sum r e^{-ikx}| / sum w I_ww over
    every sample, the modulus taken by _dft_modulus.  Below 5 samples the
    spectrum has no interior bin and the result is 0.  The result is
    clamped into [0, 1].
    """
    peak = float(pattern.intensity.max())
    if peak <= 0.0:
        return 0.0
    wts = pattern.grid._weights
    ref = pattern.which_way()
    ref_total = float(wts @ ref)
    r = np.subtract(pattern.intensity, ref, out=ref)
    tol = FLATNESS_RTOL * peak
    if r.max() < tol and r.min() > -tol:  # every |r| below tol
        return 0.0
    r *= wts
    half = r[::2]
    n_fft = 1 << (len(half) - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(half, n_fft))
    if len(spectrum) < 3:  # no interior bin
        return 0.0
    j = 1 + int(spectrum[1:-1].argmax())
    # the lobe is symmetric, so the 3-point quadratic fit in log-magnitude
    # is exact up to rounding; freq counts cycles over n_fft samples 2h apart
    freq = float(j)
    trio = spectrum[j - 1 : j + 2]
    if trio.min() > 0.0:
        lm, l0, lp = np.log(trio)
        denom = lm - 2.0 * l0 + lp
        if denom != 0.0:
            freq += 0.5 * (lm - lp) / denom
    contrast = 2.0 * _dft_modulus(r, math.pi * freq / n_fft) / ref_total
    return float(min(max(contrast, 0.0), 1.0))


def eraser_branch_visibilities(er: EraserResult) -> tuple[float, float]:
    """Numeric visibility of each conditioned branch."""
    return numeric_visibility(er.i_b), numeric_visibility(er.i_b_perp)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _eraser_observable_expectation(js: JointState) -> float:
    """Mean of the +1/-1 eraser observable, p(b1) - p(b2).

    An outcome b's probability p(b) is w1 + w2 of ``js.path_state(b)``, the
    path state conditioned on b, for the two states of _ERASER_BASIS.
    """
    (w1p, w2p, _), (w1m, w2m, _) = map(js.path_state, (_ERASER_BASIS.b1, _ERASER_BASIS.b2))
    return (w1p + w2p) - (w1m + w2m)


def duality_report(geom: Geometry, pair: DetectorPair,
                   grid: ScreenGrid | None = None) -> DualityReport:
    """Assemble the distinguishability/visibility report for one configuration.

    V_numeric comes from the sampled pattern (direct route); dP2 is the
    pointer-observable variance in a detector state, dQ2 = 1 - q^2 the eraser
    observable's variance, q = p(b1) - p(b2) with each outcome's probability
    read from ``JointState.path_state`` (see _eraser_observable_expectation),
    so the uncertainty-derived bound is D^2 + V^2 <= 2 - (dP2 + dQ2).
    """
    if grid is None:
        grid = default_grid(geom)
    js = JointState(geom, pair)
    samples = pattern_on_grid(grid, js)
    d_val = distinguishability(pair)
    v_bound = visibility_bound(pair)
    v_numeric = numeric_visibility(samples)
    dp2 = variance(pair.d1, PAULI_Z)
    q_mean = _eraser_observable_expectation(js)
    dq2 = max(1.0 - q_mean * q_mean, 0.0)
    lhs = d_val**2 + v_numeric**2
    rhs_unc = 2.0 - (dp2 + dq2)
    return DualityReport(
        D=float(d_val),
        V_bound=float(v_bound),
        V_numeric=float(v_numeric),
        dP2=float(dp2),
        dQ2=float(dq2),
        lhs=float(lhs),
        rhs_unc=float(rhs_unc),
    )
