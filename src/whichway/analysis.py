"""Quantitative complementarity: distinguishability, visibility, duality reports.

The numeric visibility estimator works from pattern samples alone and never
sees the geometry, so it stays an independent check on the analytic bounds.
After the pattern's moments, all of its work stays on a moments-defined
core.  It fits the smooth envelope there first, once per pattern, and calls
the pattern fringe-free (visibility 0) when the residual of that fit is
below 1e-9 of the peak on the core.  Otherwise it takes one spectrum, of the
tapered residual, and calls the pattern fringe-free when no lobe stands out
there; else it demodulates the residual at that spectrum's peak, refined by
a 3-point quadratic fit in k.  The envelope is a weighted least-squares
quartic in the log domain, solved through its 5x5 normal equations; the
demodulation sum is a block split that needs cos and sin at O(sqrt n)
angles, not at every sample.  ``oscillatory_residual`` fits over all
samples instead and is a diagnostic, not on the estimator's path.  The
estimator assumes the far-field overlap regime: the packet spread well
beyond the slit separation AND several fringes under the envelope (slit
separation at least ~8 packet widths, so the fringe lobe clears the
envelope's spectral lobe).  Two resolved humps, or a single fringe filling
the whole envelope, are outside its contract.

Extrema positions (plateau-aware scan plus 3-point parabolic refinement) are
exposed separately for fringe-spacing measurements and eraser checks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure, ValidationError
from .packets import Geometry, effective_tau, spread_sigma
from .pattern import (
    EraserResult,
    JointState,
    PatternSamples,
    ScreenGrid,
    default_grid,
    pattern_on_grid,
)
from .qubit import DetectorPair, PAULI_Z, inner_product, mub_basis, variance

#: Envelope-fit residual (relative to peak) below which a pattern counts as fringe-free.
FLATNESS_RTOL = 1e-9

#: Slack on the duality inequalities (absorbs estimator error at the bound).
DUALITY_TOL = 1e-9

#: Planck's constant in J s, exact in the 2019 SI.
PLANCK_H = 6.62607015e-34


@dataclass(frozen=True)
class DualityReport:
    """Distinguishability/visibility figures plus both duality inequalities.

    The ok flags are derived from the numbers: egy_ok checks
    D^2 + V^2 = lhs <= 1, unc_ok the uncertainty-derived bound
    lhs <= rhs_unc, both within DUALITY_TOL.  The uncertainty-derived right
    side can never exceed 1 for a pure detector state (that is the sum
    uncertainty at work); construction enforces it.
    """

    D: float
    V_bound: float
    V_numeric: float
    dP2: float
    dQ2: float
    lhs: float
    rhs_unc: float
    egy_ok: bool = field(init=False)
    unc_ok: bool = field(init=False)

    def __post_init__(self):
        if self.rhs_unc > 1.0 + 1e-12:
            raise ValidationError(
                f"rhs_unc = {self.rhs_unc!r} exceeds 1: variances inconsistent "
                "with a pure detector state"
            )
        object.__setattr__(self, "egy_ok", bool(self.lhs <= 1.0 + DUALITY_TOL))
        object.__setattr__(self, "unc_ok", bool(self.lhs <= self.rhs_unc + DUALITY_TOL))


@dataclass(frozen=True)
class BohrReport:
    """Back-of-envelope recoil bookkeeping in SI units.

    The blur-to-pitch ratio delta_x / fringe_sep is derived, and is the
    geometry-free constant 1/4pi; construction rejects anything else.
    """

    delta_px: float
    delta_x: float
    fringe_sep: float
    ratio: float = field(init=False)

    def __post_init__(self):
        ratio = self.delta_x / self.fringe_sep
        if not abs(ratio - 0.25 / math.pi) <= 1e-12:  # NaN included
            raise ValidationError(f"ratio {ratio!r} is not the recoil constant 1/4pi")
        object.__setattr__(self, "ratio", ratio)


def distinguishability(pair: DetectorPair) -> float:
    """Probability amplitude of correctly identifying the path: sqrt(1 - s^2)."""
    return math.sqrt(max(1.0 - pair.overlap_mag**2, 0.0))


def visibility_bound(pair: DetectorPair) -> float:
    """Upper bound on fringe visibility: the overlap magnitude itself."""
    return pair.overlap_mag


def local_visibility(x: float, geom: Geometry, pair: DetectorPair) -> float:
    """Fringe contrast at screen position x: s / cosh(x d / 2 sigma_t^2)."""
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


# entry (i, j) of the normal matrix is the moment of order i + j
_HANKEL = np.add.outer(np.arange(5), np.arange(5))


def _quartic_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares quartic coefficients, lowest degree first.

    The problem ``np.polynomial.polynomial.polyfit(x, y, 4, w=w)`` solves,
    taken through its 5x5 normal equations instead of an SVD of the n x 5
    matrix.
    The weighted rows w x^i and the weighted values w y are built in one
    (6, n) array; nine dot products give the moments sum w^2 x^k (k = 0..8),
    whose Hankel matrix is the normal matrix, and five more its right side.
    Scaled to a unit diagonal (polyfit's column scaling), the system is
    solved by eigendecomposition.  Forming the moments rounds each scaled
    entry by up to about n eps, so eigenvalues at or below 10 n eps of the
    largest cannot be told from 0 and are dropped: the samples then hold
    fewer than five independent rows and, as from polyfit, the minimum-norm
    solution comes with a RankWarning.  The normal equations square the
    condition number; one refinement step, the same solve applied to the
    weighted residual, wins back the digits that costs.
    """
    n = len(x)
    rows = np.empty((6, n))
    lhs, rhs = rows[:5], rows[5]
    np.copyto(lhs[0], w)
    for i in range(1, 5):
        np.multiply(lhs[i - 1], x, out=lhs[i])
    np.multiply(w, y, out=rhs)
    moments = np.empty(9)
    moments[:5] = lhs @ lhs[0]
    moments[5:] = lhs[1:] @ lhs[4]
    scl = np.sqrt(moments[::2])
    scl[scl == 0] = 1
    normal = moments[_HANKEL]
    normal /= np.multiply.outer(scl, scl)
    lam, vec = np.linalg.eigh(normal)
    kept = lam > 10 * n * np.finfo(float).eps * lam[-1]
    if not kept.all():
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    vec = vec[:, kept] / scl[:, None]
    lam = lam[kept]

    def solve(target):
        return vec @ ((lhs @ target) @ vec / lam)

    coeffs = solve(rhs)
    rhs -= coeffs @ lhs
    coeffs += solve(rhs)
    return coeffs


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial at x, bit for bit ``np.polynomial.polynomial.polyval``,
    accumulated in one buffer."""
    out = np.multiply(x, 0)
    out += coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _fitted_envelope(u: np.ndarray, ys: np.ndarray, peak: float,
                     fitted: np.ndarray | None) -> np.ndarray:
    """Best smooth envelope: exp(quartic polynomial) fit in the log domain.

    u is a normalised abscissa of the samples ys.  The fit is
    intensity-weighted over the samples selected by the boolean mask
    ``fitted``, or over all of them when it is None (callers keep only
    samples above 1e-12 of ``peak``, the maximum of the pattern); the family
    reproduces every fringe-free pattern this toolkit emits (Gaussian-cosh
    hump sums and displaced single humps) to rounding, while oscillations
    are left in the residual.  Returned at every u, capped at e*peak so an
    extrapolated tail cannot blow up.
    """
    x, w = (u, ys) if fitted is None else (u[fitted], ys[fitted])
    coeffs = _quartic_fit(x, np.log(w), w)
    fit = _horner(coeffs, u)
    np.minimum(fit, math.log(peak) + 1.0, out=fit)
    return np.exp(fit, out=fit)


def oscillatory_residual(pattern: PatternSamples) -> float:
    """Max deviation from the best smooth envelope, relative to the peak.

    The envelope is fitted over every sample above 1e-12 of the peak.  This
    is a diagnostic: numeric_visibility does not call it, and makes its
    fringe-free test on the residual of its own fit over the demodulation
    core instead.
    """
    ys = pattern.intensity
    peak = float(ys.max())
    if peak <= 0.0:
        return 0.0
    fitted = ys > peak * 1e-12
    xs = pattern.grid.xs()
    x = xs[fitted]
    u = np.subtract(xs, x.mean())
    u /= x.std() or 1.0
    deviation = _fitted_envelope(u, ys, peak, fitted)
    np.subtract(ys, deviation, out=deviation)
    np.abs(deviation, out=deviation)
    return float(np.max(deviation[fitted])) / peak


def _first_bin_from(cutoff: float, unit: float, count: int) -> int:
    """The first of ``count`` rfft bins whose angular wavenumber 2 pi (j unit)
    is at least ``cutoff``, or ``count`` when none is.

    unit is np.fft.rfftfreq's bin spacing 1 / (n d), and the wavenumbers are
    taken with rfftfreq's arithmetic, so this is searchsorted on 2 pi times
    rfftfreq without the array.
    """
    def k(j):
        return 2.0 * math.pi * (j * unit)

    guess = cutoff / k(1)
    if not guess < count:  # also an infinite or nan quotient
        return count
    j = max(math.ceil(guess), 0)
    while j > 0 and k(j - 1) >= cutoff:
        j -= 1
    while j < count and k(j) < cutoff:
        j += 1
    return j


def _demodulate(grid: ScreenGrid, ys: np.ndarray, peak: float):
    """Fit the envelope, find the fringe lobe in one spectrum, and return
    (k, contrast).

    peak is the maximum of ys.  After the moments (total, mean and variance
    of the pattern), every step works on the core |x - mean| <= 5.5 sigma, a
    contiguous run of samples.  Returns None when the pattern is flat (the
    residual of the envelope fit over the core stays below FLATNESS_RTOL of
    the peak), or when no interior peak of the residual spectrum stands above
    the envelope lobe's cutoff and 1e-9 of the pattern's sum.  The fitted
    smooth envelope is subtracted before the spectrum is taken, so its own
    spectral tail cannot leak into the fringe estimate (the duality bound is
    exactly saturated at small overlap, where even a 1e-5 leak would tip
    it).  The peak is refined with a 3-point quadratic fit on the residual
    log-magnitudes (exact for the Gaussian lobes produced here), and the
    contrast is 2 |sum r e^{-ikx}| / sum I with trapezoid weights, the
    modulus taken by _dft_modulus.
    """
    xs = grid.xs()
    wts = grid._weights
    a = np.multiply(wts, ys)
    total = float(np.sum(a))
    if total <= 0.0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(a @ xs) / total
        b = np.subtract(xs, mean)
        var = float(a @ np.square(b)) / total
    if not math.isfinite(var):
        raise NumericFailure(f"pattern variance {var!r} m^2 is outside the float range")
    if var <= 0.0:
        return None
    # Remove the smooth envelope before measuring the lobe.  Fit and residual
    # are confined to a moments-defined core with a smooth taper: the quartic
    # extrapolates badly past the fitted range, and any hard cut would alias
    # fringe-frequency junk into the measurement.  A smooth envelope misfit
    # inside the core has negligible content at the fringe frequency; what
    # this removes is the envelope's own spectral tail there, which would
    # otherwise bias the contrast upward at small overlap where the duality
    # bound is saturated.  b is ascending, so the core is one index range.
    sigma = math.sqrt(var)
    half = 5.5 * sigma
    lo = int(np.searchsorted(b, -half, "left"))
    hi = int(np.searchsorted(b, half, "right"))
    x = b[lo:hi]
    x /= half
    core = ys[lo:hi]
    fitted = core > peak * 1e-12
    if fitted.all():
        fitted = None
    resid = _fitted_envelope(x, core, peak, fitted)
    np.subtract(core, resid, out=resid)
    # the flatness test, on the residual of the one fit over the core
    flat = np.abs(resid if fitted is None else resid[fitted])
    if float(np.max(flat)) / peak < FLATNESS_RTOL:
        return None
    # ramp = clip(5.5 (1 - |x|), 0, 1), in x;
    # taper = ramp**3 * (ramp * (6 ramp - 15) + 10), in t
    ramp = np.abs(x, out=x)
    np.subtract(1.0, ramp, out=ramp)
    ramp *= 5.5
    np.clip(ramp, 0.0, 1.0, out=ramp)
    t = np.multiply(ramp, 6.0)
    t -= 15.0
    t *= ramp
    t += 10.0
    t *= ramp
    t *= ramp
    t *= ramp
    resid *= t
    # The tapered residual is zero off the core, and spectral moduli do not
    # depend on a shift, so the core zero-padded to n stands in for the grid.
    n, h = grid.n_points, float(xs[1] - xs[0])
    spectrum = np.abs(np.fft.rfft(resid, n))
    unit = 1.0 / (n * h)  # rfftfreq's bin spacing
    start = max(_first_bin_from(3.2 / sigma, unit, len(spectrum)), 1)
    if start >= len(spectrum) - 1:
        return None
    seg = spectrum[start:-1]
    interior = (seg > spectrum[start - 1 : -2]) & (seg > spectrum[start + 1 :])
    candidates = np.where(interior)[0] + start
    if len(candidates) == 0:
        return None
    peak_j = int(candidates[np.argmax(spectrum[candidates])])
    # total / h is the pattern's sum but for half its two end samples
    if spectrum[peak_j] < 1e-9 * (total / h):
        return None
    # the residual's lobe is symmetric, so the 3-point quadratic fit in
    # log-magnitude is exact up to rounding
    khat = 2.0 * math.pi * (peak_j * unit)
    trio = spectrum[peak_j - 1 : peak_j + 2]
    if np.all(trio > 0.0):
        lm, l0, lp = np.log(trio)
        denom = lm - 2.0 * l0 + lp
        if denom != 0.0:
            khat += 0.5 * (2.0 * math.pi * unit) * (lm - lp) / denom
    resid *= wts[lo:hi]
    # the positions are x_min + j spacing(); xs[1] - xs[0] is off by up to
    # half an ulp of x_min, which the sum would multiply by up to n
    return khat, 2.0 * _dft_modulus(resid, khat * grid.spacing()) / total


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
    j = np.arange(count)
    split = step * ((1 << (count - 1).bit_length()) + 1)
    hi = split - (split - step)
    angle = j * hi
    rest = j * (step - hi)
    cos, sin = np.cos(angle), np.sin(angle)
    return cos - rest * sin, sin + rest * cos


def numeric_visibility(pattern: PatternSamples) -> float:
    """Fringe contrast estimated from the samples alone.

    One envelope fit and at most one spectrum per pattern.  Fringe-free
    patterns (a residual below FLATNESS_RTOL of the peak over the fitted
    core, or no fringe lobe in the residual's spectrum) return exactly 0.
    The result is clamped into [0, 1].
    """
    ys = pattern.intensity
    peak = float(ys.max())
    if peak <= 0.0:
        return 0.0
    demod = _demodulate(pattern.grid, ys, peak)
    if demod is None:
        return 0.0
    return float(min(max(demod[1], 0.0), 1.0))


def eraser_branch_visibilities(er: EraserResult) -> tuple[float, float]:
    """Numeric visibility of each conditioned branch."""
    return numeric_visibility(er.i_b), numeric_visibility(er.i_b_perp)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _eraser_observable_expectation(js: JointState) -> float:
    """Mean of the +1/-1 eraser observable over the path-weighted detector states."""
    basis = mub_basis()
    w1 = abs(js.path_amps[0]) ** 2
    w2 = abs(js.path_amps[1]) ** 2
    p_plus = (
        w1 * abs(inner_product(basis.b1, js.pair.d1)) ** 2
        + w2 * abs(inner_product(basis.b1, js.pair.d2)) ** 2
    )
    p_minus = (
        w1 * abs(inner_product(basis.b2, js.pair.d1)) ** 2
        + w2 * abs(inner_product(basis.b2, js.pair.d2)) ** 2
    )
    return p_plus - p_minus


def duality_report(geom: Geometry, pair: DetectorPair,
                   grid: ScreenGrid | None = None) -> DualityReport:
    """Assemble the distinguishability/visibility report for one configuration.

    V_numeric comes from the sampled pattern (direct route); dP2 is the
    pointer-observable variance in a detector state, dQ2 the eraser
    observable's variance in the path-weighted detector ensemble, so the
    uncertainty-derived bound is D^2 + V^2 <= 2 - (dP2 + dQ2).
    """
    if grid is None:
        grid = default_grid(geom)
    js = JointState(geom, pair)
    samples = pattern_on_grid(grid, js, mode="direct")
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


def bohr_analysis(geom: Geometry) -> BohrReport:
    """The recoil estimate: momentum spread, implied slit-position blur, fringe pitch.

    delta_px = (h / wavelength)(d / L); delta_x = wavelength L / (4 pi d) is
    the minimum-uncertainty position blur for that momentum resolution, and
    the Young fringe pitch is wavelength L / d.  Their ratio is the constant
    1/4pi for every geometry, which is the whole point: the blur is the same
    order as the pitch.  h is Planck's constant at its exact 2019 SI value.
    Raises NumericFailure when a number overflows or the blur delta_x, the
    smaller of the two lengths, is not a normal float, the rule ScreenGrid
    applies to its spacing: below that, the blur has lost digits.
    """
    lam, d, dist = geom.wavelength, geom.slit_sep, geom.screen_dist
    delta_px = (PLANCK_H / lam) * (d / dist)
    delta_x = lam * dist / (4.0 * math.pi * d)
    fringe_sep = lam * dist / d
    for name, value in (("delta_px", delta_px), ("delta_x", delta_x), ("fringe_sep", fringe_sep)):
        if not math.isfinite(value):
            raise NumericFailure(f"non-finite {name} in recoil report")
    if not delta_x >= np.finfo(float).smallest_normal:
        raise NumericFailure(
            f"delta_x {delta_x!r} m is below the normal floats in recoil report "
            f"(fringe_sep {fringe_sep!r} m)"
        )
    return BohrReport(delta_px=delta_px, delta_x=delta_x, fringe_sep=fringe_sep)
