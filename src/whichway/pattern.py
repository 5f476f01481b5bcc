"""Joint particle-detector state at the screen and its intensity patterns.

Two independent routes compute the same physics: ``intensity_direct`` expands
the squared norm of the superposed branch packets with the detector inner
products, while ``intensity_closed_form`` evaluates the Gaussian closed form
on the path qubit's state (w1, w2, c).  They must agree to ~1e-10 relative on
any grid, which the test suite enforces; keep them independent.

``conditional_patterns`` projects the detector side onto a measurement basis
before squaring, producing the eraser's conditioned fringe/antifringe pair.

The direct and conditional routes start from the two evolved branch packets.
The packets depend only on the grid and the geometry; the detector only
weights their moduli and their cross term, through ``JointState.path_state``,
so patterns for many detector states on one grid and geometry evolve them
once and combine them per state.  The packets also keep their which-way sum
w1 |g1|^2 + w2 |g2|^2 for the last path weights a direct pattern on a grid
asked for: the direct pattern adds it to the cross term, and
``PatternSamples.which_way``, the which-way reference the visibility
estimator reads the pattern against, is that sum doubled and normalized,
with no second combine.  The packets' cross phase phi takes its cos and sin
from t = tan(phi/2), as (1 - t^2)/(1 + t^2) and 2t/(1 + t^2), which NumPy
computes several times faster than cos and sin.  The closed form keeps
``np.cos``: it stays an oracle derived apart from the packets, and its
interference term keeps cos's relative accuracy at the zeros of the cosine,
which the half-angle form does not have.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import NumericFailure, ValidationError
from .packets import (
    SMALLEST_NORMAL,
    Geometry,
    effective_tau,
    evolution_constants,
    grid_points,
    point_count,
)
from .qubit import DetectorPair, DetectorState, MeasurementBasis, inner_product

#: Raw intensities in [CLAMP_FLOOR m, 0), m the larger of 1 and the largest
#: raw value, are rounding residue and are clamped to 0; anything below is a
#: numeric failure, not noise.
CLAMP_FLOOR = -1e-15

_SQRT_HALF = math.sqrt(0.5)
#: Points per block of the elementwise kernels: a block's scratch arrays stay
#: in cache, so no kernel call makes a grid-sized temporary.
_BLOCK = 8192


@dataclass(frozen=True)
class ScreenGrid:
    """Uniform grid of screen positions (meters).

    The positions, their quadrature weights and the packets of the direct
    and conditional routes are computed on first use and kept with the grid,
    so every direct pattern, eraser pattern and estimate on one grid object
    shares them.  The packets keep their which-way sum for the last path
    weights a direct pattern or a which-way reference asked for.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "n_points", grid_points(self.x_min, self.x_max, self.n_points))

    def xs(self) -> np.ndarray:
        """The positions, read-only."""
        return self._xs

    @cached_property
    def _xs(self) -> np.ndarray:
        return _read_only(np.linspace(self.x_min, self.x_max, self.n_points))

    @cached_property
    def _weights(self) -> np.ndarray:
        """Trapezoid-rule weights: sum(weights * f) integrates f."""
        xs = self.xs()
        h = xs[1] - xs[0]
        wts = np.full(self.n_points, h)
        wts[0] = wts[-1] = 0.5 * h
        return _read_only(wts)

    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def _packets(self, geom: Geometry) -> BranchPackets:
        """Both branch packets of ``geom`` evolved onto this grid.

        The packets of the last geometry asked for are kept, so patterns for
        many detector states on one geometry evolve them once.
        """
        kept = self.__dict__.get("_kept_packets")
        if kept is None or kept[0] != geom:
            kept = (geom, _evolve(self.xs(), geom))
            object.__setattr__(self, "_kept_packets", kept)
        return kept[1]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class JointState:
    """Entangled particle-detector state evolved to the screen.

    path_amps are the complex amplitudes multiplying the two branches
    (detector state d1 rides the packet centered at +slit_sep/2); they must
    be normalized.  The default is the symmetric illumination.
    """

    geom: Geometry
    pair: DetectorPair
    path_amps: tuple[complex, complex] = (_SQRT_HALF, _SQRT_HALF)

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.path_amps)
        if len(amps) != 2 or not all(cmath.isfinite(a) for a in amps):
            raise ValidationError("path_amps must be two finite complex numbers")
        norm = abs(amps[0]) ** 2 + abs(amps[1]) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"path amplitudes not normalized: {norm!r}")
        object.__setattr__(self, "path_amps", amps)

    def path_state(self, outcome: DetectorState | None = None) -> tuple[float, float, complex]:
        """(w1, w2, c), the path qubit's state: what the screen sees of the
        detector.  Each pattern is 2 (w1 |g1|^2 + w2 |g2|^2 + 2 Re(c conj(g1) g2)).

        Unconditioned it is (|a1|^2, |a2|^2, conj(a1) a2 <d1|d2>), and |c| sets
        the fringe visibility.  Given a detector outcome b it is the state
        conditioned on b, unnormalized: (|k1|^2, |k2|^2, conj(k1) k2) with
        k_j = <b|d_j> a_j.  The outcomes of a basis add up to the former.
        """
        a1, a2 = self.path_amps
        if outcome is None:
            ip = inner_product(self.pair.d1, self.pair.d2)
            return abs(a1) ** 2, abs(a2) ** 2, a1.conjugate() * a2 * ip
        k1 = inner_product(outcome, self.pair.d1) * a1
        k2 = inner_product(outcome, self.pair.d2) * a2
        return abs(k1) ** 2, abs(k2) ** 2, k1.conjugate() * k2


@dataclass(frozen=True, eq=False)
class PatternSamples:
    """Screen-intensity samples (probability density per meter).

    norm_constant is the raw trapezoid integral divided out during
    normalization.  provenance records which route produced the samples;
    "conditional" branches share their normalization with their partner so
    that the pair sums to the unconditioned pattern.  geom and path_weights
    are the geometry and the weights of the packets' moduli |g1|^2 and
    |g2|^2 the samples were built from; ``which_way`` builds the pattern's
    which-way reference from them on request.
    """

    grid: ScreenGrid
    intensity: np.ndarray
    norm_constant: float
    provenance: str
    geom: Geometry
    path_weights: tuple[float, float]

    def which_way(self) -> np.ndarray:
        """The pattern with its cross term removed, as a fresh array.

        It is what the screen shows when the detector states are orthogonal
        (a perfect which-way record): the same packets with the same path
        weights, with no interference, divided by this pattern's
        norm_constant.  It reads the which-way sum the direct route's
        packets keep for these path weights, whatever the provenance, so
        after a direct pattern on the same grid it combines nothing.
        Raises NumericFailure when it leaves the float range.
        """
        kept = self.grid._packets(self.geom).which_way_sum(*self.path_weights)
        with np.errstate(over="ignore"):
            ref = np.multiply(kept, 2.0)
            ref /= self.norm_constant
        if not math.isfinite(ref.max()):  # a NaN shows in the maximum too
            raise NumericFailure("the which-way reference is outside the float range")
        return ref


@dataclass(frozen=True, eq=False)
class EraserResult:
    """Conditioned patterns for the two outcomes of a detector measurement."""

    i_b: PatternSamples
    i_b_perp: PatternSamples
    i_sum: PatternSamples
    branch_weights: tuple[float, float]


def fringe_width(geom: Geometry) -> float:
    """Spacing of neighbouring fringes:
    wavelength*L/d + 16 pi^2 eps^4 / (wavelength*d*L).

    Raises NumericFailure unless the width is a finite positive float.
    """
    lam, d, dist, eps = geom.wavelength, geom.slit_sep, geom.screen_dist, geom.packet_width
    try:
        width = lam * dist / d + 16.0 * math.pi**2 * eps**4 / (lam * d * dist)
    except (OverflowError, ZeroDivisionError):  # eps**4 overflows, or lam*d*L underflows
        width = math.inf
    if not (math.isfinite(width) and width > 0.0):
        raise NumericFailure(f"fringe width {width!r} m is outside the float range")
    return width


@lru_cache(maxsize=1)
def default_grid(geom: Geometry, n_points: int = 8192) -> ScreenGrid:
    """Centered grid spanning +-5 fringe widths.

    Wide enough to hold >= 10 oscillation periods for stable visibility
    extraction, fine enough to satisfy the fringe-resolution guard.  A call
    that repeats the previous call's arguments returns the same grid, with
    the positions, weights and packets it keeps, so a loop over detector
    states on one geometry evolves the packets once.  The cache holds that
    one grid until a call with other arguments: 384 KiB at 8192 points.
    Raises NumericFailure when the span or the spacing the geometry implies
    is not a normal float, and ValidationError for a bad n_points.
    """
    n_points = point_count(n_points)
    half_span = 5.0 * fringe_width(geom)
    spacing = 2.0 * half_span / (n_points - 1)
    if not SMALLEST_NORMAL <= spacing < math.inf:
        raise NumericFailure(
            f"default grid of +-{half_span!r} m over {n_points} points has spacing "
            f"{spacing!r} m, not a normal float"
        )
    return ScreenGrid(-half_span, half_span, n_points)


def _eval_checked(x, fn, count=1):
    """fn at a position or an array of them, through _blockwise: floats for
    a position, arrays for an array."""
    out = _blockwise(fn, (np.atleast_1d(np.asarray(x, dtype=float)),), count)
    if np.ndim(x) == 0:
        return float(out[0]) if count == 1 else tuple(float(o[0]) for o in out)
    return out


def _blockwise(fn, arrays, count):
    """fn(*arrays), evaluated _BLOCK points at a time into count fresh arrays.

    fn maps equally long arrays elementwise to one array (count 1) or to a
    tuple of count arrays, so every value equals that of one call on all the
    points.  Up to _BLOCK points it is that one call; beyond, the call holds
    its outputs and one block's scratch, not grid-sized temporaries.
    Values that leave the float range come out non-finite without a
    warning; normalization refuses them.
    """
    n = len(arrays[0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if n <= _BLOCK:
            return fn(*arrays)
        outs = tuple(np.empty(arrays[0].shape) for _ in range(count))
        for lo in range(0, n, _BLOCK):
            parts = fn(*(a[lo:lo + _BLOCK] for a in arrays))
            for out, part in zip(outs, parts if count > 1 else (parts,)):
                out[lo:lo + _BLOCK] = part
    return outs if count > 1 else outs[0]


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

    def which_way_sum(self, w1: float, w2: float) -> np.ndarray:
        """w1 |g1|^2 + w2 |g2|^2, read-only.

        The sum for the last weights asked for is kept with the packets, so
        it goes when a grid drops them for another geometry.
        """
        kept = self.__dict__.get("_kept_sum")
        if kept is None or kept[0] != (w1, w2):
            kept = ((w1, w2), _read_only(_combine(self, w1, w2)))
            object.__setattr__(self, "_kept_sum", kept)
        return kept[1]


def _evolve(xs: np.ndarray, geom: Geometry) -> BranchPackets:
    """The packets g_j = A_t exp(-(x - c_j)^2 / beta) of ``geom`` at xs, in
    real arithmetic.

    With q = 1/beta and u_j = (x - c_j)^2:
    |g_j|^2 = |A_t|^2 exp(-2 Re(q) u_j) and
    conj(g1) g2 = |A_t|^2 exp(-Re(q) (u1 + u2)) exp(i Im(q) (u1 - u2)).
    The phase phi = Im(q) (u1 - u2) takes u1 - u2 = (c2 - c1) 2x (c1 + c2 is
    exactly 0), a form that does not cancel far from the slits.  Its cos and
    sin come from one t = tan(phi/2), as (1 - t^2)/(1 + t^2) and
    2t/(1 + t^2): NumPy runs float64 tan in a SIMD loop but cos and sin in
    scalar ones.  phi/2 is exact, the 0.5 being folded into the phase
    constant, and the form is within about 2e-16 of np.cos and np.sin,
    absolute.  Near the zeros of cos it is not as accurate relative to the
    value, which is why the closed form keeps np.cos.  The four arrays are
    filled one block at a time.  Raises NumericFailure when beta underflows
    to 0.
    """
    prefactor, beta = evolution_constants(geom.packet_width, effective_tau(geom))
    if beta == 0:
        raise NumericFailure("the evolved packets' beta underflows to 0 for this geometry")
    c1, c2 = +0.5 * geom.slit_sep, -0.5 * geom.slit_sep
    q = 1.0 / beta
    amp2 = abs(prefactor) ** 2

    def block(xs):
        t = np.multiply(xs, 2.0)  # phi/2, then its tan
        t *= 0.5 * q.imag * (c2 - c1)
        np.tan(t, out=t)
        u1 = np.subtract(xs, c1)
        u1 *= u1
        u2 = np.subtract(xs, c2)
        u2 *= u2
        for u in (u1, u2):  # u_j becomes exp(-Re(q) u_j)
            u *= -q.real
            np.exp(u, out=u)
        cross_re = np.multiply(t, t)  # cos = (1 - t^2) / (1 + t^2)
        den = np.add(cross_re, 1.0)
        np.subtract(1.0, cross_re, out=cross_re)
        cross_re /= den
        cross_im = t  # sin = 2 t / (1 + t^2)
        cross_im *= 2.0
        cross_im /= den
        mag = np.multiply(u1, u2, out=den)
        mag *= amp2
        cross_re *= mag
        cross_im *= mag
        for e in (u1, u2):  # exp(-Re(q) u_j) becomes |g_j|^2
            e *= e
            e *= amp2
        return u1, u2, cross_re, cross_im

    arrays = _blockwise(block, (xs,), 4)
    for arr in arrays:
        arr.flags.writeable = False
    return BranchPackets(*arrays)


def _combine(packets: BranchPackets, w1: float, w2: float, c: complex | None = None,
             kept_sum: np.ndarray | None = None):
    """2 (P + 2 Re(c conj(g1) g2)) as a fresh array, where
    P = w1 |g1|^2 + w2 |g2|^2 is the packets' which-way sum; P itself when c
    is None.  A kept_sum, which must be that P and comes with a c, is added
    in place to the cross term's real part, which gives the bits of adding
    that part to P, as addition commutes; otherwise P is combined here and
    the cross term added to it in place."""
    def block(mod1, mod2, cross_re, cross_im, *kept):
        if kept:
            out = (2.0 * c.real) * cross_re
            out += kept[0]
        else:
            out = w1 * mod1
            out += w2 * mod2
            if c is None:
                return out
            out += (2.0 * c.real) * cross_re
        out -= (2.0 * c.imag) * cross_im
        out *= 2.0
        return out

    arrays = (packets.mod1, packets.mod2, packets.cross_re, packets.cross_im)
    if kept_sum is not None:
        arrays += (kept_sum,)
    return _blockwise(block, arrays, 1)


def intensity_direct(x, js: JointState):
    """Screen intensity via the four-term amplitude expansion.

    The packets' |g1|^2, |g2|^2 and conj(g1) g2, in real arithmetic, weighted
    by ``js.path_state()``.  x is a position, an array of them, or a
    ScreenGrid: the grid keeps the packets of the last geometry it was given,
    and they keep their which-way sum for the last path weights, so calls for
    many detector states on one grid, geometry and path weights evolve the
    packets and sum their moduli once.  On positions the packets are evolved
    and combined one block at a time and never held for all the points.
    """
    geom = js.geom
    w1, w2, c = js.path_state()
    if isinstance(x, ScreenGrid):
        packets = x._packets(geom)
        return _combine(packets, w1, w2, c, packets.which_way_sum(w1, w2))
    return _eval_checked(x, lambda xs: _combine(_evolve(xs, geom), w1, w2, c))


def intensity_closed_form(x, js: JointState):
    """Screen intensity via the closed form on the path state
    ``js.path_state()``: the Gaussian hump sum plus the cosine cross term
    (see ``_closed_parts``).  It reads no packet and no detector state."""
    state = js.path_state()
    return _eval_checked(x, lambda xs: np.add(*_closed_parts(xs, js.geom, state)))


def closed_form_parts(x, js: JointState):
    """(envelope, interference) decomposition of the closed-form intensity.

    The envelope is the which-way hump sum; the interference term carries
    the cosine weighted by the path state's coherence.
    envelope + interference == closed form.
    """
    state = js.path_state()
    return _eval_checked(x, lambda xs: _closed_parts(xs, js.geom, state), 2)


def _closed_parts(xs: np.ndarray, geom: Geometry, state: tuple[float, float, complex]):
    """The closed form's envelope and interference term at positions xs for
    the path state (w1, w2, c), from the free Gaussian alone.

    A packet of width eps leaving the slit at c_j spreads, over the
    evolution tau, into psi_j = N exp(-(x - c_j)^2 / (4 eps^2 + 2i tau)).
    Splitting 1/(4 eps^2 + 2i tau) = 1/(4 sigma^2) - i kappa/(2d), with
    sigma^2 = eps^2 + (tau/2eps)^2 and kappa = d tau / (4 eps^4 + tau^2),
    psi_j = N exp(-(x - c_j)^2 / 4 sigma^2) exp(+i kappa (x - c_j)^2 / 2d),
    with one N for both packets; |N|^2 = 1/sqrt(2 pi sigma^2) makes each
    |psi_j|^2 integrate to 1.
    The joint state a1 psi_1 |d1> + a2 psi_2 |d2> shows the screen
    |a1 psi_1|^2 + |a2 psi_2|^2 + 2 Re(conj(a1) a2 <d1|d2> conj(psi_1) psi_2),
    which is w1 |psi_1|^2 + w2 |psi_2|^2 + 2 Re(c conj(psi_1) psi_2) with
    (w1, w2, c) the path state; a detector outcome conditions the same
    expression through its own (w1, w2, c).  With c_1 = +d/2, c_2 = -d/2
    and (x -+ d/2)^2 = x^2 + d^2/4 -+ x d:

    - |psi_1,2|^2 = gauss e^{+-x d / 2 sigma^2}, where
      gauss = exp(-(x^2 + d^2/4) / 2 sigma^2) / sqrt(2 pi sigma^2), and
      |psi_1| |psi_2| = gauss;
    - conj(psi_1) psi_2 has the phase
      kappa ((x + d/2)^2 - (x - d/2)^2) / 2d = +kappa x, N's phase
      cancelling; c multiplies this product, whose conjugated packet is
      the one at +d/2, so arg c adds to kappa x.

    So envelope = gauss (w1 e^{+x d/2 sigma^2} + w2 e^{-x d/2 sigma^2}) and
    interference = 2 Re(c gauss e^{i kappa x}) = gauss 2|c| cos(kappa x + arg c).
    Their sum is the direct route's raw pattern, whose packets carry
    |A_t|^2 = |N|^2 / 2 and which doubles its sum.  For equal path
    amplitudes and a pure detector pair, w1 = w2 = 1/2 and
    c = <d1|d2>/2 = (s/2) e^{-i theta}, theta being arg<d2|d1>, so
    envelope = gauss cosh(x d / 2 sigma^2) and
    interference = gauss s cos(kappa x - theta).

    e^{-x d/2 sigma^2} is taken as 1/e^{+x d/2 sigma^2}.  Where
    e^{+x d/2 sigma^2} overflows or underflows, gauss underflows too, and
    the envelope comes out inf or NaN, which normalization refuses.
    """
    w1, w2, c = state
    slit_sep, eps, tau = geom.slit_sep, geom.packet_width, effective_tau(geom)
    try:
        sig2 = eps * eps + (tau / (2.0 * eps)) ** 2
        kap = slit_sep * tau / (4.0 * eps**4 + tau * tau)
        pref = 1.0 / math.sqrt(2.0 * math.pi * sig2)
    except OverflowError:  # a float power past the float range raises
        raise NumericFailure("the closed form's spread overflows for this geometry") from None
    except ZeroDivisionError:  # and so does a division by a float that underflows to 0
        raise NumericFailure("the closed form's spread underflows for this geometry") from None
    gauss = np.multiply(xs, xs)
    gauss += 0.25 * slit_sep * slit_sep
    gauss *= -0.5 / sig2
    np.exp(gauss, out=gauss)
    gauss *= pref
    grow = np.multiply(xs, 0.5 * slit_sep / sig2)  # e^{+x d / 2 sigma^2}
    np.exp(grow, out=grow)
    envelope = np.divide(w2, grow)
    envelope += np.multiply(grow, w1, out=grow)
    envelope *= gauss
    interference = np.multiply(xs, kap)
    interference += cmath.phase(c)
    np.cos(interference, out=interference)
    interference *= 2.0 * abs(c)
    interference *= gauss
    return envelope, interference


def _check_fringe_resolution(grid: ScreenGrid, geom: Geometry):
    """Refuse grids too coarse to resolve the fringes (spacing > fringe width / 8)."""
    w = fringe_width(geom)
    if grid.spacing() > w / 8.0:
        raise ValidationError(
            f"grid spacing {grid.spacing():g} m cannot resolve fringes of width "
            f"{w:g} m (need spacing <= w/8); refusing to alias"
        )


def _clamp_and_normalize(weights: np.ndarray, branches):
    """Clamp rounding residue and normalize to unit integral, in place.

    Each branch is an unnormalized intensity on the grid whose trapezoid
    weights are ``weights``.  Negative values are rounding residue and are
    set to 0 down to the floor CLAMP_FLOOR m, where m is the larger of 1 and
    the largest raw value of any branch: the residue scales with the values
    that cancel.  Non-finite values or anything below the floor raise
    NumericFailure.  Every branch is divided by the trapezoid integral of the
    branches' sum.  The branches are changed in place, so callers pass arrays
    of their own.  Returns them in order, then that integral.
    """
    for raw in branches:
        # NaN and -inf show in the minimum, +inf in the maximum
        low = raw.min()
        if not (math.isfinite(low) and math.isfinite(raw.max())):
            raise NumericFailure("non-finite intensity values on the grid")
        if low < CLAMP_FLOOR:
            # the relative floor needs the largest value of all the branches
            floor = CLAMP_FLOOR * max(1.0, *(float(b.max()) for b in branches))
            if low < floor:
                raise NumericFailure(
                    f"intensity {float(low)!r} below the clamp floor {floor!r}; "
                    "this is a bug, not rounding"
                )
        if low < 0.0:  # -0.0 is not below 0 and stays
            raw[raw < 0.0] = 0.0
    total = float(weights @ reduce(np.add, branches))
    if not (math.isfinite(total) and total > 0.0):
        raise NumericFailure(f"pattern integral {total!r} is not a positive number")
    for arr in branches:
        arr /= total
    return (*branches, total)


def pattern_on_grid(grid: ScreenGrid, js: JointState, mode: str = "direct") -> PatternSamples:
    """Evaluate the screen pattern on a grid and normalize it to unit integral.

    mode selects the computation route ("direct" or "closed_form").  Grids
    too coarse to resolve the fringes are rejected whenever the detector
    overlap is nonzero (aliased fringes silently corrupt visibility
    estimates).
    """
    if mode not in ("direct", "closed_form"):
        raise ValidationError(f"mode must be 'direct' or 'closed_form', got {mode!r}")
    if js.pair.overlap_mag > 0.0:
        _check_fringe_resolution(grid, js.geom)
    raw = intensity_direct(grid, js) if mode == "direct" else intensity_closed_form(grid.xs(), js)
    intensity, total = _clamp_and_normalize(grid._weights, [raw])
    return PatternSamples(grid, intensity, total, mode, js.geom, js.path_state()[:2])


def conditional_patterns(grid: ScreenGrid, js: JointState, basis: MeasurementBasis) -> EraserResult:
    """Patterns conditioned on each outcome of a detector-basis measurement.

    The two branches share one normalization constant (the one that makes
    their sum integrate to 1), so i_b + i_b_perp reproduces the unconditioned
    pattern pointwise and each branch integrates to its outcome weight.
    """
    _check_fringe_resolution(grid, js.geom)
    packets = grid._packets(js.geom)
    states = [js.path_state(b) for b in (basis.b1, basis.b2)]  # given each outcome
    raws = [_combine(packets, *state) for state in states]
    i_b, i_p, total = _clamp_and_normalize(grid._weights, raws)
    return EraserResult(
        i_b=PatternSamples(grid, i_b, total, "conditional", js.geom, states[0][:2]),
        i_b_perp=PatternSamples(grid, i_p, total, "conditional", js.geom, states[1][:2]),
        i_sum=PatternSamples(grid, i_b + i_p, total, "conditional", js.geom,
                             js.path_state()[:2]),
        branch_weights=(float(grid._weights @ i_b), float(grid._weights @ i_p)),
    )
