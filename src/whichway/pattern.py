"""Joint particle-detector state at the screen and its intensity patterns.

Two independent routes compute the same physics: ``intensity_direct`` expands
the squared norm of the superposed branch packets with the detector inner
products, while ``intensity_closed_form`` evaluates the Gaussian-cosh/cosine
closed form.  They must agree to ~1e-10 relative on any grid, which the test
suite enforces; keep them independent.

``conditional_patterns`` projects the detector side onto a measurement basis
before squaring, producing the eraser's conditioned fringe/antifringe pair.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import _kernels
from ._kernels import BranchPackets
from .errors import NumericFailure, ValidationError
from .packets import Geometry, effective_tau, evolution_constants
from .qubit import DetectorPair, MeasurementBasis, inner_product

#: Values in [CLAMP_FLOOR, 0) are rounding residue and are clamped to 0;
#: anything below is a numeric failure, not noise.
CLAMP_FLOOR = -1e-15

_SQRT_HALF = math.sqrt(0.5)
# the most float64 values one NumPy array can hold
_MAX_FLOATS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ScreenGrid:
    """Uniform grid of screen positions (meters).

    The positions, their quadrature weights and wavenumbers, and the packets
    of the direct and conditional routes are computed on first use and kept
    with the grid, so every direct pattern, eraser pattern and estimate on
    one grid object shares them.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValidationError(f"x_min must be below x_max, got [{self.x_min}, {self.x_max}]")
        if not 2 <= self.n_points <= _MAX_FLOATS or int(self.n_points) != self.n_points:
            raise ValidationError(
                f"n_points must be an integer from 2 to {_MAX_FLOATS}, got {self.n_points!r}"
            )
        object.__setattr__(self, "n_points", int(self.n_points))

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

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers of the np.fft.rfft bins of samples on this grid."""
        xs = self.xs()
        return _read_only(2.0 * math.pi * np.fft.rfftfreq(self.n_points, d=xs[1] - xs[0]))

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
    be normalized.  The default is the symmetric illumination the closed form
    assumes.
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

    def has_equal_amps(self) -> bool:
        return abs(self.path_amps[0] - self.path_amps[1]) <= 1e-12


@dataclass(frozen=True, eq=False)
class PatternSamples:
    """Screen-intensity samples (probability density per meter).

    norm_constant is the raw trapezoid integral divided out during
    normalization.  provenance records which route produced the samples;
    "conditional" branches share their normalization with their partner so
    that the pair sums to the unconditioned pattern.
    """

    grid: ScreenGrid
    intensity: np.ndarray
    norm_constant: float
    provenance: str


@dataclass(frozen=True, eq=False)
class EraserResult:
    """Conditioned patterns for the two outcomes of a detector measurement."""

    i_b: PatternSamples
    i_b_perp: PatternSamples
    i_sum: PatternSamples
    branch_weights: tuple[float, float]


def fringe_width(geom: Geometry) -> float:
    """Spacing of neighbouring fringes:
    wavelength*L/d + 16 pi^2 eps^4 / (wavelength*d*L)."""
    lam, d, dist, eps = geom.wavelength, geom.slit_sep, geom.screen_dist, geom.packet_width
    return lam * dist / d + 16.0 * math.pi**2 * eps**4 / (lam * d * dist)


def default_grid(geom: Geometry, n_points: int = 8192) -> ScreenGrid:
    """Centered grid spanning +-5 fringe widths.

    Wide enough to hold >= 10 oscillation periods for stable visibility
    extraction, fine enough to satisfy the fringe-resolution guard.
    """
    half_span = 5.0 * fringe_width(geom)
    return ScreenGrid(-half_span, half_span, n_points)


def _eval_checked(x, fn):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = fn(xs)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def intensity_direct(x, js: JointState):
    """Screen intensity via the four-term amplitude expansion.

    sum_ij conj(a_i) a_j <d_i|d_j> conj(g_i) g_j over the two branches, each
    g the evolved packet, taken from |g1|^2, |g2|^2 and conj(g1) g2 in real
    arithmetic.  Works for any path amplitudes.  x is a position, an array of
    them, or a ScreenGrid: the grid keeps the packets of the last geometry it
    was given, so calls for many detector states on one grid and geometry
    evolve them once.
    """
    geom = js.geom
    ip = inner_product(js.pair.d1, js.pair.d2)
    a1, a2 = js.path_amps
    if isinstance(x, ScreenGrid):
        return _kernels.direct_grid(x._packets(geom), a1, a2, ip)
    return _eval_checked(
        x,
        lambda xs: _kernels.direct_grid(_evolve(xs, geom), a1, a2, ip),
    )


def _evolve(xs: np.ndarray, geom: Geometry) -> BranchPackets:
    prefactor, beta = evolution_constants(geom.packet_width, effective_tau(geom))
    centers = (+0.5 * geom.slit_sep, -0.5 * geom.slit_sep)
    return _kernels.branch_packets(xs, centers, prefactor, beta)


def intensity_closed_form(x, js: JointState):
    """Screen intensity via the Gaussian-cosh/cosine closed form.

    Only valid for equal path amplitudes (the symmetric state the closed form
    is derived for); raises ValidationError otherwise.
    """
    _require_equal_amps(js)
    geom = js.geom
    tau = effective_tau(geom)
    return _eval_checked(
        x,
        lambda xs: np.add(*_kernels.closed_parts_grid(
            xs, geom.slit_sep, geom.packet_width, tau,
            js.pair.overlap_mag, js.pair.overlap_phase,
        )),
    )


def closed_form_parts(x, js: JointState):
    """(envelope, interference) decomposition of the closed-form intensity.

    The envelope is the smooth hump sum; the interference term carries the
    overlap-weighted cosine.  envelope + interference == closed form.
    """
    _require_equal_amps(js)
    geom = js.geom
    tau = effective_tau(geom)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    env, intf = _kernels.closed_parts_grid(
        xs, geom.slit_sep, geom.packet_width, tau,
        js.pair.overlap_mag, js.pair.overlap_phase,
    )
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(env[0]), float(intf[0])
    return env, intf


def _require_equal_amps(js: JointState):
    if not js.has_equal_amps():
        raise ValidationError(
            "the closed form assumes equal path amplitudes; use intensity_direct"
        )


def _check_fringe_resolution(grid: ScreenGrid, geom: Geometry):
    """Refuse grids too coarse to resolve the fringes (spacing > fringe width / 8)."""
    w = fringe_width(geom)
    if grid.spacing() > w / 8.0:
        raise ValidationError(
            f"grid spacing {grid.spacing():g} m cannot resolve fringes of width "
            f"{w:g} m (need spacing <= w/8); refusing to alias"
        )


def _clamp_and_normalize(xs: np.ndarray, branches):
    """Clamp rounding residue and normalize to unit integral, in place.

    Each branch is an unnormalized intensity on xs.  Values in
    [CLAMP_FLOOR, 0) are set to 0; non-finite values or anything below the
    floor raise NumericFailure.  Every branch is divided by the trapezoid
    integral of the branches' sum.  The branches are changed in place, so
    callers pass arrays of their own.  Returns them in order, then that
    integral.
    """
    for raw in branches:
        if not np.all(np.isfinite(raw)):
            raise NumericFailure("non-finite intensity values on the grid")
        low = raw.min()
        if low < CLAMP_FLOOR:
            raise NumericFailure(
                f"intensity {low!r} below the clamp floor {CLAMP_FLOOR}; "
                "this is a bug, not rounding"
            )
        raw[raw < 0.0] = 0.0
    total = float(np.trapezoid(reduce(np.add, branches), xs))
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
    xs = grid.xs()
    if mode == "direct":
        raw = intensity_direct(grid, js)
    else:
        raw = intensity_closed_form(xs, js)
    intensity, total = _clamp_and_normalize(xs, [raw])
    return PatternSamples(grid=grid, intensity=intensity, norm_constant=total, provenance=mode)


def conditional_patterns(grid: ScreenGrid, js: JointState, basis: MeasurementBasis) -> EraserResult:
    """Patterns conditioned on each outcome of a detector-basis measurement.

    The two branches share one normalization constant (the one that makes
    their sum integrate to 1), so i_b + i_b_perp reproduces the unconditioned
    pattern pointwise and each branch integrates to its outcome weight.
    """
    _check_fringe_resolution(grid, js.geom)
    a1, a2 = js.path_amps
    b_d1 = inner_product(basis.b1, js.pair.d1)
    b_d2 = inner_product(basis.b1, js.pair.d2)
    p_d1 = inner_product(basis.b2, js.pair.d1)
    p_d2 = inner_product(basis.b2, js.pair.d2)
    xs = grid.xs()
    raw_b, raw_p = _kernels.conditional_grid(
        grid._packets(js.geom), a1, a2, b_d1, b_d2, p_d1, p_d2
    )
    i_b, i_p, total = _clamp_and_normalize(xs, [raw_b, raw_p])
    weights = (float(np.trapezoid(i_b, xs)), float(np.trapezoid(i_p, xs)))
    return EraserResult(
        i_b=PatternSamples(grid, i_b, total, "conditional"),
        i_b_perp=PatternSamples(grid, i_p, total, "conditional"),
        i_sum=PatternSamples(grid, i_b + i_p, total, "conditional"),
        branch_weights=weights,
    )
