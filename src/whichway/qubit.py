"""Two-level algebra for the which-way detector.

The recoiling slit is modelled as a qubit: its two momentum-pointer states
span the state space, and every which-way question is a dichotomic (+1/-1)
observable on it.  This module provides normalized two-component states, the
correlated detector-state pair used throughout the toolkit, Bloch-vector
observables with their variances, the mutually unbiased (eraser) basis, and
the qubit sum-uncertainty relation.

All values are immutable after construction and all functions are pure, so
everything here is safe to share across threads or processes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

#: Normalization / orthogonality tolerance used by every constructor.
NORM_TOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


def _as_complex(value) -> complex:
    z = complex(value)
    if not (cmath.isfinite(z)):
        raise ValidationError(f"amplitude must be finite, got {value!r}")
    return z


@dataclass(frozen=True)
class DetectorState:
    """Pure state of the which-way detector, components in the pointer basis.

    Invariant: |c1|^2 + |c2|^2 = 1 within NORM_TOL.  Construction rejects
    non-normalized input instead of silently renormalizing, so caller bugs
    surface immediately.
    """

    c1: complex
    c2: complex

    def __post_init__(self):
        object.__setattr__(self, "c1", _as_complex(self.c1))
        object.__setattr__(self, "c2", _as_complex(self.c2))
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(
                f"state not normalized: |c1|^2+|c2|^2 = {norm!r} (tolerance {NORM_TOL})"
            )


@dataclass(frozen=True, eq=False)
class DetectorStates:
    """Many pure detector states at once: entry i of the complex arrays c1
    and c2 holds the components of state i.

    Observables' ``expectation`` and ``variance`` take it in place of a
    DetectorState and return one value per state.  Those values are NumPy's
    and may differ in the last bit from the same state's DetectorState value
    (see ``DichotomicObservable.expectation``); ``uncertainty-scan`` writes
    the array path's bits.  Construction checks the DetectorState invariant
    on every entry.
    """

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=complex)
        c2 = np.asarray(self.c2, dtype=complex)
        if c1.ndim != 1 or c1.shape != c2.shape:
            raise ValidationError(
                f"c1 and c2 must be 1-d arrays of one length, got shapes {c1.shape}, {c2.shape}"
            )
        if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
            raise ValidationError("amplitudes must be finite")
        norm = np.abs(c1) ** 2 + np.abs(c2) ** 2
        bad = np.flatnonzero(np.abs(norm - 1.0) > NORM_TOL)
        if len(bad):
            raise ValidationError(
                f"state {bad[0]} not normalized: |c1|^2+|c2|^2 = {norm[bad[0]]!r} "
                f"(tolerance {NORM_TOL})"
            )
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def inner_product(a: DetectorState, b: DetectorState) -> complex:
    """Hermitian inner product <a|b> = conj(a1) b1 + conj(a2) b2."""
    return a.c1.conjugate() * b.c1 + a.c2.conjugate() * b.c2


@dataclass(frozen=True)
class DetectorPair:
    """The two correlated detector states, one per slit.

    d2 is derived from d1: it carries d1's conjugate-swapped components,
    which covers every possible mutual overlap of two normalized states.
    overlap_mag is |<d1|d2>| and overlap_phase is arg<d2|d1>; both are
    checked against the states at construction.
    """

    d1: DetectorState
    d2: DetectorState = field(init=False)
    overlap_mag: float
    overlap_phase: float

    def __post_init__(self):
        d2 = DetectorState(self.d1.c2.conjugate(), self.d1.c1.conjugate())
        object.__setattr__(self, "d2", d2)
        ip = inner_product(self.d1, d2)
        if abs(abs(ip) - self.overlap_mag) > NORM_TOL:
            raise ValidationError(
                f"overlap_mag {self.overlap_mag!r} inconsistent with |<d1|d2>| = {abs(ip)!r}"
            )
        if self.overlap_mag > 1e-9:
            # phase of <d2|d1> = -phase of <d1|d2>; compare modulo 2*pi
            delta = math.remainder(-cmath.phase(ip) - self.overlap_phase, math.tau)
            if abs(delta) > 1e-9:
                raise ValidationError(
                    f"overlap_phase {self.overlap_phase!r} inconsistent with arg<d2|d1>"
                )


def make_detector_pair(s: float, theta: float = 0.0) -> DetectorPair:
    """Build the detector pair with overlap magnitude ``s`` and phase ``theta``.

    The component magnitudes follow from |<d1|d2>| = 2|c1||c2| = s together
    with normalization; the phase is split evenly, arg(c1) = arg(c2) =
    theta/2, which fixes arg<d2|d1> = theta.  ``theta`` is wrapped into
    [-pi, pi] before use.

    Raises ValidationError unless 0 <= s <= 1.
    """
    if not (math.isfinite(s) and 0.0 <= s <= 1.0):
        raise ValidationError(f"overlap magnitude must be in [0, 1], got {s!r}")
    if not math.isfinite(theta):
        raise ValidationError(f"overlap phase must be finite, got {theta!r}")
    theta = math.remainder(theta, math.tau)
    root = math.sqrt(max(1.0 - s * s, 0.0))
    mag1 = math.sqrt((1.0 + root) / 2.0)
    # 1 - root cancels for small s; s / (2 mag1) does not, but near s = 1
    # the square root keeps d1 == d2 exact at s = 1
    mag2 = s / (2.0 * mag1) if root > 0.5 else math.sqrt((1.0 - root) / 2.0)
    phase = cmath.exp(0.5j * theta)
    d1 = DetectorState(mag1 * phase, mag2 * phase)
    return DetectorPair(d1=d1, overlap_mag=s, overlap_phase=theta)


@dataclass(frozen=True)
class DichotomicObservable:
    """A +1/-1 observable on the detector qubit, W = n . sigma.

    Storing the unit Bloch vector n instead of a matrix makes W^2 = 1 and the
    eigenvalue pair +1/-1 true by construction.
    """

    bloch: tuple[float, float, float]

    def __post_init__(self):
        n = tuple(float(v) for v in self.bloch)
        if len(n) != 3 or not all(math.isfinite(v) for v in n):
            raise ValidationError(f"bloch must be a finite 3-vector, got {self.bloch!r}")
        norm = math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"bloch vector must be unit length, |n| = {norm!r}")
        object.__setattr__(self, "bloch", n)

    def expectation(self, state: DetectorState | DetectorStates):
        """<state| n.sigma |state>, per state for DetectorStates.

        A DetectorStates argument takes ``np.abs`` of its components where a
        DetectorState takes Python's ``abs``, and the two can round apart:
        on the 10000-point Bloch lattice <sigma_z> differs in the last bit
        on 3055 rows (at most 4.4e-16), though the states are the same bits.
        """
        z = state.c1.conjugate() * state.c2
        n1, n2, n3 = self.bloch
        return (
            2.0 * n1 * z.real
            + 2.0 * n2 * z.imag
            + n3 * (abs(state.c1) ** 2 - abs(state.c2) ** 2)
        )


PAULI_X = DichotomicObservable((1.0, 0.0, 0.0))
PAULI_Y = DichotomicObservable((0.0, 1.0, 0.0))
PAULI_Z = DichotomicObservable((0.0, 0.0, 1.0))


def variance(state: DetectorState | DetectorStates, obs: DichotomicObservable):
    """Variance of a dichotomic observable in a pure state: 1 - <n.sigma>^2,
    per state for DetectorStates.

    Always in [0, 1]; tiny negative rounding residue is clamped to 0.
    """
    e = obs.expectation(state)
    if isinstance(state, DetectorStates):
        return np.maximum(1.0 - e * e, 0.0)
    return max(1.0 - e * e, 0.0)


def sum_uncertainty(state: DetectorState | DetectorStates):
    """Variances of sigma_y and sigma_z and their sum, per state for
    DetectorStates.

    For any pure qubit state the sum is >= 1, with equality exactly when
    <sigma_x> = 0.
    """
    dq2 = variance(state, PAULI_Y)
    dp2 = variance(state, PAULI_Z)
    return dq2, dp2, dq2 + dp2


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal basis of the detector qubit (a dichotomic measurement)."""

    b1: DetectorState
    b2: DetectorState

    def __post_init__(self):
        if abs(inner_product(self.b1, self.b2)) > NORM_TOL:
            raise ValidationError("basis states must be orthogonal")


def mub_basis() -> MeasurementBasis:
    """The basis mutually unbiased with the pointer basis: (|1>+|2>)/sqrt2, (|1>-|2>)/sqrt2.

    Conditioning screen hits on its outcomes is the quantum eraser; each basis
    state assigns probability 1/2 to either slit, so no which-way information
    is collected.
    """
    return MeasurementBasis(
        b1=DetectorState(_SQRT_HALF, _SQRT_HALF),
        b2=DetectorState(_SQRT_HALF, -_SQRT_HALF),
    )


def rotated_basis(angle: float) -> MeasurementBasis:
    """Detector basis rotated by ``angle`` from the pointer basis.

    angle = 0 reproduces the pointer basis; angle = pi/4 is unbiased with it
    (same measurement as :func:`mub_basis`, up to a sign on the second state).
    """
    if not math.isfinite(angle):
        raise ValidationError(f"angle must be finite, got {angle!r}")
    c, s = math.cos(angle), math.sin(angle)
    return MeasurementBasis(
        b1=DetectorState(c, s),
        b2=DetectorState(-s, c),
    )


def bloch_sphere_lattice(n: int) -> np.ndarray:
    """Deterministic, seedless n-point lattice on the Bloch sphere.

    Fibonacci spiral with the z endpoints pinned to the poles, so the pointer
    eigenstates (the sum-uncertainty saturation points) are always included.
    Returns an (n, 3) array of unit vectors.
    """
    most = np.iinfo(np.intp).max // 24  # the (n, 3) float64 array must be addressable
    if not 1 <= n <= most:
        raise ValidationError(f"a lattice needs 1 to {most} points, got {n}")
    if n == 1:
        return np.array([[0.0, 0.0, 1.0]])
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * i / (n - 1)
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * i
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    return np.column_stack((r * np.cos(azimuth), r * np.sin(azimuth), z))


def state_from_bloch(n1: float, n2: float, n3: float) -> DetectorState:
    """Pure state with Bloch vector (n1, n2, n3): row 0 of states_from_bloch."""
    states = states_from_bloch(np.array([[n1, n2, n3]], dtype=float))
    return DetectorState(complex(states.c1[0]), complex(states.c2[0]))


def states_from_bloch(bloch: np.ndarray) -> DetectorStates:
    """Pure states with the Bloch vectors in the rows of an (n, 3) array."""
    n1, n2, n3 = np.asarray(bloch, dtype=float).T
    norm = np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    bad = np.flatnonzero(~(np.abs(norm - 1.0) <= 1e-9))
    if len(bad):
        raise ValidationError(
            f"bloch vector {bad[0]} must be unit length, |n| = {norm[bad[0]]!r}"
        )
    half_polar = np.arccos(np.clip(n3, -1.0, 1.0)) / 2.0
    azimuth = np.arctan2(n2, n1)
    return DetectorStates(np.cos(half_polar), np.sin(half_polar) * np.exp(1j * azimuth))
