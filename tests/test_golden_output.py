"""Byte-golden CLI outputs: sha256 of every subcommand in csv and json.

The digests were recorded with NumPy 2.4 on x86-64 Linux.  They pin the
serialization contract (17 significant digits, lowercase bools, column
layout) together with the numerics, so an unintended change to either shows
up here.  A different libm or NumPy SIMD path can move the last bit of a
transcendental; if only that changes, re-record on the new stack after
checking the outputs agree to 1e-15 relative.

The eight ``eraser.*`` and ``duality-*.*`` digests were re-recorded when the
direct and conditional routes moved from complex packet amplitudes to real
arithmetic (|g1|^2, |g2|^2 and conj(g1) g2 kept per geometry and grid).  The
old outputs were off by the rounding of complex exponentials with phases of
several thousand rad: against a 50-digit evaluation of the same four-term
expansion, the eraser geometry's direct intensities were off by up to 5e-13
of the peak before and 1e-15 after.  Old against new, on these configs: the
eraser columns differ by at most 1.4e-11 absolute (6.6e-13 of the peak
intensity), V_numeric by at most 4.8e-15 and lhs by 9.6e-15; s, D, V_bound,
dP2, dQ2 and the egy_ok/unc_ok flags are identical.  The pattern, bohr and
uncertainty digests did not change.

The ten ``pattern.*``, ``eraser.*`` and ``duality-*.*`` digests were
re-recorded again when normalization moved from ``np.trapezoid`` to the
grid's kept trapezoid weights, and the visibility estimator's envelope fit
from an SVD least-squares solve to 5x5 normal equations with its
demodulation sum in real arithmetic.  ``np.trapezoid`` takes the spacing
from ``np.diff`` of the positions, which varies in its last bits; the kept
weights use one spacing.  The normalization constant moved by 1.8e-13
relative on the pattern config and 2.3e-13 on the eraser config.  Old
against new: intensity, envelope and interference_term differ by at most
2.8e-11, 1.8e-11 and 1.1e-11 absolute (1.8e-13 of each column's peak);
i_q1, i_q2 and i_sum by at most 4.8e-12 absolute (2.3e-13 of the peak);
V_numeric by at most 3.3e-16 and lhs by 6.7e-16; x_m, s, D, V_bound, dP2,
dQ2, rhs_unc and the egy_ok/unc_ok flags are identical.  Under
``np.trapezoid`` the new intensity and i_sum columns integrate to 1 within
2.3e-13.

The six ``duality-*.*`` digests were re-recorded again when the estimator
began to fit the envelope once per pattern (the fringe-free test moved onto
the residual of the fit over the demodulation core), built the taper's cube
from multiplies instead of ``np.power``, and took the demodulation sum by a
block split that calls cos and sin O(sqrt n) times instead of on every
sample.  Fitting once changes no bit; the taper and the sum move the last
bits.  Old against new, on these configs: V_numeric differs by at most
1.1e-16 and lhs by 2.2e-16; s, D, V_bound, dP2, dQ2, rhs_unc and the
egy_ok/unc_ok flags are identical.  The pattern, eraser, bohr and
uncertainty digests did not change.

The four ``duality-phase.*`` and ``duality-screen.*`` digests were
re-recorded when the estimator began to fit the envelope on the
demodulation core before taking any spectrum, with the core's normalised
abscissa (b / 5.5 sigma) in place of a mean-and-std rescaling, and to find
and refine the fringe lobe in one spectrum of the tapered residual instead
of choosing it in a spectrum of the raw pattern.  Old against new:
V_numeric and lhs differ by at most 2.2e-16 on the phase sweep and 1.1e-16
on the screen_dist sweep; s, D, V_bound, dP2, dQ2, rhs_unc and the
egy_ok/unc_ok flags are identical, and the ``duality-overlap.*`` digests
did not change.

The two ``uncertainty.*`` digests were re-recorded when uncertainty-scan
began to build all lattice states at once (``states_from_bloch``) with
NumPy's arccos, arctan2, cos, sin and complex exp instead of the C
library's, which differ in the last bit.  Old against new, on 777 samples:
var_sigma2 differs by at most 6.7e-16, var_sigma3 by 7.8e-16 and sum by
8.9e-16 (253 of 777 rows); n1, n2, n3 and min_sum are identical.

The six ``eraser.*``, ``duality-overlap.*`` and ``duality-phase.*`` digests
were re-recorded when the packets' cross term began to take the cos and sin
of its phase phi from t = tan(phi/2), as (1 - t^2)/(1 + t^2) and
2t/(1 + t^2), in place of ``np.cos`` and ``np.sin``.  Old against new:
i_q1, i_q2 and i_sum differ by at most 7.1e-15 absolute (3.3e-16 of the
peak; 1627, 2042 and 822 of 8193 rows); V_numeric differs by at most
1.1e-16 on the overlap sweep and 3.3e-16 on the phase sweep, and lhs by
2.2e-16 and 3.3e-16 (one row each); x_m, s, D, V_bound, dP2, dQ2, rhs_unc
and the egy_ok/unc_ok flags are identical.  The pattern, bohr, uncertainty
and ``duality-screen.*`` digests did not change; the pattern subcommand
writes the closed form, which keeps ``np.cos``.

So these digests depend on NumPy's SIMD ``tan`` as well as on its SIMD
``exp``.  With ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``,
which takes both out of their AVX-512 loops, 12 of the 14 digests failed
before this change and 10 fail after it; bohr and duality-screen pass.

The six ``duality-*.*`` digests were re-recorded when the visibility
estimator began to read each pattern against its which-way reference (the
same pattern with its cross term removed) in place of an envelope fitted to
a moments-defined core, and make_detector_pair began to take |c2| as
s / (2 |c1|) for s below about 0.87.  Old against new: V_numeric differs by
at most 3.6e-4 and lhs by at most 4.3e-4 (every row with s > 0), each row
now within 1e-10 s of s exp(-d^2 / 8 sigma_t^2), where the envelope fit
read up to 6.0e-4 s below it; dQ2 and rhs_unc differ by 2.2e-16 on the
rows at s = 0.6 and phase 0 (one row on the overlap and phase sweeps, three
on the screen_dist sweep); s, D, V_bound, dP2 and the egy_ok/unc_ok flags
are identical.  The pattern, eraser, bohr and uncertainty digests did not
change.

The four ``duality-phase.*`` and ``duality-screen.*`` digests were
re-recorded when the estimator began to find the fringe lobe in the
spectrum of every other sample of the weighted difference, zero-padded to
a power of two, in place of one spectrum of all the samples; the
demodulation still runs over every sample.  On these 8192-point grids the
demodulation step is the same expression in the refined frequency, so only
the refinement's rounding moves.  Old against new: V_numeric differs by
1.1e-16 on one of three rows of each sweep, lhs by 2.2e-16 on the phase
sweep and 1.1e-16 on the screen_dist sweep (the same rows); s, D,
V_bound, dP2, dQ2, rhs_unc and the egy_ok/unc_ok flags are identical.  The
pattern, eraser, bohr, uncertainty and ``duality-overlap.*`` digests did
not change.

The two ``pattern.*`` digests were re-recorded when the closed form began
to read the path state (w1, w2, c) in place of the detector pair's overlap
magnitude s and phase theta: its envelope is
gauss (w1 e^{+x d/2 sigma^2} + w2 e^{-x d/2 sigma^2}), with the second
exponential taken as the reciprocal of the first, in place of
gauss cosh(x d/2 sigma^2), and its interference term is
gauss 2|c| cos(kappa x + arg c) in place of gauss s cos(kappa x - theta).
Here 2|c| = 0.6000000000000002, against s = 0.6, and w1 = w2 =
0.5000000000000001, the squares of the default amplitudes sqrt(1/2).  The
arithmetic also moved in place and multiplies by 1/(2 sigma^2) instead of
dividing by 2 sigma^2.  Old against new: intensity, envelope and
interference_term differ by at most 5.7e-14, 4.3e-14 and 2.8e-14 absolute
(3.6e-16, 4.3e-16 and 4.7e-16 of each column's peak; 5876, 5021 and 6703 of
8192 rows); x_m is identical, and at s = 0.6 no zero changes its sign.  The
eraser, bohr, uncertainty and ``duality-*.*`` digests did not change.
"""
import hashlib
import json
import math

import pytest

from whichway.cli import main

GEOMETRY = {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0, "packet_width": 1e-5}

RUN = {"geometry": GEOMETRY, "detector": {"overlap": 0.6, "phase": 0.3}}
ERASER = {
    "geometry": dict(GEOMETRY, packet_width=1e-6),
    "detector": {"overlap": 0.0},
    "eraser": {"enabled": True, "basis_angle": math.pi / 4},
    "grid": {"x_min": -0.025, "x_max": 0.025, "n_points": 8193},
}


def _sweep(param, values, overlap=0.6):
    return {
        "base": {"geometry": GEOMETRY, "detector": {"overlap": overlap}},
        "sweep_param": param,
        "values": values,
    }


CASES = {
    "pattern": (["pattern"], RUN),
    "eraser": (["eraser"], ERASER),
    "bohr": (["bohr"], RUN),
    "duality-overlap": (["scan-duality"], _sweep("overlap", [0.0, 0.3, 0.6, 1.0], overlap=0.0)),
    "duality-phase": (["scan-duality"], _sweep("phase", [0.0, 0.5, 1.0])),
    "duality-screen": (["scan-duality"], _sweep("screen_dist", [0.5, 1.0, 2.0])),
    "uncertainty": (["uncertainty-scan", "--samples", "777"], None),
}

DIGESTS = {
    "bohr.csv": "185013d73d3c85d2c8555b6c61f48b58b35444580768de68b52f2d223dd4bd6e",
    "bohr.json": "fb58f08669d71e30f4933fc475297c08e8108b1b8f6fdbd5ce5d06d66487e0ba",
    "duality-overlap.csv": "17f428ebee5c961ab294a8461405217e3b00493cf8d1edc66e9b922ce0ba8649",
    "duality-overlap.json": "4deb84ea1198dc2e00e0f43e011631f0ebd91911c33f7a3e866831b53243374c",
    "duality-phase.csv": "e6e98de0a180957ff0d3848809924dd21b267ac40339c15f337152bb5e7da376",
    "duality-phase.json": "3c03e8efbe5f1c18c273b59ba77e924d7a1933b8f356701ccff98512023e4001",
    "duality-screen.csv": "4616445adc640905861633225fc4135faef451d1035e4269622832aca7b86e61",
    "duality-screen.json": "5aa0b231da950163cb47b49669f70a5a17f875ac09e76108816f06e860feca65",
    "eraser.csv": "eb888007533fe1824602858a601f9d78de3a3232e65f9b3eb66ce3be800f692f",
    "eraser.json": "ea2fede96ee8fb9e389c61b5d18188120799a2f1bac3266aba63b4784471081c",
    "pattern.csv": "d90305591010a508942c135189289c8386f0dc782c869bb4cfec316ab82c65a1",
    "pattern.json": "9d30ec636ead015794be37a20b85bfd387ed1f26f7c7a9aa70c68c9f5e23eff8",
    "uncertainty.csv": "d8a1909b7dfc6c41026c771aca39c04fa4beb35d73b583d1aade918303b24e2e",
    "uncertainty.json": "812fe7ced73e5f17ab9d7056e60b59b5ba653b243fb3bb15ed551c7423696fb9",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden_digest(tmp_path, case, fmt):
    argv, config = CASES[case]
    argv = list(argv)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = tmp_path / f"out.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[f"{case}.{fmt}"]
