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
    "duality-overlap.csv": "22ceee47b7f89f3a58cddaf10173148bcac745d5ca7e894488f50cc359d242ae",
    "duality-overlap.json": "303a6b48df1dc08e379955725fb65d84535c8332d8c07dcd527f4f4733080338",
    "duality-phase.csv": "3ff23b452ce61aabae9cff550d37a60b484a119dfb4274c4129ff3779d561ba2",
    "duality-phase.json": "e80688c853c4b839e6a4f388c71da1f60e4bcec2fd11fa1d1605b357e53dc6ad",
    "duality-screen.csv": "f3ceb6b48a6a6073bf813e406982662d121d2fca4d712dafa2fe54bb47cca075",
    "duality-screen.json": "caa82ffe8083293959928cd675ed9cb66a584e67f69a7eb410422e6e30b8f1b3",
    "eraser.csv": "14094a85d528e20e393cd7ec01375fb9c7e94c03018d54d3ff389480609afd7d",
    "eraser.json": "2d23a2e08a7d031096a81ff7c482cc5160c6043f6e943d6226068115b5363707",
    "pattern.csv": "683d4189e4c258b854e8f1a164c1ef3f6668c7ef3d4b669ee095ebfdaa2a5003",
    "pattern.json": "23e4bd2ae2be27205603ea8417a8b040797862abd09f64282c26b483928733ab",
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
