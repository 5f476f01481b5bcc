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
    "duality-overlap.csv": "8a0f5bce36b1cb0a1ae5d926b54afd3f04a30708aebfb457830a39516e3d21e9",
    "duality-overlap.json": "7452ed95fee16f1fd5403078465e0bea3ce1cf3cc88929cac1c2f378d11e116f",
    "duality-phase.csv": "adab1a3a0ac0cf5ad4867105c260e3c8d38e10b8d800525aa5d7932c1695e931",
    "duality-phase.json": "c3cbc21720463dfa4a3d2f5597a43a079ea5e5e55bf94cb1392a8be34ded1a05",
    "duality-screen.csv": "e14b70e1d09c995af6099839a880d38312a41a0fe8b48afc3d7cc6372b8ad4d6",
    "duality-screen.json": "5db8c9b308758f5828897c79c1804474bca2acc019daa5ba7e6e2abd6c2e2ad7",
    "eraser.csv": "14094a85d528e20e393cd7ec01375fb9c7e94c03018d54d3ff389480609afd7d",
    "eraser.json": "2d23a2e08a7d031096a81ff7c482cc5160c6043f6e943d6226068115b5363707",
    "pattern.csv": "683d4189e4c258b854e8f1a164c1ef3f6668c7ef3d4b669ee095ebfdaa2a5003",
    "pattern.json": "23e4bd2ae2be27205603ea8417a8b040797862abd09f64282c26b483928733ab",
    "uncertainty.csv": "a9ac3c1992e1589e6a1168729163d039f959d9207c958177ec265038e0a6327e",
    "uncertainty.json": "afd828ce4cfcfb0a1506846073449dcc84cd7b950190f595b43a3d27f0330a25",
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
