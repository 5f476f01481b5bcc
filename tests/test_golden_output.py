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
    "duality-overlap.csv": "4af167f81919e94a7ed2bcfd498d909f08221f24de26e20efa5a90f315262ab0",
    "duality-overlap.json": "3ac2f23d2fc1ffdc50e8816141afa1cd7ef45e6aee1b37e1e27aa46ddaf4b880",
    "duality-phase.csv": "fe9428011e3519ed89789c9a98c0e054ac671d8667d7153479afb350052b3625",
    "duality-phase.json": "6b10e7ddc4cd71312a4298688eaf14fb5d9469fde06022150d2be83d78a74f85",
    "duality-screen.csv": "9875291266690a01cd33f2ba9eb9deb17844209bd95a32edaf54375c108b80a9",
    "duality-screen.json": "7738b34d1944d688dbbc374459130cf26f1f7e8d8d5cddbcd6c3c1f52198cac5",
    "eraser.csv": "574dc195a9b8dd1b814637fc515158c256ef5ee92132fa859cb226f4fb5be8f7",
    "eraser.json": "2f802f7c80a3d1b540659a781a5988d628646d771f1037ac811da69c5b332290",
    "pattern.csv": "1a9defe3d1e5a7c97ad79c840827ecc9ac23e3b03319742107b88a791852838f",
    "pattern.json": "af236442cf8a0a3891d6c41ded91acd53fe87019e69ff0623f6cb5cab9840b84",
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
