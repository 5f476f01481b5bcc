"""Byte-golden CLI outputs: sha256 of every subcommand in csv and json.

The digests were recorded with NumPy 2.4 on x86-64 Linux.  They pin the
serialization contract (17 significant digits, lowercase bools, column
layout) together with the numerics, so an unintended change to either shows
up here.  A different libm or NumPy SIMD path can move the last bit of a
transcendental; if only that changes, re-record on the new stack after
checking the outputs agree to 1e-15 relative.
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
    "duality-overlap.csv": "7d219990511ff1ad32d0b318cfd23a488ab4324eb12fd859b7f9b37e0bf1a3cc",
    "duality-overlap.json": "ee7001c358057cf4504ecb8b1ccfd7a9d04bedea4dc89f62c99a028b420a5d59",
    "duality-phase.csv": "53c4d8b20cfe1f67b83355c739dd7585f6006ed51609feec7803f073cefa7b4a",
    "duality-phase.json": "64ada3543e6935356ece52b4be905be3b6684f94b42da99f7d7633b5a9121aa4",
    "duality-screen.csv": "bee117fb893175e5d4bde3dee866b891ce299c7ed4a7e43e253b07ce2e3a1afd",
    "duality-screen.json": "a2b0fe54e1bd3be1e1857bd26561d1af6da909ce208c2fe1f70f3dc8c5d0b081",
    "eraser.csv": "bd5c23e9fbbd1be5bd5b1261060e99dd39faa7aab6cdf74798bfeb1fe769873d",
    "eraser.json": "c26ccc2d4e2526fb3152ceaaace4cc2d609c76eb6cccc067e63646e50d1a4fbd",
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
