"""CLI contracts: schemas, output formats, determinism, exit codes."""
import json
import math
import os
import re
import subprocess
import sys
import types
import zipfile

import numpy as np
import pytest

import whichway
from whichway.cli import main

STANDARD_GEOMETRY = {
    "lambda_d": 5e-7,
    "slit_sep": 1e-4,
    "screen_dist": 1.0,
    "packet_width": 1e-5,
}
# thinner packets: the envelope spans ~8 fringes, extrema sit on the ideal lattice
SEPARATED_GEOMETRY = dict(STANDARD_GEOMETRY, packet_width=1e-6)
W_STANDARD = 0.005000031582734083
# in-schema geometries whose fringe width, default grid or recoil numbers
# leave the float range: eps**4 overflows (H1), lambda*d*L underflows (H2),
# lambda*L overflows (H3), +-5 fringe widths overflow (G1), the default
# grid's spacing is subnormal (G2), and lambda*L is subnormal, so the recoil
# blur delta_x is too (B1, B2)
OUT_OF_RANGE_GEOMETRIES = {
    "H1": {"lambda_d": 1e-5, "slit_sep": 1e306, "screen_dist": 1.0, "packet_width": 1e300},
    "H2": {"lambda_d": 1e-300, "slit_sep": 1e-4, "screen_dist": 1e-300, "packet_width": 1e-5},
    "H3": {"lambda_d": 1e300, "slit_sep": 1e-4, "screen_dist": 1e300, "packet_width": 1e-5},
    "G1": {"lambda_d": 1e300, "slit_sep": 1.0, "screen_dist": 1e8, "packet_width": 1e-5},
    "G2": {"lambda_d": 1e-300, "slit_sep": 1.0, "screen_dist": 1e-20, "packet_width": 1e-200},
    "B1": {"lambda_d": 1e-160, "slit_sep": 1.0, "screen_dist": 1e-160, "packet_width": 1e-5},
    "B2": {"lambda_d": 3e-154, "slit_sep": 1.0, "screen_dist": 1e-154, "packet_width": 1e-5},
}

# in-schema geometries and grids whose kernels leave the float range, each
# with the sweep parameter and value that reach the same failure: the closed
# form's kappa and the packets' beta divide by an underflowed 0 (T1), the
# packet prefactor divides inf by inf (T2), and the envelope's
# e^{x d/2 sigma^2} overflows where the gaussian underflows (T3)
FLOAT_RANGE_FAILURES = {
    "T1": ({"lambda_d": 1e-320, "slit_sep": 1e-12, "screen_dist": 1e-4, "packet_width": 1e-300},
           {"x_min": 1e-300, "x_max": 2.0, "n_points": 64}, "overlap", 0.0),
    "T2": ({"lambda_d": math.pi, "slit_sep": 1e10, "screen_dist": 1e-5, "packet_width": 5e-324},
           None, "overlap", 0.0),
    "T3": ({"lambda_d": 1e-12, "slit_sep": 1e-2, "screen_dist": 1e-3, "packet_width": 1e-9},
           {"x_min": -0.02, "x_max": 0.02, "n_points": 256}, "overlap", 0.0),
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "geometry": dict(STANDARD_GEOMETRY),
        "detector": {"overlap": 1.0, "phase": 0.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _child_env():
    """The environment of a child interpreter that imports whichway from this tree."""
    src = os.path.dirname(os.path.dirname(whichway.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestPattern:
    def test_csv_contract_and_fringe_regression(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "pattern.csv"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x_m", "intensity", "envelope", "interference_term"]
        assert len(rows) == 8192  # the default grid
        data = np.array([[float(v) for v in row] for row in rows])
        xs, intensity = data[:, 0], data[:, 1]
        # every row decomposes to a few ulps of its envelope
        envelope = data[:, 2]
        assert np.all(np.abs(intensity - (envelope + data[:, 3])) <= 4 * 2.0**-52 * envelope)
        # s=1 minima spacing tracks the fringe width to 1%
        interior = (intensity[1:-1] < intensity[:-2]) & (intensity[1:-1] < intensity[2:])
        minima = xs[1:-1][interior]
        minima = minima[np.abs(minima) < 2 * W_STANDARD]
        np.testing.assert_allclose(np.diff(np.sort(minima)), W_STANDARD, rtol=0.01)

    def test_no_overlap_zero_interference_column(self, tmp_path):
        cfg = write_config(tmp_path, detector={"overlap": 0.0})
        out = tmp_path / "flat.csv"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(abs(float(row[3])) < 1e-15 for row in rows)

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["pattern", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["pattern", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "pattern.json"
        assert main(["pattern", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"x_m", "intensity", "envelope", "interference_term"}

    def test_seventeen_digit_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "p.csv"
        main(["pattern", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out)
        cell = rows[len(rows) // 3][1]
        assert format(float(cell), ".17g") == cell

    def test_negative_slit_sep_rejected(self, tmp_path):
        cfg = write_config(tmp_path, geometry=dict(STANDARD_GEOMETRY, slit_sep=-1e-4))
        out = tmp_path / "nope.csv"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, geometry=dict(STANDARD_GEOMETRY, slit_width=1e-5))
        assert main(["pattern", "--config", str(cfg)]) == 1

    def test_missing_geometry_field_rejected(self, tmp_path):
        geo = dict(STANDARD_GEOMETRY)
        del geo["screen_dist"]
        cfg = write_config(tmp_path, geometry=geo)
        assert main(["pattern", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["pattern", "--config", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("raw", [
        # not UTF-8
        b'{"detector": {"overlap": 0.5}, "note": "\xff"}',
        # an integer literal past Python's 4300-digit conversion limit (if a
        # Python without the limit parses it, the schema rejects the overlap)
        b'{"detector": {"overlap": 1' + b"0" * 5000 + b"}}",
        # arrays nested past the recursion limit
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "huge-int", "deep-nesting"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys, raw):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(raw)
        assert main(["pattern", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_numeric_failure_exit_code(self, tmp_path):
        # e^{x d/2 sigma^2} overflow against gaussian underflow -> NaN in the envelope
        cfg = write_config(
            tmp_path,
            geometry={"lambda_d": 1e-12, "slit_sep": 1e-2, "screen_dist": 1e-3,
                      "packet_width": 1e-9},
            detector={"overlap": 0.0},
            grid={"x_min": -0.02, "x_max": 0.02, "n_points": 256},
        )
        out = tmp_path / "broken.csv"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_geometry_is_numeric_failure(self, tmp_path, capsys):
        # the closed form's spread squares a float past the float range
        cfg = write_config(tmp_path, geometry=dict(STANDARD_GEOMETRY, lambda_d=1e300))
        out = tmp_path / "out.csv"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["eraser", "scan-duality"])
    def test_overflowing_packets_are_one_numeric_failure(self, tmp_path, capsys, command):
        # the evolved packets' exponents overflow: no NumPy warning on the way
        geometry = dict(STANDARD_GEOMETRY, lambda_d=1e300)
        cfg = write_config(tmp_path, geometry=geometry, eraser={"enabled": True})
        if command == "scan-duality":
            cfg.write_text(json.dumps({"base": {"geometry": geometry, "detector": {"overlap": 1.0}},
                                       "sweep_param": "overlap", "values": [0.5]}))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, geometry", [
        *((command, name) for name in OUT_OF_RANGE_GEOMETRIES
          for command in ("pattern", "eraser", "scan-duality")),
        ("bohr", "H2"), ("bohr", "B1"), ("bohr", "B2"),
    ])
    def test_out_of_range_fringe_numbers_are_one_numeric_failure(self, tmp_path, capsys,
                                                                 command, geometry):
        geometry = OUT_OF_RANGE_GEOMETRIES[geometry]
        cfg = write_config(tmp_path, geometry=geometry, eraser={"enabled": True})
        if command == "scan-duality":
            cfg.write_text(json.dumps({"base": {"geometry": geometry, "detector": {"overlap": 1.0}},
                                       "sweep_param": "overlap", "values": [0.5]}))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, case", [
        ("pattern", "T1"), ("scan-duality", "T1"), ("eraser", "T2"), ("scan-duality", "T2"),
        ("pattern", "T3"),
    ])
    def test_float_range_failures_are_one_numeric_failure(self, tmp_path, capsys,
                                                          command, case):
        geometry, grid, param, value = FLOAT_RANGE_FAILURES[case]
        run = {"geometry": geometry, "detector": {"overlap": 0.0}}
        if grid is not None:
            run["grid"] = grid
        if command == "scan-duality":
            cfg = {"base": run, "sweep_param": param, "values": [value]}
        else:
            cfg = dict(run, eraser={"enabled": True})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_float_range_grid_without_fringes_reads_visibility_zero(self, tmp_path):
        # a grid spanning 1e300 m: the pattern at overlap 0 is its own
        # which-way reference, so the estimator reads 0 from the samples
        run = {"geometry": {"lambda_d": 5e-4, "slit_sep": 1e-3, "screen_dist": 1000,
                            "packet_width": 1e-5},
               "grid": {"x_min": 1e-4, "x_max": 1e300, "n_points": 64},
               "detector": {"overlap": 0.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"base": run, "sweep_param": "phase", "values": [1e-4]}))
        out = tmp_path / "out.csv"
        assert main(["scan-duality", "--config", str(path), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["V_numeric"] == "0"

    @pytest.mark.filterwarnings("error")
    def test_which_way_reference_past_the_float_range_is_numeric_failure(self, tmp_path,
                                                                        capsys):
        # a 2e-300 m grid inside the dark fringe at s near 1: the pattern
        # integrates to about 1e-12 of its reference, which the
        # normalization lifts past the largest float
        run = {"geometry": dict(STANDARD_GEOMETRY),
               "grid": {"x_min": -1e-300, "x_max": 1e-300, "n_points": 64},
               "detector": {"overlap": 0.0, "phase": math.pi}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"base": run, "sweep_param": "overlap",
                                    "values": [0.999999999999]}))
        out = tmp_path / "out.csv"
        assert main(["scan-duality", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "numeric failure: the which-way reference is outside the float range\n"
        assert not out.exists()

    @staticmethod
    def dark_fringe_config(tmp_path, command, half_span, n_points):
        """A config for s 1, theta pi on a grid centred on the dark fringe."""
        run = {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 1.0, "phase": math.pi},
               "grid": {"x_min": -half_span, "x_max": half_span, "n_points": n_points}}
        if command == "scan-duality":
            run = {"base": run, "sweep_param": "overlap", "values": [1.0]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(run))
        return cfg

    @pytest.mark.parametrize("command", ["pattern", "scan-duality"])
    def test_dark_fringe_residue_is_clamped(self, tmp_path, command):
        # at the dark fringe the pattern cancels a which-way sum of about 200
        # to -1.4e-14, while the largest raw value on +-1e-4 m is below 1:
        # the sum scales the floor
        cfg = self.dark_fringe_config(tmp_path, command, 1e-4, 65)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        if command == "pattern":
            _, rows = read_csv(out)
            intensity = np.array([float(row[1]) for row in rows])
            assert intensity.min() >= 0.0
            spacing = 2e-4 / 64  # the trapezoid rule
            integral = spacing * (intensity.sum() - 0.5 * (intensity[0] + intensity[-1]))
            assert integral == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["pattern", "scan-duality"])
    def test_a_pattern_of_residue_alone_is_a_numeric_failure(self, tmp_path, capsys, command):
        # on +-1e-20 m around the dark fringe every value is residue: clamped,
        # the pattern integrates to 0
        cfg = self.dark_fringe_config(tmp_path, command, 1e-20, 64)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "numeric failure: pattern integral 0.0 is not a positive number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pattern", "eraser"])
    def test_subnormal_grid_spacing_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, grid={"x_min": 0.0, "x_max": 1e-320, "n_points": 64},
                           eraser={"enabled": True})
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    def test_coarse_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, grid={"x_min": -0.025, "x_max": 0.025, "n_points": 64})
        assert main(["pattern", "--config", str(cfg)]) == 1


class TestScanDuality:
    def sweep_config(self, tmp_path, values):
        cfg = {
            "base": {
                "geometry": dict(STANDARD_GEOMETRY),
                "detector": {"overlap": 0.0},
            },
            "sweep_param": "overlap",
            "values": values,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sweep_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.0, 0.25, 0.5, 0.75, 1.0])
        out = tmp_path / "sweep.csv"
        assert main(["scan-duality", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["s", "D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs",
                          "rhs_unc", "egy_ok", "unc_ok"]
        assert len(rows) == 5
        for row in rows:
            s, d_val, v_bound = float(row[0]), float(row[1]), float(row[2])
            assert row[8] == "true" and row[9] == "true"
            assert d_val**2 + v_bound**2 == pytest.approx(1.0, abs=1e-12)
            assert abs(float(row[3]) - s) <= 0.02

    def test_phase_sweep_reads_the_overlap(self, tmp_path):
        cfg = {
            "base": {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 0.6}},
            "sweep_param": "phase",
            "values": [-1.5, -0.5, 0.0, 0.5, 1.5],
        }
        path = tmp_path / "phases.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "phases.csv"
        assert main(["scan-duality", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row[3]) - 0.6) <= 1e-3
            assert row[8] == "true"

    def test_single_zero_overlap(self, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.0])
        out = tmp_path / "one.csv"
        assert main(["scan-duality", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == 1.0
        assert float(rows[0][3]) == 0.0

    def test_empty_values_rejected(self, tmp_path):
        cfg = self.sweep_config(tmp_path, [])
        assert main(["scan-duality", "--config", str(cfg)]) == 1

    def test_out_of_domain_value_rejected(self, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.5, 1.5])
        assert main(["scan-duality", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "param,values",
        [
            ("phase", [0.0, 1.0, 3.0]),
            ("packet_width", [2e-6, 5e-6, 1e-5]),
            ("screen_dist", [0.5, 1.0, 2.0]),
        ],
    )
    def test_other_sweep_parameters(self, tmp_path, param, values):
        cfg = {
            "base": {
                "geometry": dict(STANDARD_GEOMETRY),
                "detector": {"overlap": 0.6},
            },
            "sweep_param": param,
            "values": values,
        }
        path = tmp_path / "other.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "other.csv"
        assert main(["scan-duality", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == len(values)
        for row in rows:
            assert float(row[0]) == 0.6  # overlap column stays at the base value
            assert abs(float(row[3]) - 0.6) < 0.02

    def test_negative_packet_width_sweep_rejected(self, tmp_path):
        cfg = {
            "base": {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 0.5}},
            "sweep_param": "packet_width",
            "values": [-1e-5],
        }
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(cfg))
        assert main(["scan-duality", "--config", str(path)]) == 1

    def test_json_format(self, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.0, 1.0])
        out = tmp_path / "sweep.json.out"
        assert main(["scan-duality", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["egy_ok"] == [True, True]
        assert payload["D"] == [1.0, 0.0]

    def test_deterministic(self, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.0, 0.5, 1.0])
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["scan-duality", "--config", str(cfg), "--out", str(out1)])
        main(["scan-duality", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestEraser:
    def eraser_config(self, tmp_path, basis_angle=math.pi / 4, n_points=8193):
        return write_config(
            tmp_path,
            geometry=dict(SEPARATED_GEOMETRY),
            detector={"overlap": 0.0},
            eraser={"enabled": True, "basis_angle": basis_angle},
            grid={"x_min": -0.025, "x_max": 0.025, "n_points": n_points},
        )

    def test_complementary_patterns(self, tmp_path):
        cfg = self.eraser_config(tmp_path)
        out = tmp_path / "eraser.csv"
        assert main(["eraser", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x_m", "i_q1", "i_q2", "i_sum"]
        data = np.array([[float(v) for v in row] for row in rows])
        xs, q1, q2, total = data.T
        mask = total > 1e-300
        np.testing.assert_allclose((q1 + q2)[mask], total[mask], rtol=1e-12)
        # half-fringe displacement between fringe and antifringe
        w = 5e-3 + 16 * math.pi**2 * (1e-6) ** 4 / (5e-7 * 1e-4 * 1.0)
        shift = abs(xs[np.argmax(q1)] - xs[np.argmax(q2)])
        cell = xs[1] - xs[0]
        assert abs(shift - w / 2) <= cell

    def test_default_grid(self, tmp_path):
        cfg = write_config(tmp_path, detector={"overlap": 0.6, "phase": 0.3},
                           eraser={"enabled": True})
        out = tmp_path / "eraser.csv"
        assert main(["eraser", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x_m", "i_q1", "i_q2", "i_sum"]
        assert len(rows) == 8192

    def test_pointer_basis_no_fringes(self, tmp_path):
        cfg = self.eraser_config(tmp_path, basis_angle=0.0)
        out = tmp_path / "pointer.csv"
        assert main(["eraser", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        data = np.array([[float(v) for v in row] for row in rows])
        for column in (data[:, 1], data[:, 2]):
            interior = (column[1:-1] > column[:-2]) & (column[1:-1] > column[2:])
            assert interior.sum() <= 1  # single hump

    def test_rounding_residue_far_below_the_peak_is_clamped(self, tmp_path, capsys):
        # a branch cancels to -3.6e-15 at x = 0, 2e-17 of the raw peak of 160
        cfg = write_config(
            tmp_path,
            detector={"overlap": 0.6, "phase": 0.0},
            eraser={"enabled": True, "basis_angle": math.pi / 4},
            grid={"x_min": -0.025, "x_max": 0.025, "n_points": 8193},
        )
        out = tmp_path / "eraser.csv"
        assert main(["eraser", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"wrote {out}\n"
        _, rows = read_csv(out)
        data = np.array([[float(v) for v in row] for row in rows])
        assert data[:, 1].min() >= 0.0 and data[:, 2].min() >= 0.0

    def test_requires_enabled_flag(self, tmp_path):
        cfg = write_config(tmp_path, eraser={"enabled": False})
        assert main(["eraser", "--config", str(cfg)]) == 1

    def test_deterministic(self, tmp_path):
        cfg = self.eraser_config(tmp_path)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        main(["eraser", "--config", str(cfg), "--out", str(out1)])
        main(["eraser", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestUncertaintyScan:
    def test_lattice_rows_and_summary(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["uncertainty-scan", "--samples", "2000", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n1", "n2", "n3", "var_sigma2", "var_sigma3", "sum"]
        assert rows[-1][0] == "min_sum"
        min_sum = float(rows[-1][5])
        assert min_sum >= 1.0 - 1e-12
        data = np.array([[float(v) for v in row] for row in rows[:-1]])
        assert len(data) == 2000
        # pole rows saturate the bound
        poles = data[np.abs(np.abs(data[:, 2]) - 1.0) < 1e-15]
        assert len(poles) >= 2
        np.testing.assert_allclose(poles[:, 5], 1.0, atol=1e-12)

    def test_single_sample(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["uncertainty-scan", "--samples", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2  # one lattice row plus the summary

    def test_zero_samples_rejected(self):
        assert main(["uncertainty-scan", "--samples", "0"]) == 1

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "u1.csv", tmp_path / "u2.csv"
        main(["uncertainty-scan", "--samples", "500", "--out", str(out1)])
        main(["uncertainty-scan", "--samples", "500", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_carries_summary(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["uncertainty-scan", "--samples", "50", "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["sum"]) == 50
        assert payload["min_sum"] >= 1.0 - 1e-12

    def test_stdout_emission(self, capsys):
        assert main(["uncertainty-scan", "--samples", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n1,n2,n3,")
        assert "min_sum" in captured.out


class TestBohr:
    @pytest.mark.parametrize("sweep", [False, True])
    def test_overlap_warning_names_the_config_loader(self, tmp_path, sweep):
        # packets that overlap at the slits warn from the code that built
        # the Geometry: the loader of a run config or of a geometry sweep
        thick = dict(STANDARD_GEOMETRY, slit_sep=3e-5)
        cfg = write_config(tmp_path, geometry=thick)
        command = "bohr"
        if sweep:
            command = "scan-duality"
            cfg.write_text(json.dumps({
                "base": {"geometry": STANDARD_GEOMETRY, "detector": {"overlap": 0.5},
                         "grid": {"x_min": -0.02, "x_max": 0.02, "n_points": 256}},
                "sweep_param": "packet_width", "values": [2.6e-5]}))
        with pytest.warns(UserWarning, match="overlap already at the slits") as record:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert [w.filename for w in record] == [whichway.cli.__file__]

    def test_json_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bohr.json"
        assert main(["bohr", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["delta_px", "delta_x", "fringe_sep", "ratio"]
        assert payload["ratio"] == pytest.approx(0.0795775, abs=1e-7)
        assert payload["fringe_sep"] == pytest.approx(5e-3, rel=1e-12)

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bohr.csv"
        assert main(["bohr", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
        header, rows = read_csv(out)
        assert header == ["delta_px", "delta_x", "fringe_sep", "ratio"]
        assert len(rows) == 1

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        main(["bohr", "--config", str(cfg), "--out", str(out1)])
        main(["bohr", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("grid", [
        {"x_min": 0.01, "x_max": -0.01, "n_points": 128},
        {"x_min": 0.0, "x_max": 1e-320, "n_points": 64},
    ], ids=["reversed", "subnormal-spacing"])
    def test_bad_grid_is_config_error(self, tmp_path, capsys, grid):
        # bohr computes nothing on the grid, but a config is checked whole
        cfg = write_config(tmp_path, grid=grid)
        assert main(["bohr", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1


def _cells_through_numpy(column):
    """The serializer before it stopped importing NumPy: the reference."""
    values = np.atleast_1d(column)
    if values.dtype == np.bool_:
        return ["true" if v else "false" for v in values.tolist()]
    return ["%.17g" % v for v in values.tolist()]


class TestSerialization:
    """Python floats, bools and lists serialize as NumPy arrays of them did."""

    COLUMNS = {
        "float": 0.1,
        "int": 3,
        "bool": True,
        "float64": np.float64(1 / 3),
        "bool_": np.bool_(False),
        "0-d": np.array(2.5e-300),
        "floats": [0.0, -0.0, 1e-310, 6.62607015e-34, math.pi, 1e300],
        "bools": [True, False],
        "empty": [],
        "array": np.linspace(-1.0, 1.0, 7),
        "bool-array": np.array([False, True]),
    }

    @pytest.mark.parametrize("name", list(COLUMNS))
    def test_cells_match_the_numpy_formatter(self, name):
        from whichway.cli import _cells

        assert _cells(self.COLUMNS[name]) == _cells_through_numpy(self.COLUMNS[name])

    def test_json_lists_columns_and_not_scalars(self):
        from whichway.cli import _emit_json

        text = _emit_json({"a": [1.5], "b": np.array([True]), "c": np.float64(0.25),
                           "d": np.array(0.5), "e": False})
        assert text == '{"a": [1.5], "b": [true], "c": 0.25, "d": 0.5, "e": false}\n'


class TestEntryPoints:
    def test_module_help_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "whichway", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "pattern" in proc.stdout and "scan-duality" in proc.stdout

    @pytest.mark.parametrize("job", ["screen_dist-sweep", "overlap-sweep", "pattern", "bohr"])
    def test_console_entry_point_writes_what_main_writes(self, tmp_path, capsys, job):
        # run() sets glibc's malloc thresholds before main; the bytes must not move
        run = {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 0.6, "phase": 0.3}}
        cfg = tmp_path / "config.json"
        if job in ("pattern", "bohr"):
            argv = [job, "--config", str(cfg)]
            cfg.write_text(json.dumps(run))
        else:
            param = job.split("-")[0]
            values = [0.5, 1.0, 2.0] if param == "screen_dist" else [0.0, 0.4, 1.0]
            argv = ["scan-duality", "--config", str(cfg)]
            cfg.write_text(json.dumps({"base": run, "sweep_param": param, "values": values}))
        proc = subprocess.run([sys.executable, "-m", "whichway", *argv],
                              capture_output=True, env=_child_env())
        code = main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stderr) == (code, captured.err.encode()) == (0, b"")
        assert proc.stdout == captured.out.encode()

    @pytest.mark.parametrize("sweep", [False, True])
    def test_script_prints_a_warning_as_one_line(self, tmp_path, sweep):
        # no source file and line: stderr does not move with the source
        # layout; a sweep that warns twice alike prints the warning once
        thick = dict(STANDARD_GEOMETRY, slit_sep=3e-5)
        argv = ["bohr", "--config", str(write_config(tmp_path, geometry=thick))]
        warning = "slit_sep = 3e-05 m is within 4 packet widths (1e-05 m)"
        if sweep:
            argv = ["scan-duality", "--config", str(tmp_path / "sweep.json")]
            base = {"geometry": STANDARD_GEOMETRY, "detector": {"overlap": 0.5},
                    "grid": {"x_min": -0.02, "x_max": 0.02, "n_points": 256}}
            (tmp_path / "sweep.json").write_text(json.dumps({
                "base": base, "sweep_param": "packet_width", "values": [2.6e-5, 2.6e-5]}))
            warning = "slit_sep = 0.0001 m is within 4 packet widths (2.6e-05 m)"
        proc = subprocess.run([sys.executable, "-m", "whichway", *argv, "--out",
                               str(tmp_path / "out")], capture_output=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stderr.decode() == (f"warning: {warning}; the two packets overlap already "
                                        f"at the slits\nwrote {tmp_path / 'out'}\n")

    @pytest.mark.parametrize("lambda_d, screen_dist, shown", [
        (1e250, 1e40, "6.62607015e-314"), (1e300, 1.0, "0.0")])
    def test_bohr_refuses_a_momentum_spread_below_the_normal_floats(self, tmp_path, lambda_d,
                                                                    screen_dist, shown):
        # h/lambda d/L is subnormal, or 0: it has lost its digits, as a blur
        # delta_x below the normal floats has, and no report is written
        geometry = {"lambda_d": lambda_d, "slit_sep": 1e10, "screen_dist": screen_dist,
                    "packet_width": 1e-5}
        argv = ["bohr", "--config", str(write_config(tmp_path, geometry=geometry))]
        proc = subprocess.run([sys.executable, "-m", "whichway", *argv],
                              capture_output=True, env=_child_env())
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == (f"numeric failure: delta_px {shown} kg m/s is below the "
                                        "normal floats in recoil report\n")

    def test_run_sets_up_the_process_and_main_does_not(self, tmp_path, monkeypatch, capsys):
        # run() fixes the allocator thresholds and the warning format before
        # main() and freezes the collector after it returns; main() called
        # from Python leaves all three as they are.  The freeze is replaced,
        # so that none of pytest's objects are frozen.
        from whichway import cli

        setup = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: setup.append("allocator"))
        monkeypatch.setattr(cli, "_skip_exit_collection", lambda: setup.append("freeze"))
        monkeypatch.setattr(cli, "warnings", types.SimpleNamespace())
        argv = ["bohr", "--config", str(write_config(tmp_path))]
        assert main(argv) == 0
        assert setup == [] and vars(cli.warnings) == {}

        def main_then_note():
            code = main()
            setup.append("main returned")
            return code

        monkeypatch.setattr(cli, "main", main_then_note)
        monkeypatch.setattr(sys, "argv", ["whichway", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 0
        assert setup == ["allocator", "main returned", "freeze"]
        assert vars(cli.warnings) == {"formatwarning": cli._warning_line}
        assert capsys.readouterr().out.startswith('{"delta_px": ')

    @pytest.mark.parametrize("config, code", [("config.json", 0), ("missing.json", 1)])
    def test_atexit_hooks_run_after_the_freeze(self, tmp_path, config, code):
        # the freeze is the last thing run() does: an atexit hook still runs,
        # and finds the job's objects frozen, whether the job failed or not
        write_config(tmp_path)
        probe = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, "
                 "file=sys.stderr))\n"
                 "from whichway.cli import run\n"
                 "run()\n")
        proc = subprocess.run([sys.executable, "-c", probe, "bohr", "--config",
                               str(tmp_path / config)], capture_output=True, env=_child_env())
        assert proc.returncode == code
        assert proc.stderr.decode().endswith("frozen True\n")
        assert proc.stdout.startswith(b'{"delta_px": ') == (code == 0)

    @pytest.mark.parametrize("job", ["bohr", "pattern"])
    @pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
    def test_a_stdout_that_cannot_be_written_is_a_config_error(self, tmp_path, job, target):
        # with stdout buffered, bohr's few bytes are written only at exit,
        # where a failed write used to print "Exception ignored" and exit 120;
        # pattern's output fails already in main().  Either way one line, exit 1.
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "whichway", job, "--config", str(write_config(tmp_path))]
        if target == "/dev/full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
            finally:
                os.close(write_end)
        assert proc.returncode == 1
        assert re.fullmatch(r"config error: \[Errno \d+\] [^\n]*\n", proc.stderr.decode())

    def test_a_job_that_writes_a_file_runs_with_fd_1_closed(self, tmp_path):
        # sys.stdout is None then: run() has no stdout to flush
        out = tmp_path / "out.json"
        proc = subprocess.run([sys.executable, "-m", "whichway", "bohr", "--config",
                               str(write_config(tmp_path)), "--out", str(out)],
                              stderr=subprocess.PIPE, env=_child_env(),
                              preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr.decode()) == (0, f"wrote {out}\n")
        assert out.read_text().startswith('{"delta_px": ')

    @pytest.mark.parametrize("job, code", [("written", 0), ("config error", 1),
                                           ("numeric failure", 2)])
    def test_a_stderr_that_cannot_be_written_changes_no_exit_code(self, tmp_path, job, code):
        # the "wrote" line, the config error and the numeric failure all fail
        # to print on /dev/full; the job exits as it would with a stderr
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        cfg = write_config(tmp_path)
        argv = ["bohr", "--config", str(cfg)]
        if job == "config error":
            argv[-1] = str(tmp_path / "missing.json")
        elif job == "numeric failure":  # the fringe width overflows
            argv[0] = "pattern"
            write_config(tmp_path, geometry={"lambda_d": 1e200, "slit_sep": 1e-100,
                                             "screen_dist": 1e200, "packet_width": 1e-105})
        out = tmp_path / "out"
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)  # the default, buffered stderr
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "whichway", *argv, "--out", str(out)],
                                  stdout=subprocess.PIPE, stderr=full, env=env)
        assert (proc.returncode, proc.stdout) == (code, b"")
        if code == 0:
            assert main([*argv, "--out", str(tmp_path / "normal")]) == 0
            assert out.read_bytes() == (tmp_path / "normal").read_bytes()
        else:
            assert not out.exists()

    @pytest.mark.parametrize("config, code", [("config.json", 0), ("missing.json", 1)])
    def test_a_closed_stderr_writes_nothing_to_stdout(self, tmp_path, config, code):
        # sys.stderr is None then, and print(file=None) would print to stdout
        write_config(tmp_path)
        out = tmp_path / "out.json"
        proc = subprocess.run([sys.executable, "-m", "whichway", "bohr", "--config",
                               str(tmp_path / config), "--out", str(out)],
                              stdout=subprocess.PIPE, env=_child_env(),
                              preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("job", ["bohr", "pattern", "scan-duality"])
    def test_a_zipped_package_writes_what_the_source_tree_writes(self, tmp_path, job):
        # the config schema is read through the package's loader, which
        # reads a zip as it reads a directory
        package = os.path.dirname(whichway.__file__)
        archive = tmp_path / "whichway.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for name in sorted(os.listdir(package)):
                if name.endswith((".py", ".json")):
                    zf.write(os.path.join(package, name), f"whichway/{name}")
        run = {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 0.6, "phase": 0.3}}
        cfg = tmp_path / "config.json"
        if job == "scan-duality":
            cfg.write_text(json.dumps({"base": run, "sweep_param": "overlap",
                                       "values": [0.0, 0.5, 1.0]}))
        else:
            cfg.write_text(json.dumps(run))
        zipped = dict(os.environ, PYTHONPATH=str(archive))
        probe = subprocess.run([sys.executable, "-c", "import whichway.cli as m; print(m.__file__)"],
                               capture_output=True, text=True, env=zipped)
        assert probe.stdout.startswith(str(archive)), probe.stderr
        argv = [sys.executable, "-m", "whichway", job, "--config", str(cfg)]
        from_zip = subprocess.run(argv, capture_output=True, env=zipped)
        from_tree = subprocess.run(argv, capture_output=True, env=_child_env())
        assert from_zip.returncode == from_tree.returncode == 0
        assert (from_zip.stdout, from_zip.stderr) == (from_tree.stdout, from_tree.stderr)

    def test_subcommand_help(self):
        for name in ("pattern", "scan-duality", "eraser", "uncertainty-scan", "bohr"):
            assert main([name, "--help"]) == 0

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["pattern"]) == 1


def _format_of(text):
    if text.startswith("{"):
        json.loads(text)
        return "json"
    return "csv"


class TestOutputOrder:
    """--format and --out first, then the config's output block, then the
    subcommand's default format and stdout."""

    def args(self, tmp_path, command, output=None):
        if command == "uncertainty-scan":
            return ["--samples", "5"]
        run = {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 0.5},
               "eraser": {"enabled": True}}
        if output is not None:
            run["output"] = output
        cfg = run
        if command == "scan-duality":  # the sweep reads output from its base
            cfg = {"base": run, "sweep_param": "overlap", "values": [0.5]}
        else:
            run["grid"] = {"x_min": -0.01, "x_max": 0.01, "n_points": 128}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return ["--config", str(path)]

    @pytest.mark.parametrize("command, default", [
        ("pattern", "csv"), ("eraser", "csv"), ("bohr", "json"),
        ("scan-duality", "csv"), ("uncertainty-scan", "csv"),
    ])
    def test_flag_then_config_then_default(self, tmp_path, capsys, command, default):
        other = "json" if default == "csv" else "csv"
        assert main([command, *self.args(tmp_path, command)]) == 0
        by_default = capsys.readouterr().out
        assert _format_of(by_default) == default
        from_flags = tmp_path / "from_flags.out"
        argv = [command, *self.args(tmp_path, command)]
        if command != "uncertainty-scan":  # the one subcommand without a config
            from_config = tmp_path / "from_config.out"
            argv = [command, *self.args(tmp_path, command,
                                        {"format": other, "path": str(from_config)})]
            assert main(argv) == 0
            assert capsys.readouterr().out == ""
            assert _format_of(from_config.read_text()) == other
            # a flag overrides one half of the output block and keeps the other
            assert main([*argv, "--format", default]) == 0
            assert from_config.read_text() == by_default
            from_config.unlink()
            assert main([*argv, "--out", str(from_flags)]) == 0
            assert _format_of(from_flags.read_text()) == other
            assert not from_config.exists()
        assert main([*argv, "--format", other, "--out", str(from_flags)]) == 0
        assert _format_of(from_flags.read_text()) == other
        assert main([*argv, "--format", default, "--out", str(from_flags)]) == 0
        assert from_flags.read_text() == by_default


BIG = "1" + "0" * 399  # a 400-digit integer, past the float range


class TestUnrepresentableNumbers:
    """Numbers no float holds and sizes no array holds are one-line config
    errors with exit 1; none of these runs allocates a large array."""

    def config(self, tmp_path, command, where, value):
        run = {"geometry": dict(STANDARD_GEOMETRY), "detector": {"overlap": 0.5, "phase": 0.0},
               "grid": {"x_min": -0.01, "x_max": 0.01, "n_points": 128},
               "eraser": {"enabled": True, "basis_angle": 0.0}}
        cfg = run
        if command == "scan-duality":
            cfg = {"base": run, "sweep_param": "phase", "values": [0.0, 0.0]}
        *parents, key = where
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = "VALUE"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"VALUE"', value))
        return path

    @pytest.mark.parametrize("command, where, value", [
        ("pattern", ("detector", "phase"), BIG),
        ("pattern", ("geometry", "lambda_d"), BIG),
        ("pattern", ("geometry", "screen_dist"), BIG),
        ("pattern", ("grid", "x_min"), "-" + BIG),
        ("pattern", ("grid", "n_points"), BIG),
        ("eraser", ("eraser", "basis_angle"), BIG),
        ("scan-duality", ("values", 1), BIG),
        ("pattern", ("grid", "n_points"), str(2**63)),
        ("pattern", ("grid", "n_points"), str(10**20)),
    ], ids=["phase", "lambda_d", "screen_dist", "x_min", "n_points", "basis_angle",
            "sweep-value", "n_points-2**63", "n_points-10**20"])
    def test_config_value(self, tmp_path, capsys, command, where, value):
        cfg = self.config(tmp_path, command, where, value)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("samples", [2**63, 10**20])
    def test_samples(self, capsys, samples):
        assert main(["uncertainty-scan", "--samples", str(samples)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1


def _no_memory(*args, **kwargs):
    raise MemoryError


class TestOutOfMemory:
    """Running out of memory is a one-line config error, exit 1, no output.

    Either a kernel's allocation is made to fail, with the pattern module's
    caches emptied first so that the kernel runs, or the config asks for a
    grid so large that NumPy refuses it at once: 2^57 points need 1 EiB, and
    2^60 - 1 points pass NumPy's size limit, so neither touches memory."""

    GRID = {"x_min": -0.025, "x_max": 0.025, "n_points": 8193}

    @staticmethod
    def config(tmp_path, command, n_points):
        grid = dict(TestOutOfMemory.GRID, n_points=n_points)
        cfg = write_config(tmp_path, grid=grid, eraser={"enabled": True})
        if command == "scan-duality":
            base = {"geometry": STANDARD_GEOMETRY, "detector": {"overlap": 1.0}, "grid": grid}
            cfg.write_text(json.dumps({"base": base, "sweep_param": "overlap",
                                       "values": [0.5]}))
        return cfg

    @pytest.mark.parametrize("command, allocation", [
        ("pattern", "whichway.pattern._closed_parts"),
        ("eraser", "whichway.pattern._combine"),
        ("scan-duality", "whichway.pattern._evolve"),
    ])
    def test_grid_that_does_not_fit_names_its_size(self, tmp_path, monkeypatch, capsys,
                                                   uncached, command, allocation):
        cfg = self.config(tmp_path, command, self.GRID["n_points"])
        monkeypatch.setattr(allocation, _no_memory)
        out = tmp_path / "out.csv"
        assert uncached(main, [command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err \
            == "config error: a grid of 8193 points does not fit in memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_points", [2**57, 2**60 - 1], ids=["2**57", "2**60-1"])
    @pytest.mark.parametrize("command", ["pattern", "eraser", "scan-duality"])
    def test_huge_configured_grid_names_its_size(self, tmp_path, capsys, command, n_points):
        cfg = self.config(tmp_path, command, n_points)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err \
            == f"config error: a grid of {n_points} points does not fit in memory\n"
        assert not out.exists()

    def test_lattice_that_does_not_fit_names_its_size(self, monkeypatch, capsys):
        monkeypatch.setattr("whichway.qubit.bloch_sphere_lattice", _no_memory)
        assert main(["uncertainty-scan", "--samples", "77"]) == 1
        assert capsys.readouterr().err \
            == "config error: a lattice of 77 points does not fit in memory\n"

    def test_other_allocations_are_config_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("whichway.cli.bohr_analysis", _no_memory)
        assert main(["bohr", "--config", str(write_config(tmp_path))]) == 1
        assert capsys.readouterr().err == "config error: out of memory\n"


class TestWriteOutput:
    @pytest.mark.parametrize("existing", [None, "old contents\n"])
    def test_failed_write_leaves_old_file_or_none(self, tmp_path, existing):
        from whichway.cli import _write_output

        target = tmp_path / "out.csv"
        if existing is not None:
            target.write_text(existing)
        # a lone surrogate cannot be encoded, so the write fails part way
        with pytest.raises(UnicodeEncodeError):
            _write_output("x_m\n" * 100_000 + "\ud800\n", str(target))
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.csv"])
        if existing is not None:
            assert target.read_text() == existing

    def test_interrupt_before_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from whichway import cli

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli._write_output("x_m\n1\n", str(tmp_path / "out.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_symlink_target_is_replaced_and_link_kept(self, tmp_path):
        from whichway.cli import _write_output

        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        _write_output("new\n", str(link))
        assert link.is_symlink() and real.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_device_is_written_not_renamed_over(self, monkeypatch):
        from whichway import cli

        def forbidden(src, dst):
            raise AssertionError(f"rename onto {dst}")

        monkeypatch.setattr(cli.os, "replace", forbidden)
        cli._write_output("x_m\n1\n", os.devnull)
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)

    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "p.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == 0o600
        assert out.read_text().startswith("x_m,")

    def test_unwritable_directory_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pattern", "--config", str(cfg), "--out", str(tmp_path / "no" / "p.csv")]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
