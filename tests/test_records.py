"""The package's records: immutable, compared and hashed by their fields
(by identity for the four that hold arrays), printed with every field, and
kept whole by pickle and copy.

Each builder makes a record from one number x; two builds from the same x
are equal but separate value records, and x = 0.6 and x = 0.8 differ in
at least one field.
"""
import copy
import math
import pickle

import numpy as np
import pytest

from whichway import (
    DetectorState,
    DetectorStates,
    DichotomicObservable,
    Geometry,
    JointState,
    ScreenGrid,
    bohr_analysis,
    closed_form_on_grid,
    conditional_patterns,
    default_grid,
    duality_report,
    make_detector_pair,
    mub_basis,
    pattern,
    pattern_on_grid,
    rotated_basis,
)
from whichway.cli import RunConfig

GEOM = Geometry(5e-7, 1e-4, 1.0, 1e-5)


def _grid():
    return ScreenGrid(-0.01, 0.01, 128)


def _joint_state(x):
    return JointState(GEOM, make_detector_pair(x, 0.3))


VALUE_RECORDS = {
    "Geometry": lambda x: Geometry(5e-7, 1e-4, x, 1e-5),
    "BohrReport": lambda x: bohr_analysis(Geometry(5e-7, 1e-4, x, 1e-5)),
    "RunConfig": lambda x: RunConfig(GEOM, x, 0.3, None, False, math.pi / 4.0, None, None),
    "DetectorState": lambda x: DetectorState(x, math.sqrt(1.0 - x * x)),
    "DetectorPair": lambda x: make_detector_pair(x, 0.3),
    "DichotomicObservable": lambda x: DichotomicObservable((0.0, x, math.sqrt(1.0 - x * x))),
    "MeasurementBasis": rotated_basis,
    "ScreenGrid": lambda x: ScreenGrid(-0.01, 0.01 * x, 128),
    "JointState": _joint_state,
    "DualityReport": lambda x: duality_report(GEOM, make_detector_pair(x, 0.3), _grid()),
}

IDENTITY_RECORDS = {
    "DetectorStates": lambda x: DetectorStates(np.array([x]), np.sqrt(np.array([1.0 - x * x]))),
    "PatternSamples": lambda x: pattern_on_grid(_grid(), _joint_state(x)),
    "EraserResult": lambda x: conditional_patterns(_grid(), _joint_state(x), mub_basis()),
    "BranchPackets": lambda x: pattern._evolve(_grid().xs(), Geometry(5e-7, 1e-4, x, 1e-5)),
}

RECORDS = {**VALUE_RECORDS, **IDENTITY_RECORDS}

#: Each record's fields in order, the derived ones (d2, ratio, egy_ok,
#: unc_ok) included.
FIELDS = {
    "Geometry": ("wavelength", "slit_sep", "screen_dist", "packet_width"),
    "BohrReport": ("delta_px", "delta_x", "fringe_sep", "ratio"),
    "RunConfig": ("geometry", "overlap", "phase", "grid", "eraser_enabled", "basis_angle",
                  "out_format", "out_path"),
    "DetectorState": ("c1", "c2"),
    "DetectorPair": ("d1", "d2", "overlap_mag"),
    "DichotomicObservable": ("bloch",),
    "MeasurementBasis": ("b1", "b2"),
    "ScreenGrid": ("x_min", "x_max", "n_points"),
    "JointState": ("geom", "pair", "path_amps"),
    "DualityReport": ("D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs", "rhs_unc", "egy_ok",
                      "unc_ok"),
    "DetectorStates": ("c1", "c2"),
    "PatternSamples": ("grid", "intensity", "norm_constant", "reference"),
    "EraserResult": ("i_b", "i_b_perp", "i_sum"),
    "BranchPackets": ("mod1", "mod2", "cross_re", "cross_im"),
}


def test_every_record_names_its_fields():
    # a value record's _values, which equality and hashing read, are its
    # fields in order
    assert len(RECORDS) == 14 and set(FIELDS) == set(RECORDS)
    for name, build in RECORDS.items():
        record = build(0.6)
        assert type(record).__name__ == name
        assert record._fields == FIELDS[name]
        if name in VALUE_RECORDS:
            assert record._values == tuple(getattr(record, f) for f in FIELDS[name])
        else:
            assert not hasattr(record, "_values")


@pytest.mark.parametrize("name", RECORDS)
def test_records_hold_no_hidden_state(name):
    # every record is slotted: what it holds is its fields (and a grid's
    # read-only positions and weights), never a __dict__ of kept values
    record = RECORDS[name](0.6)
    assert not hasattr(record, "__dict__")
    if name == "ScreenGrid":
        assert set(type(record).__slots__) == {*FIELDS[name], "_xs", "_weights"}
        for arr in (record.xs(), record._weights):
            assert not arr.flags.writeable


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_set_or_deleted(name):
    record = RECORDS[name](0.6)
    for field in FIELDS[name]:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_and_hash_by_their_fields(name):
    build = VALUE_RECORDS[name]
    a, b, other = build(0.6), build(0.6), build(0.8)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert a.__eq__(tuple(getattr(a, f) for f in FIELDS[name])) is NotImplemented


@pytest.mark.parametrize("name", IDENTITY_RECORDS)
def test_array_records_compare_by_identity(name):
    build = IDENTITY_RECORDS[name]
    a, b = build(0.6), build(0.6)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_an_equal_geometry_is_default_grids_cache_key():
    first = default_grid(Geometry(5e-7, 1e-4, 2.0, 1e-5))
    assert default_grid(Geometry(5e-7, 1e-4, 2.0, 1e-5)) is first


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    record = RECORDS[name](0.6)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in FIELDS[name])
    assert repr(record) == f"{name}({fields})"


def test_repr_text():
    assert repr(GEOM) == ("Geometry(wavelength=5e-07, slit_sep=0.0001, screen_dist=1.0, "
                          "packet_width=1e-05)")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_keep_every_field(name):
    record = RECORDS[name](0.6)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert repr(twin) == repr(record)
        if name in VALUE_RECORDS:
            assert twin == record and hash(twin) == hash(record)
        if name == "ScreenGrid":  # rebuilt, so its arrays are read-only again
            assert twin.xs().tobytes() == record.xs().tobytes()
            assert not (twin.xs().flags.writeable or twin._weights.flags.writeable)
        # packets are rebuilt too, alone or as a direct pattern's reference
        if name in ("BranchPackets", "PatternSamples"):
            packets, kept = ((twin, record) if name == "BranchPackets"
                             else (twin.reference[0], record.reference[0]))
            for field in FIELDS["BranchPackets"]:
                arr = getattr(packets, field)
                assert arr.tobytes() == getattr(kept, field).tobytes()
                assert not arr.flags.writeable


def test_a_copied_closed_form_reference_stays_read_only():
    samples = closed_form_on_grid(_grid(), _joint_state(0.6))[0]
    for twin in (pickle.loads(pickle.dumps(samples)), copy.copy(samples),
                 copy.deepcopy(samples)):
        assert twin.reference.tobytes() == samples.reference.tobytes()
        assert not twin.reference.flags.writeable
