"""Which-way double-slit toolkit.

Simulates the recoiling-slit experiment: entangled particle-detector states
propagated to the screen, interference patterns by two independent routes,
path distinguishability vs fringe visibility, the quantum eraser, and the
uncertainty-relation bookkeeping that closes the duality bound.

The public names load on first access (PEP 562): ``import whichway`` imports
no submodule and no NumPy, and ``whichway.duality_report`` imports
``whichway.analysis``, with NumPy, when it is first read.
"""
import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_HOMES = {
    "BohrReport": "recoil",
    "DetectorPair": "qubit",
    "DetectorState": "qubit",
    "DetectorStates": "qubit",
    "DichotomicObservable": "qubit",
    "DualityReport": "analysis",
    "EraserResult": "pattern",
    "Geometry": "packets",
    "JointState": "pattern",
    "MeasurementBasis": "qubit",
    "NumericFailure": "errors",
    "PAULI_X": "qubit",
    "PAULI_Y": "qubit",
    "PAULI_Z": "qubit",
    "PatternSamples": "pattern",
    "ScreenGrid": "pattern",
    "ValidationError": "errors",
    "bloch_sphere_lattice": "qubit",
    "bohr_analysis": "recoil",
    "closed_form_on_grid": "pattern",
    "closed_form_parts": "pattern",
    "conditional_patterns": "pattern",
    "default_grid": "pattern",
    "distinguishability": "analysis",
    "duality_report": "analysis",
    "effective_tau": "packets",
    "eraser_branch_visibilities": "analysis",
    "evolved_amplitude": "packets",
    "extrema_positions": "analysis",
    "fringe_spacing": "analysis",
    "fringe_width": "pattern",
    "inner_product": "qubit",
    "intensity_closed_form": "pattern",
    "intensity_direct": "pattern",
    "local_visibility": "analysis",
    "make_detector_pair": "qubit",
    "mub_basis": "qubit",
    "numeric_visibility": "analysis",
    "oscillatory_residual": "analysis",
    "pattern_on_grid": "pattern",
    "rotated_basis": "qubit",
    "spread_sigma": "packets",
    "state_from_bloch": "qubit",
    "states_from_bloch": "qubit",
    "sum_uncertainty": "qubit",
    "variance": "qubit",
    "visibility_bound": "analysis",
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
