"""Detector qubit algebra: states, pairs, observables, sum uncertainty."""
import cmath
import math

import numpy as np
import pytest

from whichway import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DetectorPair,
    DetectorState,
    DetectorStates,
    DichotomicObservable,
    MeasurementBasis,
    ValidationError,
    bloch_sphere_lattice,
    inner_product,
    make_detector_pair,
    mub_basis,
    rotated_basis,
    state_from_bloch,
    states_from_bloch,
    sum_uncertainty,
    variance,
)

SQ = math.sqrt(0.5)


class TestDetectorState:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValidationError):
            DetectorState(1.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            DetectorState(float("nan"), 0.0)

    def test_accepts_within_tolerance(self):
        DetectorState(1.0 + 4e-13, 0.0)


class TestInnerProduct:
    def test_identity_case(self):
        a = DetectorState(1.0, 0.0)
        assert inner_product(a, a) == 1.0 + 0.0j

    def test_orthogonal_basis_states(self):
        a = DetectorState(1.0, 0.0)
        b = DetectorState(0.0, 1.0)
        assert inner_product(a, b) == 0.0

    def test_parametrized_overlap(self):
        # <a|b> = 2 sqrt(0.09) = 0.6 for the conjugate-swapped pair components
        a = DetectorState(math.sqrt(0.9), math.sqrt(0.1))
        b = DetectorState(math.sqrt(0.1), math.sqrt(0.9))
        assert inner_product(a, b).real == pytest.approx(0.6, abs=1e-15)

    def test_bounded_by_one(self, rng):
        for _ in range(200):
            v = rng.normal(size=4)
            a = DetectorState(*(v[:2] / np.linalg.norm(v[:2])))
            b = DetectorState(*(v[2:] / np.linalg.norm(v[2:])))
            assert abs(inner_product(a, b)) <= 1 + 1e-12


class TestMakeDetectorPair:
    def test_zero_overlap_is_orthogonal(self):
        pair = make_detector_pair(0.0, 0.0)
        assert pair.d1.c1 == 1.0 and pair.d1.c2 == 0.0
        assert pair.d2.c1 == 0.0 and pair.d2.c2 == 1.0
        assert inner_product(pair.d1, pair.d2) == 0.0

    def test_full_overlap_is_identical(self):
        pair = make_detector_pair(1.0, 0.0)
        assert abs(pair.d1.c1) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(pair.d1.c2) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert pair.d1 == pair.d2

    @pytest.mark.parametrize("theta", [0.0, 0.7, 3.0])
    def test_accepts_its_own_pair_at_every_overlap(self, theta):
        # 1.83e-5 and 1e-6 were refused when |c2| came from 1 - sqrt(1 - s^2)
        tiny = [1e-6, 1.8286478619233826e-05, 5e-6, 1e-4, 5e-324]
        for s in [*np.geomspace(1e-300, 1.0, 2000), *np.linspace(0.0, 1.0, 2001), *tiny]:
            pair = make_detector_pair(float(s), theta)
            assert abs(abs(inner_product(pair.d1, pair.d2)) - s) <= 1e-15

    def test_overlap_round_trip(self):
        pair = make_detector_pair(0.6, 0.0)
        assert abs(pair.d1.c1) ** 2 == pytest.approx(0.9, abs=1e-14)
        assert abs(inner_product(pair.d1, pair.d2)) == pytest.approx(0.6, abs=1e-14)

    def test_round_trip_random(self, rng):
        for _ in range(300):
            s = rng.uniform()
            theta = rng.uniform(-math.pi, math.pi)
            pair = make_detector_pair(s, theta)
            ip = inner_product(pair.d2, pair.d1)
            assert abs(ip) == pytest.approx(s, abs=1e-12)
            if s > 1e-6:
                assert math.remainder(cmath.phase(ip) - theta, math.tau) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_wraps_phase(self):
        pair = make_detector_pair(0.5, 3.0 * math.pi)
        assert abs(pair.overlap_phase) <= math.pi

    def test_overlap_equals_twice_component_product(self, rng):
        # <d1|d2> = 2 conj(c1) conj(c2), an identity of the parametrization
        for _ in range(100):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-3, 3))
            ip = inner_product(pair.d1, pair.d2)
            assert ip == pytest.approx(2 * pair.d1.c1.conjugate() * pair.d1.c2.conjugate(),
                                       abs=1e-15)

    @pytest.mark.parametrize("s", [-0.1, 1.1, float("nan")])
    def test_rejects_bad_overlap(self, s):
        with pytest.raises(ValidationError):
            make_detector_pair(s)

    def test_pair_constructor_rejects_mismatched_overlap(self):
        good = make_detector_pair(0.6, 0.0)
        DetectorPair(good.d1, 0.6, 0.0)
        with pytest.raises(ValidationError):
            DetectorPair(good.d1, 0.5, 0.0)

    def test_d2_is_the_conjugate_swap_of_d1(self, rng):
        for _ in range(200):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
            d1 = pair.d1
            # bit for bit: repr tells the signs of zeros apart, == does not
            assert repr(pair.d2) == repr(DetectorState(d1.c2.conjugate(), d1.c1.conjugate()))


class TestVariance:
    def test_eigenstate_has_zero_variance(self):
        assert variance(DetectorState(1.0, 0.0), PAULI_Z) == 0.0

    def test_equal_superposition_is_maximal(self):
        assert variance(DetectorState(SQ, SQ), PAULI_Z) == pytest.approx(1.0, abs=1e-15)

    def test_pointer_variance_formula(self):
        # 4 |c1|^2 |c2|^2 with |c1|^2 = 0.9
        state = DetectorState(math.sqrt(0.9), math.sqrt(0.1))
        assert variance(state, PAULI_Z) == pytest.approx(0.36, abs=1e-12)

    def test_matches_component_product_for_pairs(self, rng):
        for _ in range(200):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-3, 3))
            expected = 4 * abs(pair.d1.c1) ** 2 * abs(pair.d1.c2) ** 2
            assert variance(pair.d1, PAULI_Z) == pytest.approx(expected, abs=1e-12)

    def test_same_in_either_pair_state(self, rng):
        for _ in range(200):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-3, 3))
            assert variance(pair.d1, PAULI_Z) == pytest.approx(
                variance(pair.d2, PAULI_Z), abs=1e-14
            )

    def test_range(self, rng):
        for _ in range(500):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            state = DetectorState(*v)
            for obs in (PAULI_X, PAULI_Y, PAULI_Z):
                assert 0.0 <= variance(state, obs) <= 1.0 + 1e-12

    def test_observable_needs_unit_bloch(self):
        with pytest.raises(ValidationError):
            DichotomicObservable((1.0, 1.0, 0.0))


class TestSumUncertainty:
    def test_pointer_eigenstate_saturates(self):
        dq2, dp2, total = sum_uncertainty(DetectorState(1.0, 0.0))
        assert (dq2, dp2, total) == (1.0, 0.0, 1.0)

    def test_transverse_eigenstate_is_maximal(self):
        dq2, dp2, total = sum_uncertainty(DetectorState(SQ, SQ))
        assert dq2 == pytest.approx(1.0, abs=1e-15)
        assert dp2 == pytest.approx(1.0, abs=1e-15)
        assert total == pytest.approx(2.0, abs=1e-15)

    def test_haar_random_states_respect_bound(self, rng):
        # brute-force sweep: 10000 Haar states
        v = rng.normal(size=(10000, 2)) + 1j * rng.normal(size=(10000, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        worst = min(sum_uncertainty(DetectorState(*row))[2] for row in v)
        assert worst >= 1.0 - 1e-12

    def test_equality_iff_no_transverse_component(self, rng):
        for _ in range(200):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            state = DetectorState(*v)
            total = sum_uncertainty(state)[2]
            ex = PAULI_X.expectation(state)
            assert total == pytest.approx(1.0 + ex * ex, abs=1e-12)


class TestBases:
    def test_mub_basis_components(self):
        basis = mub_basis()
        np.testing.assert_allclose(
            [basis.b1.c1, basis.b1.c2, basis.b2.c1, basis.b2.c2],
            [SQ, SQ, SQ, -SQ],
            rtol=0,
            atol=1e-15,
        )

    def test_mub_basis_orthogonal(self):
        basis = mub_basis()
        assert abs(inner_product(basis.b1, basis.b2)) <= 1e-12

    def test_mub_unbiased_with_pointer_basis(self):
        basis = mub_basis()
        p1 = DetectorState(1.0, 0.0)
        assert abs(inner_product(p1, basis.b1)) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(inner_product(p1, basis.b2)) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_rotated_basis_limits(self):
        basis = rotated_basis(0.0)
        assert basis.b1 == DetectorState(1.0, 0.0)
        assert basis.b2 == DetectorState(0.0, 1.0)
        quarter = rotated_basis(math.pi / 4)
        assert abs(inner_product(quarter.b1, mub_basis().b1)) == pytest.approx(1.0, abs=1e-15)

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(ValidationError):
            MeasurementBasis(DetectorState(1.0, 0.0), DetectorState(SQ, SQ))


class TestBlochLattice:
    def test_unit_vectors(self):
        lattice = bloch_sphere_lattice(500)
        np.testing.assert_allclose(np.linalg.norm(lattice, axis=1), 1.0, atol=1e-12)

    def test_poles_included(self):
        lattice = bloch_sphere_lattice(101)
        assert lattice[0].tolist() == [0.0, 0.0, 1.0]
        assert lattice[-1].tolist() == [0.0, 0.0, -1.0]

    def test_deterministic(self):
        np.testing.assert_array_equal(bloch_sphere_lattice(64), bloch_sphere_lattice(64))

    def test_state_round_trip(self, rng):
        for n in rng.normal(size=(50, 3)):
            n /= np.linalg.norm(n)
            state = state_from_bloch(*n)
            np.testing.assert_allclose(
                [PAULI_X.expectation(state), PAULI_Y.expectation(state),
                 PAULI_Z.expectation(state)],
                n,
                atol=1e-12,
            )

    def test_single_point(self):
        assert bloch_sphere_lattice(1).shape == (1, 3)


class TestDetectorStates:
    """The array form: one state per entry, the scalar path's numbers."""

    @pytest.mark.parametrize("n", [1, 2, 777, 10000])
    def test_equals_the_scalar_path_per_point(self, n):
        # the states are the same bits (see the next test), but NumPy's
        # complex abs may differ from Python's in the last bit
        lattice = bloch_sphere_lattice(n)
        states = states_from_bloch(lattice)
        got = sum_uncertainty(states)
        want = np.array([sum_uncertainty(state_from_bloch(*row)) for row in lattice]).T
        for column, ref in zip(got, want):
            assert column.shape == (n,)
            np.testing.assert_allclose(column, ref, rtol=0, atol=2e-15)
        for obs in (PAULI_X, PAULI_Y, PAULI_Z):
            ref = [obs.expectation(state_from_bloch(*row)) for row in lattice]
            np.testing.assert_allclose(obs.expectation(states), ref, rtol=0, atol=2e-15)

    def test_state_from_bloch_is_a_row_of_states_from_bloch(self):
        lattice = bloch_sphere_lattice(10000)
        states = states_from_bloch(lattice)
        scalar = [state_from_bloch(*row) for row in lattice]
        assert all(isinstance(st.c1, complex) and isinstance(st.c2, complex) for st in scalar)
        np.testing.assert_array_equal([st.c1 for st in scalar], states.c1)
        np.testing.assert_array_equal([st.c2 for st in scalar], states.c2)

    def test_variance_clamps_residue_per_state(self):
        # <sigma_z> of the first state is just above 1
        states = DetectorStates(np.array([1.0 + 4e-13, SQ]), np.array([0.0, SQ]))
        np.testing.assert_array_equal(variance(states, PAULI_Z), [0.0, 1.0])

    def test_rejects_a_non_normalized_entry(self):
        with pytest.raises(ValidationError, match="state 1 not normalized"):
            DetectorStates(np.array([1.0, 1.0]), np.array([0.0, 1.0]))

    def test_rejects_non_finite_or_mismatched_components(self):
        with pytest.raises(ValidationError):
            DetectorStates(np.array([float("nan")]), np.array([0.0]))
        with pytest.raises(ValidationError):
            DetectorStates(np.array([1.0, 1.0]), np.array([0.0]))

    def test_rejects_a_non_unit_bloch_vector(self):
        with pytest.raises(ValidationError, match="bloch vector 1"):
            states_from_bloch(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]]))
