"""Tests for the analytic fidelity bounds (Eqs. 3, 5, 6) and their consistency
with Monte-Carlo simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    dual_rail_z_fidelity_bound,
    expected_good_branch_fraction,
    qram_x_fidelity_bound,
    qram_z_fidelity_bound,
    sqc_fidelity_bound,
    virtual_x_fidelity_bound,
    virtual_z_fidelity_bound,
)
from repro.analysis.fidelity import (
    error_reduction_factor_needed,
    expected_z_fidelity,
)
from repro.qram import ClassicalMemory, VirtualQRAM
from repro.sim import PauliChannel, QubitOncePauliNoise, get_engine, sample_noisy_circuit
from repro.sim.fidelity import reduced_fidelity

import numpy as np


class TestClosedForms:
    def test_eq3_values(self):
        assert qram_z_fidelity_bound(1e-3, 4) == pytest.approx(1 - 4e-3 * 16)
        assert dual_rail_z_fidelity_bound(1e-3, 4) == pytest.approx(1 - 8e-3 * 16)

    def test_eq5_eq6_values(self):
        eps, m, k = 1e-4, 3, 2
        assert virtual_z_fidelity_bound(eps, m, k) == pytest.approx(
            1 - 8 * eps * (m + 1) * 4 * (k + m)
        )
        assert virtual_x_fidelity_bound(eps, m, k) == pytest.approx(
            1 - 8 * eps * (m + 1) * 4 * (k + 2**m)
        )

    def test_noiseless_limit_is_one(self):
        for bound in (
            qram_z_fidelity_bound,
            qram_x_fidelity_bound,
            dual_rail_z_fidelity_bound,
        ):
            assert bound(0.0, 5) == pytest.approx(1.0)
        assert virtual_z_fidelity_bound(0.0, 3, 2) == pytest.approx(1.0)
        assert sqc_fidelity_bound(0.0, 4) == pytest.approx(1.0)

    def test_clamping(self):
        assert qram_x_fidelity_bound(0.5, 10) == 0.0
        assert qram_x_fidelity_bound(0.5, 10, clamp=False) < 0.0

    def test_x_bound_decays_exponentially_faster_than_z(self):
        eps = 1e-4
        z_infidelity = 1 - qram_z_fidelity_bound(eps, 8, clamp=False)
        x_infidelity = 1 - qram_x_fidelity_bound(eps, 8, clamp=False)
        assert x_infidelity / z_infidelity > 2**4

    def test_expected_good_branch_fraction(self):
        assert expected_good_branch_fraction(0.0, 5) == pytest.approx(1.0)
        assert expected_good_branch_fraction(0.01, 3) == pytest.approx(0.99**9)
        with pytest.raises(ValueError):
            expected_good_branch_fraction(1.5, 2)

    def test_expected_z_fidelity_above_bound(self):
        for m in (1, 2, 3, 4, 5):
            for eps in (1e-4, 1e-3, 5e-3):
                assert expected_z_fidelity(eps, m) >= qram_z_fidelity_bound(eps, m) - 1e-12

    def test_error_reduction_factor_needed(self):
        factor = error_reduction_factor_needed(0.99, m=3, k=2)
        better = error_reduction_factor_needed(0.999, m=3, k=2)
        assert better > factor > 0
        with pytest.raises(ValueError):
            error_reduction_factor_needed(1.5, m=3, k=2)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(1e-6, 1e-2),
        st.integers(1, 8),
        st.integers(0, 4),
    )
    def test_bounds_decrease_with_size_and_noise(self, eps, m, k):
        assert virtual_z_fidelity_bound(eps, m, k) >= virtual_z_fidelity_bound(
            eps, m + 1, k
        )
        assert virtual_z_fidelity_bound(eps, m, k) >= virtual_z_fidelity_bound(
            eps, m, k + 1
        )
        assert virtual_z_fidelity_bound(eps, m, k) >= virtual_z_fidelity_bound(
            2 * eps, m, k
        )
        assert virtual_z_fidelity_bound(eps, m, k) >= virtual_x_fidelity_bound(
            eps, m, k
        )

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1), st.integers(0, 10))
    def test_bounds_stay_in_unit_interval(self, eps, m):
        for value in (
            qram_z_fidelity_bound(eps, m),
            qram_x_fidelity_bound(eps, m),
            sqc_fidelity_bound(eps, m),
        ):
            assert 0.0 <= value <= 1.0


class TestBoundAgainstSimulation:
    @pytest.mark.slow
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_qubit_based_z_noise_respects_eq3(self, m):
        """Monte-Carlo fidelity under the per-qubit phase-flip channel must sit
        above the Eq. 3 lower bound (the bound is for the QRAM part, k = 0)."""
        epsilon = 2e-3
        memory = ClassicalMemory.random(m, rng=m)
        architecture = VirtualQRAM(memory=memory, qram_width=m)
        circuit = architecture.build_circuit()
        state = architecture.input_state()
        ideal = architecture.ideal_output(state)
        simulator = get_engine()
        noise = QubitOncePauliNoise(PauliChannel.phase_flip(epsilon))
        rng = np.random.default_rng(42)
        values = []
        for _ in range(300):
            noisy_circuit = sample_noisy_circuit(circuit, noise, rng)
            noisy = simulator.run(noisy_circuit, state)
            values.append(reduced_fidelity(ideal, noisy, architecture.kept_qubits()))
        mean_fidelity = float(np.mean(values))
        assert mean_fidelity >= qram_z_fidelity_bound(epsilon, m) - 0.02
