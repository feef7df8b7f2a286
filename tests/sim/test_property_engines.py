"""Property-based checks of the Feynman engine against the dense oracle.

Under a ``ShotSeeds`` window, shot ``s`` of a noisy ``feynman-tape`` run must
equal the dense ``statevector`` run of ``sample_noisy_circuit`` fed shot
``s``'s row of uniforms (``seeds.uniforms(s, 1, width)[0]``): the sampled
circuit inserts exactly the Paulis the engine draws for that shot, in program
order, so agreement checks both the draw and the fused execution -- including
off-operand (crosstalk) sites that must fire inside a fused run.  Noiseless
runs must reproduce the dense amplitudes exactly.  These properties are the
foundation the scenario sweeps stand on, so they are exercised here with
hypothesis over random circuits and noise models (the fixed ``repro-ci``
profile in ``tests/conftest.py`` keeps CI deterministic).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.sim import (
    PathState,
    ShotSeeds,
    StatevectorSimulator,
    get_engine,
    with_idle_noise,
)
from repro.sim.noise import PauliChannel, ScheduledNoiseModel
from tests.conftest import (
    assert_shots_match_oracle,
    gate_noise_models,
    random_reversible_circuits,
)


def _superposition_input(circuit) -> PathState:
    register = list(range(min(3, circuit.num_qubits)))
    return PathState.register_superposition(circuit.num_qubits, register)


@st.composite
def _crosstalk_cases(draw):
    """A circuit of fused disjoint runs plus a crosstalk noise model.

    Each run is one gate type laid over disjoint operands, so the tape fuses
    it into one group.  Every gate gets extra sites on *any* qubit, so some
    land on a qubit a later gate of the same run touches -- the sites the
    tape must hoist before the group.  Runs of ``H`` make some of those
    groups branch the path set.
    """
    num_qubits = draw(st.integers(4, 6))
    circuit = QuantumCircuit(num_qubits)
    arities = {"X": 1, "Z": 1, "H": 1, "CX": 2, "SWAP": 2, "CCX": 3}
    h_runs = 0
    for _ in range(draw(st.integers(1, 4))):
        gate = draw(st.sampled_from(sorted(arities)))
        if gate == "H":
            if h_runs == 2:
                continue
            h_runs += 1
        order = draw(st.permutations(range(num_qubits)))
        arity = arities[gate]
        most = num_qubits // arity
        count = draw(st.integers(min(2, most), most))
        for start in range(0, count * arity, arity):
            circuit.add(gate, *order[start : start + arity])
    pool = st.sampled_from(
        [PauliChannel(), PauliChannel(p_x=0.3), PauliChannel(p_y=0.2, p_z=0.2)]
    )
    qubits = st.integers(0, num_qubits - 1)
    gate_sites = tuple(
        tuple(draw(st.lists(st.tuples(qubits, pool), min_size=1, max_size=2)))
        for _ in circuit.instructions
    )
    noise = ScheduledNoiseModel(
        base=draw(gate_noise_models()), gate_sites=gate_sites
    )
    return circuit, noise


class TestSeededShotsMatchDenseOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        random_reversible_circuits(max_qubits=6, max_gates=18),
        gate_noise_models(),
        st.integers(0, 2**31 - 1),
    )
    def test_gate_noise_models(self, circuit, noise, seed):
        """Shot ``s`` equals the dense run of its sampled circuit."""
        assert_shots_match_oracle(
            circuit, _superposition_input(circuit), noise, ShotSeeds(seed=seed), 8
        )

    @settings(max_examples=20, deadline=None)
    @given(
        random_reversible_circuits(max_qubits=5, max_gates=14),
        gate_noise_models(),
        st.integers(0, 2**31 - 1),
    )
    def test_idle_extended_models(self, circuit, noise, seed):
        """The schedule-aware idle sites (end-of-circuit ones included) too."""
        model = with_idle_noise(noise, circuit, PauliChannel.phase_flip(0.1))
        assert_shots_match_oracle(
            circuit, _superposition_input(circuit), model, ShotSeeds(seed=seed), 6
        )

    @settings(max_examples=40, deadline=None)
    @given(_crosstalk_cases(), st.integers(0, 2**31 - 1))
    def test_crosstalk_sites_inside_fused_runs(self, case, seed):
        """Off-operand sites fire in program order, hoisted or not."""
        circuit, noise = case
        assert_shots_match_oracle(
            circuit, _superposition_input(circuit), noise, ShotSeeds(seed=seed), 6
        )

    @settings(max_examples=20, deadline=None)
    @given(
        random_reversible_circuits(max_qubits=5, max_gates=14),
        gate_noise_models(),
        st.integers(0, 2**31 - 1),
    )
    def test_sharding_invariance(self, circuit, noise, seed):
        """Any split of the shot range reproduces the unsharded draw."""
        state = _superposition_input(circuit)
        shots = 6
        sim = get_engine("feynman-tape")
        bits_all, amps_all = sim.run_noisy_shots(
            circuit, state, noise, shots, rng=ShotSeeds(seed=seed)
        )
        split = 2
        bits_a, amps_a = sim.run_noisy_shots(
            circuit, state, noise, split, rng=ShotSeeds(seed=seed)
        )
        bits_b, amps_b = sim.run_noisy_shots(
            circuit, state, noise, shots - split, rng=ShotSeeds(seed=seed, start=split)
        )
        assert np.array_equal(bits_all, np.vstack([bits_a, bits_b]))
        assert np.array_equal(amps_all, np.concatenate([amps_a, amps_b]))


class TestNoiselessStatevectorAgreement:
    @pytest.mark.slow
    @settings(max_examples=40, deadline=None)
    @given(random_reversible_circuits(max_qubits=6, max_gates=18))
    def test_engines_match_dense_amplitudes(self, circuit):
        """Noiseless Feynman runs reproduce statevector amplitudes exactly."""
        state = _superposition_input(circuit)
        dense = StatevectorSimulator().run(circuit, state)
        output = get_engine("feynman-tape").run(circuit, state)
        assert np.allclose(output.to_statevector(), dense, atol=1e-9)
