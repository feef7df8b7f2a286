"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.qram import ClassicalMemory

# Fixed hypothesis profile: example generation is derandomised (derived from
# each test's name, not a random seed), so every CI run and every worker in
# the test matrix explores the identical example sequence.  Deadlines are
# disabled because shared CI runners make wall-clock flaky.  Set
# HYPOTHESIS_PROFILE=dev locally for randomized exploration.
settings.register_profile("repro-ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-ci"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_memory() -> ClassicalMemory:
    """A fixed 8-cell memory used across QRAM tests."""
    return ClassicalMemory.from_values([1, 0, 1, 1, 0, 0, 1, 0])


@pytest.fixture
def tiny_memory() -> ClassicalMemory:
    """A fixed 4-cell memory."""
    return ClassicalMemory.from_values([0, 1, 1, 0])


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


def random_reversible_circuits(
    min_qubits: int = 2, max_qubits: int = 7, max_gates: int = 25
) -> st.SearchStrategy[QuantumCircuit]:
    """Strategy producing random circuits over the classical-reversible gate set.

    These circuits are simulable by both the Feynman-path and statevector
    simulators, which is exactly what the cross-validation property tests need.
    """

    @st.composite
    def build(draw) -> QuantumCircuit:
        num_qubits = draw(st.integers(min_qubits, max_qubits))
        num_gates = draw(st.integers(0, max_gates))
        circuit = QuantumCircuit(num_qubits)
        for _ in range(num_gates):
            gate = draw(
                st.sampled_from(["X", "Z", "CX", "SWAP", "CCX", "CSWAP", "MCX"])
            )
            if gate in ("X", "Z"):
                qubit = draw(st.integers(0, num_qubits - 1))
                circuit.add(gate, qubit)
                continue
            arity = {"CX": 2, "SWAP": 2, "CCX": 3, "CSWAP": 3}.get(gate)
            if gate == "MCX":
                arity = draw(st.integers(2, min(4, num_qubits)))
            if arity > num_qubits:
                continue
            qubits = draw(
                st.lists(
                    st.integers(0, num_qubits - 1),
                    min_size=arity,
                    max_size=arity,
                    unique=True,
                )
            )
            circuit.add(gate, *qubits)
        return circuit

    return build()


def gate_noise_models() -> st.SearchStrategy:
    """Strategy producing random :class:`GateNoiseModel` instances.

    Probabilities are drawn from a small grid (``p_total <= 0.45``, so the
    doubled two-qubit channel stays a valid distribution) so noisy
    trajectories stay non-trivial without drowning every shot in errors.
    """
    from repro.sim import GateNoiseModel, PauliChannel

    probabilities = st.sampled_from([0.0, 0.05, 0.1, 0.15])

    @st.composite
    def build(draw) -> GateNoiseModel:
        p_x = draw(probabilities)
        p_y = draw(probabilities)
        p_z = draw(probabilities)
        two_qubit_factor = draw(st.sampled_from([1.0, 1.0, 2.0]))
        return GateNoiseModel(
            channel=PauliChannel(p_x=p_x, p_y=p_y, p_z=p_z),
            two_qubit_factor=two_qubit_factor,
        )

    return build()


def site_table(channels):
    """A bare :class:`NoiseSiteTable` over ``channels``, one site per channel.

    Gate, qubit and group indices are placeholders: the draw reads only the
    channels.
    """
    from repro.circuit.ir import NoiseSiteTable

    placeholder = np.zeros(len(channels), dtype=np.int32)
    return NoiseSiteTable(
        gate_index=placeholder,
        qubit=placeholder,
        group_index=placeholder,
        channels=tuple(channels),
    )


class FixedUniforms:
    """Generator stand-in handing out a fixed sequence of uniforms in order.

    ``random()`` returns one float, ``random(n)`` or ``random(out=a)`` the
    next ``n`` or ``len(a)`` values; asking for more than remain raises, so a
    reader that consumes more of a shot's row than the row holds fails.
    """

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self.cursor = 0

    @property
    def exhausted(self) -> bool:
        return self.cursor == len(self._values)

    def _take(self, count: int) -> np.ndarray:
        if self.cursor + count > len(self._values):
            raise IndexError(
                f"read {count} uniforms with {len(self._values) - self.cursor} left"
            )
        values = self._values[self.cursor : self.cursor + count]
        self.cursor += count
        return values

    def random(self, size=None, out=None):
        if out is not None:
            out[:] = self._take(out.shape[0])
            return out
        if size is None:
            return float(self._take(1)[0])
        return self._take(size).copy()


def assert_shots_match_oracle(circuit, state, noise, seeds, shots) -> None:
    """Every shot block of a noisy tape run equals its dense-oracle replay.

    Shot ``s`` of a ``feynman-tape`` run under the ``ShotSeeds`` window
    ``seeds`` must equal the ``statevector`` run of
    ``sample_noisy_circuit(circuit, noise, sampler)`` -- the circuit with
    exactly that shot's sampled Paulis inserted in program order -- to
    ``1e-9`` per basis-state amplitude.  Both readers are
    :class:`FixedUniforms` over the shot's row
    ``seeds.uniforms(s, 1, width)[0]``: the dense run reads the measurement
    uniforms at its front and ``sampler`` the site uniforms after them, all
    of which it must consume.  The oracle therefore never sees the site
    table's threshold mapping or the engine's execution.  Measured circuits
    are exact only where every ``X``-basis measurement has a uniform
    marginal (the teleportation shape; see :mod:`repro.sim.engine`).
    """
    from repro.circuit import compile_circuit
    from repro.sim import PathState, get_engine, sample_noisy_circuit

    bits, amps = get_engine("feynman-tape").run_noisy_shots(
        circuit, state, noise, shots, rng=seeds
    )
    n_paths = bits.shape[0] // shots
    tape = compile_circuit(circuit)
    n_measurements = tape.num_measurements
    width = n_measurements + tape.noise_sites(noise).n_sites
    dense = get_engine("statevector")
    for shot in range(shots):
        block = slice(shot * n_paths, (shot + 1) * n_paths)
        got = PathState(bits=bits[block], amplitudes=amps[block]).as_dict()
        row = seeds.uniforms(shot, 1, width)[0]
        sampler = FixedUniforms(row[n_measurements:])
        noisy = sample_noisy_circuit(circuit, noise, sampler)
        assert sampler.exhausted
        want = dense.run(
            noisy, state, rng=FixedUniforms(row[:n_measurements])
        ).as_dict()
        assert got.keys() == want.keys()
        for key, amplitude in want.items():
            assert abs(got[key] - amplitude) < 1e-9


def memory_strategy(max_width: int = 4) -> st.SearchStrategy[ClassicalMemory]:
    """Strategy producing small random classical memories."""

    @st.composite
    def build(draw) -> ClassicalMemory:
        width = draw(st.integers(1, max_width))
        values = draw(
            st.lists(
                st.integers(0, 1), min_size=1 << width, max_size=1 << width
            )
        )
        return ClassicalMemory.from_values(values)

    return build()
