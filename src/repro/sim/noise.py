"""Pauli noise channels and Monte-Carlo error injection.

Two error models from the paper are implemented:

* **Gate-based noise** (Sec. 6.3, used for all fidelity figures): after every
  logical gate, each operand qubit independently suffers an ``X``/``Y``/``Z``
  error with the channel's probabilities.  The Monte-Carlo sampling is either
  materialised as explicit ``Instruction`` insertions
  (:func:`sample_noisy_circuit`, convenient for small circuits and tests) or
  applied on the fly by the vectorised Feynman-path runner.

* **Qubit-based noise** (Sec. 5.1, used for the analytic bounds): each qubit
  suffers at most one Pauli error during the query, at a position drawn
  uniformly among that qubit's gate touch-points.  This mirrors the
  "phase-flip channel applied to each qubit" model under which Eq. (3) is
  derived.

Channels are parameterised by independent X/Y/Z probabilities so that the
Z-biased (phase-flip), X-biased (bit-flip) and depolarizing models of
Figures 9-11 are all instances of the same class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.circuit.instruction import Instruction
from repro.circuit.scheduling import idle_slack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import QuantumCircuit


#: Integer Pauli codes returned by :meth:`PauliChannel.sample_thresholded`.
PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = 0, 1, 2, 3

_PAULI_NAMES = {PAULI_X: "X", PAULI_Y: "Y", PAULI_Z: "Z"}


@dataclass(frozen=True)
class PauliChannel:
    """Single-qubit Pauli channel with independent X/Y/Z probabilities."""

    p_x: float = 0.0
    p_y: float = 0.0
    p_z: float = 0.0

    def __post_init__(self) -> None:
        for name, p in (("p_x", self.p_x), ("p_y", self.p_y), ("p_z", self.p_z)):
            if p < 0 or p > 1:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_x + self.p_y + self.p_z > 1 + 1e-12:
            raise ValueError("total error probability exceeds 1")

    @property
    def p_total(self) -> float:
        """Probability that *some* error occurs."""
        return self.p_x + self.p_y + self.p_z

    @property
    def is_trivial(self) -> bool:
        """True when every error probability is zero."""
        return self.p_total == 0.0

    def scaled(self, factor: float) -> "PauliChannel":
        """Channel with all probabilities multiplied by ``factor``.

        Used to apply the paper's *error reduction factor* ``eps_r``
        (Appendix A): ``channel.scaled(1 / eps_r)``.
        """
        return PauliChannel(
            p_x=self.p_x * factor, p_y=self.p_y * factor, p_z=self.p_z * factor
        )

    def sample_thresholded(
        self, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Sample ``size`` Pauli codes (0=I, 1=X, 2=Y, 3=Z), one uniform each.

        Each uniform variate is mapped through the cumulative
        ``(I, X, Y, Z)`` thresholds with a single ``searchsorted``, so the
        call consumes exactly ``size`` values of ``rng.random`` regardless of
        the channel.  It is the sampler of :func:`sample_noisy_circuit`, the
        oracle's input.  The engines' block draw
        (:func:`repro.sim.seeding.draw_shot_randomness`) maps each site's
        uniform through the same cumulative thresholds
        (:meth:`repro.circuit.ir.NoiseSiteTable.thresholds`), so it returns
        the codes sequential calls of this sampler, one value per site,
        would.
        """
        cumulative = np.array(
            [
                1.0 - self.p_total,
                1.0 - self.p_total + self.p_x,
                1.0 - self.p_total + self.p_x + self.p_y,
            ]
        )
        return np.searchsorted(cumulative, rng.random(size), side="right").astype(
            np.int64
        )

    # Convenience constructors ------------------------------------------------
    @classmethod
    def phase_flip(cls, epsilon: float) -> "PauliChannel":
        """Z-biased channel: ``rho -> (1-eps) rho + eps Z rho Z`` (Sec. 5.1)."""
        return cls(p_z=epsilon)

    @classmethod
    def bit_flip(cls, epsilon: float) -> "PauliChannel":
        """X-biased channel used for the right panel of Figure 10."""
        return cls(p_x=epsilon)

    @classmethod
    def depolarizing(cls, epsilon: float) -> "PauliChannel":
        """Depolarizing channel with total error probability ``epsilon``."""
        return cls(p_x=epsilon / 3, p_y=epsilon / 3, p_z=epsilon / 3)


class NoiseModel:
    """Base class: maps instructions to the error channels they trigger."""

    def gate_error_channels(
        self, instr: Instruction
    ) -> list[tuple[int, PauliChannel]]:
        """Channels applied (qubit, channel) immediately after ``instr``."""
        raise NotImplementedError

    def gate_error_channels_indexed(
        self, gate_index: int, instr: Instruction
    ) -> list[tuple[int, PauliChannel]]:
        """Channels applied after the ``gate_index``-th **barrier-free** gate.

        ``gate_index`` counts the circuit's non-barrier instructions in
        order -- the same enumeration :func:`repro.circuit.ir.compile_circuit`
        packs into the gate tape -- so position-dependent models (idle noise
        keyed on schedule slack, routing-link noise) can look their sites up
        by position.  Position-independent models simply ignore the index;
        the default delegates to :meth:`gate_error_channels`.
        """
        return self.gate_error_channels(instr)

    def final_error_channels(self) -> list[tuple[int, PauliChannel]]:
        """Channels applied once after the circuit's last instruction.

        Used for error processes that no gate triggers -- e.g. the idling of
        a qubit between its final gate and the end of the schedule.  The
        default (no trailing channels) matches purely gate-triggered models.
        """
        return []

    def scaled(self, factor: float) -> "NoiseModel":
        """Return a copy with all error probabilities multiplied by ``factor``."""
        raise NotImplementedError


class NoiselessModel(NoiseModel):
    """The identity noise model."""

    def gate_error_channels(self, instr: Instruction) -> list[tuple[int, PauliChannel]]:
        """No error sites: the identity model."""
        return []

    def scaled(self, factor: float) -> "NoiselessModel":
        """The identity model is scale-invariant."""
        return NoiselessModel()


@dataclass(frozen=True)
class GateNoiseModel(NoiseModel):
    """Gate-based Monte-Carlo noise: every operand qubit of every gate errs.

    Parameters
    ----------
    channel:
        The per-qubit channel applied after each gate.
    two_qubit_factor:
        Multiplier applied to the channel for gates acting on two or more
        qubits (entangling gates are noisier on real hardware); 1.0 keeps the
        paper's uniform model.
    include_classical:
        Whether classically-controlled gates also trigger errors (they do on
        hardware; the paper's simple model does not distinguish them).
    """

    channel: PauliChannel
    two_qubit_factor: float = 1.0
    include_classical: bool = True

    def gate_error_channels(self, instr: Instruction) -> list[tuple[int, PauliChannel]]:
        """Per-operand channel sites (skipping barriers/noise/measure/frames)."""
        if instr.is_barrier or instr.is_noise or instr.is_measurement or instr.is_frame:
            # Measurements carry no gate noise here (readout error has its
            # own closed-form treatment, see ScenarioSpec.readout) and
            # CPAULI corrections are software Pauli-frame updates.
            return []
        if not self.include_classical and instr.is_classically_controlled:
            return []
        channel = self.channel
        if len(instr.qubits) >= 2 and self.two_qubit_factor != 1.0:
            channel = channel.scaled(self.two_qubit_factor)
        if channel.is_trivial:
            return []
        return [(q, channel) for q in instr.qubits]

    def scaled(self, factor: float) -> "GateNoiseModel":
        """Copy with the per-gate channel scaled by ``factor``."""
        return GateNoiseModel(
            channel=self.channel.scaled(factor),
            two_qubit_factor=self.two_qubit_factor,
            include_classical=self.include_classical,
        )


def DepolarizingNoise(epsilon: float, **kwargs) -> GateNoiseModel:
    """Gate-based depolarizing noise with total per-qubit error ``epsilon``."""
    return GateNoiseModel(channel=PauliChannel.depolarizing(epsilon), **kwargs)


@dataclass(frozen=True)
class QubitOncePauliNoise(NoiseModel):
    """Qubit-based noise: each qubit errs at most once during the circuit.

    The error position is drawn uniformly among the qubit's gate touch-points
    (immediately before the touched gate), matching the per-qubit channel of
    Sec. 5.1.  This model is only supported through
    :func:`sample_noisy_circuit`; the vectorised runner uses gate-based noise.
    """

    channel: PauliChannel

    def gate_error_channels(self, instr: Instruction) -> list[tuple[int, PauliChannel]]:
        """Unsupported: this model samples whole-circuit insertions instead."""
        raise NotImplementedError(
            "QubitOncePauliNoise must be applied via sample_noisy_circuit()"
        )

    def scaled(self, factor: float) -> "QubitOncePauliNoise":
        """Copy with the per-qubit channel scaled by ``factor``."""
        return QubitOncePauliNoise(channel=self.channel.scaled(factor))

    def sample_insertions(
        self, circuit: "QuantumCircuit", rng: np.random.Generator
    ) -> list[tuple[int, Instruction]]:
        """Sample ``(instruction_index, pauli_instruction)`` insertions."""
        touches: dict[int, list[int]] = {}
        for index, instr in enumerate(circuit.instructions):
            if instr.is_barrier or instr.is_noise or instr.is_measurement or instr.is_frame:
                continue
            for q in instr.qubits:
                touches.setdefault(q, []).append(index)
        insertions: list[tuple[int, Instruction]] = []
        for qubit, positions in touches.items():
            code = int(self.channel.sample_thresholded(rng, 1)[0])
            if code == PAULI_I:
                continue
            position = int(rng.choice(positions))
            error = Instruction(
                gate=_PAULI_NAMES[code], qubits=(qubit,), tags=frozenset({"noise"})
            )
            insertions.append((position, error))
        return insertions


@dataclass(frozen=True)
class ScheduledNoiseModel(NoiseModel):
    """Position-dependent noise layered on top of a base model.

    The model is bound to one specific circuit: ``gate_sites[i]`` lists the
    extra ``(qubit, channel)`` error sites fired after the circuit's ``i``-th
    barrier-free gate (after the base model's sites for that gate), and
    ``final_sites`` lists sites fired once after the last instruction.  The
    builders that know how to derive the site tables live next to the data
    they consume: :func:`with_idle_noise` (schedule slack) here, and the
    routing-link model in :mod:`repro.scenarios`.

    Because the site tables are plain nested tuples the model stays hashable,
    so the gate tape's per-model :class:`~repro.circuit.ir.NoiseSiteTable`
    memoization keeps working.
    """

    base: NoiseModel
    gate_sites: tuple[tuple[tuple[int, PauliChannel], ...], ...]
    final_sites: tuple[tuple[int, PauliChannel], ...] = ()

    def gate_error_channels(self, instr: Instruction) -> list[tuple[int, PauliChannel]]:
        """Raises: position-dependent models need the indexed protocol."""
        raise TypeError(
            "ScheduledNoiseModel is position-dependent; error sites must be "
            "enumerated via gate_error_channels_indexed()"
        )

    def gate_error_channels_indexed(
        self, gate_index: int, instr: Instruction
    ) -> list[tuple[int, PauliChannel]]:
        """Base sites for the indexed gate plus this circuit's extra sites."""
        if gate_index >= len(self.gate_sites):
            raise ValueError(
                f"gate index {gate_index} outside the {len(self.gate_sites)}-gate "
                "circuit this ScheduledNoiseModel was built for -- rebuild the "
                "model whenever the circuit changes"
            )
        channels = list(self.base.gate_error_channels_indexed(gate_index, instr))
        channels.extend(self.gate_sites[gate_index])
        return channels

    def final_error_channels(self) -> list[tuple[int, PauliChannel]]:
        """Base end-of-circuit sites plus this circuit's extra final sites."""
        channels = list(self.base.final_error_channels())
        channels.extend(self.final_sites)
        return channels

    def scaled(self, factor: float) -> "ScheduledNoiseModel":
        """Copy with every layered site channel scaled by ``factor``."""
        return ScheduledNoiseModel(
            base=self.base.scaled(factor),
            gate_sites=tuple(
                tuple((qubit, channel.scaled(factor)) for qubit, channel in entry)
                for entry in self.gate_sites
            ),
            final_sites=tuple(
                (qubit, channel.scaled(factor)) for qubit, channel in self.final_sites
            ),
        )


def with_idle_noise(
    base: NoiseModel,
    circuit: "QuantumCircuit",
    idle_channel: PauliChannel,
    *,
    respect_barriers: bool = True,
) -> NoiseModel:
    """Extend ``base`` with schedule-aware idle noise for ``circuit``.

    Every ASAP layer a qubit spends idle contributes one application of
    ``idle_channel`` to that qubit: the idle layers a gate's operands
    accumulated since their previous gate fire together with that gate's
    error sites, and the idling between a qubit's last gate and the end of
    the schedule fires once after the final instruction
    (:meth:`NoiseModel.final_error_channels`).  With a phase-flip idle
    channel of probability ``p`` a qubit idling ``d`` layers therefore keeps
    its phase with the closed-form probability ``(1 + (1 - 2 p)**d) / 2`` --
    the analytic check the test suite pins.

    Returns ``base`` unchanged when the idle channel is trivial.
    """
    if idle_channel.is_trivial:
        return base
    slack = idle_slack(circuit, respect_barriers=respect_barriers)
    return ScheduledNoiseModel(
        base=base,
        gate_sites=tuple(
            tuple(
                (qubit, idle_channel)
                for qubit, layers in entry
                for _ in range(layers)
            )
            for entry in slack.gate_idle
        ),
        final_sites=tuple(
            (qubit, idle_channel)
            for qubit, layers in slack.final_idle
            for _ in range(layers)
        ),
    )


def _pauli_instruction(code: int, qubit: int) -> Instruction:
    return Instruction(gate=_PAULI_NAMES[code], qubits=(qubit,), tags=frozenset({"noise"}))


def sample_noisy_circuit(
    circuit: "QuantumCircuit",
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
) -> "QuantumCircuit":
    """Return one Monte-Carlo sample of ``circuit`` with Pauli errors inserted.

    The returned circuit contains the original instructions plus error
    instructions tagged ``"noise"``.  Logical accounting helpers on
    :class:`~repro.circuit.circuit.QuantumCircuit` know to skip them.

    Gate-based models draw one uniform per non-trivial site, in the engines'
    noise-site order, through :meth:`PauliChannel.sample_thresholded`.  Fed
    a reader that hands out shot ``s``'s site uniforms -- the row
    ``seeds.uniforms(s, 1, width)[0]`` after its measurement uniforms -- it
    therefore inserts exactly the Paulis the Feynman engines apply to shot
    ``s`` of a run under the :class:`~repro.sim.seeding.ShotSeeds` window
    ``seeds``: an independent reference for the engines' random-stream
    contract.
    """
    from repro.circuit.circuit import QuantumCircuit

    rng = np.random.default_rng() if rng is None else rng
    noisy = QuantumCircuit(
        num_qubits=circuit.num_qubits,
        registers=dict(circuit.registers),
        metadata=dict(circuit.metadata),
    )

    if isinstance(noise, QubitOncePauliNoise):
        insertions = noise.sample_insertions(circuit, rng)
        errors_before: dict[int, list[Instruction]] = {}
        for position, error in insertions:
            errors_before.setdefault(position, []).append(error)
        for index, instr in enumerate(circuit.instructions):
            for error in errors_before.get(index, []):
                noisy.append(error)
            noisy.append(instr)
        return noisy

    def insert_errors(channels: Iterable[tuple[int, PauliChannel]]) -> None:
        for qubit, channel in channels:
            if channel.is_trivial:
                continue
            code = int(channel.sample_thresholded(rng, 1)[0])
            if code != PAULI_I:
                noisy.append(_pauli_instruction(code, qubit))

    gate_index = 0
    for instr in circuit.instructions:
        noisy.append(instr)
        if instr.is_barrier:
            continue
        insert_errors(noise.gate_error_channels_indexed(gate_index, instr))
        gate_index += 1
    insert_errors(noise.final_error_channels())
    return noisy
