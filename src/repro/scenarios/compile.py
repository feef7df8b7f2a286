"""Compile a :class:`ScenarioSpec` into an executable simulation bundle.

Compilation is the expensive, deterministic half of a scenario run: build
the QRAM circuit, embed/route it according to the spec's mapping strategy,
precompute the input state, ideal output and kept qubits, and derive the
*structure* of the position-dependent noise (teleportation-link site table).
The cheap, per-sweep-point half -- instantiating the noise model at one
error-reduction factor -- happens in :meth:`CompiledScenario.noise_model`
inside the sweep workers.

Mapping strategies
------------------
``none``
    Execute the logical circuit as built (all-to-all connectivity).

``dual-rail``
    Encode every logical qubit as two erasure-detecting rails
    (:func:`repro.mapping.dual_rail.encode_dual_rail`): gates become
    parity-preserving dual-rail gadgets, and per-qubit parity-check
    ancillas are measured into classical bits.  The compiled bundle carries
    the resulting ``(cbit, expected)`` pairs in
    :attr:`CompiledScenario.postselect`; sweep shards postselect shots on
    them, so records report the postselected fidelity plus the surviving
    ``kept_fraction``.

``htree`` + ``swap``
    Place the circuit on the executable H-tree device
    (:func:`repro.mapping.device.htree_device`) and route it with the greedy
    SWAP router: every communication SWAP becomes a real gate and incurs the
    device's two-qubit noise, and the longer schedule accrues more idle
    noise.

``htree`` + ``teleport``
    Remote gates execute in place (entanglement-swapping links are constant
    depth), but each remote gate at grid distance ``d`` consumed
    ``2 * (d - 1)`` link operations on the routing qubits; their noise is
    charged as that many applications of the device's two-qubit channel on
    the gate's first operand -- the qubit the link teleports.  This mirrors
    the cost model of :class:`repro.mapping.routing.TeleportationRouting`
    while keeping the circuit inside the original Feynman gate set.

``htree`` + ``teleport-executed``
    The same workload with the links *executed* rather than modelled:
    :func:`repro.mapping.teleport.expand_teleport_links` rewrites every
    remote gate into entanglement-link CX hops over the routing-chain
    vertices, mid-circuit ``MEASURE`` instructions and ``CPAULI``
    Pauli-frame feedforward.  Link noise now arises from the hop gates' own
    error channels, measurement outcomes are drawn from each shot's seeded
    stream (sharding-invariant), and at zero noise the expanded circuit
    reproduces the logical ideal output exactly -- the convergence the
    executed-vs-analytic ablation tests pin down.

``htree`` + ``teleport-fused``
    Like ``teleport-executed``, but every payload hop chain becomes one
    constant-depth entanglement-swapping link: Bell pairs over the routing
    chain prepared in a single layer (mid-circuit ``H``, branching the path
    set), one layer of Bell-state-measurement CXs, and exact per-stage
    Pauli-frame corrections.  The shorter schedule accrues less idle noise
    than the hop chains at comparable link-gate counts; circuits whose
    simultaneous Bell pairs exceed the branch budget raise
    :class:`repro.circuit.ir.BranchBudgetError` at compile time.

``device``
    Route onto a named sparse backend -- the Figure 12 methodology, which
    :func:`repro.experiments.run_fig12` runs through this path.

Both swap-routed mappings resolve their router through the registry of
:mod:`repro.hardware.router` (``spec.router``, or the session default when
the spec leaves it ``None``): ``"greedy-swap"`` reproduces the historical
behaviour bit for bit, ``"lookahead"`` routes SABRE-style with fewer SWAPs
and a searched initial layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.ir import compile_circuit
from repro.circuit.scheduling import circuit_depth
from repro.experiments.common import random_memory
from repro.hardware.devices import DEVICES, DeviceModel, grid_device
from repro.hardware.noise_model import scheduled_device_noise_model
from repro.hardware.router import get_default_router, make_router
from repro.mapping.device import htree_device
from repro.mapping.dual_rail import encode_dual_rail, rail_pair
from repro.mapping.grid import Grid2D
from repro.mapping.htree import HTreeEmbedding
from repro.mapping.teleport import expand_teleport_links
from repro.qram.base import QRAMArchitecture
from repro.qram.bucket_brigade import BucketBrigadeQRAM
from repro.qram.fanout import FanoutQRAM
from repro.qram.select_swap import SelectSwapQRAM
from repro.qram.virtual_qram import VirtualQRAM
from repro.scenarios.spec import ScenarioSpec
from repro.sim.noise import NoiseModel, PauliChannel, ScheduledNoiseModel
from repro.sim.paths import PathState

_ARCHITECTURE_CLASSES = {
    "virtual": VirtualQRAM,
    "bucket-brigade": BucketBrigadeQRAM,
    "fanout": FanoutQRAM,
    "select-swap": SelectSwapQRAM,
}

#: Calibration used when a scenario names no device: the representative
#: error scale of Sec. 6.3 (the :class:`DeviceModel` defaults).
REFERENCE_CALIBRATION = grid_device(1, 2, name="reference")


@dataclass(frozen=True)
class CompiledScenario:
    """Everything the sweep workers need to run one scenario's shots.

    ``circuit`` is the *executed* circuit (routed when the mapping
    materialises communication); ``link_sites`` is the per-gate
    teleportation-link site table (empty outside htree+teleport).
    """

    spec: ScenarioSpec
    seed: int
    circuit: QuantumCircuit
    input_state: PathState
    ideal_output: PathState
    keep_qubits: tuple[int, ...]
    device: DeviceModel
    extra_swaps: int
    link_sites: tuple[tuple[int, int], ...]  # (gate_index, charged qubit) x link ops
    logical_gates: int
    logical_depth: int
    #: Entanglement-link hops physically present in ``circuit`` (the
    #: ``teleport-executed`` routing); 0 when links are analytic or absent.
    executed_link_operations: int = 0
    #: Mid-circuit measurements in ``circuit`` (executed teleport links and
    #: dual-rail parity checks).
    measurements: int = 0
    #: ``(cbit, expected_outcome)`` postselection checks (the dual-rail
    #: mapping's parity/flag outcomes); empty means keep every shot.
    postselect: tuple[tuple[int, int], ...] = ()

    @property
    def executed_gates(self) -> int:
        """Number of gates actually executed (includes expanded link ops)."""
        return len(self.circuit.gates)

    @property
    def executed_depth(self) -> int:
        """ASAP depth of the executed circuit (frame corrections are free)."""
        return circuit_depth(self.circuit)

    @property
    def link_operations(self) -> int:
        """Teleport-link operations, analytic (site table) or executed."""
        return len(self.link_sites) + self.executed_link_operations

    @property
    def idle_error_rate(self) -> float:
        """Idle dephasing probability at ``eps_r = 1`` (spec override or device)."""
        if self.spec.idle_error is not None:
            return self.spec.idle_error
        return self.device.idle_error

    @property
    def readout_error_rate(self) -> float:
        """Per-qubit readout error rate at ``eps_r = 1`` (0.0 when not folded)."""
        return self.device.readout_error if self.spec.readout else 0.0

    def readout_survival(self, error_reduction_factor: float) -> float:
        """Probability every kept qubit reads out correctly at one ``eps_r``.

        Readout is one measurement per kept qubit at the end of the query,
        so its closed form multiplies the state-overlap fidelity:
        ``(1 - readout_error / eps_r) ** len(keep_qubits)``.  Returns 1.0
        unless the spec opted in via :attr:`ScenarioSpec.readout`.
        """
        if not self.spec.readout:
            return 1.0
        rate = self.device.readout_error / error_reduction_factor
        return (1.0 - rate) ** len(self.keep_qubits)

    def noise_model(self, error_reduction_factor: float) -> NoiseModel:
        """Instantiate the scenario's noise at one error-reduction factor.

        Layering (and therefore random-stream site order) is fixed: device
        gate noise, then schedule-aware idle noise
        (:func:`~repro.hardware.noise_model.scheduled_device_noise_model`),
        then teleportation-link noise.  Every layer divides its rates by the
        same ``eps_r``.
        """
        model: NoiseModel = scheduled_device_noise_model(
            self.device,
            self.circuit,
            error_reduction_factor=error_reduction_factor,
            idle_error=self.idle_error_rate,
        )
        if self.link_sites:
            link_channel = PauliChannel.depolarizing(
                self.device.two_qubit_error / error_reduction_factor
            )
            per_gate: dict[int, list[tuple[int, PauliChannel]]] = {}
            for gate_index, qubit in self.link_sites:
                per_gate.setdefault(gate_index, []).append((qubit, link_channel))
            n_gates = len(self.circuit.gates)
            model = ScheduledNoiseModel(
                base=model,
                gate_sites=tuple(
                    tuple(per_gate.get(index, ())) for index in range(n_gates)
                ),
            )
        return model


def _build_architecture(spec: ScenarioSpec, seed: int) -> QRAMArchitecture:
    memory = random_memory(spec.memory_width, seed)
    cls = _ARCHITECTURE_CLASSES[spec.architecture]
    return cls(memory=memory, qram_width=spec.qram_width)


def _calibration(spec: ScenarioSpec) -> DeviceModel:
    if spec.device is not None:
        return DEVICES[spec.device]
    return REFERENCE_CALIBRATION


def _teleport_link_sites(
    circuit: QuantumCircuit, embedding: HTreeEmbedding
) -> tuple[tuple[int, int], ...]:
    """Link-noise sites of every remote gate: ``(gate_index, charged qubit)``.

    A gate whose operands sit ``d > 1`` apart on the grid consumes
    ``2 * (d - 1)`` entanglement-link operations (EPR halves plus Bell
    measurements on the ``d - 1`` routing qubits of the path); each shows up
    as one site on the gate's first operand.  ``gate_index`` counts
    barrier-free gates, matching the tape enumeration.
    """
    positions = embedding.logical_positions(circuit)
    sites: list[tuple[int, int]] = []
    gate_index = 0
    for instr in circuit.instructions:
        if instr.is_barrier:
            continue
        if len(instr.qubits) >= 2:
            coordinates = [positions[q] for q in instr.qubits]
            distance = max(
                Grid2D.manhattan_distance(a, b)
                for i, a in enumerate(coordinates)
                for b in coordinates[i + 1 :]
            )
            if distance > 1:
                sites.extend(
                    (gate_index, instr.qubits[0]) for _ in range(2 * (distance - 1))
                )
        gate_index += 1
    return tuple(sites)


def compile_scenario(spec: ScenarioSpec, seed: int) -> CompiledScenario:
    """Build, embed and route one scenario (memoised per process).

    A spec with ``router=None`` is first pinned to the *current* default
    router, so the memoised result can never go stale when the session
    default changes (and ``CompiledScenario.spec.router`` always names the
    router that actually ran).  The cache is what lets every
    ``(sweep point, shot shard)`` work unit landing on a pool worker reuse
    the routed circuit and precomputed states.
    """
    if spec.router is None:
        spec = replace(spec, router=get_default_router())
    return _compile_resolved(spec, seed)


@lru_cache(maxsize=32)
def _compile_resolved(spec: ScenarioSpec, seed: int) -> CompiledScenario:
    architecture = _build_architecture(spec, seed)
    logical = architecture.build_circuit()
    logical_input = architecture.input_state()
    logical_ideal = architecture.ideal_output(logical_input)
    calibration = _calibration(spec)
    logical_gates = len(logical.gates)
    logical_depth = circuit_depth(logical)

    if spec.mapping == "none":
        return CompiledScenario(
            spec=spec,
            seed=seed,
            circuit=logical,
            input_state=logical_input,
            ideal_output=logical_ideal,
            keep_qubits=tuple(architecture.kept_qubits()),
            device=calibration,
            extra_swaps=0,
            link_sites=(),
            logical_gates=logical_gates,
            logical_depth=logical_depth,
        )

    if spec.mapping == "dual-rail":
        expansion = encode_dual_rail(logical)
        return CompiledScenario(
            spec=spec,
            seed=seed,
            circuit=expansion.circuit,
            input_state=expansion.map_state(logical_input),
            ideal_output=expansion.map_state(logical_ideal),
            # The algorithm consumes the *logical* kept registers, so the
            # reduced fidelity keeps both rails of each kept logical qubit
            # (non-kept rails park in the fixed |10> codeword and the
            # ancillae frame-reset to |0>, so the ideal output stays a
            # product across the cut).
            keep_qubits=tuple(
                rail
                for q in architecture.kept_qubits()
                for rail in rail_pair(q)
            ),
            device=calibration,
            extra_swaps=0,
            link_sites=(),
            logical_gates=logical_gates,
            logical_depth=logical_depth,
            measurements=len(expansion.postselect),
            postselect=expansion.postselect,
        )

    if spec.mapping == "htree" and spec.routing in (
        "teleport-executed",
        "teleport-fused",
    ):
        embedding = HTreeEmbedding(tree_depth=spec.qram_width)
        expansion = expand_teleport_links(
            logical,
            embedding,
            calibration=calibration,
            fused=spec.routing == "teleport-fused",
        )
        # Fused links branch the path set; surface an over-budget circuit
        # here, at compile time, instead of deep inside a sweep worker.
        compile_circuit(expansion.circuit).require_branch_budget()
        return CompiledScenario(
            spec=spec,
            seed=seed,
            circuit=expansion.circuit,
            input_state=expansion.map_state(logical_input),
            ideal_output=expansion.map_state(logical_ideal),
            keep_qubits=tuple(architecture.kept_qubits()),
            device=expansion.layout.device,
            extra_swaps=0,
            link_sites=(),
            logical_gates=logical_gates,
            logical_depth=logical_depth,
            executed_link_operations=expansion.link_operations,
            measurements=expansion.measurements,
        )

    if spec.mapping == "htree" and spec.routing == "teleport":
        embedding = HTreeEmbedding(tree_depth=spec.qram_width)
        return CompiledScenario(
            spec=spec,
            seed=seed,
            circuit=logical,
            input_state=logical_input,
            ideal_output=logical_ideal,
            keep_qubits=tuple(architecture.kept_qubits()),
            device=calibration,
            extra_swaps=0,
            link_sites=_teleport_link_sites(logical, embedding),
            logical_gates=logical_gates,
            logical_depth=logical_depth,
        )

    if spec.mapping == "htree":
        embedding = HTreeEmbedding(tree_depth=spec.qram_width)
        layout = htree_device(embedding, logical, calibration=calibration)
        routed = make_router(spec.router, layout.device).route(
            logical, layout.initial_layout
        )
    else:  # mapping == "device"
        routed = make_router(spec.router, calibration).route(logical)

    return CompiledScenario(
        spec=spec,
        seed=seed,
        circuit=routed.circuit,
        input_state=routed.map_state(logical_input, final=False),
        ideal_output=routed.map_state(logical_ideal, final=True),
        keep_qubits=tuple(
            routed.physical_qubits(architecture.kept_qubits(), final=True)
        ),
        device=routed.device,
        extra_swaps=routed.swap_count,
        link_sites=(),
        logical_gates=logical_gates,
        logical_depth=logical_depth,
    )
