"""Synthetic models of the IBM Quantum devices used in Appendix A.

Only the devices' *topologies* and the order of magnitude of their error
rates matter for Figure 12 (the figure sweeps an error-reduction factor on
top of them), so each device is described by its public coupling map plus
representative calibration numbers at the ~1e-3 error scale the paper assumes
for "current hardware".  The registry also holds calibration-only entries:
an erasure-biased dual-rail calibration and the ``"phase-flip"`` /
``"bit-flip"`` gate-noise calibrations that Figures 9-11 run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


@dataclass(frozen=True)
class DeviceModel:
    """A hardware backend: qubit count, coupling map and calibration summary.

    Attributes
    ----------
    name:
        Backend name (suffixed ``-like`` because the calibration is synthetic).
    num_qubits:
        Number of physical qubits.
    coupling_map:
        Undirected two-qubit connectivity as ``(a, b)`` pairs.
    single_qubit_error:
        Representative single-qubit gate error rate.
    two_qubit_error:
        Representative two-qubit gate (CX/ECR) error rate.
    readout_error:
        Representative measurement error rate (reported for completeness; the
        fidelity experiments measure state overlap and do not add readout
        noise).
    idle_error:
        Representative per-schedule-layer dephasing probability of an idle
        qubit (one two-qubit gate duration against the backend's T2).  Only
        consumed by the schedule-aware scenario noise models
        (:func:`repro.hardware.noise_model.scheduled_device_noise_model`);
        the plain Figure-12 gate noise ignores it.
    pauli_bias:
        Relative ``(X, Y, Z)`` weights of the gate-error channels.  The
        default ``(1, 1, 1)`` is the paper's unbiased depolarizing model
        (and reproduces it bit for bit); erasure-qubit calibrations weight
        ``X``/``Y`` -- the errors a dual-rail code detects -- far above the
        residual undetectable ``Z`` dephasing.
    """

    name: str
    num_qubits: int
    coupling_map: tuple[tuple[int, int], ...]
    single_qubit_error: float = 3e-4
    two_qubit_error: float = 1e-2
    readout_error: float = 2e-2
    idle_error: float = 1e-3
    pauli_bias: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        for a, b in self.coupling_map:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"coupling edge ({a}, {b}) outside device")
            if a == b:
                raise ValueError("self-coupling edge")
        if len(self.pauli_bias) != 3 or any(w < 0 for w in self.pauli_bias):
            raise ValueError("pauli_bias must be three non-negative weights")
        if sum(self.pauli_bias) == 0:
            raise ValueError("pauli_bias must have at least one positive weight")

    def to_networkx(self) -> nx.Graph:
        """The coupling map as an undirected :mod:`networkx` graph."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self.coupling_map)
        return graph

    def are_connected(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` share a coupling edge."""
        return (a, b) in self.coupling_map or (b, a) in self.coupling_map

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance on the coupling map."""
        return nx.shortest_path_length(self.to_networkx(), a, b)

    def shortest_path(self, a: int, b: int) -> list[int]:
        """A shortest coupling-map path from ``a`` to ``b``."""
        return nx.shortest_path(self.to_networkx(), a, b)

    def average_degree(self) -> float:
        """Mean number of coupling edges per qubit."""
        return 2 * len(self.coupling_map) / self.num_qubits


def ibm_perth_like() -> DeviceModel:
    """7-qubit Falcon r5.11H device (H-shaped heavy-hex fragment).

    Topology::

        0 - 1 - 2
            |
            3
            |
        4 - 5 - 6
    """
    return DeviceModel(
        name="ibm_perth-like",
        num_qubits=7,
        coupling_map=((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)),
    )


def ibmq_guadalupe_like() -> DeviceModel:
    """16-qubit Falcon r4P device (heavy-hex lattice fragment)."""
    return DeviceModel(
        name="ibmq_guadalupe-like",
        num_qubits=16,
        coupling_map=(
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
        ),
    )


def grid_device(rows: int, cols: int, name: str | None = None) -> DeviceModel:
    """An ideal 2D square-grid device (the Sec. 6.3 connectivity assumption)."""
    num_qubits = rows * cols
    edges: list[tuple[int, int]] = []
    for row in range(rows):
        for col in range(cols):
            index = row * cols + col
            if col + 1 < cols:
                edges.append((index, index + 1))
            if row + 1 < rows:
                edges.append((index, index + cols))
    return DeviceModel(
        name=name or f"grid-{rows}x{cols}",
        num_qubits=num_qubits,
        coupling_map=tuple(edges),
    )


def dual_rail_cavity_like() -> DeviceModel:
    """Erasure-qubit calibration: detectable ``X``/``Y`` dominate ``Z``.

    Models the dual-rail cavity/transmon regime where the dominant physical
    processes (photon loss, transmon decay) take the qubit *out* of the
    codespace -- showing up as ``X``/``Y`` rail errors a parity check
    converts into heralded erasures -- while residual dephasing inside the
    codespace (the undetectable logical ``Z``) is reported an order of
    magnitude-plus smaller.  The ``(20, 20, 1)`` bias puts ``1/41`` of each
    gate's error budget in ``Z``; the overall rates keep the reference
    ~1e-3/1e-2 scale so bare-vs-dual ablations compare on equal total noise.
    The 2x2 grid only supplies connectivity metadata -- scenario noise
    models consume the calibration, not the coupling map.
    """
    return DeviceModel(
        name="dual-rail-cavity-like",
        num_qubits=4,
        coupling_map=((0, 1), (0, 2), (1, 3), (2, 3)),
        pauli_bias=(20.0, 20.0, 1.0),
    )


def pauli_gate_calibration(
    name: str, pauli_bias: tuple[float, float, float]
) -> DeviceModel:
    """Uniform single-Pauli gate noise at the Sec. 7.3 rate ``eps = 1e-3``.

    Every gate operand, one- or multi-qubit, errs with the same probability
    and only in the Pauli that ``pauli_bias`` selects, so
    :func:`~repro.hardware.noise_model.device_noise_model` yields exactly
    ``PauliChannel.phase_flip(1e-3 / eps_r)`` (bias ``(0, 0, 1)``) or
    ``PauliChannel.bit_flip(1e-3 / eps_r)`` (bias ``(1, 0, 0)``) -- the
    channels of Figures 9-11.  Idle and readout errors are zero: these are
    pure gate-noise calibrations, and the single qubit carries no topology.
    """
    return DeviceModel(
        name=name,
        num_qubits=1,
        coupling_map=(),
        single_qubit_error=1e-3,
        two_qubit_error=1e-3,
        readout_error=0.0,
        idle_error=0.0,
        pauli_bias=pauli_bias,
    )


#: Registry of named devices: the Figure 12 backends, the erasure-qubit
#: calibration and the Z/X gate-noise calibrations of Figures 9-11.
DEVICES: dict[str, DeviceModel] = {
    "ibm_perth": ibm_perth_like(),
    "ibmq_guadalupe": ibmq_guadalupe_like(),
    "dual-rail-cavity": dual_rail_cavity_like(),
    "phase-flip": pauli_gate_calibration("phase-flip", (0.0, 0.0, 1.0)),
    "bit-flip": pauli_gate_calibration("bit-flip", (1.0, 0.0, 0.0)),
}
