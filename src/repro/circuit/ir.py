"""Compiled gate-tape intermediate representation.

Interpreting a :class:`~repro.circuit.circuit.QuantumCircuit` instruction by
instruction costs a Python-level string dispatch, attribute lookups and a
fresh set of NumPy temporaries per gate.  For the paper's sweeps the same
circuit is executed thousands of times, so this module compiles a circuit
**once** into a :class:`GateTape`:

* every gate becomes an integer opcode plus packed ``int32`` operand arrays;
* consecutive gates with the same opcode acting on **pairwise-disjoint**
  qubits are fused into one :class:`TapeGroup`, which the execution engines
  apply as a single batched NumPy column operation (QRAM circuits are full of
  such runs: router-tree levels are layers of parallel ``SWAP``/``CSWAP``);
* a :class:`NoiseSiteTable` enumerates every (gate, qubit) error site of a
  noise model so each shot's Pauli codes can be drawn up front from its own
  :class:`~repro.sim.seeding.ShotSeeds` stream.

Fusing is only performed when it is *exactly* equivalent to sequential
application: gates inside a group touch disjoint qubit sets, so they commute
with each other and with any Pauli error on an earlier group member's
operands.  That is what lets the noisy engine apply a group's error sites
after the whole group without changing the sampled trajectory; the one
exception, an off-operand site on a qubit a later group member touches, is
hoisted to just before the group instead (see
:meth:`GateTape._build_noise_sites`).

Mid-circuit measurement (``MEASURE``) and Pauli-frame feedforward
(``CPAULI``) compile to their own opcodes with **fusion-barrier** semantics:
each becomes a lone :class:`TapeGroup` carrying its classical payload, and no
run is fused across it.  The tape records the measurement order
(:attr:`GateTape.measurements`) because every measurement consumes exactly
one uniform variate of the shot's random stream -- drawn *before* the shot's
noise-site codes -- which is what keeps seeded trajectories of measured
circuits bit-identical across engines and across any sweep sharding.

Path branching (``H``)
----------------------
A mid-circuit Hadamard is the one gate the Feynman engines execute by
*doubling* the path set: ``H|b> = (|0> + (-1)**b |1>) / sqrt(2)`` splits
every path into two amplitude-weighted branches.  The compiler tags every
tape position with its **branch level** (:attr:`GateTape.branch_levels`, the
base-2 logarithm of the path multiplier after the group) and pre-computes a
deterministic **collapse plan** (:attr:`GateTape.collapse_strides`): for each
``Z``-basis measurement it decides statically -- from exact GF(2) tracking of
every branch axis's bit-difference vector -- whether the true-marginal
projection annihilates exactly one branch of some axis, in which case every
engine contracts that axis and the path set halves again.  Because the plan
is a pure function of the instruction sequence, all engines collapse
identically and the result is invariant under any sweep sharding.  Circuits
whose branch level would exceed the configurable budget
(:func:`get_max_branches`) raise the typed :class:`BranchBudgetError` before
any shot executes.

The tape is cached on the circuit (``circuit._tape``) and invalidated by
:meth:`QuantumCircuit.append`; as a second line of defence the cache is also
dropped when the instruction count changed (catching direct appends to
``circuit.instructions``).  Same-length in-place *replacement* of
instructions bypasses both checks -- circuits are treated as append-only,
which every builder in the library respects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuit.gates import is_path_simulable
from repro.circuit.instruction import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import QuantumCircuit
    from repro.sim.noise import NoiseModel, PauliChannel


# --------------------------------------------------------------------- opcodes
#: Integer opcodes, one per gate the registry knows.  ``OP_NOP`` stands for the
#: identity gate, which executes nothing but still carries noise sites.
#: ``OP_MEASURE``/``OP_CPAULI`` are the mid-circuit measurement and
#: Pauli-frame feedforward instructions; both act as **fusion barriers** (see
#: :func:`compile_circuit`).
(
    OP_NOP,
    OP_X,
    OP_Y,
    OP_Z,
    OP_S,
    OP_SDG,
    OP_T,
    OP_TDG,
    OP_H,
    OP_CX,
    OP_CZ,
    OP_SWAP,
    OP_CCX,
    OP_CSWAP,
    OP_MCX,
    OP_MEASURE,
    OP_CPAULI,
) = range(17)

#: Gate name -> opcode.  ``BARRIER`` is intentionally absent: barriers are
#: dropped at compile time (they only matter for depth scheduling).
GATE_OPCODES: dict[str, int] = {
    "I": OP_NOP,
    "X": OP_X,
    "Y": OP_Y,
    "Z": OP_Z,
    "S": OP_S,
    "SDG": OP_SDG,
    "T": OP_T,
    "TDG": OP_TDG,
    "H": OP_H,
    "CX": OP_CX,
    "CZ": OP_CZ,
    "SWAP": OP_SWAP,
    "CCX": OP_CCX,
    "CSWAP": OP_CSWAP,
    "MCX": OP_MCX,
    "MEASURE": OP_MEASURE,
    "CPAULI": OP_CPAULI,
}

#: Opcode -> gate name (debugging / error messages).
OPCODE_NAMES: dict[int, str] = {op: name for name, op in GATE_OPCODES.items()}


# ------------------------------------------------------------- branch budget
class BranchBudgetError(ValueError):
    """A circuit's path-branching level exceeds the configured budget.

    Every mid-circuit ``H`` doubles the Feynman path set until a later
    measurement collapses the branch, so unbounded branching would defeat
    the whole point of path-sum simulation.  The budget caps the number of
    *concurrently live* branch axes; see :func:`set_max_branches`.
    """


#: Default cap on concurrently live branch axes (path multiplier 2**budget).
DEFAULT_MAX_BRANCHES = 10

_MAX_BRANCHES = DEFAULT_MAX_BRANCHES


def get_max_branches() -> int:
    """Current branch budget: the maximum concurrently live branch level."""
    return _MAX_BRANCHES


def set_max_branches(budget: int) -> None:
    """Globally set the branch budget (``DEFAULT_MAX_BRANCHES`` initially).

    Raises
    ------
    ValueError
        If ``budget`` is negative.
    """
    global _MAX_BRANCHES
    if budget < 0:
        raise ValueError("the branch budget cannot be negative")
    _MAX_BRANCHES = budget

# ---------------------------------------------------------------- phase tables
#: ``i ** k`` for ``k`` in 0..3: the phase a run of ``S`` gates (or ``Y``
#: phase bookkeeping) accumulates, indexed by the exponent modulo 4.
PHASE_I_POW = np.array([1.0, 1j, -1.0, -1j], dtype=complex)
PHASE_I_POW_CONJ = np.conj(PHASE_I_POW)

#: ``exp(i pi/4) ** k`` for ``k`` in 0..7, built by cumulative multiplication
#: so a fused run of ``T`` gates matches sequential application to the ulp.
PHASE_T_POW = np.concatenate(
    ([1.0 + 0.0j], np.cumprod(np.full(7, np.exp(1j * np.pi / 4), dtype=complex)))
)
PHASE_T_POW_CONJ = np.conj(PHASE_T_POW)


# ---------------------------------------------------------------------- groups
@dataclass(frozen=True)
class TapeGroup:
    """A run of same-opcode gates on pairwise-disjoint qubits.

    ``qubits`` has shape ``(n_gates, arity)``; for ``MCX`` all gates in the
    group share the same arity (controls first, target last, as in
    :class:`~repro.circuit.instruction.Instruction`).

    ``MEASURE``/``CPAULI`` groups always hold exactly one instruction (they
    are fusion barriers) and carry its classical payload in ``params``:
    ``(cbit, basis)`` for a measurement, ``(pauli, cbit, ...)`` for a frame
    correction.  Ordinary gate groups leave ``params`` empty.
    """

    opcode: int
    qubits: np.ndarray
    params: tuple = ()

    @property
    def size(self) -> int:
        """Number of fused gates in the group."""
        return self.qubits.shape[0]

    @property
    def single(self) -> bool:
        """True when the group holds exactly one gate."""
        return self.qubits.shape[0] == 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TapeGroup({OPCODE_NAMES[self.opcode]} x{self.size})"


# ----------------------------------------------------------------- noise sites
@dataclass(frozen=True)
class NoiseSiteTable:
    """Every (gate, qubit) error site of a noise model, in program order.

    Sites are listed in the order a sequential gate-by-gate run would apply
    them: gates in instruction order, each gate's sites in the order the
    model yields them, trivial channels skipped, then the model's
    end-of-circuit sites.  That order is the order each shot's site
    uniforms are drawn in (:func:`repro.sim.seeding.draw_shot_randomness`)
    and so the random-stream contract.  ``group_index`` is the fused group
    after which each site fires: normally its gate's group,
    ``gate_group - 1`` for a hoisted site (``-1`` means before the first
    group; see :meth:`GateTape._build_noise_sites`), and ``num_groups`` for
    end-of-circuit sites, which carry ``gate_index == -1``.  ``hoisted`` is
    True when any site is hoisted; only then can ``group_index`` decrease
    along the site order.
    """

    gate_index: np.ndarray  # (n_sites,) int32: index into GateTape.gates
    qubit: np.ndarray  # (n_sites,) int32
    group_index: np.ndarray  # (n_sites,) int32: group after which the site fires
    channels: tuple  # (n_sites,) PauliChannel per site
    hoisted: bool = False  # some site fires before its gate's group
    _run_thresholds: tuple | None = field(
        default=None, repr=False, compare=False
    )  # lazily computed ((3, n_runs) thresholds, (n_runs,) run lengths)

    @property
    def n_sites(self) -> int:
        """Number of error sites in the table."""
        return len(self.channels)

    def _channel_runs(self) -> list[tuple[int, int, "PauliChannel"]]:
        """Maximal runs of consecutive equal channels: ``(start, stop, channel)``."""
        runs: list[tuple[int, int, "PauliChannel"]] = []
        start = 0
        n = self.n_sites
        channels = self.channels
        while start < n:
            channel = channels[start]
            stop = start + 1
            while stop < n and channels[stop] == channel:
                stop += 1
            runs.append((start, stop, channel))
            start = stop
        return runs

    def thresholds(self) -> np.ndarray:
        """Cumulative ``(I, X, Y)`` thresholds of every site: ``(3, n_sites)``.

        A uniform ``u`` drawn for site ``i`` maps to the Pauli code
        ``(u >= t[0, i]) + (u >= t[1, i]) + (u >= t[2, i])`` (0=I, 1=X, 2=Y,
        3=Z).  The rows are built with the exact float expressions of
        :meth:`~repro.sim.noise.PauliChannel.sample_thresholded`, so the code
        equals that sampler's ``searchsorted(side="right")`` on the same
        uniform.  Only the per-run thresholds are cached on the table (which
        is itself memoized per noise model); each call expands them to sites
        with one ``np.repeat``, so memoized tables keep no per-site array
        alive.
        """
        if self._run_thresholds is None:
            runs = self._channel_runs()
            first = 1.0 - np.array([channel.p_total for *_, channel in runs])
            second = first + np.array([channel.p_x for *_, channel in runs])
            third = second + np.array([channel.p_y for *_, channel in runs])
            lengths = np.array([stop - start for start, stop, _ in runs], dtype=int)
            object.__setattr__(
                self, "_run_thresholds", (np.stack([first, second, third]), lengths)
            )
        run_table, lengths = self._run_thresholds
        return np.repeat(run_table, lengths, axis=1)


# ------------------------------------------------------------------------ tape
@dataclass
class GateTape:
    """Packed, execution-ready form of a circuit (see module docstring)."""

    num_qubits: int
    groups: list[TapeGroup]
    gates: list[Instruction]  # barrier-free gates in original order
    gate_group: np.ndarray  # (n_gates,) int32: group each gate belongs to
    unsupported_path_gates: tuple[str, ...]  # gates Feynman engines must reject
    source_length: int  # len(circuit.instructions) at compile time
    #: ``(cbit, basis)`` of every MEASURE instruction in execution order --
    #: the order engines consume measurement randomness in (one uniform per
    #: entry, drawn before any noise-site randomness of the same shot).
    measurements: tuple[tuple[int, str], ...] = ()
    num_clbits: int = 0
    #: Branch level *after* each group: log2 of the path multiplier relative
    #: to the input path count.  Level rises by one per fused ``H`` and falls
    #: by one at every measurement group with a non-zero collapse stride.
    branch_levels: tuple[int, ...] = ()
    #: Per-group collapse plan: ``0`` everywhere except at ``Z``-basis
    #: measurement groups whose projection provably annihilates one branch of
    #: a live axis, where it holds that axis's pair stride (a power of two,
    #: in units of the *input* path count).  Engines contract the tagged axis
    #: right after applying the measurement.
    collapse_strides: tuple[int, ...] = ()
    #: Peak of :attr:`branch_levels` (0 for branch-free circuits).
    max_branch_level: int = 0
    _site_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_gates(self) -> int:
        """Number of barrier-free gates on the tape."""
        return len(self.gates)

    @property
    def num_groups(self) -> int:
        """Number of fused execution groups."""
        return len(self.groups)

    @property
    def num_measurements(self) -> int:
        """Number of mid-circuit measurements on the tape."""
        return len(self.measurements)

    def require_branch_budget(self, budget: int | None = None) -> None:
        """Raise :class:`BranchBudgetError` if the tape exceeds ``budget``.

        ``None`` checks against the global budget
        (:func:`get_max_branches`).  Engines call this before executing a
        single shot, and the scenario compiler calls it when expanding
        fused teleportation links, so the typed error surfaces before any
        randomness is consumed.
        """
        limit = get_max_branches() if budget is None else budget
        if self.max_branch_level > limit:
            raise BranchBudgetError(
                f"circuit reaches branch level {self.max_branch_level} "
                f"(path multiplier {2 ** self.max_branch_level}) but the "
                f"branch budget is {limit}; raise it with "
                "repro.circuit.ir.set_max_branches or restructure the "
                "circuit so measurements collapse branches earlier"
            )

    def noise_sites(self, noise: "NoiseModel") -> NoiseSiteTable:
        """Memoized :class:`NoiseSiteTable` for ``noise``.

        The table only depends on the (hashable, frozen) noise model, so
        repeated Monte-Carlo calls over a sweep reuse it.
        """
        try:
            cached = self._site_cache.get(noise)
        except TypeError:  # unhashable custom model: recompute every call
            return self._build_noise_sites(noise)
        if cached is None:
            cached = self._build_noise_sites(noise)
            self._site_cache[noise] = cached
        return cached

    def _build_noise_sites(self, noise: "NoiseModel") -> NoiseSiteTable:
        """Enumerate ``noise``'s error sites in program order.

        A site fires after its gate's fused group, which is exact because
        group members act on pairwise-disjoint qubits -- except for an
        off-operand site (e.g. crosstalk) on a qubit that a *later* gate of
        the same group touches.  That later gate is the only member touching
        the qubit and the site precedes it, so the site commutes with every
        member it would cross and is **hoisted** to fire just before the
        group (``group_index = gate_group - 1``).  Hoisting changes when a
        site fires, never the site order, so the draw order is unchanged.
        """
        gate_index: list[int] = []
        qubits: list[int] = []
        group_index: list[int] = []
        channels: list["PauliChannel"] = []
        later_in_group: dict[int, set[int]] | None = None
        hoisted = False
        gate_group = self.gate_group.tolist()
        for index, instr in enumerate(self.gates):
            for qubit, channel in noise.gate_error_channels_indexed(index, instr):
                if channel.is_trivial:
                    continue
                group = gate_group[index]
                if qubit not in instr.qubits:
                    if later_in_group is None:
                        later_in_group = self._later_group_qubits()
                    if qubit in later_in_group[index]:
                        group -= 1
                        hoisted = True
                gate_index.append(index)
                qubits.append(qubit)
                group_index.append(group)
                channels.append(channel)
        # End-of-circuit sites (idle-noise flushes) fire after every group.
        for qubit, channel in noise.final_error_channels():
            if not channel.is_trivial:
                gate_index.append(-1)
                qubits.append(qubit)
                group_index.append(len(self.groups))
                channels.append(channel)
        return NoiseSiteTable(
            gate_index=np.asarray(gate_index, dtype=np.int32),
            qubit=np.asarray(qubits, dtype=np.int32),
            group_index=np.asarray(group_index, dtype=np.int32),
            channels=tuple(channels),
            hoisted=hoisted,
        )

    def _later_group_qubits(self) -> dict[int, set[int]]:
        """For each gate, the qubits touched by later gates of its group.

        Suffix scan per group: walk backwards accumulating operand sets.
        """
        later: dict[int, set[int]] = {}
        accumulated: dict[int, set[int]] = {}
        for index in range(len(self.gates) - 1, -1, -1):
            group = int(self.gate_group[index])
            later[index] = set(accumulated.get(group, ()))
            accumulated.setdefault(group, set()).update(self.gates[index].qubits)
        return later


class _BranchTracker:
    """Exact static tracking of live branch axes during tape compilation.

    Every mid-circuit ``H`` opens one **branch axis**: path ``j`` splits
    into ``2 j + b`` (the newest axis is always the innermost stride-1
    pairing; every older axis's stride doubles).  For each axis the tracker
    maintains the GF(2) *bit-difference vector* between branch partners --
    the set of qubits whose bits differ inside every partner pair -- which
    evolves linearly and shot-independently under the path-simulable gate
    set: full-shot Pauli noise, frame corrections and uniform bit flips
    never change it, ``CX`` XORs the control's difference into the target,
    ``SWAP`` permutes entries.  A nonlinear gate (``CCX``/``CSWAP``/``MCX``)
    whose value-dependent update would touch a differing qubit marks that
    axis *opaque* (difference unknown, never collapsible).

    A ``Z``-basis measurement of a qubit that differs along a live
    non-opaque axis annihilates exactly one partner of every pair of that
    axis, for every shot -- so the compiler schedules a deterministic
    contraction of the innermost such axis (recorded as the group's collapse
    stride) and the path multiplier halves again.  Because the schedule is a
    pure function of the instruction sequence, every engine collapses
    identically and sharded sweeps stay bit-identical.
    """

    def __init__(self) -> None:
        #: Oldest-first difference vectors; ``None`` marks an opaque axis.
        self.axes: list[set[int] | None] = []

    @property
    def level(self) -> int:
        """Number of live branch axes (log2 of the path multiplier)."""
        return len(self.axes)

    def _opacify(self, qubits: Sequence[int]) -> None:
        touched = set(qubits)
        for index, diff in enumerate(self.axes):
            if diff is not None and diff & touched:
                self.axes[index] = None

    def apply(self, instr: Instruction) -> None:
        """Advance the tracker over one (non-measurement) instruction."""
        gate = instr.gate
        q = instr.qubits
        if gate == "H":
            for diff in self.axes:
                if diff is not None:
                    diff.discard(q[0])
            self.axes.append({q[0]})
        elif gate == "CX":
            for diff in self.axes:
                if diff is not None and q[0] in diff:
                    diff.symmetric_difference_update((q[1],))
        elif gate == "SWAP":
            for diff in self.axes:
                if diff is not None:
                    a, b = q[0] in diff, q[1] in diff
                    if a != b:
                        diff.symmetric_difference_update(q)
        elif gate == "CCX":
            self._opacify(q[:2])
        elif gate == "MCX":
            self._opacify(q[:-1])
        elif gate == "CSWAP":
            control, a, b = q
            for index, diff in enumerate(self.axes):
                if diff is None:
                    continue
                if control in diff or ((a in diff) != (b in diff)):
                    self.axes[index] = None
        # Every other path-simulable gate is diagonal or a uniform bit flip
        # (X/Y/Z/S/SDG/T/TDG/CZ/I, CPAULI): partner differences unchanged.

    def measure(self, qubit: int, basis: str) -> int:
        """Advance over a measurement; returns the collapse stride (0: none).

        An ``X``-basis measurement overwrites the measured column with the
        sampled outcome, so the qubit stops differing along every live axis
        but no axis is contracted.  A ``Z``-basis measurement contracts the
        innermost non-opaque axis whose partners differ at ``qubit``; every
        other live axis still differing there absorbs the contracted axis's
        difference vector (the surviving partner depends on its branch bit).
        """
        if basis == "X":
            for diff in self.axes:
                if diff is not None:
                    diff.discard(qubit)
            return 0
        chosen = -1
        for index in range(len(self.axes) - 1, -1, -1):
            diff = self.axes[index]
            if diff is not None and qubit in diff:
                chosen = index
                break
        if chosen < 0:
            return 0
        stride = 2 ** (len(self.axes) - 1 - chosen)
        contracted = self.axes.pop(chosen)
        for diff in self.axes:
            if diff is not None and qubit in diff:
                diff.symmetric_difference_update(contracted)
        return stride


def _flush(
    groups: list[TapeGroup], opcode: int | None, rows: list[Sequence[int]]
) -> None:
    if opcode is None or not rows:
        return
    groups.append(
        TapeGroup(opcode=opcode, qubits=np.asarray(rows, dtype=np.int32))
    )


def compile_circuit(circuit: "QuantumCircuit") -> GateTape:
    """Compile ``circuit`` into a :class:`GateTape`, caching it on the circuit.

    The cache is invalidated by :meth:`QuantumCircuit.append` and, as a
    safety net, whenever the instruction count no longer matches the one the
    tape was compiled from.  Replacing an instruction in place without
    changing the count is not detected (see module docstring).

    ``MEASURE`` and ``CPAULI`` instructions are **fusion barriers**: each
    becomes its own single-instruction group (carrying its classical payload
    in :attr:`TapeGroup.params`), and the run being accumulated is flushed on
    both sides.  Fusing across a measurement would be unsound twice over --
    a deferred gate could change the measured qubit's marginal, and a noise
    site deferred past the projection would act on the collapsed state.
    """
    cached = getattr(circuit, "_tape", None)
    if cached is not None and cached.source_length == len(circuit.instructions):
        return cached

    groups: list[TapeGroup] = []
    gates: list[Instruction] = []
    gate_group: list[int] = []
    unsupported: list[str] = []
    measurements: list[tuple[int, str]] = []
    num_clbits = 0
    tracker = _BranchTracker()
    gate_levels: list[int] = []
    collapse_by_group: dict[int, int] = {}

    current_opcode: int | None = None
    current_arity = -1
    current_rows: list[Sequence[int]] = []
    current_qubits: set[int] = set()

    for instr in circuit.instructions:
        if instr.is_barrier:
            continue
        opcode = GATE_OPCODES[instr.gate]
        if not is_path_simulable(instr.gate) and instr.gate not in unsupported:
            unsupported.append(instr.gate)
        if opcode in (OP_MEASURE, OP_CPAULI):
            # Fusion barrier: close the open run, emit a lone group with the
            # classical payload, and start the next run from scratch.
            _flush(groups, current_opcode, current_rows)
            current_opcode = None
            current_arity = -1
            current_rows = []
            current_qubits = set()
            gates.append(instr)
            gate_group.append(len(groups))
            groups.append(
                TapeGroup(
                    opcode=opcode,
                    qubits=np.asarray([instr.qubits], dtype=np.int32),
                    params=instr.params,
                )
            )
            if opcode == OP_MEASURE:
                stride = tracker.measure(instr.qubits[0], instr.basis)
                if stride:
                    collapse_by_group[len(groups) - 1] = stride
                measurements.append((instr.cbit, instr.basis))
                num_clbits = max(num_clbits, instr.cbit + 1)
            else:
                # A CPAULI may reference slots no measurement wrote (they
                # read as 0); the classical register must still cover them.
                num_clbits = max(
                    num_clbits, max(instr.condition_bits, default=-1) + 1
                )
            gate_levels.append(tracker.level)
            continue
        operands = instr.qubits
        fits = (
            opcode == current_opcode
            and len(operands) == current_arity
            and not current_qubits.intersection(operands)
        )
        if not fits:
            _flush(groups, current_opcode, current_rows)
            current_opcode = opcode
            current_arity = len(operands)
            current_rows = []
            current_qubits = set()
        current_rows.append(operands)
        current_qubits.update(operands)
        gates.append(instr)
        gate_group.append(len(groups))
        tracker.apply(instr)
        gate_levels.append(tracker.level)
    _flush(groups, current_opcode, current_rows)

    group_levels = [0] * len(groups)
    for gate_index, level in enumerate(gate_levels):
        # Gates of a group are consecutive, so the last write per group is
        # the level after the group's final gate.
        group_levels[gate_group[gate_index]] = level

    tape = GateTape(
        num_qubits=circuit.num_qubits,
        groups=groups,
        gates=gates,
        gate_group=np.asarray(gate_group, dtype=np.int32),
        unsupported_path_gates=tuple(unsupported),
        source_length=len(circuit.instructions),
        measurements=tuple(measurements),
        num_clbits=num_clbits,
        branch_levels=tuple(group_levels),
        collapse_strides=tuple(
            collapse_by_group.get(index, 0) for index in range(len(groups))
        ),
        max_branch_level=max(gate_levels, default=0),
    )
    circuit._tape = tape
    return tape
