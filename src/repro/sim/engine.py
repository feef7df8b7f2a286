"""Pluggable execution engines for query-circuit simulation.

Every simulator in the reproduction answers the same two questions -- "what
state does this circuit produce?" and "what are the per-shot trajectories
under Monte-Carlo Pauli noise?" -- so both are captured behind one
:class:`Engine` interface with a name-based registry:

``"feynman-tape"``
    The Feynman-path engine (the default).  Executes the fused
    :class:`~repro.circuit.ir.GateTape` group by group with integer-opcode
    dispatch, draws every shot's Pauli codes up front from the tape's
    noise-site table, and applies the (sparse) error events as per-shot
    row-slice updates after the group they follow.  Fused ``T``/``TDG``
    runs use a phase table whose rounding can differ from sequential
    multiplication by ~1 ulp.

``"feynman-batch"``, ``"feynman-interp"``
    Aliases of ``"feynman-tape"`` (the same registered instance), kept so
    saved ``--engine`` flags, server requests, cached fingerprints and the
    ``engine`` label stamped in existing records stay valid.

``"statevector"``
    The dense reference simulator, adapted to the same interface (noiseless
    only; its output paths are merged per basis state).  It is the oracle
    the Feynman engine is tested against: a noisy shot equals the dense run
    of the circuit with that shot's sampled Paulis inserted
    (:func:`~repro.sim.noise.sample_noisy_circuit`).

Engines are stateless; :func:`get_engine` returns shared instances.  The
module-level default (``"feynman-tape"``) can be swapped globally with
:func:`set_default_engine`, which is how ``python -m repro.experiments
--engine`` reroutes every figure sweep without threading a parameter through
each runner.

Mid-circuit measurement and Pauli frames
----------------------------------------
Every engine executes ``MEASURE`` and ``CPAULI`` instructions (the
executed-teleportation primitives):

* A **Z-basis** measurement samples the outcome from the shot's true marginal
  (``p0`` computed from the shot's path amplitudes), zeroes the amplitudes of
  non-matching paths and renormalises by ``1 / sqrt(p_m)`` -- the path count
  never changes, collapsed paths simply carry zero amplitude.
* An **X-basis** measurement consumes one uniform exactly like a Z
  measurement but against ``p0 = 1/2``: projecting any computational basis
  path onto ``|+>`` or ``|->`` has magnitude ``1/sqrt(2)``, so when the
  measured qubit's value is determined by the other qubits along each path
  (true for every teleportation ladder, where it carries a copy of another
  qubit) the outcome really is uniform and the per-path update
  ``amp *= (-1)**(bit * m); bit := m`` is the exact renormalised projection.
  When paths *collide* (two paths differing only in the measured bit), the
  uniform draw still yields an **unbiased** fidelity estimator -- the
  cancelled interference shows up as zero-amplitude shots -- but individual
  shot fidelities are then estimates rather than exact projections.
  By convention the measured qubit is left in the computational state
  ``|m>`` (hardware re-initialises from the classical record), so a
  ``CPAULI X`` conditioned on ``m`` resets it to ``|0>`` for reuse.
* ``CPAULI`` applies its Pauli to the shots whose recorded classical bits
  XOR to 1 -- Pauli-frame feedforward, executed per shot.

**Random-stream contract.**  Noisy runs draw only from per-shot
:class:`~repro.sim.seeding.ShotSeeds` streams: any ``rng`` argument is
resolved by :func:`~repro.sim.seeding.as_shot_seeds` and drawn through
:func:`~repro.sim.seeding.draw_shot_randomness`.  Per shot, one generator
call yields a single uniform vector: the measurement uniforms *first* (one
per ``MEASURE`` in program order -- see
:attr:`~repro.circuit.ir.GateTape.measurements`), then one uniform per noise
site in site order (program order, see
:class:`~repro.circuit.ir.NoiseSiteTable`), mapped to Pauli codes through the
table's per-site cumulative thresholds exactly as sequential
:meth:`~repro.sim.noise.PauliChannel.sample_thresholded` calls would map
them.  Trajectories are therefore bit-identical across any
``(workers, shard_size)`` sweep split; circuits without measurements consume
exactly the pre-measurement streams, preserving every committed artefact bit
for bit.

Bounded path branching (``H``)
------------------------------
Mid-circuit Hadamards execute by **doubling the path set**: every path
splits into an amplitude-weighted pair (``1/sqrt(2)`` each, sign flipped on
the upper branch when the pre-branch bit was 1), with the newest branch
always the innermost stride-1 pairing.  The per-shot path count is therefore
dynamic: ``n_paths`` rises by a factor of two per ``H`` (bounded by the
typed budget of :func:`repro.circuit.ir.get_max_branches`, enforced before
any shot executes) and falls again at ``Z``-basis measurements whose
compile-time collapse plan (:attr:`~repro.circuit.ir.GateTape.collapse_strides`)
proves the true-marginal projection annihilates exactly one branch of a live
axis -- the engine then contracts that axis by gathering the surviving
partner of every pair.  Branching consumes **no randomness** of its own, so
the random-stream contract above is untouched: branch-free circuits execute
exactly as before, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.ir import (
    GateTape,
    NoiseSiteTable,
    OP_CCX,
    OP_CPAULI,
    OP_CSWAP,
    OP_CX,
    OP_CZ,
    OP_H,
    OP_MCX,
    OP_MEASURE,
    OP_NOP,
    OP_S,
    OP_SDG,
    OP_SWAP,
    OP_T,
    OP_TDG,
    OP_X,
    OP_Y,
    OP_Z,
    PHASE_I_POW,
    PHASE_I_POW_CONJ,
    PHASE_T_POW,
    PHASE_T_POW_CONJ,
    compile_circuit,
)
from repro.sim.noise import (
    NoiseModel,
    NoiselessModel,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)
from repro.sim.paths import PathState
from repro.sim.seeding import ShotSeeds, as_shot_seeds, draw_shot_randomness

#: The amplitude weight of each Hadamard branch.
INV_SQRT2 = 1.0 / np.sqrt(2.0)


class UnsupportedGateError(ValueError):
    """Raised when a circuit contains a gate outside the path-simulable set."""


def _check_state(circuit: QuantumCircuit, state: PathState) -> None:
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )


def _checked_tape(circuit: QuantumCircuit, state: PathState) -> GateTape:
    """Compile ``circuit`` for a Feynman engine, rejecting what it cannot run.

    Raises ``ValueError`` on a qubit-count mismatch with ``state``,
    :class:`UnsupportedGateError` on gates no path simulation covers, and
    :class:`~repro.circuit.ir.BranchBudgetError` on over-budget branching
    -- all before any shot executes.
    """
    _check_state(circuit, state)
    tape = compile_circuit(circuit)
    if tape.unsupported_path_gates:
        raise UnsupportedGateError(
            f"gate {tape.unsupported_path_gates[0]} is not simulable by "
            "the Feynman-path simulator"
        )
    tape.require_branch_budget()
    return tape


# ========================================================= measurement helpers
def _apply_measure(
    column: np.ndarray,
    amps: np.ndarray,
    basis: str,
    uniforms: np.ndarray,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Measure one qubit across a stacked shot block, in place.

    ``column`` is the measured qubit's boolean values as a writable 1-D view
    of length ``shots * n_paths`` (a ``bits_q`` row); ``uniforms`` holds one
    pre-drawn variate per shot.  Returns ``(outcomes, keep)``: the sampled
    outcomes (shape ``(shots,)`` int8) and, for ``Z``-basis measurements,
    the ``(shots, n_paths)`` mask of paths that survived the projection
    (``None`` in the X basis) -- the input to a scheduled branch collapse.
    See the module docstring for the projection rules.
    """
    shots = uniforms.shape[0]
    bitmat = column.reshape(shots, n_paths)
    if basis == "X":
        outcomes = (uniforms >= 0.5).astype(np.int8)
        chosen = np.repeat(outcomes.astype(bool), n_paths)
        # Projection onto |m>_x: phase (-1)**(bit * m), renormalised by
        # sqrt(2) -- the product leaves |amp| unchanged.
        flip = column & chosen
        if np.any(flip):
            amps[flip] *= -1.0
        column[:] = chosen
        return outcomes, None
    weights = (np.abs(amps) ** 2).reshape(shots, n_paths)
    total = weights.sum(axis=1)
    w1 = np.where(bitmat, weights, 0.0).sum(axis=1)
    safe_total = np.where(total > 0.0, total, 1.0)
    p0 = (total - w1) / safe_total
    outcomes = (uniforms >= p0).astype(np.int8)
    p_m = np.where(outcomes == 1, w1, total - w1) / safe_total
    # p_m is guaranteed positive for the sampled outcome (u < p0 selects 0
    # only when p0 > 0, and u >= p0 selects 1 only when p1 > 0); the guard
    # covers zero-norm shots produced by cancelled X measurements upstream.
    scale = 1.0 / np.sqrt(np.where(p_m > 0.0, p_m, 1.0))
    keep = bitmat == (outcomes[:, None] != 0)
    amps *= (keep * scale[:, None]).reshape(-1)
    column[:] = np.repeat(outcomes.astype(bool), n_paths)
    return outcomes, keep


def _branch_hadamard_group(
    bits_q: np.ndarray, amps: np.ndarray, qs: np.ndarray, n_paths: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply a fused ``H`` group to a qubit-major block, doubling per gate.

    Column ``j`` splits into ``2 j`` (bit cleared) and ``2 j + 1`` (bit set,
    sign flipped when the pre-branch bit was 1), each weighted by
    ``1/sqrt(2)``.  Returns the new ``(bits_q, amps, n_paths)``.
    """
    for row in range(qs.shape[0]):
        q = int(qs[row, 0])
        old = bits_q[q].copy()
        bits_q = np.repeat(bits_q, 2, axis=1)
        amps = np.repeat(amps, 2)
        amps *= INV_SQRT2
        upper = amps[1::2]
        upper[old] *= -1.0
        bits_q[q, 0::2] = False
        bits_q[q, 1::2] = True
        n_paths *= 2
    return bits_q, amps, n_paths


def _collapse_flat_indices(
    keep: np.ndarray, shots: int, n_paths: int, stride: int
) -> np.ndarray:
    """Flat survivor indices contracting one scheduled branch axis.

    ``keep`` is the ``(shots, n_paths)`` survival mask of a ``Z``-basis
    measurement whose compile-time plan proved that along the stride-
    ``stride`` pairing exactly one partner of every pair survives.  The
    returned index array (length ``shots * n_paths // 2``) gathers each
    pair's survivor in natural order, halving the per-shot path count.
    """
    outer = n_paths // (2 * stride)
    upper = keep.reshape(shots, outer, 2, stride)[:, :, 1, :]
    lower = (
        np.arange(outer, dtype=np.int64)[:, None] * (2 * stride)
        + np.arange(stride, dtype=np.int64)[None, :]
    )
    survivors = lower[None] + upper.astype(np.int64) * stride
    offsets = np.arange(shots, dtype=np.int64)[:, None, None] * n_paths
    return (offsets + survivors).reshape(-1)


def _apply_frame(
    column: np.ndarray,
    amps: np.ndarray,
    pauli: str,
    active: np.ndarray,
    n_paths: int,
) -> None:
    """Apply a Pauli-frame correction to the shots where ``active`` is True."""
    if not np.any(active):
        return
    rows = np.repeat(active, n_paths)
    if pauli == "X":
        column[rows] ^= True
    elif pauli == "Z":
        mask = rows & column
        if np.any(mask):
            amps[mask] *= -1.0
    else:  # Y
        amps[rows] *= np.where(column[rows], -1j, 1j)
        column[rows] ^= True


def _frame_active(
    outcomes: np.ndarray | None, condition_bits: tuple[int, ...], shots: int
) -> np.ndarray:
    """Per-shot XOR of the recorded classical bits a ``CPAULI`` conditions on."""
    if outcomes is None or not condition_bits:
        return np.zeros(shots, dtype=bool)
    return (outcomes[list(condition_bits)].sum(axis=0) & 1).astype(bool)


class Engine:
    """Interface every execution engine implements (see module docstring)."""

    name: str = "abstract"

    def run(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        *,
        rng: np.random.Generator | None = None,
    ) -> PathState:
        """Noiseless evolution of ``state`` through ``circuit``.

        ``rng`` supplies measurement outcomes for circuits containing
        ``MEASURE`` instructions; ``None`` uses a fixed stream
        (``default_rng(0)``) so noiseless runs stay deterministic.  Circuits
        without measurements never consume randomness.
        """
        raise NotImplementedError

    def run_noisy_shots(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Monte-Carlo trajectories: ``shots`` stacked path blocks.

        Returns ``(bits, amps)`` with ``bits`` of shape
        ``(shots * n_paths, n_qubits)``; rows ``[s * n_paths, (s+1) * n_paths)``
        belong to shot ``s``.

        ``rng`` is resolved to a :class:`~repro.sim.seeding.ShotSeeds` window
        (:func:`~repro.sim.seeding.as_shot_seeds`: an int seed, a generator
        that contributes one seed, ``None`` for fresh entropy, or the window
        itself).  Every shot draws its randomness from its own
        ``SeedSequence``-derived stream, so the result is invariant under
        any sharding of the shot range.  This is
        :meth:`run_noisy_shots_recorded` without the register.
        """
        bits, amps, _ = self.run_noisy_shots_recorded(
            circuit, state, noise, shots, rng=rng
        )
        return bits, amps

    def run_noisy_shots_recorded(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Like :meth:`run_noisy_shots`, plus the recorded classical register.

        Returns ``(bits, amps, outcomes)`` where ``outcomes`` is the batch's
        classical register -- shape ``(num_clbits, shots)`` ``int8``, one row
        per slot -- or ``None`` when the circuit records nothing.  Recording
        observes the register the engines already maintain, so it consumes
        no randomness of its own.  Postselection
        (:func:`~repro.sim.feynman.query_fidelities`) partitions shots by
        these outcomes.
        """
        raise NotImplementedError


# ==================================================================== engines
class TapeFeynmanEngine(Engine):
    """Compiled Feynman-path execution over the fused gate tape."""

    name = "feynman-tape"

    def run(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        *,
        rng: np.random.Generator | None = None,
    ) -> PathState:
        """Fused group-by-group noiseless evolution (measurements sampled from ``rng``)."""
        tape = _checked_tape(circuit, state)
        measure_uniforms: np.ndarray | None = None
        if tape.num_measurements:
            rng = np.random.default_rng(0) if rng is None else rng
            measure_uniforms = rng.random((tape.num_measurements, 1))
        bits, amps, _ = _execute_stacked_shots(
            tape, state, 1, None, None, measure_uniforms
        )
        return PathState(bits=bits, amplitudes=amps)

    def run_noisy_shots_recorded(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Monte-Carlo shots plus the recorded register (see :class:`Engine`)."""
        if shots <= 0:
            raise ValueError("shots must be positive")
        tape = _checked_tape(circuit, state)
        # One up-front uniform vector per shot from its own stream: one
        # uniform per measurement first, then one per error site in program
        # order -- what makes sharded sweeps bit-identical to serial ones.
        sites: NoiseSiteTable | None = (
            None if isinstance(noise, NoiselessModel) else tape.noise_sites(noise)
        )
        codes, measure_uniforms = draw_shot_randomness(
            sites, as_shot_seeds(rng), shots, tape.num_measurements
        )
        return _execute_stacked_shots(
            tape, state, shots, sites, codes, measure_uniforms
        )


def _execute_stacked_shots(
    tape: GateTape,
    state: PathState,
    shots: int,
    sites: NoiseSiteTable | None,
    codes: np.ndarray | None,
    measure_uniforms: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Execute the fused tape over a full shot-stacked, qubit-major block.

    Column ``s * n_paths + p`` of the block is path ``p`` of shot ``s`` (the
    transpose of the returned row-major layout), so every gate update
    streams over one contiguous row per qubit.  ``codes`` holds the
    pre-drawn Pauli codes (``(n_sites, shots)``, ``uint8``),
    ``measure_uniforms`` the pre-drawn measurement uniforms.  Returns
    ``(bits, amps, outcomes)`` with ``bits`` back in row-major layout and
    ``outcomes`` the recorded classical register (``None`` when the tape
    has no classical bits).
    """
    n_paths = state.num_paths
    # np.tile always copies, so the group kernels may mutate the block in
    # place without touching the caller's state.
    bits_q = np.tile(np.ascontiguousarray(state.bits.T), (1, shots))
    amps = np.tile(state.amplitudes, shots).astype(complex)

    if sites is not None:
        site_rows, event_shot = np.nonzero(codes)
        if sites.hoisted:
            # Hoisted sites fire one group early, so group indices are not
            # sorted in site order; a stable sort keeps each shot's events
            # in site order within a group.
            order = np.argsort(sites.group_index[site_rows], kind="stable")
            site_rows, event_shot = site_rows[order], event_shot[order]
        event_code = codes[site_rows, event_shot]
        event_qubit = sites.qubit[site_rows]
        # Bucket ``b`` holds the events that fire after group ``b - 1``:
        # bucket 0 the sites hoisted before the first group, the last
        # bucket (group index == num_groups) the model's end-of-circuit
        # sites, applied after every group has executed.
        event_group = sites.group_index[site_rows]
        bucket_starts = np.searchsorted(
            event_group, np.arange(-1, len(tape.groups) + 2)
        )

    def apply_bucket(bucket: int) -> None:
        for event in range(bucket_starts[bucket], bucket_starts[bucket + 1]):
            _apply_error_event(
                bits_q,
                amps,
                int(event_qubit[event]),
                int(event_shot[event]),
                int(event_code[event]),
                n_paths,
            )

    outcomes: np.ndarray | None = None
    if tape.num_clbits:
        outcomes = np.zeros((tape.num_clbits, shots), dtype=np.int8)
    measure_cursor = 0

    if sites is not None:
        apply_bucket(0)
    for index, group in enumerate(tape.groups):
        if group.opcode == OP_MEASURE:
            cbit, basis = group.params
            outcomes[cbit], keep = _apply_measure(
                bits_q[int(group.qubits[0, 0])],
                amps,
                basis,
                measure_uniforms[measure_cursor],
                n_paths,
            )
            measure_cursor += 1
            stride = tape.collapse_strides[index]
            if stride:
                flat = _collapse_flat_indices(keep, shots, n_paths, stride)
                bits_q = bits_q[:, flat]
                amps = amps[flat]
                n_paths //= 2
        elif group.opcode == OP_CPAULI:
            _apply_frame(
                bits_q[int(group.qubits[0, 0])],
                amps,
                group.params[0],
                _frame_active(outcomes, group.params[1:], shots),
                n_paths,
            )
        elif group.opcode == OP_H:
            bits_q, amps, n_paths = _branch_hadamard_group(
                bits_q, amps, group.qubits, n_paths
            )
        else:
            _apply_group(bits_q, amps, group.opcode, group.qubits)
        if sites is not None:
            apply_bucket(index + 1)
    if sites is not None:
        apply_bucket(len(tape.groups) + 1)
    return np.ascontiguousarray(bits_q.T), amps, outcomes


class StatevectorEngine(Engine):
    """Dense statevector execution adapted to the engine interface.

    Output paths are merged per basis state (unlike the Feynman engines,
    which keep one row per input path), so comparisons should go through
    :meth:`PathState.as_dict`.  Monte-Carlo noise is not supported.
    """

    name = "statevector"

    def run(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        *,
        rng: np.random.Generator | None = None,
    ) -> PathState:
        """Dense noiseless evolution via :class:`StatevectorSimulator`."""
        from repro.sim.statevector import StatevectorSimulator

        _check_state(circuit, state)
        return StatevectorSimulator().run_to_path_state(circuit, state, rng=rng)

    def run_noisy_shots(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Noiseless-only shot blocks (the dense engine cannot sample Pauli noise)."""
        if shots <= 0:
            raise ValueError("shots must be positive")
        if not isinstance(noise, NoiselessModel):
            raise NotImplementedError(
                "the statevector engine does not support Monte-Carlo noise; "
                "use 'feynman-tape'"
            )
        output = self.run(circuit, state)
        # The caller slices the result into blocks of the *input* path count,
        # so the merged dense output must be reshaped to that contract: pad
        # with zero-amplitude rows when merging shrank the path set, refuse
        # when branching (H) grew it beyond the block size.
        n_paths = state.num_paths
        if output.num_paths > n_paths:
            raise NotImplementedError(
                f"statevector output has {output.num_paths} paths but the "
                f"input has {n_paths}; the per-shot block contract cannot "
                "represent branching circuits -- use the dense simulator "
                "directly"
            )
        out_bits = output.bits
        out_amps = output.amplitudes
        if output.num_paths < n_paths:
            pad = n_paths - output.num_paths
            out_bits = np.vstack(
                [out_bits, np.zeros((pad, output.num_qubits), dtype=bool)]
            )
            out_amps = np.concatenate([out_amps, np.zeros(pad, dtype=complex)])
        bits = np.tile(out_bits, (shots, 1))
        amps = np.tile(out_amps, shots).astype(complex)
        return bits, amps

    def run_noisy_shots_recorded(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Unsupported: the dense engine replays one trajectory, not per-shot records."""
        raise NotImplementedError(
            "the statevector engine does not record per-shot measurement "
            "outcomes; use 'feynman-tape'"
        )


# ============================================================= group execution
def _apply_group(
    bits_q: np.ndarray, amps: np.ndarray, opcode: int, qs: np.ndarray
) -> None:
    """Apply one fused group in place.

    ``bits_q`` is the **qubit-major** path block: shape
    ``(n_qubits, n_rows)``, so ``bits_q[q]`` is one contiguous row per qubit
    and every update below streams over contiguous memory.  Gates inside a
    group act on pairwise-disjoint qubits, which is what makes the fancy-
    indexed batched forms exactly equivalent to sequential application.
    """
    single = qs.shape[0] == 1
    if opcode == OP_SWAP:
        if single:
            a, b = int(qs[0, 0]), int(qs[0, 1])
            row = bits_q[a].copy()
            bits_q[a] = bits_q[b]
            bits_q[b] = row
        else:
            a, b = qs[:, 0], qs[:, 1]
            rows = bits_q[a]  # fancy indexing copies
            bits_q[a] = bits_q[b]
            bits_q[b] = rows
    elif opcode == OP_CSWAP:
        control, a, b = qs[:, 0], qs[:, 1], qs[:, 2]
        if single:
            control, a, b = int(control[0]), int(a[0]), int(b[0])
        diff = (bits_q[a] ^ bits_q[b]) & bits_q[control]
        bits_q[a] ^= diff
        bits_q[b] ^= diff
    elif opcode == OP_CX:
        if single:
            bits_q[int(qs[0, 1])] ^= bits_q[int(qs[0, 0])]
        else:
            bits_q[qs[:, 1]] ^= bits_q[qs[:, 0]]
    elif opcode == OP_CCX:
        if single:
            c1, c2, target = (int(q) for q in qs[0])
            bits_q[target] ^= bits_q[c1] & bits_q[c2]
        else:
            bits_q[qs[:, 2]] ^= bits_q[qs[:, 0]] & bits_q[qs[:, 1]]
    elif opcode == OP_X:
        bits_q[qs[:, 0]] ^= True
    elif opcode == OP_NOP:
        return
    elif opcode == OP_MCX:
        if single:
            controls, target = qs[0, :-1], int(qs[0, -1])
            bits_q[target] ^= np.logical_and.reduce(bits_q[controls], axis=0)
        else:
            active = np.logical_and.reduce(bits_q[qs[:, :-1]], axis=1)
            bits_q[qs[:, -1]] ^= active
    elif opcode == OP_Z:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= -1.0
        else:
            parity = bits_q[qs[:, 0]].sum(axis=0) & 1
            amps[parity == 1] *= -1.0
    elif opcode == OP_CZ:
        if single:
            control, target = int(qs[0, 0]), int(qs[0, 1])
            amps[bits_q[control] & bits_q[target]] *= -1.0
        else:
            parity = (bits_q[qs[:, 0]] & bits_q[qs[:, 1]]).sum(axis=0) & 1
            amps[parity == 1] *= -1.0
    elif opcode == OP_Y:
        if single:
            qubit = int(qs[0, 0])
            row = bits_q[qubit]
            amps *= np.where(row, -1j, 1j)
            bits_q[qubit] = ~row
        else:
            rows = qs[:, 0]
            # Y|0> = i|1>, Y|1> = -i|0>: exponent of i is 1 + 2 * bit per gate.
            exponent = qs.shape[0] + 2 * bits_q[rows].sum(axis=0)
            amps *= PHASE_I_POW[exponent & 3]
            bits_q[rows] ^= True
    elif opcode == OP_S:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= 1j
        else:
            amps *= PHASE_I_POW[bits_q[qs[:, 0]].sum(axis=0) & 3]
    elif opcode == OP_SDG:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= -1j
        else:
            amps *= PHASE_I_POW_CONJ[bits_q[qs[:, 0]].sum(axis=0) & 3]
    elif opcode == OP_T:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= PHASE_T_POW[1]
        else:
            amps *= PHASE_T_POW[bits_q[qs[:, 0]].sum(axis=0) & 7]
    elif opcode == OP_TDG:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= PHASE_T_POW_CONJ[1]
        else:
            amps *= PHASE_T_POW_CONJ[bits_q[qs[:, 0]].sum(axis=0) & 7]
    else:  # pragma: no cover - every registered opcode is handled above
        raise UnsupportedGateError(f"opcode {opcode} cannot be path-simulated")


def _apply_error_event(
    bits_q: np.ndarray,
    amps: np.ndarray,
    qubit: int,
    shot: int,
    code: int,
    n_paths: int,
) -> None:
    """Apply one sampled Pauli error to a single shot's path block."""
    span = slice(shot * n_paths, (shot + 1) * n_paths)
    if code == PAULI_Z:
        segment = amps[span]
        segment[bits_q[qubit, span]] *= -1.0
    elif code == PAULI_X:
        bits_q[qubit, span] ^= True
    elif code == PAULI_Y:
        block = bits_q[qubit, span]
        amps[span] *= np.where(block, -1j, 1j)
        bits_q[qubit, span] = ~block


# ===================================================================== registry
_ENGINES: dict[str, Engine] = {}
_DEFAULT_ENGINE = "feynman-tape"


def register_engine(engine: Engine, *, aliases: tuple[str, ...] = ()) -> Engine:
    """Register ``engine`` under its name (plus ``aliases``) and return it."""
    for key in (engine.name, *aliases):
        _ENGINES[key] = engine
    return engine


def available_engines() -> list[str]:
    """Sorted names of every registered engine."""
    return sorted(_ENGINES)


def get_engine(spec: str | Engine | None = None) -> Engine:
    """Resolve an engine name (``None`` means the current default)."""
    if isinstance(spec, Engine):
        return spec
    key = _DEFAULT_ENGINE if spec is None else spec
    try:
        return _ENGINES[key]
    except KeyError:
        raise KeyError(
            f"unknown engine {key!r}; available: {available_engines()}"
        ) from None


def get_default_engine() -> str:
    """Name of the engine used when none is specified."""
    return _DEFAULT_ENGINE


def set_default_engine(name: str) -> None:
    """Globally switch the default engine (e.g. from the experiments CLI)."""
    global _DEFAULT_ENGINE
    if name not in _ENGINES:
        raise KeyError(f"unknown engine {name!r}; available: {available_engines()}")
    _DEFAULT_ENGINE = name


register_engine(TapeFeynmanEngine(), aliases=("feynman-batch", "feynman-interp"))
register_engine(StatevectorEngine())
