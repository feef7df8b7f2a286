#!/usr/bin/env python3
"""Teleportation routing: the analytic cost model vs the executed links.

The paper's Sec. 4.3 moves QRAM payloads across the H-tree with
entanglement-based teleportation.  This example compares the two ways the
reproduction realises that claim:

1. **Analytic** (``htree-teleport-m3``): remote gates execute in place and
   each is charged ``2 (d - 1)`` applications of the two-qubit error
   channel -- the link is a fidelity multiplier, not a circuit.
2. **Executed** (``htree-teleport-executed``): every remote gate is
   expanded into entanglement-link CX hops over the free routing-chain
   vertices, mid-circuit X-basis measurements and classically-controlled
   Pauli corrections (Pauli-frame feedforward).  The link is now a real
   circuit: measurement outcomes are sampled per shot, noise hits the hop
   gates themselves, and at zero noise the expansion reproduces the
   logical query exactly.

The script prints the structural difference, checks the zero-noise
exactness, sweeps both variants under identical noise, and finishes with
the teleport-aware router relocating a qubit across a line device.

Run with:  python examples/teleportation_routing.py
"""

from __future__ import annotations

import numpy as np

from repro.circuit import QuantumCircuit
from repro.hardware import make_router
from repro.hardware.devices import DeviceModel
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.compile import compile_scenario
from repro.sim import query_fidelities
from repro.sim.noise import NoiselessModel
from repro.sim.seeding import ShotSeeds

SEED = 7
SHOTS = 96


def compare_structure() -> None:
    """What changes when the links become circuits."""
    analytic = compile_scenario(get_scenario("htree-teleport-m3"), SEED)
    executed = compile_scenario(get_scenario("htree-teleport-executed"), SEED)
    print("structure (same m=3 virtual QRAM, same H-tree embedding):")
    print(
        f"  analytic: {analytic.executed_gates} gates, "
        f"depth {analytic.executed_depth}, "
        f"{analytic.link_operations} link ops charged as noise sites"
    )
    print(
        f"  executed: {executed.executed_gates} gates "
        f"({executed.measurements} measurements, "
        f"{executed.executed_link_operations} link-hop CXs), "
        f"depth {executed.executed_depth} on "
        f"{executed.circuit.num_qubits} device vertices"
    )

    # Zero noise: the executed links must reproduce the ideal query exactly,
    # for every measurement-outcome realisation.
    result = query_fidelities(
        executed.circuit,
        executed.input_state,
        NoiselessModel(),
        8,
        keep_qubits=list(executed.keep_qubits),
        ideal_output=executed.ideal_output,
        rng=ShotSeeds(seed=SEED),
    )
    print(f"  zero-noise executed fidelity: {result.mean_fidelity:.6f} (exact)")


def compare_sweeps() -> None:
    """The executed links converge to the analytic model under noise."""
    print(f"\nsweep comparison ({SHOTS} shots, seed {SEED}):")
    analytic = run_scenario("htree-teleport-m3", shots=SHOTS, seed=SEED)
    executed = run_scenario("htree-teleport-executed", shots=SHOTS, seed=SEED)
    print("  eps_r    analytic          executed          |diff|/sigma")
    for point_a, point_e in zip(analytic, executed):
        sigma = float(np.hypot(point_a["std_error"], point_e["std_error"]))
        difference = abs(point_a["fidelity"] - point_e["fidelity"])
        print(
            f"  {point_a['error_reduction_factor']:<8}"
            f" {point_a['fidelity']:.4f} ± {point_a['std_error']:.4f}"
            f"   {point_e['fidelity']:.4f} ± {point_e['std_error']:.4f}"
            f"   {difference / sigma if sigma else 0.0:.2f}"
        )
    print("  (agreement within a few combined std errors at every point)")


def teleport_aware_routing() -> None:
    """The lookahead-teleport router hops across free vertices."""
    print("\nteleport-aware routing (2 logical qubits on a 10-vertex line):")
    device = DeviceModel(
        name="line10",
        num_qubits=10,
        coupling_map=tuple((i, i + 1) for i in range(9)),
    )
    circuit = QuantumCircuit(num_qubits=2)
    circuit.cx(0, 1)
    circuit.cx(1, 0)
    layout = {0: 0, 1: 9}
    for router_name in ("lookahead", "lookahead-teleport"):
        routed = make_router(router_name, device).route(circuit, layout)
        print(
            f"  {router_name:20} swaps={routed.swap_count:2}  "
            f"link_hops={routed.link_operations:2}  "
            f"final layout={routed.physical_qubits([0, 1])}"
        )
    print("  (the relocation consumes only free vertices and resets them)")


def main() -> None:
    compare_structure()
    compare_sweeps()
    teleport_aware_routing()


if __name__ == "__main__":
    main()
