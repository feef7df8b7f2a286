#!/usr/bin/env python3
"""Compiling QRAM to hardware: 2D embedding, routing, devices and error correction.

This example exercises the compilation layer of the reproduction end to end:

1. embed a QRAM router tree into a 2D grid with the H-tree construction and
   verify it is a topological-minor embedding (Sec. 4.2);
2. compare swap-based and teleportation-based routing overhead (Figure 8);
3. route a small virtual QRAM onto the ibm_perth-like and
   ibmq_guadalupe-like devices and simulate it under device noise with an
   error-reduction-factor sweep (Appendix A / Figure 12);
4. compare the greedy and SABRE-style lookahead routers from the router
   registry on the same workloads (fewer SWAPs = fewer noise sites);
5. design the asymmetric rectangular surface code of Sec. 5.2 for a
   fault-tolerant deployment.

Run with:  python examples/mapping_and_hardware.py
"""

from __future__ import annotations

import numpy as np

from repro import ClassicalMemory, VirtualQRAM
from repro.analysis import design_asymmetric_code
from repro.hardware import (
    DEVICES,
    GreedySwapRouter,
    device_noise_model,
)
from repro.mapping import (
    HTreeEmbedding,
    MappedQRAM,
    SwapRouting,
    TeleportationRouting,
    verify_topological_minor,
)
from repro.sim import query_fidelities


def embedding_picture() -> None:
    from repro.mapping import render_layout, render_overhead_summary

    print("H-tree layout of a capacity-16 QRAM (Fig. 6c analogue)")
    embedding = HTreeEmbedding(tree_depth=4)
    print(render_layout(embedding))
    print(render_overhead_summary(embedding))
    print()


def embedding_study() -> None:
    print("H-tree embedding of the router tree into a 2D grid")
    print(f"{'m':>3} {'grid':>9} {'QRAM':>6} {'data':>6} {'routing':>8} "
          f"{'unused':>7} {'minor?':>7}")
    for m in range(2, 9):
        embedding = HTreeEmbedding(tree_depth=m)
        summary = embedding.routing_resource_summary()
        report = verify_topological_minor(embedding)
        print(
            f"{m:>3} {summary['grid_rows']:>4}x{summary['grid_cols']:<4} "
            f"{summary['qram_nodes']:>6} {summary['data_nodes']:>6} "
            f"{summary['routing_qubits']:>8} {summary['unused_fraction']:>6.1%} "
            f"{str(report.is_topological_minor):>7}"
        )
    print()


def routing_comparison() -> None:
    print("routing overhead after 2D mapping (Figure 8)")
    print(f"{'m':>3} {'logical depth':>14} {'swap extra':>11} {'teleport extra':>15}")
    for m in range(3, 9):
        memory = ClassicalMemory.random(m, rng=m)
        qram = VirtualQRAM(memory=memory, qram_width=m)
        mapped = MappedQRAM(qram.build_circuit(), HTreeEmbedding(tree_depth=m))
        swap = mapped.overhead(SwapRouting())
        teleport = mapped.overhead(TeleportationRouting())
        print(
            f"{m:>3} {swap.logical_depth:>14} {swap.extra_depth:>11} "
            f"{teleport.extra_depth:>15}"
        )
    print("teleportation keeps the O(log M) query latency; swapping does not.\n")


def device_study() -> None:
    print("small virtual QRAMs on IBM-like devices (Figure 12 methodology)")
    configurations = [
        (1, 0, "ibm_perth"),
        (1, 1, "ibm_perth"),
        (2, 0, "ibmq_guadalupe"),
        (2, 1, "ibmq_guadalupe"),
    ]
    factors = (1.0, 10.0, 100.0, 1000.0)
    for m, k, device_name in configurations:
        device = DEVICES[device_name]
        memory = ClassicalMemory.random(m + k, rng=m * 5 + k)
        qram = VirtualQRAM(memory=memory, qram_width=m)
        routed = GreedySwapRouter(device).route(qram.build_circuit())
        logical_input = qram.input_state()
        physical_input = routed.map_state(logical_input, final=False)
        physical_ideal = routed.map_state(qram.ideal_output(logical_input), final=True)
        keep = routed.physical_qubits(qram.kept_qubits(), final=True)
        fidelities = []
        for factor in factors:
            noise = device_noise_model(device, error_reduction_factor=factor)
            result = query_fidelities(
                routed.circuit,
                physical_input,
                noise,
                shots=200,
                keep_qubits=keep,
                ideal_output=physical_ideal,
                rng=np.random.default_rng(1),
            )
            fidelities.append(f"{result.mean_fidelity:.3f}")
        print(
            f"  m={m}, k={k} on {device.name:22s} "
            f"(+{routed.swap_count:3d} SWAPs): "
            + "  ".join(
                f"eps_r={factor:g}: {value}" for factor, value in zip(factors, fidelities)
            )
        )
    print()


def router_comparison() -> None:
    from repro.hardware import available_routers, make_router

    print(f"router registry ({', '.join(available_routers())}): SWAPs per device")
    for m, k, device_name in ((1, 1, "ibm_perth"), (2, 0, "ibmq_guadalupe")):
        device = DEVICES[device_name]
        memory = ClassicalMemory.random(m + k, rng=m * 5 + k)
        circuit = VirtualQRAM(memory=memory, qram_width=m).build_circuit()
        counts = {
            name: make_router(name, device).route(circuit).swap_count
            for name in available_routers()
        }
        summary = "  ".join(f"{name}: +{count}" for name, count in counts.items())
        print(f"  m={m}, k={k} on {device.name:22s} {summary}")
    print("the lookahead router also picks the initial layout, so remote "
          "operand pairs start out adjacent.\n")


def fault_tolerant_design() -> None:
    print("asymmetric surface-code design for a fault-tolerant virtual QRAM (Sec. 5.2)")
    for m, k in ((3, 2), (5, 3), (7, 3)):
        design = design_asymmetric_code(
            m, k, physical_error_rate=1e-3, threshold=1e-2, target_logical_rate=1e-10
        )
        logical_tree_qubits = 3 * (1 << m)
        budget = design.total_physical_qubits(logical_tree_qubits, k)
        print(
            f"  m={m}, k={k}: QRAM patches d_x={design.qram_code.d_x}, "
            f"d_z={design.qram_code.d_z}; SQC patches d={design.sqc_code.d_x}; "
            f"~{budget:,} physical qubits for the tree"
        )
    print()


def main() -> None:
    embedding_picture()
    embedding_study()
    routing_comparison()
    device_study()
    router_comparison()
    fault_tolerant_design()


if __name__ == "__main__":
    main()
