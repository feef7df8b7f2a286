"""repro: a reproduction of "Systems Architecture for Quantum Random Access Memory".

The library re-implements the MICRO 2023 paper end to end:

* :mod:`repro.circuit` -- the circuit model (reversible-classical gate set,
  scheduling, Clifford+T accounting);
* :mod:`repro.sim` -- the Feynman-path simulator, a dense statevector
  reference, Pauli noise channels and fidelity metrics;
* :mod:`repro.qram` -- the virtual QRAM (Algorithm 1 with the Sec. 3.2
  optimizations) and the baseline architectures (SQC/QROM, Fanout,
  Bucket-Brigade, Select-Swap);
* :mod:`repro.mapping` -- H-tree embedding onto 2D grids and the
  swap-vs-teleportation routing comparison;
* :mod:`repro.analysis` -- fidelity bounds, error-cone propagation, the
  asymmetric surface-code design rule and the Table 1/2 resource models;
* :mod:`repro.hardware` -- IBM-like device models, a greedy SWAP router and
  device-derived noise models for the Appendix-A study;
* :mod:`repro.experiments` -- one runner per table/figure of the evaluation.

Quickstart
----------
>>> from repro import ClassicalMemory, VirtualQRAM
>>> from repro.sim import GateNoiseModel, PauliChannel
>>> memory = ClassicalMemory.random(4, rng=7)
>>> qram = VirtualQRAM(memory=memory, qram_width=3)   # 8-cell QRAM, 2 pages
>>> qram.verify()                                      # noiseless correctness
True
>>> noise = GateNoiseModel(PauliChannel.phase_flip(1e-3))
>>> qram.run_query(noise, shots=256, rng=1).mean_fidelity > 0.8
True
"""

from repro.circuit import Instruction, QuantumCircuit
from repro.qram import (
    BucketBrigadeQRAM,
    ClassicalMemory,
    FanoutQRAM,
    QRAMArchitecture,
    SelectSwapQRAM,
    SequentialQueryCircuit,
    VirtualQRAM,
    VirtualQRAMOptions,
    make_architecture,
)
from repro.sim import (
    GateNoiseModel,
    PathState,
    PauliChannel,
    StatevectorSimulator,
    query_fidelities,
)

__version__ = "1.0.0"

__all__ = [
    "BucketBrigadeQRAM",
    "ClassicalMemory",
    "FanoutQRAM",
    "GateNoiseModel",
    "Instruction",
    "PathState",
    "PauliChannel",
    "QRAMArchitecture",
    "QuantumCircuit",
    "SelectSwapQRAM",
    "SequentialQueryCircuit",
    "StatevectorSimulator",
    "VirtualQRAM",
    "VirtualQRAMOptions",
    "__version__",
    "make_architecture",
    "query_fidelities",
]
