"""High-level query helpers and the architecture registry.

Benchmarks and tests refer to architectures by short names ("virtual",
"sqc_bb", "sqc_ss", "fanout", "sqc"); :func:`make_architecture` resolves a
name plus parameters into a concrete builder.  :class:`MultiBitQuery`
extends single-bit queries to the multi-bit data widths discussed in Sec. 8
by querying one bit plane at a time.

The paper's Monte-Carlo figures (Figs. 9-12) do not run through this
module: they are grids of scenario points executed by
:func:`repro.scenarios.run.sweep_points`.  :meth:`MultiBitQuery.run_noisy_planes`
runs its shot loops through :class:`~repro.sweep.SweepRunner` too: shots
are split into deterministic seed-keyed shards that can execute across
worker processes, with merged fidelities bit-identical for any worker count
or shard size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Type

import numpy as np

from repro.qram.base import QRAMArchitecture
from repro.qram.bucket_brigade import BucketBrigadeQRAM
from repro.qram.fanout import FanoutQRAM
from repro.qram.memory import ClassicalMemory
from repro.qram.select_swap import SelectSwapQRAM
from repro.qram.sqc import SequentialQueryCircuit
from repro.qram.virtual_qram import VirtualQRAM, VirtualQRAMOptions
from repro.sim.feynman import QueryResult
from repro.sim.noise import NoiseModel
from repro.sweep import ShotShard, SweepRunner

#: Architectures by the short names used throughout the benchmarks.
ARCHITECTURES: dict[str, Type[QRAMArchitecture]] = {
    "virtual": VirtualQRAM,
    "sqc_bb": BucketBrigadeQRAM,
    "bb": BucketBrigadeQRAM,
    "sqc_ss": SelectSwapQRAM,
    "ss": SelectSwapQRAM,
    "fanout": FanoutQRAM,
    "sqc": SequentialQueryCircuit,
}


def make_architecture(
    name: str,
    memory: ClassicalMemory,
    qram_width: int | None = None,
    **kwargs,
) -> QRAMArchitecture:
    """Instantiate an architecture by its short name.

    ``qram_width`` defaults to the full address width (no paging) for the
    router-based architectures and is ignored for the SQC.
    """
    key = name.lower()
    if key not in ARCHITECTURES:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(set(ARCHITECTURES))}"
        )
    cls = ARCHITECTURES[key]
    if cls is SequentialQueryCircuit:
        return cls(memory=memory, qram_width=0, **kwargs)
    width = memory.address_width if qram_width is None else qram_width
    return cls(memory=memory, qram_width=width, **kwargs)


@lru_cache(maxsize=64)
def _cached_plane(
    memory: ClassicalMemory,
    qram_width: int,
    architecture: str,
    options: VirtualQRAMOptions | None,
    plane: int,
) -> QRAMArchitecture:
    """Process-local plane build cache: shards of a plane share one circuit."""
    kwargs: dict = {"bit_plane": plane}
    if architecture == "virtual" and options is not None:
        kwargs["options"] = options
    return make_architecture(architecture, memory, qram_width, **kwargs)


def _plane_shard(spec: tuple, shard: ShotShard) -> np.ndarray:
    """Shard worker for :meth:`MultiBitQuery.run_noisy_planes` (picklable)."""
    query, noise, reduced = spec
    architecture = _cached_plane(
        query.memory,
        query.qram_width,
        query.architecture,
        query.options,
        shard.point_index,
    )
    result = architecture.run_query(
        noise, shard.shots, reduced=reduced, rng=shard.seeds(), engine=query.engine
    )
    return result.fidelities


@dataclass
class MultiBitQuery:
    """Query a multi-bit memory one bit plane at a time (Sec. 8 extension).

    The virtual QRAM natively transfers one bit per query; memories with
    ``data_width > 1`` are served by repeating the query for each bit plane,
    which is the strategy the paper describes as compatible with its design.
    ``engine`` selects the execution engine used for the per-plane
    simulations (``None`` = session default, see :mod:`repro.sim.engine`).

    :meth:`run_noisy_planes` treats each bit plane as one sweep point of a
    :class:`~repro.sweep.SweepRunner` sweep, so the planes' Monte-Carlo shot
    loops shard across worker processes with deterministic seed-splitting.
    """

    memory: ClassicalMemory
    qram_width: int
    architecture: str = "virtual"
    options: VirtualQRAMOptions | None = None
    engine: str | None = None

    def plane_architecture(self, plane: int) -> QRAMArchitecture:
        """The architecture instance serving one bit plane."""
        kwargs: dict = {"bit_plane": plane}
        if self.architecture == "virtual" and self.options is not None:
            kwargs["options"] = self.options
        return make_architecture(
            self.architecture, self.memory, self.qram_width, **kwargs
        )

    def planes(self) -> list[QRAMArchitecture]:
        """One architecture instance per bit plane."""
        return [
            self.plane_architecture(plane)
            for plane in range(self.memory.data_width)
        ]

    def run_noisy_planes(
        self,
        noise: NoiseModel | None,
        shots: int,
        *,
        reduced: bool = True,
        runner: SweepRunner | None = None,
        seed: int = 0,
    ) -> list[QueryResult]:
        """Noisy-query shot fidelities per bit plane, sharded across the runner.

        Each plane is one sweep point (its index is the plane); its shot loop
        is split into deterministic seed-keyed shards (see
        :mod:`repro.sweep`), so the per-plane results are bit-identical for
        any worker count or shard size.  ``runner`` defaults to a serial
        :class:`~repro.sweep.SweepRunner`.
        """
        runner = SweepRunner(workers=1) if runner is None else runner
        return runner.map_shards(
            _plane_shard,
            [(self, noise, reduced)] * self.memory.data_width,
            shots=shots,
            seed=seed,
        )

    def classical_readout(self, address: int) -> int:
        """The value a noiseless multi-bit query returns for ``address``.

        Each plane's circuit is verified to produce the plane's bit; the bits
        are reassembled most-significant first.
        """
        value = 0
        for plane, architecture in enumerate(self.planes()):
            amplitudes = {address: 1.0 + 0.0j}
            output = architecture.simulate(
                architecture.input_state(amplitudes), engine=self.engine
            )
            bus_bit = int(output.bits[0, architecture.bus_qubit()])
            value = (value << 1) | bus_bit
        return value

    def total_resources(self) -> dict:
        """Aggregate resource counts across all bit planes."""
        reports = [arch.resource_report().as_dict() for arch in self.planes()]
        totals: dict = {key: 0 for key in reports[0]}
        for report in reports:
            for key, value in report.items():
                totals[key] += value
        return totals
