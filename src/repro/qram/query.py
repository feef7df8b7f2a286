"""High-level query helpers and the architecture registry.

The experiment runners and benchmarks refer to architectures by the short
names used in the paper's figures ("virtual", "sqc_bb", "sqc_ss", "fanout",
"sqc"); :func:`make_architecture` resolves a name plus parameters into a
concrete builder.  :func:`run_query_experiment` bundles the common pattern
"build circuit, prepare uniform input, Monte-Carlo noise, report mean
fidelity" shared by Figures 9-12, and :class:`MultiBitQuery` extends single-bit
queries to the multi-bit data widths discussed in Sec. 8 by querying one bit
plane at a time.

Both helpers run their Monte-Carlo shot loops through
:class:`~repro.sweep.SweepRunner`: shots are split into deterministic
seed-keyed shards that can execute across worker processes, with merged
fidelities bit-identical for any worker count or shard size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Type

import numpy as np

from repro.qram.base import QRAMArchitecture
from repro.qram.bucket_brigade import BucketBrigadeQRAM
from repro.qram.fanout import FanoutQRAM
from repro.qram.memory import ClassicalMemory
from repro.qram.select_swap import SelectSwapQRAM
from repro.qram.sqc import SequentialQueryCircuit
from repro.qram.virtual_qram import VirtualQRAM, VirtualQRAMOptions
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


@dataclass(frozen=True)
class QueryExperimentResult:
    """Summary statistics of one Monte-Carlo query-fidelity experiment."""

    architecture: str
    m: int
    k: int
    shots: int
    mean_fidelity: float
    std_error: float

    def as_dict(self) -> dict:
        """Plain-dict form of the query record."""
        return {
            "architecture": self.architecture,
            "m": self.m,
            "k": self.k,
            "shots": self.shots,
            "mean_fidelity": self.mean_fidelity,
            "std_error": self.std_error,
        }


def _experiment_shard(spec: tuple, shard: ShotShard) -> np.ndarray:
    """Shard worker for :func:`run_query_experiment` (module-level: picklable)."""
    architecture, noise, amplitudes, reduced, engine = spec
    input_state = None if amplitudes is None else architecture.input_state(amplitudes)
    result = architecture.run_query(
        noise,
        shard.shots,
        input_state=input_state,
        reduced=reduced,
        rng=shard.seeds(),
        engine=engine,
    )
    return result.fidelities


def run_query_experiment(
    architecture: QRAMArchitecture,
    noise: NoiseModel | None,
    shots: int,
    *,
    amplitudes: Mapping[int, complex] | None = None,
    reduced: bool = True,
    engine: str | None = None,
    runner: SweepRunner | None = None,
    seed: int = 0,
    point_index: int = 0,
) -> QueryExperimentResult:
    """Run one noisy-query experiment and summarise it (Figures 9-12 pattern).

    ``engine`` selects the execution engine (see :mod:`repro.sim.engine`);
    ``None`` uses the session default.  With the default uniform input the
    architecture's memoized :meth:`~repro.qram.base.QRAMArchitecture.compiled_query`
    bundle is reused, so repeated sweep points skip circuit construction.

    The shot loop is decomposed into deterministic seed-keyed shards
    executed by ``runner`` (a serial :class:`~repro.sweep.SweepRunner` by
    default): per-shot streams derive from ``(seed, point_index,
    shot_index)``, so the summary is bit-identical for any worker count or
    shard size.
    """
    runner = SweepRunner(workers=1) if runner is None else runner
    spec = (architecture, noise, amplitudes, reduced, engine)
    result = runner.map_shards(
        _experiment_shard,
        [spec],
        shots=shots,
        seed=seed,
        point_offset=point_index,
    )[0]
    return QueryExperimentResult(
        architecture=architecture.name,
        m=architecture.m,
        k=architecture.k,
        shots=shots,
        mean_fidelity=result.mean_fidelity,
        std_error=result.std_error,
    )


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
    ) -> list[QueryExperimentResult]:
        """Noisy-query summary per bit plane, sharded across the runner.

        Each plane is one sweep point; its shot loop is split into
        deterministic seed-keyed shards (see :mod:`repro.sweep`), so the
        per-plane summaries are bit-identical for any worker count or shard
        size.  ``runner`` defaults to a serial :class:`~repro.sweep.SweepRunner`.
        """
        runner = SweepRunner(workers=1) if runner is None else runner
        spec = (self, noise, reduced)
        merged = runner.map_shards(
            _plane_shard,
            [spec] * self.memory.data_width,
            shots=shots,
            seed=seed,
        )
        summaries = []
        for plane, result in enumerate(merged):
            architecture = self.plane_architecture(plane)
            summaries.append(
                QueryExperimentResult(
                    architecture=architecture.name,
                    m=architecture.m,
                    k=architecture.k,
                    shots=shots,
                    mean_fidelity=result.mean_fidelity,
                    std_error=result.std_error,
                )
            )
        return summaries

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
