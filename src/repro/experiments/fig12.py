"""Figure 12 / Appendix A: small virtual QRAMs under device-derived noise.

The four configurations of the paper's hardware study are routed onto the
matching device topology (``ibm_perth``-like for ``m = 1``,
``ibmq_guadalupe``-like for ``m = 2``), which forces extra SWAP gates because
of the sparse connectivity, and then simulated under the device noise model
scaled by an error-reduction factor ``eps_r``.  The observations to reproduce:

* at current error rates (``eps_r = 1``) the fidelity is poor;
* an order-of-magnitude improvement (``eps_r = 10``) already yields usable
  small-QRAM fidelities;
* at ``eps_r = 1000`` (error rates ~1e-5, e.g. via small-distance error
  correction) the query fidelity exceeds 0.98;
* larger configurations need more SWAPs and correspondingly better hardware.

Each configuration is a ``mapping="device"`` scenario spec with the router
resolved; every ``(configuration, eps_r)`` pair is one point of
:func:`repro.scenarios.run.sweep_points`, and the SWAP counts come from the
same compile (:func:`repro.scenarios.compile.compile_scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table, resolve_seed
from repro.hardware.devices import DEVICES
from repro.hardware.router import get_default_router

DEFAULT_REDUCTION_FACTORS: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_SHOTS = 200


@dataclass(frozen=True)
class HardwareConfiguration:
    """One (m, k, device) point of the Appendix-A study."""

    m: int
    k: int
    device_name: str

    @property
    def label(self) -> str:
        """Human-readable configuration label used in the report."""
        return f"m={self.m},k={self.k}"

    @property
    def device_label(self) -> str:
        """The backend name the records carry in their ``device`` field."""
        return DEVICES[self.device_name].name

    def scenario(self, router: str, reduction_factors: tuple[float, ...]):
        """This configuration as a device-routed virtual-QRAM scenario spec."""
        # Imported here: the scenario layer imports repro.experiments.common.
        from repro.scenarios.spec import ScenarioSpec

        return ScenarioSpec(
            name=f"fig12-{self.device_name}-m{self.m}-k{self.k}",
            description=f"Figure 12 {self.label} on {self.device_name}",
            qram_width=self.m,
            sqc_width=self.k,
            mapping="device",
            router=router,
            device=self.device_name,
            error_reduction_factors=reduction_factors,
        )


DEFAULT_CONFIGURATIONS: tuple[HardwareConfiguration, ...] = (
    HardwareConfiguration(m=1, k=0, device_name="ibm_perth"),
    HardwareConfiguration(m=1, k=1, device_name="ibm_perth"),
    HardwareConfiguration(m=2, k=0, device_name="ibmq_guadalupe"),
    HardwareConfiguration(m=2, k=1, device_name="ibmq_guadalupe"),
)


def run_fig12(
    configurations: tuple[HardwareConfiguration, ...] = DEFAULT_CONFIGURATIONS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records for every (configuration, eps_r) pair, plus SWAP counts.

    The router is the session default (:func:`get_default_router`, the CLI
    ``--router`` override), resolved here so pool workers route alike.
    """
    from repro.scenarios.compile import compile_scenario
    from repro.scenarios.run import sweep_points

    seed_value = resolve_seed(seed)
    router = get_default_router()
    grid = [
        (configuration, configuration.scenario(router, reduction_factors), factor)
        for configuration in configurations
        for factor in reduction_factors
    ]
    merged = sweep_points(
        [(spec, factor) for _, spec, factor in grid],
        shots=shots,
        seed=seed_value,
        workers=workers,
        shard_size=shard_size,
    )
    return [
        {
            "configuration": configuration.label,
            "m": configuration.m,
            "k": configuration.k,
            "device": configuration.device_label,
            "extra_swaps": compile_scenario(spec, seed_value).extra_swaps,
            "error_reduction_factor": factor,
            "shots": shots,
            "fidelity": result.mean_fidelity,
            "std_error": result.std_error,
        }
        for (configuration, spec, factor), result in zip(grid, merged)
    ]


def fig12_report(
    configurations: tuple[HardwareConfiguration, ...] = DEFAULT_CONFIGURATIONS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    records: list[dict[str, object]] | None = None,
) -> str:
    """Human-readable Figure 12 series (one column per configuration).

    Columns are keyed on the whole configuration, so two configurations
    sharing ``(m, k)`` on different devices keep their own SWAP counts and
    fidelities; their headers then also name the device.
    """
    if records is None:
        records = run_fig12(
            configurations, reduction_factors, shots=shots, seed=seed
        )
    by_point = {
        (r["m"], r["k"], r["device"], r["error_reduction_factor"]): r
        for r in records
    }

    def entry(configuration: HardwareConfiguration, factor: float) -> dict:
        key = (configuration.m, configuration.k, configuration.device_label)
        return by_point[key + (factor,)]

    labels = [configuration.label for configuration in configurations]
    headers = ["eps_r"]
    for configuration in configurations:
        label = configuration.label
        if labels.count(label) > 1:
            label += f",{configuration.device_name}"
        swaps = entry(configuration, reduction_factors[0])["extra_swaps"]
        headers.append(f"{label} (SWAP={swaps})")
    rows = [
        [factor] + [entry(c, factor)["fidelity"] for c in configurations]
        for factor in reduction_factors
    ]
    title = f"Figure 12 reproduction (device noise, shots={shots})"
    return title + "\n" + format_table(headers, rows)
