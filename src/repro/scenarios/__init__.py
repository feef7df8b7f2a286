"""Named, sweepable end-to-end simulation scenarios.

The figure experiments each exercise one slice of the stack -- Figure 8 maps
without noise, Figure 12 adds device noise without the H-tree geometry.  A
*scenario* composes every layer into one declarative spec:

    architecture -> circuit -> embedding/routing -> device noise (+ idle)
        -> sharded Monte-Carlo sweep

Specs live in :mod:`~repro.scenarios.spec` (with a name registry), compile
in :mod:`~repro.scenarios.compile` and execute through the deterministic
sweep runner in :mod:`~repro.scenarios.run`.  Importing this package
registers the built-in scenarios of :mod:`~repro.scenarios.builtin`;
``python -m repro.experiments scenario --list`` enumerates them.
"""

from repro.scenarios.builtin import BUILTIN_SCENARIOS
from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.record import RECORD_SCHEMA_VERSION, ScenarioRecord
from repro.scenarios.run import (
    resolve_run,
    run_scenario,
    scenario_report,
    sweep_points,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    iter_scenarios,
    register_scenario,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "CompiledScenario",
    "RECORD_SCHEMA_VERSION",
    "ScenarioRecord",
    "ScenarioSpec",
    "available_scenarios",
    "compile_scenario",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "resolve_run",
    "run_scenario",
    "scenario_report",
    "sweep_points",
]
