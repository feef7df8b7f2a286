"""End-to-end scenario execution: compilation, determinism, physics, CLI.

The acceptance properties of the scenario subsystem:

* compiled mapped scenarios actually materialise communication (extra SWAPs
  or link operations, deeper schedules);
* results are bit-identical across worker counts and shard sizes;
* at equal noise, mapped scenarios lose strictly more fidelity than their
  unmapped counterpart -- routing overhead is simulated, not just counted;
* the CLI lists and runs scenarios and exports CSV/JSON/Markdown.
"""

import json

import numpy as np
import pytest

from repro.experiments.__main__ import main
from repro.mapping import HTreeEmbedding, htree_device
from repro.scenarios import (
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    run_scenario,
    scenario_report,
)

SEED = 2023
SHOTS = 64


@pytest.fixture(scope="module")
def ablation_records():
    """One quick sweep per mapping-ablation scenario (shared across tests)."""
    return {
        name: run_scenario(name, shots=SHOTS, seed=SEED, workers=1)
        for name in ("ideal-m3", "htree-swap-m3", "htree-teleport-m3")
    }


class TestCompilation:
    def test_unmapped_scenario_compiles_clean(self):
        compiled = compile_scenario(get_scenario("ideal-m3"), SEED)
        assert compiled.extra_swaps == 0
        assert compiled.link_operations == 0
        assert compiled.executed_gates == compiled.logical_gates

    def test_swap_mapping_materialises_swaps_and_depth(self):
        compiled = compile_scenario(get_scenario("htree-swap-m3"), SEED)
        assert compiled.extra_swaps > 0
        assert compiled.executed_gates > compiled.logical_gates
        assert compiled.executed_depth > compiled.logical_depth
        assert compiled.circuit.count_tagged("routing") == compiled.extra_swaps

    def test_teleport_mapping_charges_links_not_gates(self):
        compiled = compile_scenario(get_scenario("htree-teleport-m3"), SEED)
        assert compiled.link_operations > 0
        assert compiled.extra_swaps == 0
        assert compiled.executed_gates == compiled.logical_gates
        assert compiled.executed_depth == compiled.logical_depth

    def test_device_mapping_routes_onto_backend(self):
        compiled = compile_scenario(get_scenario("perth-m1"), SEED)
        assert compiled.device.name == "ibm_perth-like"
        assert compiled.circuit.num_qubits == 7
        assert compiled.extra_swaps > 0

    def test_htree_device_preserves_arm_geometry(self):
        """Cluster-to-cluster hop counts equal the embedding's arm lengths."""
        embedding = HTreeEmbedding(tree_depth=3)
        compiled = compile_scenario(get_scenario("ideal-m3"), SEED)
        layout = htree_device(embedding, compiled.circuit)
        graph = layout.device.to_networkx()
        import networkx as nx

        positions = embedding.logical_positions(compiled.circuit)
        for (parent, child), path in embedding.edge_paths.items():
            parents = [q for q, c in positions.items() if c == path[0]]
            children = [q for q, c in positions.items() if c == path[-1]]
            if not parents or not children:
                continue
            hops = nx.shortest_path_length(graph, parents[0], children[0])
            assert hops == len(path) - 1

    def test_compile_is_memoised(self):
        spec = get_scenario("ideal-m3")
        assert compile_scenario(spec, SEED) is compile_scenario(spec, SEED)


class TestDeterminism:
    def test_workers_and_shard_size_do_not_change_records(self):
        serial = run_scenario(
            "htree-teleport-m3", shots=SHOTS, seed=SEED, workers=1
        )
        sharded = run_scenario(
            "htree-teleport-m3",
            shots=SHOTS,
            seed=SEED,
            workers=4,
            shard_size=8,
        )
        assert serial == sharded

    def test_engines_agree_bit_for_bit(self):
        # A saved legacy ``--engine`` name reproduces the tape engine's
        # records exactly; only the engine label differs.
        tape = run_scenario(
            "ideal-m3", shots=32, seed=SEED, workers=1, engine="feynman-tape"
        )
        legacy = run_scenario(
            "ideal-m3", shots=32, seed=SEED, workers=1, engine="feynman-interp"
        )
        assert len(tape) == len(legacy)
        for a, b in zip(tape, legacy):
            assert b["engine"] == "feynman-interp"
            assert {**dict(b), "engine": a["engine"]} == dict(a)


class TestPhysics:
    def test_mapped_scenarios_strictly_below_unmapped(self, ablation_records):
        """Routing overhead is simulated: mapped fidelity < ideal at eps_r=1."""
        by_factor = {
            name: {r["error_reduction_factor"]: r["fidelity"] for r in records}
            for name, records in ablation_records.items()
        }
        for factor in (1.0, 10.0):
            ideal = by_factor["ideal-m3"][factor]
            assert by_factor["htree-swap-m3"][factor] < ideal
            assert by_factor["htree-teleport-m3"][factor] < ideal

    def test_fidelity_increases_with_error_reduction(self, ablation_records):
        for records in ablation_records.values():
            fidelities = [r["fidelity"] for r in records]
            assert fidelities == sorted(fidelities)

    def test_idle_ablation_lowers_fidelity(self):
        plain = run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1)
        idle = run_scenario("ideal-m3-idle", shots=SHOTS, seed=SEED, workers=1)
        assert idle[0]["idle_error"] > 0
        assert idle[0]["fidelity"] < plain[0]["fidelity"]

    def test_records_carry_the_full_configuration(self, ablation_records):
        record = ablation_records["htree-swap-m3"][0]
        for key in (
            "scenario",
            "architecture",
            "mapping",
            "routing",
            "device",
            "num_qubits",
            "extra_swaps",
            "executed_depth",
            "error_reduction_factor",
            "fidelity",
            "std_error",
        ):
            assert key in record
        assert record["routing"] == "swap"

    def test_ad_hoc_spec_runs_without_registration(self):
        spec = ScenarioSpec(
            name="adhoc-bb",
            description="bucket-brigade sanity",
            architecture="bucket-brigade",
            qram_width=2,
            error_reduction_factors=(10.0,),
        )
        records = run_scenario(spec, shots=16, seed=SEED, workers=1)
        assert len(records) == 1
        assert 0.0 <= records[0]["fidelity"] <= 1.0


class TestReportAndCli:
    def test_report_mentions_configuration(self, ablation_records):
        report = scenario_report(
            "htree-swap-m3", ablation_records["htree-swap-m3"]
        )
        assert "htree-swap-m3" in report
        assert "extra_swaps" in report
        assert "eps_r" in report

    def test_cli_list_shows_all_scenarios(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("ideal-m3", "htree-swap-m3", "perth-m1"):
            assert name in out
        assert len([line for line in out.splitlines() if line.strip()]) >= 6

    def test_cli_requires_a_name(self, capsys):
        assert main(["scenario"]) == 2
        assert "scenario name" in capsys.readouterr().err

    def test_cli_rejects_unknown_scenario(self, capsys):
        assert main(["scenario", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_cli_rejects_names_on_other_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig9", "ideal-m3"])

    def test_cli_runs_and_exports(self, tmp_path, capsys):
        assert (
            main(
                [
                    "scenario",
                    "ideal-m3",
                    "--shots",
                    "16",
                    "--workers",
                    "1",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Scenario 'ideal-m3'" in out
        for suffix in (".csv", ".json", ".md"):
            assert (tmp_path / f"scenario_ideal-m3{suffix}").exists()
        payload = json.loads(
            (tmp_path / "scenario_ideal-m3.json").read_text()
        )
        assert [record["error_reduction_factor"] for record in payload] == [
            1.0,
            10.0,
            100.0,
        ]

    def test_cli_workers_flag_reproduces_serial_artefacts(self, tmp_path):
        for workers, out in (("1", "serial"), ("4", "sharded")):
            assert (
                main(
                    [
                        "scenario",
                        "htree-swap-m3",
                        "--shots",
                        "32",
                        "--workers",
                        workers,
                        "--out",
                        str(tmp_path / out),
                    ]
                )
                == 0
            )
        serial = (tmp_path / "serial" / "scenario_htree-swap-m3.json").read_bytes()
        sharded = (tmp_path / "sharded" / "scenario_htree-swap-m3.json").read_bytes()
        assert serial == sharded


def test_seeded_runs_are_reproducible():
    first = run_scenario("perth-m1", shots=24, seed=7, workers=1)
    second = run_scenario("perth-m1", shots=24, seed=7, workers=1)
    assert first == second
    different = run_scenario("perth-m1", shots=24, seed=8, workers=1)
    assert any(
        a["fidelity"] != b["fidelity"] for a, b in zip(first, different)
    )


def test_fidelities_are_probabilities():
    records = run_scenario("guadalupe-m2", shots=16, seed=SEED, workers=1)
    for record in records:
        assert 0.0 <= record["fidelity"] <= 1.0 + 1e-9
        assert np.isfinite(record["std_error"])
