"""Golden fidelities of the Monte-Carlo figures (Figs. 9-12).

Each figure's records are a pure function of ``(grid, shots, seed)`` under
the ``ShotSeeds`` contract: a point's shot streams are keyed on its grid
position.  The values below pin a small grid of every figure at
``shots=64, seed=7`` bit for bit (``float.hex``), so any change to how a
figure builds its circuits, attaches its noise or orders its points shows
up here as an exact mismatch rather than a statistical drift.
"""

from repro.experiments import run_fig9, run_fig10, run_fig11, run_fig12
from repro.experiments.fig12 import HardwareConfiguration

SHOTS = 64
SEED = 7


def _fidelities(records):
    return [record["fidelity"].hex() for record in records]


def test_fig9_golden():
    records = run_fig9((1, 2), shots=SHOTS, seed=SEED)
    assert [(r["m"], r["architecture"], r["error"]) for r in records] == [
        (m, arch, err) for m in (1, 2) for arch in ("ours", "bb", "ss") for err in "ZX"
    ]
    assert {r["epsilon"] for r in records} == {1e-3}
    assert _fidelities(records) == [
        "0x1.f7ffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.f7ffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.f400000000000p-1",
        "0x1.f100000000000p-1",
        "0x1.e600000000000p-1",
        "0x1.f400000000000p-1",
        "0x1.0000000000000p+0",
        "0x1.fa00000000000p-1",
    ]


def test_fig10_golden():
    records = run_fig10((1, 2), (1.0, 10.0), shots=SHOTS, seed=SEED)
    assert [r["epsilon"].hex() for r in records[:2]] == [
        "0x1.0624dd2f1a9fcp-10",
        "0x1.a36e2eb1c432dp-14",
    ]
    assert _fidelities(records) == [
        "0x1.f7ffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.f7ffffffffffep-1",
        "0x1.fbffffffffffep-1",
        "0x1.f400000000000p-1",
        "0x1.f800000000000p-1",
        "0x1.f500000000000p-1",
        "0x1.fc00000000000p-1",
    ]


def test_fig11_golden():
    records = run_fig11((1, 2), (0, 1), (1.0, 10.0), shots=SHOTS, seed=SEED)
    assert _fidelities(records) == [
        "0x1.f7ffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.f7ffffffffffep-1",
        "0x1.fbffffffffffep-1",
        "0x1.0000000000000p+0",
        "0x1.0000000000000p+0",
        "0x1.f800000000000p-1",
        "0x1.0000000000000p+0",
        "0x1.e600000000000p-1",
        "0x1.0000000000000p+0",
        "0x1.e800000000000p-1",
        "0x1.0000000000000p+0",
        "0x1.ddfffffffffffp-1",
        "0x1.fffffffffffffp-1",
        "0x1.e13ffffffffffp-1",
        "0x1.f0dffffffffffp-1",
    ]


def test_fig12_golden():
    configurations = (
        HardwareConfiguration(m=1, k=0, device_name="ibm_perth"),
        HardwareConfiguration(m=2, k=0, device_name="ibmq_guadalupe"),
    )
    records = run_fig12(configurations, (1.0, 100.0), shots=SHOTS, seed=SEED)
    assert [r["extra_swaps"] for r in records] == [9, 9, 71, 71]
    assert _fidelities(records) == [
        "0x1.67ffffffffffep-1",
        "0x1.ffffffffffffep-1",
        "0x1.8c00000000000p-2",
        "0x1.f800000000000p-1",
    ]
