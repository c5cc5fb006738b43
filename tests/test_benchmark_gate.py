"""The benchmark's output gate, in process: every invocation of
``perfbench/workloads.py`` at seed 0 must stay within the gate's allowance of
the reference values in ``perfbench/reference.json``.

This reads the benchmark's files and changes none of them; it shows a moved
reference value before a benchmark run would report it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from qma.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 0


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")
REFERENCE = json.loads((BENCH / "reference.json").read_text())

CASES = [(name, inv) for name, invs in workloads.WORKLOADS.items() for inv in invs]


@pytest.mark.parametrize("workload, inv", CASES, ids=[f"{w}-{i.label}" for w, i in CASES])
def test_workload_outputs_pass_the_benchmark_gate(tmp_path, capsys, workload, inv):
    out_dir = tmp_path / "out"
    config = tmp_path / f"{inv.label}.ini"
    config.write_text(inv.config_text(SEED, out_dir))
    status = main([inv.command, "--config", str(config)])
    capsys.readouterr()
    assert status in (0, 2)
    report, _ = gate.read_report(out_dir, inv.command)
    assert report["passed"] == (status == 0)
    gate.compare(gate.gated_values(report), REFERENCE[workload][str(SEED)][inv.label])
