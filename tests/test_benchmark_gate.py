"""The benchmark's output gate, in process: every invocation of
``perfbench/workloads.py`` at seed 0 must stay within the gate's allowance of
the reference values in ``perfbench/reference.json``.  And the benchmark's
traced child: each module's ``brentq`` is counted as its own root solver.

This reads the benchmark's files and changes none of them; it shows a moved
reference value or a lost span before a benchmark run would report it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qma.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
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


# (invocation, the root solver it must fire, the one it must not)
ROOT_SOLVES = [("jensen-n2-quartic", "potential.root", "quadrature.root"),
               ("boundary-n2", "quadrature.root", "potential.root")]


@pytest.mark.parametrize("label, fires, silent", ROOT_SOLVES,
                         ids=[label for label, _, _ in ROOT_SOLVES])
def test_traced_child_counts_root_solves_per_module(tmp_path, label, fires, silent):
    inv = next(inv for _, inv in CASES if inv.label == label)
    config = tmp_path / f"{label}.ini"
    config.write_text(inv.config_text(SEED, tmp_path / "out"))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(tmp_path / "marks.json"),
         f"trace:{spans}", inv.command, "--config", str(config)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(spans.read_text())["counters"]
    assert counters.get(f"{fires}.solves", 0) > 0
    assert counters.get(f"{fires}.fevals", 0) > 0
    assert counters.get(f"{silent}.solves", 0) == 0
    if fires == "quadrature.root":
        # the one StarShapedRule of the run solves all of its rays at once
        assert counters[f"{fires}.solves"] == 1
