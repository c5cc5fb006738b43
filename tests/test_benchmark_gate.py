"""The benchmark's output gate, in process: every invocation of
``perfbench/workloads.py`` at seed 0, and each of the seven ``short-checks``
invocations at seeds 1-4 as well, must stay within the gate's allowance of
the reference values in ``perfbench/reference.json``.  And the benchmark's
traced child: each module's ``brentq`` is counted as its own root solver,
and every span ``perfbench/run.py`` requires of a workload fires on it.

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
# run.py imports gate and workloads by name, as the benchmark runs it
sys.path.insert(0, str(BENCH))
try:
    run = _load("run")
finally:
    sys.path.remove(str(BENCH))
REFERENCE = json.loads((BENCH / "reference.json").read_text())

CASES = [(name, inv) for name, invs in workloads.WORKLOADS.items() for inv in invs]
# the short runs (verify, ma, fundamental) are also gated at seeds 1-4
GATED = ([(name, inv, SEED) for name, inv in CASES]
         + [(name, inv, seed) for seed in range(1, 5)
            for name, inv in CASES if name == "short-checks"])


@pytest.mark.parametrize("workload, inv, seed", GATED, ids=[
    f"{w}-{i.label}" + (f"-seed{s}" if s != SEED else "") for w, i, s in GATED])
def test_workload_outputs_pass_the_benchmark_gate(tmp_path, capsys, workload, inv, seed):
    out_dir = tmp_path / "out"
    config = tmp_path / f"{inv.label}.ini"
    config.write_text(inv.config_text(seed, out_dir))
    status = main([inv.command, "--config", str(config)])
    capsys.readouterr()
    assert status in (0, 2)
    report, _ = gate.read_report(out_dir, inv.command)
    assert report["passed"] == (status == 0)
    gate.compare(gate.gated_values(report), REFERENCE[workload][str(seed)][inv.label])


# (invocation, the root solves it makes in each module): potential.root
# counts the sublevel rules' solves, quadrature.root the StarShapedRule's
ROOT_SOLVES = [("jensen-n2-quartic", {"potential.root": 3, "quadrature.root": 1}),
               ("boundary-n2", {"potential.root": 0, "quadrature.root": 1})]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """label -> (exit status, span dump) of that invocation at seed 0 run
    through the benchmark's child in trace mode, each run once per module."""
    dumps = {}

    def get(label):
        if label not in dumps:
            inv = next(inv for _, inv in CASES if inv.label == label)
            work = tmp_path_factory.mktemp(label)
            config = work / f"{label}.ini"
            config.write_text(inv.config_text(SEED, work / "out"))
            spans = work / "spans.json"
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(work / "marks.json"),
                 f"trace:{spans}", inv.command, "--config", str(config)],
                cwd=work, env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode in (0, 2), proc.stderr
            dumps[label] = proc.returncode, json.loads(spans.read_text())
        return dumps[label]

    return get


@pytest.mark.parametrize("label, solves", ROOT_SOLVES,
                         ids=[label for label, _ in ROOT_SOLVES])
def test_traced_child_counts_root_solves_per_module(traced, label, solves):
    status, dump = traced(label)
    assert status == 0
    counters = dump["counters"]
    for module, count in solves.items():
        # one array brentq call per rule
        assert counters.get(f"{module}.solves", 0) == count
        assert (counters.get(f"{module}.fevals", 0) > 0) == (count > 0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_workload_fires_every_required_span(traced, workload):
    # the spans and counters of all invocations merged as run.traced_pass
    # merges them; a required span that never fires makes the benchmark's
    # traced run incorrect
    spans, counters = {}, {}
    for inv in workloads.WORKLOADS[workload]:
        _, dump = traced(inv.label)
        for row in dump.get("spans", []):
            agg = spans.setdefault(row["name"], {"calls": 0, "pts": 0, "self_s": 0.0})
            if row["parent"] != row["name"]:
                agg["calls"] += row["calls"]
                agg["pts"] += row["pts"]
            agg["self_s"] += row["self_s"]
        for key, value in dump.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    assert run.missing_spans(workload, spans, counters) == []
