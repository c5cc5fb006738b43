"""End-to-end and per-layer benchmark of ``qma`` runs.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each workload is a closed loop:
one client launches a fixed sequence of fresh ``qma`` processes (see
``workloads.py``), one at a time, and repeats the sequence for about
``--seconds`` (see ``timed_run``).  Every invocation's outputs go through
the output gate (``gate.py``).  The benchmark and its children run pinned
to one CPU, and the end-to-end times are scaled to a fixed speed of that CPU (see
``SpeedProbe``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced pass plus the tracing overhead.  With
``--workload all`` the workloads run in turn and the last line maps each
workload to its object.

Other modes, for maintaining the benchmark itself:

    --record-reference --seeds 0-19   record reference values for the gate
    --check-repeat                    run the traced pass twice and require
                                      every count to repeat exactly
"""

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import GateError, bound_use, compare, gated_values, read_report
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

# BLAS and OpenMP threads of every child; the same on every commit
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3             # passes per run, or set-up samples where passes are long
INVOCATION_TIMEOUT_S = 150

# speed probe: a fixed piece of work, timed on the children's CPU
CAL_ARRAY_BYTES = 1 << 20
CAL_SUMS = 100
CAL_INTERVAL_S = 0.25
# median CPU time of one probe chunk on the machine the benchmark was written
# on (2-vCPU VM, Python 3.11.7); times are scaled to that speed
CAL_REF_S = 0.005

QMA_MODULES = ("qma", "errors", "hamilton", "exterior", "fields", "calculus",
               "monge_ampere", "quadrature", "currents", "potential", "cli")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
GATE_METRICS = (("fail_ratio", "1"), ("bound_use_max", "1"))
# printed with the end-to-end metrics, to show the scaling: the wall time as
# measured and the median probe chunk
PROBE_METRICS = (("raw_wall_s", "s"), ("probe_chunk_s", "s"))

# (span, which of calls / pts / self_s it reports)
SPAN_METRICS = (
    ("cli.parse_config", ("self_s",)),
    ("cli.parse_field_expr", ("calls", "self_s")),
    ("cli.write_outputs", ("self_s",)),
    ("fields.value", ("calls", "self_s")),
    ("fields.values", ("calls", "pts", "self_s")),
    ("fields.gradients", ("calls", "pts", "self_s")),
    ("fields.hessians", ("calls", "pts", "self_s")),
    ("calculus.delta_matrices", ("calls", "pts", "self_s")),
    ("monge_ampere.ma_density", ("calls", "pts", "self_s")),
    ("monge_ampere.mixed_ma", ("calls", "pts", "self_s")),
    ("monge_ampere.moore_equivalence_residual", ("self_s",)),
    ("monge_ampere.psh_test", ("self_s",)),
    ("currents.wedge_top_density", ("calls", "pts", "self_s")),
    ("currents.sigma_mass", ("calls", "self_s")),
    ("potential.boundary_measure_density", ("calls", "pts", "self_s")),
    ("potential.surface_integral", ("calls", "self_s")),
    ("potential.sublevel_integral", ("calls", "self_s")),
    ("quadrature.sobol_sphere", ("calls", "self_s")),
    ("quadrature.gauss_legendre_panels", ("calls", "self_s")),
    ("exterior.positivity_test", ("calls", "self_s")),
    ("exterior.pullback", ("calls",)),
    ("hamilton.moore_det", ("calls", "self_s")),
)
ROOT_SPANS = ("potential.root", "quadrature.root")

# spans that must fire on the workload whose cost they dominate; a span
# that reads 0 there means a wrapper was not rebound where it is called
REQUIRED_SPANS = {
    "levelset-rays": ("fields.value", "fields.values", "fields.gradients",
                      "fields.hessians", "calculus.delta_matrices",
                      "monge_ampere.ma_density", "monge_ampere.mixed_ma",
                      "potential.boundary_measure_density",
                      "potential.surface_integral", "potential.sublevel_integral",
                      "potential.root", "quadrature.gauss_legendre_panels",
                      "quadrature.sobol_sphere"),
    "ball-kernels": ("calculus.delta_matrices", "monge_ampere.ma_density",
                     "monge_ampere.mixed_ma", "currents.wedge_top_density",
                     "currents.sigma_mass", "potential.boundary_measure_density",
                     "quadrature.root", "quadrature.integrand",
                     "quadrature.ball"),
    "short-checks": ("cli.parse_config", "cli.parse_field_expr",
                     "cli.write_outputs", "monge_ampere.moore_equivalence_residual",
                     "monge_ampere.psh_test", "exterior.positivity_test",
                     "exterior.pullback", "hamilton.moore_det"),
}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{mod}.import_s", "s") for mod in QMA_MODULES]
    for span, kinds in SPAN_METRICS:
        out += [(f"{span}.{kind}", "s" if kind == "self_s" else "count")
                for kind in kinds]
    for span in ROOT_SPANS:
        out += [(f"{span}.solves", "count"), (f"{span}.fevals", "count"),
                (f"{span}.self_s", "s")]
    out += [("potential.root.fevals_per_solve", "1"),
            ("quadrature.integrand.pts", "count"),
            ("quadrature.ball.eval_ratio", "1"),
            ("trace.overhead_s", "s")]
    return out + list(GATE_METRICS)


# ---------------------------------------------------------------------------
# launching children


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"     # the same str hashes, so the same set order
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


@functools.cache
def _cal_array():
    import numpy
    return numpy.linspace(0.0, 1.0, CAL_ARRAY_BYTES // 8)


def calibration_chunk():
    """CPU seconds this thread takes to sum a CAL_ARRAY_BYTES array
    CAL_SUMS times.  Of the chunks tried (a pure interpreter loop, small
    numpy calls like the density kernels', this), its time followed the
    slowdowns of all three workloads most closely."""
    array = _cal_array()
    start = time.thread_time()
    for _ in range(CAL_SUMS):
        array.sum()
    return time.thread_time() - start


class SpeedProbe:
    """Times calibration chunks before, during (every CAL_INTERVAL_S) and
    after one child, on the CPU the child runs on.  The host this was
    written on changes speed by up to 40% from second to second and from
    minute to minute.  Scaling a child's times by CAL_REF_S over the
    harmonic mean chunk (the mean speed over the child's life) reports
    them at one fixed speed."""

    def __init__(self):
        self.samples = [calibration_chunk()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(CAL_INTERVAL_S):
            self.samples.append(calibration_chunk())

    def finish(self):
        """Stop sampling; the harmonic mean chunk time over the child's life."""
        self._stop.set()
        self._thread.join()
        self.samples.append(calibration_chunk())
        return statistics.harmonic_mean(self.samples)


class Launch:
    """One finished child: status, timings from its marks, resource use.
    ``wall``, ``setup``, ``run`` and ``cpu`` are scaled to the reference
    speed (see SpeedProbe); ``raw_wall`` is the wall time as measured."""

    def __init__(self, status, wall, marks, usage, stderr_path, chunk_s):
        self.status = status
        self.chunk_s = chunk_s
        scale = CAL_REF_S / chunk_s
        self.raw_wall = wall
        self.wall = wall * scale
        self.setup = (scale * (marks["run_start"] - marks["launch"])
                      if "run_start" in marks else None)
        self.run = (scale * (marks["run_end"] - marks["run_start"])
                    if "run_end" in marks else None)
        self.cpu = scale * (usage.ru_utime + usage.ru_stime)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.qma_file = marks.get("qma_file")
        self.stderr_path = stderr_path


def launch(work, config, command, tag, mode, python_flags=()):
    """Start child.py for one invocation, wait for it, return a Launch."""
    marks_path = work / f"{tag}.marks.json"
    stderr_path = work / f"{tag}.err"
    cmd = [sys.executable, *python_flags, str(BENCH_DIR / "child.py"),
           str(marks_path), mode, command, "--config", str(config)]
    with open(work / f"{tag}.out", "wb") as out, open(stderr_path, "wb") as err:
        probe = SpeedProbe()
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        except BaseException:
            proc.kill()             # no child outlives an interrupted run
            proc.wait()
            raise
        finally:
            timer.cancel()
            chunk_s = probe.finish()
        wall = time.monotonic() - start
    try:
        marks = json.loads(marks_path.read_text())
    except (OSError, ValueError):
        marks = {}
    marks["launch"] = start
    result = Launch(proc.returncode, wall, marks, usage, stderr_path, chunk_s)
    expected = ROOT / "src" / "qma" / "cli.py"
    if result.qma_file is not None and Path(result.qma_file).resolve() != expected:
        raise SystemExit(f"perfbench: qma was imported from {result.qma_file}, "
                         f"not from {expected}")
    return result


# ---------------------------------------------------------------------------
# the closed loop


class Runner:
    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.invocations = WORKLOADS[workload]
        self.configs = {}
        for inv in self.invocations:
            path = work / f"{inv.label}.ini"
            path.write_text(inv.config_text(seed, f"out/{inv.label}"))
            self.configs[inv.label] = path
        self.reference = _load_json(REFERENCE).get(workload, {}).get(str(seed))
        self.digests = _load_json(STATE_DIR / "digests.json")
        self.source = source_digest()
        # an operation is one invocation of the sequence at this seed; its
        # repetitions (passes) re-measure it, so they do not add operations,
        # and it fails if any repetition fails
        self.attempted = set()      # labels of gated invocations
        self.failures = []          # every failure of any repetition
        self.failed = set()         # labels with at least one failure
        self.faults = []            # failures of the benchmark's own checks
        self.bound_uses = []

    def _digest_key(self, label):
        return f"{self.source}:{self.workload}:{self.seed}:{label}"

    def invoke(self, inv, tag, mode="timed", python_flags=()):
        out_dir = self.work / "out" / inv.label
        shutil.rmtree(out_dir, ignore_errors=True)
        result = launch(self.work, self.configs[inv.label], inv.command,
                        f"{inv.label}.{tag}", mode, python_flags)
        if mode != "setup":
            self._gate(inv, result, out_dir)
        return result

    def _gate(self, inv, result, out_dir):
        """Count a failure for any exit status but 0; a fault, which makes
        the run incorrect, for anything but qma's own tolerance verdict
        (exit 2) on outputs that pass every check."""
        self.attempted.add(inv.label)
        try:
            if result.status not in (0, 2):
                raise GateError(f"exit status {result.status}: "
                                + _tail(result.stderr_path))
            report, digest = read_report(out_dir, inv.command)
            if report.get("passed") != (result.status == 0):
                raise GateError(f"exit status {result.status} disagrees with "
                                f"passed = {report.get('passed')!r}")
            known = self.digests.setdefault(self._digest_key(inv.label), digest)
            if known != digest:
                raise GateError("CSV/JSON differ byte for byte from another "
                                "repetition at the same seed")
            if self.reference is not None:
                compare(gated_values(report), self.reference.get(inv.label, {}))
            self.bound_uses.append(bound_use(report))
        except GateError as exc:
            self.faults.append(f"{inv.label}: {exc}")
            self.failures.append(self.faults[-1])
            self.failed.add(inv.label)
            return
        if result.status != 0:
            self.failures.append(f"{inv.label}: exit status 2, qma reports a "
                                 "tolerance failure")
            self.failed.add(inv.label)

    def run_pass(self, tag, mode="timed", python_flags=()):
        """Run the workload's sequence once; per-invocation Launch list."""
        return [self.invoke(inv, tag, mode, python_flags)
                for inv in self.invocations]

    def warm_up(self):
        """Fill the bytecode and file caches; not measured, not gated."""
        inv = self.invocations[0]
        result = launch(self.work, self.configs[inv.label], inv.command,
                        f"{inv.label}.warmup", "setup")
        if result.status != 0 or result.setup is None:
            raise SystemExit("perfbench: qma does not start: "
                             + _tail(result.stderr_path))

    def save_digests(self):
        _write_json(STATE_DIR / "digests.json", self.digests)

    def gate_metrics(self):
        return {"fail_ratio": len(self.failed) / max(1, len(self.attempted)),
                "bound_use_max": max(self.bound_uses, default=0.0)}


def timed_run(runner, seconds):
    """Repeat the sequence until ``seconds`` have passed and MIN_PASSES
    passes are made, unless one more pass would end past 1.5 x ``seconds``;
    set-up probes then top up the set-up samples to MIN_PASSES.  Each
    time metric is every invocation's median over the passes, summed over
    the sequence, so a slow spell that hits one invocation of one pass
    does not move it."""
    start = time.monotonic()
    passes = []
    while True:
        passes.append(runner.run_pass(f"pass{len(passes)}"))
        elapsed = time.monotonic() - start
        if elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
        if elapsed * (len(passes) + 1) / len(passes) > 1.5 * seconds:
            break
    setups = list(passes)
    while len(setups) < MIN_PASSES:
        setups.append(runner.run_pass(f"probe{len(setups)}", "setup"))
    metrics = {
        "wall_s": _median_sum(passes, "wall"),
        "setup_s": _median_sum(setups, "setup"),
        "run_s": _median_sum(passes, "run"),
        "cpu_s": _median_sum(passes, "cpu"),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        "raw_wall_s": _median_sum(passes, "raw_wall"),
        "probe_chunk_s": statistics.median(r.chunk_s for p in passes for r in p),
    }
    return metrics, len(passes)


def traced_pass(runner, tag):
    """One traced pass: merged spans, counters and import times."""
    spans, counters, imports = {}, {}, dict.fromkeys(QMA_MODULES, 0.0)
    launches = []
    for inv in runner.invocations:
        spans_path = runner.work / f"{inv.label}.{tag}.spans.json"
        result = runner.invoke(inv, tag, f"trace:{spans_path}",
                               ("-X", "importtime"))
        launches.append(result)
        dump = _load_json(spans_path)       # written on exit 0 and exit 2
        for row in dump.get("spans", []):
            agg = spans.setdefault(row["name"], {"calls": 0, "pts": 0, "self_s": 0.0})
            if row["parent"] != row["name"]:      # re-entry is not a new call
                agg["calls"] += row["calls"]
                agg["pts"] += row["pts"]
            agg["self_s"] += row["self_s"]
        for key, value in dump.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for mod, secs in import_times(result.stderr_path.read_text()).items():
            imports[mod] += secs
    return spans, counters, imports, launches


def layer_metrics(spans, counters, imports):
    out = {f"{mod}.import_s": secs for mod, secs in imports.items()}
    empty = {"calls": 0, "pts": 0, "self_s": 0.0}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            out[f"{span}.{kind}"] = spans.get(span, empty)[kind]
    for span in ROOT_SPANS:
        out[f"{span}.solves"] = counters.get(f"{span}.solves", 0)
        out[f"{span}.fevals"] = counters.get(f"{span}.fevals", 0)
        out[f"{span}.self_s"] = spans.get(span, empty)["self_s"]
    solves = out["potential.root.solves"]
    out["potential.root.fevals_per_solve"] = (
        out["potential.root.fevals"] / solves if solves else 0.0)
    out["quadrature.integrand.pts"] = counters.get("quadrature.integrand.pts", 0)
    nodes = counters.get("quadrature.ball.nodes", 0)
    out["quadrature.ball.eval_ratio"] = (
        counters.get("quadrature.ball.passed", 0) / nodes if nodes else 0.0)
    return out


def missing_spans(workload, spans, counters):
    fired = {name for name, agg in spans.items() if agg["calls"]}
    fired |= {key.rsplit(".", 1)[0] for key, value in counters.items() if value}
    return [name for name in REQUIRED_SPANS[workload] if name not in fired]


def count_values(spans, counters):
    """Every count of a traced pass, for the repeat check."""
    out = {f"{name}.{kind}": agg[kind] for name, agg in spans.items()
           for kind in ("calls", "pts")}
    out.update(counters)
    return out


def import_times(stderr_text):
    """Seconds of ``-X importtime`` charged to each qma module: its
    cumulative time minus that of the qma modules imported beneath it, so
    each dependency is charged to the qma module whose import triggered it.
    """
    done = []                      # finished nodes: [depth, name, cum_us, children]
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2].rstrip()
        name = label.strip()
        depth = len(label) - len(name)
        children = []
        while done and done[-1][0] > depth:
            children.insert(0, done.pop())
        done.append([depth, name, int(parts[1]), children])

    def is_qma(name):
        return name == "qma" or name.startswith("qma.")

    def qma_below(node):
        return sum(c[2] if is_qma(c[1]) else qma_below(c) for c in node[3])

    out = {}
    todo = list(done)
    while todo:
        node = todo.pop()
        todo.extend(node[3])
        if is_qma(node[1]):
            mod = "qma" if node[1] == "qma" else node[1][len("qma."):]
            out[mod] = out.get(mod, 0.0) + (node[2] - qma_below(node)) / 1e6
    return out


# ---------------------------------------------------------------------------
# environment record


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qma").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def environment():
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "not a git checkout",
        "source_digest": source_digest(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "cpu": min(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# modes


def measure(args, work, workload):
    runner = Runner(workload, args.seed, work)
    runner.warm_up()
    if args.trace:
        untraced = runner.run_pass("untraced")
        spans, counters, imports, traced = traced_pass(runner, "traced")
        metrics = layer_metrics(spans, counters, imports)
        metrics["trace.overhead_s"] = _sum(traced, "wall") - _sum(untraced, "wall")
        missing = missing_spans(workload, spans, counters)
        if missing:
            runner.faults.append(f"spans that did not fire: {', '.join(missing)}")
        units = reported = per_layer_metrics()
        note = "one traced pass; counts and times summed over the invocations"
    else:
        metrics, passes = timed_run(runner, args.seconds)
        units = list(END_TO_END) + list(GATE_METRICS) + list(PROBE_METRICS)
        reported = END_TO_END
        note = (f"{passes} pass(es) of {len(runner.invocations)} invocation(s); "
                f"per-invocation medians over passes, set-up over >= "
                f"{MIN_PASSES} samples")
    metrics.update(runner.gate_metrics())
    runner.save_digests()

    print(f"workload {workload}  seed {args.seed}  ({note})")
    if runner.reference is None:
        print(f"  no reference values recorded for seed {args.seed}: "
              "the value-vs-reference check is skipped")
    for failure in sorted(set(runner.failures) | set(runner.faults)):
        print(f"  FAIL {failure}")
    for name, unit in units:
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    return {"correct": not runner.faults,
            "attempted": max(1, len(runner.attempted)),
            "failed": len(runner.failed),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in reported}}


def record_reference(args, work):
    recorded = {}
    for seed in args.seeds:
        runner = Runner(args.workload, seed, work)
        entry = {}
        for inv in runner.invocations:
            out_dir = work / "out" / inv.label
            result = launch(work, runner.configs[inv.label], inv.command,
                            f"{inv.label}.ref", "timed")
            report, _ = read_report(out_dir, inv.command)
            entry[inv.label] = {key: value for key, (value, _) in
                                gated_values(report).items()}
            print(f"seed {seed} {inv.label}: exit {result.status}")
        recorded[str(seed)] = entry
    reference = _load_json(REFERENCE)
    merged = {**reference.get(args.workload, {}), **recorded}
    reference[args.workload] = dict(sorted(merged.items(), key=lambda kv: int(kv[0])))
    _write_json(REFERENCE, reference)


def check_repeat(args, work):
    runner = Runner(args.workload, args.seed, work)
    runner.warm_up()
    first = count_values(*traced_pass(runner, "traced0")[:2])
    second = count_values(*traced_pass(runner, "traced1")[:2])
    moved = sorted(k for k in first.keys() | second.keys()
                   if first.get(k) != second.get(k))
    for key in sorted(first):
        print(f"  {key:<44} {first[key]}")
    print("counts repeat exactly" if not moved else f"counts moved: {moved}")
    return not moved and not runner.faults


# ---------------------------------------------------------------------------
# helpers


def _sum(launches, attr):
    values = [getattr(r, attr) for r in launches]
    return sum(v for v in values if v is not None)


def _median_sum(passes, attr):
    """Sum over the sequence of each invocation's median over ``passes``."""
    total = 0.0
    for launches in zip(*passes):
        values = [getattr(r, attr) for r in launches]
        values = [v for v in values if v is not None]
        if values:
            total += statistics.median(values)
    return total


def _terminate(signum, frame):
    """SIGTERM unwinds like an exception, so the running child is killed
    and reaped and the work directory removed."""
    raise SystemExit(128 + signum)


def _tail(path, lines=3):
    try:
        return " | ".join(path.read_text().strip().splitlines()[-lines:])
    except OSError:
        return ""


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}


def _write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seeds", type=_seed_list, default=[0])
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "all" and (args.record_reference or args.check_repeat):
        ap.error("--workload all only measures")

    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "qma" / "cli.py").is_file():
        print(f"perfbench: no qma sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    # the children inherit this, so the speed probe times their CPU
    os.sched_setaffinity(0, {env["cpu"]})
    work = STATE_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            record_reference(args, work)
            return 0
        if args.check_repeat:
            return 0 if check_repeat(args, work) else 1
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: measure(args, work, name) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
