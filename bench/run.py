"""Benchmark of the qos pipeline: compile time, schedule quality and proof
rate on seeded workloads, with per-layer timings from a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload heft-10k --seed 1 --seconds 15 --trace 0

The run generates the workload's input files from the seed, measures
``import qos`` in fresh interpreters, runs the in-process pipeline over the
files round robin until ``--seconds`` of pipeline time have been spent,
checks every schedule, and times ``qos compare --csv`` children over the
same files, one before the loop and the rest after it, and checks their
rows. Times are reported at a nominal host speed, measured by a
reference kernel timed around the set-up children, around each
in-process sample and every 0.2 s while it runs (``speed.Prober``), and
every 0.2 s inside each CLI child (``cli_child.py``). It prints a readable
report and, as its last line, a JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``). The traced run also writes its spans to
``bench/.out/``. The program is imported from ``src/`` of the checkout;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from check import chain_makespan, load_expected, lower_bound, schedule_violations
from speed import REFERENCE_S, Prober, nominal_span, reference_kernel_s
from workloads import GENERATORS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

#: Fresh ``import qos`` interpreters per set-up batch; one batch runs
#: before the measured loop and one after the CLI, so that neither counts
#: toward the loop's time and both ends of the run are sampled.
SETUP_BATCH = 8
CLI_TIMEOUT_S = 60.0
#: At least two qos compare children run, and more until they have taken
#: CLI_BUDGET_S in total, at most CLI_MAX_RUNS; cli_s is the fastest. The
#: first runs before the measured loop and the rest after it, so that
#: they fall in different stretches of the host's speed.
CLI_BUDGET_S = 10.0
CLI_MAX_RUNS = 3

# name -> unit, in report order. BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "circuit_s.p50": "s",
    "circuit_s.p90": "s",
    "ops_per_s": "1/s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "makespan_ratio": "ratio",
}
PER_LAYER = {
    "setup.numpy_s": "s",
    "circuit.parse_s": "s",
    "circuit.durations_s": "s",
    "depgraph.standard_s": "s",
    "depgraph.extended_s": "s",
    "depgraph.disjunctive_s": "s",
    "depgraph.edges": "count",
    "depgraph.pairs": "count",
    "schedulers.asap_s": "s",
    "schedulers.heft_s": "s",
    "exact.bnb_s": "s",
    "exact.nodes": "count",
    "exact.nodes_per_s": "1/s",
    "exact.proved_share": "ratio",
    "exact.beat_heft_share": "ratio",
    "exact.overrun_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_pct": "%",
}
# Span name -> per-layer metric holding its mean self time per circuit.
SPAN_METRICS = {
    "circuit.parse": "circuit.parse_s",
    "circuit.durations": "circuit.durations_s",
    "depgraph.standard": "depgraph.standard_s",
    "depgraph.extended": "depgraph.extended_s",
    "depgraph.disjunctive": "depgraph.disjunctive_s",
    "schedulers.asap": "schedulers.asap_s",
    "schedulers.heft": "schedulers.heft_s",
    "exact.bnb": "exact.bnb_s",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_qos():
    """Import the checkout's own ``qos`` package, or exit with status 2."""
    if not (SRC / "qos" / "__init__.py").is_file():
        print(f"bench: no qos package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qos

    if Path(qos.__file__).resolve().parent != SRC / "qos":
        print(f"bench: imported qos from {qos.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


# --- set-up -------------------------------------------------------------------

class SetupTimer:
    """Fresh-interpreter set-up samples: ``import qos`` timed from inside
    the child (raw in ``walls``, at nominal speed in ``imports``), and
    numpy's cumulative share from ``-X importtime``, in seconds. Samples
    are taken in a batch at each end of the run, so that one slow stretch
    of the machine does not set the median. Each import is taken to
    nominal speed by the faster of the full kernel's times just before and
    just after its child."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.numpy: list[float] = []

    def sample(self) -> None:
        env = _child_env()
        code = "import time; t = time.perf_counter(); import qos; print(time.perf_counter() - t)"
        for _ in range(SETUP_BATCH):
            before = reference_kernel_s()
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=60,
            )
            scale = REFERENCE_S / min(before, reference_kernel_s())
            self.walls.append(float(done.stdout))
            self.imports.append(float(done.stdout) * scale)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qos"], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        self.numpy.append(_importtime_cumulative(done.stderr, "numpy"))


def _importtime_cumulative(report: str, module: str) -> float:
    """Cumulative import time of a top-level module from an ``-X
    importtime`` report, in seconds; 0 when it was not imported."""
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


# --- the measured loop ----------------------------------------------------------

def measure_pipeline(workload, paths, table_path, seconds, traced, expected):
    """Run the circuits round robin, at least once each, until the time
    spent inside the pipeline adds up to ``seconds``; checks are not
    counted. The first sample of each circuit keeps its graphs and is
    checked in full; later samples are checked against it. With
    ``traced``, each turn runs the circuit once untraced and once traced,
    alternating which goes first."""
    from pipeline import NoTracer, Tracer, run_circuit
    from qos import DurationTable

    table = None
    if table_path is not None:
        table = DurationTable.from_json(Path(table_path).read_text(encoding="utf-8"))
    tracer = Tracer() if traced else None
    plain = NoTracer()
    # Untraced samples are probed while they run as well as around them;
    # traced ones only around them, so that no probe lands inside a span.
    prober = Prober()
    untraced, traced_runs = [], []
    reference: dict[str, dict] = {}
    problems: list[str] = []
    attempted = failed = turn = 0
    pipeline_s = 0.0
    with nullcontext() if traced else prober:
        while turn < len(paths) or pipeline_s < seconds:
            path = paths[turn % len(paths)]
            name = Path(path).stem
            modes = [plain, tracer] if traced else [plain]
            if traced and (turn + turn // len(paths)) % 2:
                modes.reverse()
            turn += 1
            for mode in modes:
                attempted += 1
                first = name not in reference
                prober.probe()
                t0 = time.perf_counter()
                try:
                    run = run_circuit(path, table, workload.method, workload.time_limit, mode, first)
                except Exception as exc:  # a failing circuit is counted, not fatal
                    failed += 1
                    problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
                    pipeline_s += time.perf_counter() - t0
                    continue
                prober.probe()
                _set_times(run, prober)
                pipeline_s += run.wall_s
                if first:
                    found, reference[name] = _check_first(run, workload, expected.get(name))
                else:
                    found = _check_repeat(run, reference[name])
                if found:
                    failed += 1
                    problems.extend(f"{name}: {p}" for p in found)
                (traced_runs if mode is tracer else untraced).append(run)
    return {
        "untraced": untraced,
        "traced": traced_runs,
        "tracer": tracer,
        "reference": reference,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


def _set_times(run, prober) -> None:
    """Take the probes' own time out of a circuit run's wall time and set
    its time at nominal host speed. A bnb solve that ran out of time took
    its wall-clock limit whatever the host's speed, so it is not scaled."""
    end = run.start + run.wall_s
    fixed = [(run.bnb_start, run.bnb_start + run.bnb_s)] if run.optimal is False else []
    run.nominal_s = nominal_span(run.start, end, prober.between(run.start, end), fixed)
    run.wall_s -= prober.probe_time(run.start, end)


def _check_first(run, workload, expected):
    """Full check of a circuit's first sample; returns the problems and the
    reference values later samples and the CLI row are held to."""
    from qos import heft

    g = run.graph
    durations, qubits = g.durations, g.qubits
    problems = [
        f"std schedule: {p}"
        for p in schedule_violations(durations, qubits, run.std_dag.edges, run.std_starts, run.std_makespan)
    ]
    problems += [
        f"ext schedule: {p}"
        for p in schedule_violations(durations, qubits, g.dag.edges, run.ext_starts, run.ext_makespan)
    ]
    oracle = chain_makespan(durations, qubits)
    if run.std_makespan != oracle:
        problems.append(f"std makespan {run.std_makespan}, chain schedule gives {oracle}")
    bound = lower_bound(durations, qubits, g.dag.edges)
    if run.ext_makespan < bound:
        problems.append(f"ext makespan {run.ext_makespan} below lower bound {bound}")
    ref = {
        "qubits": run.num_qubits,
        "gates": run.num_ops,
        "std": run.std_makespan,
        "lb": bound,
        "edges": len(g.dag.edges),
        "pairs": len(g.pairs),
    }
    if workload.method == "heft":
        ref["ext"] = run.ext_makespan
        ref["heft"] = run.ext_makespan
    else:
        ref["heft"] = heft(g).makespan
        if run.ext_makespan > ref["heft"]:
            problems.append(f"bnb makespan {run.ext_makespan} above its heft incumbent {ref['heft']}")
        if run.optimal:
            ref["opt"] = run.ext_makespan
    if expected is not None:
        for key in ("std", "heft"):
            if ref[key] != expected[key]:
                problems.append(f"{key} makespan {ref[key]}, expected {expected[key]}")
        if "opt" in expected:
            if run.ext_makespan < expected["opt"] or (run.optimal and run.ext_makespan != expected["opt"]):
                problems.append(
                    f"bnb makespan {run.ext_makespan} (proved={run.optimal}), "
                    f"expected optimum {expected['opt']}"
                )
            ref["opt"] = expected["opt"]
    ref["beat_heft"] = workload.method == "bnb" and run.ext_makespan < ref["heft"]
    # Drop the graphs; only the numbers are needed from here on.
    run.std_dag = run.graph = None
    run.std_starts = run.ext_starts = ()
    return problems, ref


def _check_repeat(run, ref) -> list[str]:
    problems = []
    if run.std_makespan != ref["std"]:
        problems.append(f"std makespan {run.std_makespan} differs from first sample {ref['std']}")
    problems += _ext_problems(run.ext_makespan, run.optimal, ref)
    return problems


def _ext_problems(ext: int, proved: bool | None, ref: dict) -> list[str]:
    """A heft result must repeat exactly. A bnb result lies between the
    optimum (when known) and the heft incumbent, and equals the optimum
    when proved."""
    if "ext" in ref:
        return [] if ext == ref["ext"] else [f"ext makespan {ext}, expected {ref['ext']}"]
    low = ref.get("opt", ref["lb"])
    if not low <= ext <= ref["heft"]:
        return [f"bnb makespan {ext} outside [{low}, {ref['heft']}]"]
    if proved and "opt" in ref and ext != ref["opt"]:
        return [f"bnb makespan {ext} proved, but the optimum is {ref['opt']}"]
    return []


# --- the qos compare child -------------------------------------------------------

def run_cli(workload, paths, table_path, work: Path):
    """One ``qos compare --csv`` child over all files, run by
    ``cli_child.py``. Returns its wall time less the probes' own time
    (``wall``), that time at nominal host speed (``nominal``), peak RSS in
    MB, exit code, stdout and stderr. A child still running after
    CLI_TIMEOUT_S is killed.

    A child runs for seconds, over which the host's speed changes, so
    brackets around it do not track that speed; probes inside it, every
    0.2 s, do (NOTES.md).

    The peak RSS is the child's VmHWM, read from /proc while it runs.
    Its ``os.wait4`` rusage is not used: Linux carries the resident size
    of the forked benchmark process into the child's ru_maxrss across
    exec, so it reads the larger of the two."""
    probes_path = work / "cli.probes.json"
    probes_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(probes_path),
           "compare", "--csv", "--method", workload.method]
    if table_path is not None:
        cmd += ["--durations", table_path]
    if workload.time_limit is not None:
        cmd += ["--time-limit", str(workload.time_limit)]
    cmd += paths
    out_path, err_path = work / "cli.out", work / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        deadline = t0 + CLI_TIMEOUT_S
        status_path = Path(f"/proc/{proc.pid}/status")
        peak_kb = 0
        while True:
            pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            peak_kb = max(peak_kb, _vm_hwm_kb(status_path))
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, _ = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(probes_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {"loops": 0, "probes": [], "fixed": []}
    probes = record["probes"]
    if probes:
        nominal = nominal_span(t0, t1, probes, record["fixed"], record["loops"])
    else:  # the child died before its first probe; its row check fails
        nominal = t1 - t0
    return {
        "wall": t1 - t0 - sum(k for _, k in probes),
        "nominal": nominal,
        "probes": len(probes),
        "rss_mb": peak_kb / 1024,
        "code": proc.returncode,
        "stdout": out_path.read_text(encoding="utf-8"),
        "stderr": err_path.read_text(encoding="utf-8"),
    }


def _vm_hwm_kb(status_path: Path) -> int:
    """A live process's peak resident set size in kB, from its /proc
    status; 0 once it has exited."""
    try:
        text = status_path.read_text(encoding="ascii")
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def check_cli(cli, paths, reference) -> dict[str, list[str]]:
    """Problems per file: each CSV row must match the in-process reference
    for its file. A failed child or a missing header fails every file."""
    general = []
    if cli["code"] != 0:
        general.append(f"qos compare exited {cli['code']}: {cli['stderr'].strip()[:200]}")
    lines = cli["stdout"].splitlines()
    if not lines or lines[0] != "circuit,qubits,gates,std_dag,ext_dag,delta_pct":
        general.append("qos compare printed no CSV header")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    found: dict[str, list[str]] = {}
    for path in paths:
        name = Path(path).stem
        ref, fields = reference.get(name), rows.get(name)
        problems = list(general)
        if ref is None:
            problems.append("no in-process result to compare with")
        elif fields is None or len(fields) != 6:
            problems.append("no CSV row")
        else:
            qubits, gates, std, ext = (int(f) for f in fields[1:5])
            if (qubits, gates, std) != (ref["qubits"], ref["gates"], ref["std"]):
                problems.append(f"CSV row {fields[1:4]} disagrees with the in-process run")
            problems += [f"CSV {p}" for p in _ext_problems(ext, None, ref)]
            delta = (Decimal((std - ext) * 100) / Decimal(std)).quantize(
                Decimal("0.01"), rounding=ROUND_HALF_UP
            )
            if fields[5] != str(delta):
                problems.append(f"CSV delta {fields[5]} for {std} -> {ext}, expected {delta}")
        if problems:
            found[name] = problems
    return found


# --- metrics ------------------------------------------------------------------

def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, section 6.4)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return front * h / a


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics with beta(p(n+1), (1-p)(n+1)) weights. Unlike the
    sample median it moves smoothly when samples of different circuits
    swap order, which keeps workloads that mix circuits of different
    costs steady from run to run."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _first_makespans(runs) -> dict[str, tuple[int, int]]:
    """(std, ext) of each circuit's first sample, so that the quality sums
    weigh every circuit once whatever its number of samples."""
    firsts: dict[str, tuple[int, int]] = {}
    for r in runs:
        firsts.setdefault(r.name, (r.std_makespan, r.ext_makespan))
    return firsts


def _circuit_times(runs, attr: str) -> dict[str, tuple[int, float]]:
    """(ops, fastest time over its samples) per circuit, reading the time
    from ``attr`` of each run. Noise only ever adds time, so a circuit's
    fastest sample is its steadiest figure."""
    walls: dict[str, list[float]] = {}
    ops: dict[str, int] = {}
    for r in runs:
        walls.setdefault(r.name, []).append(getattr(r, attr))
        ops[r.name] = r.num_ops
    return {name: (ops[name], min(w)) for name, w in walls.items()}


def _proved_share(solves) -> float:
    """Share of bnb solves proved optimal, each circuit weighted equally
    whatever its number of samples."""
    by_circuit: dict[str, list[bool]] = {}
    for r in solves:
        by_circuit.setdefault(r.name, []).append(bool(r.optimal))
    return statistics.mean(statistics.mean(v) for v in by_circuit.values())


def end_to_end(setup, measured, clis, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics, with times at nominal host speed, or as raw
    wall times with ``raw``."""
    runs = measured["untraced"]
    per_circuit = _circuit_times(runs, "wall_s" if raw else "nominal_s").values()
    times = [t for _, t in per_circuit]
    firsts = _first_makespans(runs).values()
    return {
        "setup_s": statistics.median(setup.walls if raw else setup.imports),
        "circuit_s.p50": quantile(times, 0.5),
        "circuit_s.p90": quantile(times, 0.9),
        "ops_per_s": sum(n for n, _ in per_circuit) / sum(times),
        "cli_s": min(c["wall" if raw else "nominal"] for c in clis),
        "peak_rss_mb": max(c["rss_mb"] for c in clis),
        "makespan_ratio": sum(e for _, e in firsts) / sum(s for s, _ in firsts),
    }


def per_layer(setup, measured, clis, workload) -> dict[str, float]:
    untraced, traced = measured["untraced"], measured["traced"]
    refs = list(measured["reference"].values())
    self_times = measured["tracer"].self_times()
    metrics = {"setup.numpy_s": statistics.median(setup.numpy)}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = self_times.get(span, 0.0) / len(traced)
    metrics["depgraph.edges"] = sum(r["edges"] for r in refs)
    metrics["depgraph.pairs"] = sum(r["pairs"] for r in refs)
    solves = untraced + traced if workload.method == "bnb" else []
    first_solves: dict[str, object] = {}
    for r in solves:
        first_solves.setdefault(r.name, r)
    bnb_time = sum(r.bnb_s for r in solves)
    overruns = [r.bnb_s - workload.time_limit for r in solves if not r.optimal]
    metrics["exact.nodes"] = sum(r.nodes for r in first_solves.values() if r.optimal)
    metrics["exact.nodes_per_s"] = sum(r.nodes for r in solves) / bnb_time if solves else 0.0
    metrics["exact.proved_share"] = _proved_share(solves) if solves else 0.0
    metrics["exact.beat_heft_share"] = (
        sum(r["beat_heft"] for r in refs) / len(refs) if solves else 0.0
    )
    metrics["exact.overrun_s"] = statistics.mean(overruns) if overruns else 0.0
    pipeline_time = sum(t for _, t in _circuit_times(untraced, "wall_s").values())
    metrics["cli.overhead_s"] = min(c["wall"] for c in clis) - pipeline_time
    metrics["trace.overhead_pct"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1.0
    ) * 100.0
    return {name: metrics[name] for name in PER_LAYER}


# --- entry point ------------------------------------------------------------------

def _inputs_digest(workload) -> str:
    digest = hashlib.sha256()
    for file_name, text in workload.files:
        digest.update(file_name.encode() + b"\0" + text.encode() + b"\0")
    digest.update((workload.durations or "").encode())
    return digest.hexdigest()


def _report(workload, seed, setup, measured, clis, e2e, raw_e2e, layers, failed, attempted):
    """Readable report: one line per metric, by its BENCHMARK.json name."""
    runs = measured["untraced"]
    ops = sum(ref["gates"] for ref in measured["reference"].values())
    counts: dict[str, int] = {}
    for r in runs:
        counts[r.name] = counts.get(r.name, 0) + 1
    samples = min(counts.values()), max(counts.values())
    limit = f", time limit {workload.time_limit} s" if workload.time_limit else ""
    print(f"workload {workload.name}, seed {seed}: {len(workload.files)} circuits, "
          f"{ops} ops in all, method {workload.method}{limit}")
    delta = (1.0 - e2e["makespan_ratio"]) * 100.0
    cli_times = ", ".join(f"{c['nominal']:.3f}" for c in clis)
    notes = {
        "setup_s": f"median of {len(setup.walls)} fresh interpreters",
        "circuit_s.p50": f"Harrell-Davis over {len(counts)} circuits, each its fastest of "
        f"{samples[0]}-{samples[1]} samples",
        "circuit_s.p90": f"the same; {len(runs)} samples in all",
        "ops_per_s": "ops over the sum of those times",
        "cli_s": f"fastest of {len(clis)} qos compare children ({cli_times}), "
        f"{min(c['probes'] for c in clis)}+ speed probes in each",
        "peak_rss_mb": "largest peak resident set (VmHWM) of those children",
        "makespan_ratio": f"sum ext / sum std; improvement (Delta) {delta:.2f} %",
    }
    for name in ("setup_s", "circuit_s.p50", "circuit_s.p90", "ops_per_s", "cli_s"):
        notes[name] += f"; at nominal host speed (raw {raw_e2e[name]:.6g})"
    solves = [r for r in runs if r.optimal is not None]
    if solves and layers is None:
        proved = sum(bool(r.optimal) for r in solves)
        notes["exact.proved_share"] = (
            f"{proved} of {len(solves)} solves proved optimal; circuits weighted equally"
        )
        layers = {"exact.proved_share": _proved_share(solves)}
    for name, value in (e2e | (layers or {})).items():
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  failed {failed} of {attempted} attempted (circuit runs and CLI rows)")
    for problem in measured["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_qos()
    workload = generate(args.workload, args.seed)
    recorded = load_expected().get(workload.name, {})
    record = recorded.get(str(args.seed), recorded.get("*", {"circuits": {}}))
    expected = record["circuits"]
    digest_problem = []
    if record.get("inputs_sha256", _inputs_digest(workload)) != _inputs_digest(workload):
        digest_problem = ["generated inputs differ from the recorded ones for this seed"]
        expected = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        work = Path(tmp)
        paths, table_path = workload.write(work)
        setup = SetupTimer()
        setup.sample()
        clis = [run_cli(workload, paths, table_path, work)]
        measured = measure_pipeline(
            workload, paths, table_path, args.seconds, bool(args.trace), expected
        )
        while len(clis) < 2 or (
            len(clis) < CLI_MAX_RUNS and sum(c["wall"] for c in clis) < CLI_BUDGET_S
        ):
            clis.append(run_cli(workload, paths, table_path, work))
        setup.sample()
    cli_problems = [check_cli(cli, paths, measured["reference"]) for cli in clis]
    measured["problems"] = digest_problem + measured["problems"] + [
        f"{name}: {p}" for found in cli_problems for name, msgs in found.items() for p in msgs
    ]
    attempted = measured["attempted"] + len(paths) * len(clis)
    failed = measured["failed"] + sum(map(len, cli_problems)) + len(digest_problem)
    if not measured["untraced"]:
        print("bench: every circuit failed", file=sys.stderr)
        return 1

    e2e = end_to_end(setup, measured, clis)
    layers = per_layer(setup, measured, clis, workload) if args.trace else None
    raw_e2e = end_to_end(setup, measured, clis, raw=True)
    _report(workload, args.seed, setup, measured, clis, e2e, raw_e2e, layers, failed, attempted)
    if args.trace:
        trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(json.dumps(measured["tracer"].to_json()) + "\n", encoding="utf-8")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    metrics, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
