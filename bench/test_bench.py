"""Tests of the benchmark itself: generator determinism, the schedule
checker, the quantile estimator, the host-speed scaling, and agreement
between printed metric names and BENCHMARK.json.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
from check import chain_makespan, lower_bound, schedule_violations  # noqa: E402
from workloads import GENERATORS, generate  # noqa: E402

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_files(name, tmp_path):
    first, second = generate(name, 7), generate(name, 7)
    assert first == second
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    paths_a, table_a = first.write(a)
    paths_b, table_b = second.write(b)
    for pa, pb in zip(paths_a, paths_b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()
    if table_a is not None:
        assert Path(table_a).read_bytes() == Path(table_b).read_bytes()
    assert generate(name, 8).files != first.files


def test_recorded_seeds_still_generate_the_recorded_inputs():
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    for name, seeds in expected.items():
        for seed, record in seeds.items():
            if "inputs_sha256" in record:
                assert run._inputs_digest(generate(name, int(seed))) == record["inputs_sha256"]


def test_checker_rejects_overlap_on_a_qubit():
    # Two unit-length ops on qubit 0, no precedence edge, both at time 0.
    durations, qubits = (1, 1), ((0,), (0, 1))
    problems = schedule_violations(durations, qubits, [], (0, 0), 1)
    assert any("overlap on qubit 0" in p for p in problems)
    assert schedule_violations(durations, qubits, [], (0, 1), 2) == []


def test_checker_rejects_broken_precedence_and_wrong_makespan():
    durations, qubits = (3, 2), ((0,), (1,))
    problems = schedule_violations(durations, qubits, [(0, 1)], (0, 2), 5)
    assert any(p.startswith("precedence 0->1") for p in problems)
    assert any("latest finish" in p for p in problems)


def test_oracles_on_the_worked_example():
    # h(q1), cx(q1, q2), x(q2), unit durations: the standard DAG gives 3.
    durations, qubits = (1, 1, 1), ((1,), (1, 2), (2,))
    assert chain_makespan(durations, qubits) == 3
    assert lower_bound(durations, qubits, [(0, 1)]) == 2


def test_incomplete_beta_matches_closed_forms():
    # Integer parameters: I_x(a, b) = P(Binomial(a + b - 1, x) >= a).
    assert run._betainc(2, 3, 0.5) == pytest.approx(11 / 16, rel=1e-12)
    # Arcsine law: I_x(1/2, 1/2) = (2 / pi) asin(sqrt(x)).
    assert run._betainc(0.5, 0.5, 0.25) == pytest.approx(1 / 3, rel=1e-12)
    assert run._betainc(1.5, 2.5, 0.0) == 0.0 and run._betainc(1.5, 2.5, 1.0) == 1.0


def test_harrell_davis_quantiles_against_reference_values():
    # Reference values from scipy.stats.mstats.hdquantiles.
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 0.5) == pytest.approx(4.0)
    assert run.quantile([7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0], 0.9) == pytest.approx(
        6.671612785877356, rel=1e-9
    )
    assert run.quantile([0.5, 0.1, 2.0], 0.5) == pytest.approx(0.7851851851851852, rel=1e-9)
    assert run.quantile([3.0, 1.0], 0.9) == pytest.approx(2.9312270145741657, rel=1e-9)
    assert run.quantile([2.5], 0.9) == 2.5


def test_nominal_span_scales_each_stretch_by_its_probes():
    # Full-size probes of 10 ms run at nominal speed, of 20 ms at half speed.
    probes = [(1.0, 0.01), (2.0, 0.02), (3.0, 0.02)]
    # [0, 1] x1, [1.01, 2] x1 (faster probe), [2.02, 3] x0.5, [3.02, 4] x0.5.
    full = speed.REFERENCE_LOOPS
    assert speed.nominal_span(0.0, 4.0, probes, loops=full) == pytest.approx(1.0 + 0.99 + 0.49 + 0.49)
    # A probe of a third of the kernel taking 10 ms: a third of nominal speed.
    assert speed.nominal_span(0.0, 1.0, [(0.5, 0.01)], loops=full // 3) == pytest.approx(0.99 / 3)
    # Probes outside the span only set its speed.
    assert speed.nominal_span(1.5, 2.5, probes, loops=full) == pytest.approx(0.5 + 0.48 * 0.5)
    # Time inside a fixed interval counts once, unscaled, probes inside included.
    fixed = [(2.5, 3.5)]
    assert speed.nominal_span(0.0, 4.0, probes, fixed, loops=full) == pytest.approx(
        1.0 + 0.99 + 0.48 * 0.5 + 1.0 + 0.5 * 0.5
    )
    with pytest.raises(ValueError):
        speed.nominal_span(0.0, 1.0, [])


def test_set_times_leaves_a_timed_out_search_unscaled():
    # Third-size probes of 20/3 ms: half speed all along.
    prober = speed.Prober()
    prober.probes = [(0.0, 0.02 / 3), (1.0, 0.02 / 3), (2.5, 0.02 / 3)]
    timed_out = SimpleNamespace(start=0.5, wall_s=1.5, optimal=False, bnb_start=0.75, bnb_s=1.25)
    run._set_times(timed_out, prober)
    assert timed_out.nominal_s == pytest.approx(0.25 * 0.5 + 1.25)
    assert timed_out.wall_s == pytest.approx(1.5 - 0.02 / 3)
    proved = SimpleNamespace(start=0.5, wall_s=1.5, optimal=True, bnb_start=0.75, bnb_s=1.25)
    run._set_times(proved, prober)
    assert proved.nominal_s == pytest.approx((1.5 - 0.02 / 3) * 0.5)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(GENERATORS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_ones_in_benchmark_json(trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "commute-dense",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    metric_lines = [line.split()[0] for line in done.stdout.splitlines()[1:-1]]
    metric_lines = [n for n in metric_lines if n not in ("failed", "spans")]
    assert metric_lines and set(metric_lines) <= set(run.END_TO_END) | set(run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "expected.json").write_bytes((BENCH_DIR / "expected.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heft-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
