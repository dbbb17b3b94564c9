"""Record the makespans every benchmark run is held to, in expected.json.

    python3 bench/record_expected.py

For heft-10k and commute-dense it records, for seeds 0..RECORDED_SEEDS-1,
the digest of the generated inputs and each circuit's standard-DAG and heft
makespans. bnb-search relabels fixed circuits, so its makespans are the
same for every seed; they are recorded once, under the key "*", together
with the optimum of each circuit that branch and bound proves well inside a
longer budget than the workload's. Re-record only when a generator changes:
a program change that moves a recorded makespan is what the file catches.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from check import EXPECTED_PATH
from workloads import generate

#: Seeds 0..RECORDED_SEEDS-1 of heft-10k and commute-dense are recorded;
#: run.py holds those seeds to their recorded makespans.
RECORDED_SEEDS = 20
#: Budget for proving bnb-search optima, well above the workload's own.
RECORD_TIME_LIMIT = 30.0
#: An optimum is recorded only when proved within this time, so that a
#: host running twice as slow still proves the same circuits and a
#: re-record neither adds nor drops optimum checks.
PROVE_WITHIN_S = RECORD_TIME_LIMIT / 2


def _record(name: str, seed: int, work: Path) -> dict:
    from pipeline import NoTracer, run_circuit
    from qos import DurationTable, heft

    workload = generate(name, seed)
    paths, table_path = workload.write(work)
    table = DurationTable.from_json(Path(table_path).read_text()) if table_path else None
    circuits = {}
    for path in paths:
        if workload.method == "heft":
            r = run_circuit(path, table, "heft", None, NoTracer())
            circuits[r.name] = {"std": r.std_makespan, "heft": r.ext_makespan}
        else:
            r = run_circuit(path, table, "bnb", RECORD_TIME_LIMIT, NoTracer(), keep=True)
            circuits[r.name] = {"std": r.std_makespan, "heft": heft(r.graph).makespan}
            if r.optimal and r.bnb_s <= PROVE_WITHIN_S:
                circuits[r.name]["opt"] = r.ext_makespan
            print(f"{name} {r.name}: proved={r.optimal} in {r.bnb_s:.3f} s, {r.nodes} nodes")
        print(f"{name} seed {seed} {r.name}: {circuits[r.name]}", flush=True)
    return {"inputs_sha256": run._inputs_digest(workload), "circuits": circuits}


def main() -> int:
    run._import_qos()
    run.OUT_DIR.mkdir(exist_ok=True)
    expected: dict = {"bnb-search": {}, "commute-dense": {}, "heft-10k": {}}
    with tempfile.TemporaryDirectory(prefix="record-", dir=run.OUT_DIR) as tmp:
        record = _record("bnb-search", 0, Path(tmp))
        expected["bnb-search"]["*"] = {"circuits": record["circuits"]}
        for name in ("commute-dense", "heft-10k"):
            for seed in range(RECORDED_SEEDS):
                expected[name][str(seed)] = _record(name, seed, Path(tmp))
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
