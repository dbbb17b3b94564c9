"""Byte-identity gate for ``qos compare``.

The files under ``tests/golden/`` hold ``qos compare --csv`` over the worked
example plus the seeded test corpus, for each method and disjunctive mode.
A change that keeps behaviour must reproduce them byte for byte. A change
that means to alter makespans rewrites them with
``PYTHONPATH=src:tests python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from helpers import fig2_circuit, make_corpus
from qos.circuit import circuit_to_json
from qos.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS = [(method, dmode) for method in ("heft", "bnb") for dmode in ("grouped", "redundant", "minimal")]


def write_corpus(directory: Path) -> list[str]:
    """fig2 plus ``make_corpus()`` as JSON files, in compare order."""
    named = [("fig2", fig2_circuit())]
    named += [(f"c{k:03d}", circuit) for k, circuit in enumerate(make_corpus())]
    paths = []
    for name, circuit in named:
        path = directory / f"{name}.json"
        path.write_text(circuit_to_json(circuit), encoding="utf-8")
        paths.append(str(path))
    return paths


def run_compare_csv(paths: list[str], method: str, dmode: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = ["compare", *paths, "--csv", "--method", method, "--dmode", dmode, "--time-limit", "60"]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_path(method: str, dmode: str) -> Path:
    return GOLDEN / f"compare_{method}_{dmode}.csv"


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("method,dmode", RUNS)
def test_compare_csv_matches_golden(corpus_paths, method, dmode):
    code, out, err = run_compare_csv(corpus_paths, method, dmode)
    assert (code, err) == (0, "")
    assert out == golden_path(method, dmode).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        paths = write_corpus(Path(directory))
        for method, dmode in RUNS:
            code, out, err = run_compare_csv(paths, method, dmode)
            if code or err:
                sys.exit(f"compare --method {method} --dmode {dmode} failed: {err}")
            golden_path(method, dmode).write_text(out, encoding="utf-8")
