"""``qos compare`` as the benchmark's child process: ``qos.cli.main`` over the
given arguments, as ``python -m qos.cli`` runs it, with host-speed probes.

Usage: ``python3 bench/cli_child.py PROBES_JSON compare --csv ...``, with
``src`` on PYTHONPATH. A ``speed.Prober`` runs a short reference kernel in
this process every 0.2 s and records its start and time. Solves that
``solve_bnb`` does not prove optimal ran until their time limit whatever
the host's speed; their intervals are recorded too. Both go to
PROBES_JSON as ``{"loops": ..., "probes": [[t, k], ...], "fixed": [[t0,
t1], ...]}`` on ``time.perf_counter``'s clock, which the parent shares.
The exit status is the CLI's.
"""

import json
import sys
import time

from speed import PROBE_LOOPS, Prober


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    fixed: list[tuple[float, float]] = []
    prober = Prober()
    try:
        with prober:
            import qos.cli

            solve_bnb = qos.cli.solve_bnb

            def timed_solve_bnb(*args, **kwargs):
                t0 = time.perf_counter()
                result = solve_bnb(*args, **kwargs)
                if not result.optimal:
                    fixed.append((t0, time.perf_counter()))
                return result

            qos.cli.solve_bnb = timed_solve_bnb
            return qos.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"loops": PROBE_LOOPS, "probes": prober.probes, "fixed": fixed}, out)


if __name__ == "__main__":
    sys.exit(main())
