"""Audit benchmark: drives ``runner.run_experiment`` on synthetic workloads.

    python3 perfbench/run.py --workload ablation_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A run sets up its inputs several times (``setup_s`` is the median), then
repeats whole rounds within ``--seconds``.  A round is one live
``run_experiment`` call (``audit_s``) followed by the offline re-run of the
same config, the ``report`` path (``replay_s``).  Outputs are checked after
the timed region.  With ``--trace 1`` untraced and traced rounds alternate
and the per-layer metrics come from the traced ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in its own process, one after the
other, and prints a table before that line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ablation_sweep", "forest_ceiling", "remote_replay")


def import_program() -> None:
    """Import surveyaudit from this checkout's source tree, and nowhere else."""
    if not (SRC / "surveyaudit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import surveyaudit

    if SRC.resolve() not in Path(surveyaudit.__file__).resolve().parents:
        sys.exit(f"perfbench: surveyaudit imported from {surveyaudit.__file__}")


def run_subprocess(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload in a fresh process; its last output line, parsed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"workload {name} exited with {out.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_subprocess(name, seed, seconds, traced)
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:30s} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        import bench

        result = bench.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
