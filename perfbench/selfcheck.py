"""Self-check of the benchmark at tiny size, with no timing bounds.

    python3 perfbench/selfcheck.py

Shrinks every workload to about 20 individuals, records their outputs the
way record.py does, then makes one untraced and one traced run of each.
It fails unless every run is correct, each run reports exactly the metrics
BENCHMARK.json names for its pass, and every correctness check ran.
Finally it checks that the benchmark refuses to run, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark itself.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import record
import run

# gate checks each output kind must go through on every invocation
GATE = {
    "svg": {"exit_code", "svg_leaf_order"},
    "records": {"exit_code", "records_roundtrip"},
    "newick": {"exit_code", "stdout_bytes"},
    "enumerate": {"exit_code", "stdout_bytes", "outcome_count"},
}


def main():
    run.import_package()
    import workloads as wl

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = {name: wl.tiny(w) for name, w in wl.WORKLOADS.items()}
    context = {"workloads": record.record(workloads, wl.DEFAULT_SEED)}
    problems = []
    for name, w in workloads.items():
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            r, metrics = run.run_one(workloads, name, wl.DEFAULT_SEED, 0,
                                     trace, context)
            where = "%s, trace %d: " % (name, trace)
            names = {m["name"] for m in wanted}
            if set(metrics) != names:
                problems.append(where + "metrics missing %s, unlisted %s" % (
                    sorted(names - set(metrics)), sorted(set(metrics) - names)))
            if not r.correct:
                problems.append(where + "not correct: %s" % r.checks)
            ran = {c: s for c, s, _ in r.checks}
            if ran.get("recorded_sha256") != "pass":
                problems.append(where + "recorded sha256 check did not pass")
            if ran.get("input_order") != "pass":
                problems.append(where + "input-order check did not pass")
            if w.output in ("svg", "newick") and "scipy_oracle" not in ran:
                problems.append(where + "scipy oracle check did not run")
            if set(r.gate_applied) != GATE[w.output]:
                problems.append(where + "gate ran %s" % sorted(r.gate_applied))
    problems += refuses_without_package()
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def refuses_without_package():
    """The benchmark alone, without the package, must fail without a result."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "%s/run.py" % run.HERE.name, "--workload", "raw",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without the package: exit %d" % proc.returncode]
    return []


if __name__ == "__main__":
    sys.exit(main())
