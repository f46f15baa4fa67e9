"""Benchmark of the multidendro command line, end to end and per layer.

    python3 perfbench/run.py --workload raw --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere; it measures the package under ``src/`` next to this
directory, so two checkouts each measure their own code. Inputs are
written from ``--seed`` before any timing starts. For ``--seconds`` the
benchmark then starts one fresh single-threaded interpreter after another
(perfbench/worker.py); each imports ``multidendro.cli`` and calls
``cli.main`` once per input matrix. Every invocation goes through the
correctness gate, and a failed one is counted, never dropped.

``--trace 0`` reports the end-to-end metrics: CLI wall time and set-up time
(interpreter start to ``multidendro.cli`` imported), both at the reference
host speed described below, median peak RSS and stdout bytes, plus the
failure rate. ``--trace 1`` alternates untraced and traced invocations and
reports each layer's median self time and calls, the engines' work counts,
the tracing overhead, and the medians of the measured wall, set-up and
calibration times. ``--workload all`` runs both passes on every workload.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The host is shared and its interpreter throughput swings by up to 40% from
one second to the next, CPU time included: medians of measured wall time
moved by 30-40% (IQR/median) between 24-second runs of the same code. So
the benchmark pins itself and its workers to one CPU and times a fixed
calibration loop (``calibrate``) just before starting each worker and just
after it ends. ``wall_s`` is CALIBRATION_REF_S times the run's summed CLI
wall time over its summed calibration time: the time the calls would take
on a host that runs the loop in CALIBRATION_REF_S. ``setup_s`` is scaled
the same way. A change to the program moves the calls and not the loop,
so it shows in full. Pooling the whole run spreads less than a median of
per-invocation ratios (8% against 12% on ``raw``), because each ratio also
carries the noise of its own two calibrations. The loop runs in this
process, not in the worker, so it adds nothing to the worker's set-up time
or peak RSS.

Two workloads are left out on purpose. A deep single-linkage chain only
stresses depth at n >= 1100, where the engine raises RecursionError; at
n=200 it repeats the loop profile of ``raw``. An all-equal matrix is the
degenerate form of ``coarse``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONTEXT = HERE / "context.json"

WORKER_TIMEOUT_S = 120.0
# calibration loop time (calibrate below) that wall_s and setup_s are scaled
# to; about its median on a 2-vCPU Xeon host under Python 3.11
CALIBRATION_REF_S = 0.4

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "output_bytes": "bytes"}
MEASURED = (("measured.wall_s", "wall"), ("measured.setup_s", "setup"),
            ("measured.calibration_s", "calibration"))


def layer_metric_units():
    """Every per-layer metric name and its unit, in report order."""
    import tracing

    units = {}
    for layer in tracing.LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
    for name in ("iterations", "merges", "largest_group", "pairs_rebuilt",
                 "pairs_updated", "trace_records", "outcomes"):
        units["agglomerate." + name] = "count"
    units["agglomerate.update_ratio"] = "ratio"
    units["tracing_overhead_s"] = "s"
    for name, _ in MEASURED:
        units[name] = "s"
    return units


def load_context():
    with open(CONTEXT) as f:
        return json.load(f)


def recorded(context, workload, seed):
    """The recorded outputs when this run repeats the recorded one."""
    entry = context["workloads"].get(workload.name)
    if entry and entry["seed"] == seed and entry["generator"] == workload.generator():
        return entry
    return None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_cpu():
    """Run this process and the workers it starts on one CPU, so that the
    calibration loop and the CLI calls meet the same share of the host."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate(rounds=600_000, cells=80_000):
    """Seconds for a fixed mix of the work the CLI does: a small dict of
    tuple keys updated in a tight loop (the merge loop), then a large one of
    Decimal values built and read in scattered order (parsing and state
    set-up of big matrices, whose speed follows memory more than the
    interpreter). About 0.4 s on a 2-vCPU Xeon host."""
    t0 = time.perf_counter()
    table = {}
    for i in range(rounds):
        key = (i % 211, i % 97)
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.items(), key=lambda kv: kv[1])
    values = {(i, i % 97): Decimal(i) / 7 for i in range(cells)}
    keys = list(values)
    above = 0
    for j in range(cells):
        above += values[keys[j * 7919 % cells]] > 5  # 7919 is prime to cells
    return time.perf_counter() - t0


def invoke(workload, inputs, work, tag, traced):
    """Run one invocation in a fresh interpreter; returns its raw figures."""
    calls = [{"argv": ["--input", str(path)] + list(workload.cli_args),
              "stdout": str(work / ("%s-%d.out" % (tag, k))),
              "stderr": str(work / ("%s-%d.err" % (tag, k)))}
             for k, path in enumerate(inputs)]
    spec = {"src": str(SRC), "calls": calls,
            "spans": str(work / ("%s-spans.npz" % tag)) if traced else None,
            "result": str(work / ("%s-result.json" % tag))}
    spec_path = work / ("%s-spec.json" % tag)
    spec_path.write_text(json.dumps(spec))
    before = calibrate()
    with open(work / ("%s-worker.err" % tag), "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(spec_path)], env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": "worker exceeded %gs" % WORKER_TIMEOUT_S}
    after = calibrate()
    if code != 0:
        tail = (work / ("%s-worker.err" % tag)).read_text()[-500:]
        return {"error": "worker exit %d: %s" % (code, tail)}
    result = json.loads(Path(spec["result"]).read_text())
    stdouts = [Path(c["stdout"]).read_text() for c in calls]
    return {
        "setup": result["ready"] - started,
        "wall": sum(c["wall"] for c in result["calls"]),
        "calibration": (before + after) / 2,
        "rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "bytes": sum(len(s.encode()) for s in stdouts),
        "exit_codes": [c["exit_code"] for c in result["calls"]],
        "stdouts": stdouts,
        "stderrs": [Path(c["stderr"]).read_text() for c in calls],
        "spans": spec["spans"],
    }


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workloads, name, seed, context):
        self.workloads = workloads
        self.workload = workloads[name]
        self.seed = seed
        self.context = context
        self.checks = []  # (name, status, detail)
        self.attempted = 0
        self.failed = 0
        self.gate_applied = {}
        self.stdout_sha256 = None
        self.plain = []

    def check(self, name, status, detail):
        self.checks.append((name, status, detail))

    @property
    def correct(self):
        return self.failed == 0 and all(s != "fail" for _, s, _ in self.checks)

    def prepare(self, work):
        """Write the inputs, run the reference and the untimed checks."""
        import checks
        import workloads as wl

        w = self.workload
        self.inputs = []
        for k, text in enumerate(wl.input_texts(self.seed, w)):
            path = work / ("input-%d.txt" % k)
            path.write_text(text)
            self.inputs.append(path)
        self.ref = checks.reference(w, [p.read_text() for p in self.inputs])

        entry = recorded(self.context, w, self.seed)
        if entry is None:
            self.check("recorded_sha256", "skipped",
                       "no record for seed %d at this size" % self.seed)
        else:
            same = (self.ref.tree_sha256 == entry["tree_sha256"]
                    and self.ref.exit_codes == entry["exit_codes"])
            self.check("recorded_sha256", "pass" if same else "fail",
                       "reference tree sha256 %s, exit codes %s"
                       % (self.ref.tree_sha256[:16], self.ref.exit_codes))
        self.recorded_stdout = entry and entry["stdout_sha256"]

        oracle = checks.scipy_oracle(w, self.inputs, self.ref)
        if oracle is not None:
            self.check("scipy_oracle", *oracle)

        ties = self.workloads["ties"]
        if w is ties:
            unpermuted = self.ref.trees[0]
        else:
            ties_ref = checks.reference(ties, wl.input_texts(self.seed, ties))
            unpermuted = ties_ref.trees[0]
        self.check("input_order", *checks.input_order(ties, self.seed, unpermuted))

    def sample(self, work, traced):
        """One gated invocation; None when it produced no figures."""
        import checks

        self.attempted += 1
        tag = "s%d" % self.attempted
        got = invoke(self.workload, self.inputs, work, tag, traced)
        if "error" in got:
            self.failed += 1
            self.check("invocation", "fail", got["error"])
            return None
        applied, problem = checks.gate(self.workload, self.ref, got["exit_codes"],
                                       got["stdouts"], got["stderrs"])
        for name in applied:
            self.gate_applied[name] = self.gate_applied.get(name, 0) + 1
        if problem is not None:
            self.failed += 1
            self.check("invocation", "fail", problem)
        self.stdout_sha256 = checks.sha256("".join(got["stdouts"]))
        for k in range(len(self.inputs)):
            for suffix in (".out", ".err"):
                (work / ("%s-%d%s" % (tag, k, suffix))).unlink()
        return got

    def measure(self, work, seconds, trace):
        """Invocations for ``seconds``; returns {metric: (value, unit, n)}."""
        plain, traced = [], []
        deadline = time.monotonic() + seconds
        while True:
            want_trace = trace and len(traced) < len(plain)
            got = self.sample(work, want_trace)
            if got is not None:
                (traced if want_trace else plain).append(got)
            have_all = plain and (traced or not trace)
            if time.monotonic() >= deadline and (have_all or self.failed):
                break
        self.plain = plain
        if trace:
            return self.layer_metrics(plain, traced)
        return self.e2e_metrics(plain)

    def e2e_metrics(self, plain):
        if not plain:
            return {}
        out = {}
        calibration = sum(g["calibration"] for g in plain)
        for name, key in (("wall_s", "wall"), ("setup_s", "setup")):
            out[name] = (CALIBRATION_REF_S * sum(g[key] for g in plain) / calibration,
                         E2E_UNITS[name], len(plain))
        for name, key in (("peak_rss_mb", "rss_mb"), ("output_bytes", "bytes")):
            out[name] = (statistics.median(g[key] for g in plain), E2E_UNITS[name],
                         len(plain))
        return out

    def layer_metrics(self, plain, traced):
        import checks
        import tracing

        units = layer_metric_units()
        out = {}
        if traced:
            per_sample = [tracing.self_times(g["spans"]) for g in traced]
            for layer in tracing.LAYERS:
                out[layer + ".self_s"] = (
                    statistics.median(s[layer][0] for s in per_sample), "s",
                    len(per_sample))
                out[layer + ".calls"] = (per_sample[0][layer][1], "count", 1)
        for name, value in checks.counts(self.ref).items():
            out[name] = (value, units[name], 1)
        if plain and traced:
            overhead = (statistics.median(g["wall"] for g in traced)
                        - statistics.median(g["wall"] for g in plain))
            out["tracing_overhead_s"] = (overhead, "s", len(plain) + len(traced))
        out.update(measured(plain))
        return out


def measured(plain):
    """Medians of the measured, unscaled times of untraced invocations."""
    if not plain:
        return {}
    return {name: (statistics.median(g[key] for g in plain), "s", len(plain))
            for name, key in MEASURED}


def run_one(workloads, name, seed, seconds, trace, context):
    """Prepare, measure and report one workload; returns (run, metrics)."""
    run = Run(workloads, name, seed, context)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run.prepare(work)
        metrics = run.measure(work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(run, metrics, trace)
    return run, metrics


def report(run, metrics, trace):
    w = run.workload
    print("== %s (seed %d, n=%d x %d, %s), %s pass"
          % (w.name, run.seed, w.n, w.batch, " ".join(w.cli_args),
             "traced" if trace else "untraced"))
    for name, status, detail in run.checks:
        print("check %-18s %-7s %s" % (name, status, detail))
    gate = ", ".join("%s %d/%d" % (k, v, run.attempted)
                     for k, v in run.gate_applied.items())
    print("check %-18s %-7s %s" % ("gate", "pass" if run.failed == 0 else "fail",
                                    gate or "no invocation finished"))
    if run.stdout_sha256:
        same = ("" if run.recorded_stdout is None else
                " (recorded: %s)" % ("same" if run.stdout_sha256 == run.recorded_stdout
                                     else "changed"))
        print("output sha256 %s%s" % (run.stdout_sha256, same))
    for name, (value, unit, n) in metrics.items():
        print("metric %-45s %14.6g %-6s n=%d" % (name, value, unit, n))
    if not trace:
        for name, (value, unit, n) in measured(run.plain).items():
            print("info   %-45s %14.6g %-6s n=%d" % (name, value, unit, n))
    print("metric %-45s %14.6g %-6s n=%d" % (
        "failure_rate", run.failed / run.attempted, "ratio", run.attempted))


def result_line(runs):
    metrics = {}
    for run, run_metrics in runs:
        prefix = "" if len(runs) == 1 else run.workload.name + "."
        for name, (value, unit, _) in run_metrics.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(run.correct for run, _ in runs),
        "attempted": sum(run.attempted for run, _ in runs),
        "failed": sum(run.failed for run, _ in runs),
        "metrics": metrics,
    })


def import_package():
    """Put this checkout's src first on the path and import from it."""
    if not (SRC / "multidendro" / "cli.py").is_file():
        raise SystemExit("no multidendro package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import multidendro

    if not multidendro.__file__.startswith(str(SRC)):
        raise SystemExit("multidendro imported from %s" % multidendro.__file__)


def main(argv=None):
    import_package()
    pin_to_one_cpu()
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    context = load_context()
    if args.workload == "all":
        runs = [run_one(wl.WORKLOADS, name, args.seed, args.seconds, trace, context)
                for name in wl.WORKLOADS for trace in (0, 1)]
    else:
        runs = [run_one(wl.WORKLOADS, args.workload, args.seed, args.seconds,
                        args.trace, context)]
    print(result_line(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
