"""Record the default-seed outputs and the environment in context.json.

    python3 perfbench/record.py

Run it again only when a change is meant to alter the output bytes. For
each workload it keeps the generator parameters, the seed, the expected
exit codes, the sha256 of the reference tree (what the gate compares
newick and records output against) and of the CLI's stdout (shown so that
byte changes in records and SVG output are visible).
"""

import json
import os
import platform
import tempfile
from pathlib import Path

import run


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(workloads, seed):
    """Reference figures of each workload at ``seed``, checked once through
    the CLI in a fresh interpreter."""
    import checks
    import workloads as wl

    entries = {}
    for name, w in workloads.items():
        texts = wl.input_texts(seed, w)
        ref = checks.reference(w, texts)
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            work = Path(tmp)
            inputs = []
            for k, text in enumerate(texts):
                inputs.append(work / ("input-%d.txt" % k))
                inputs[-1].write_text(text)
            got = run.invoke(w, inputs, work, "record", traced=False)
        if "error" in got:
            raise SystemExit("%s: %s" % (name, got["error"]))
        _, problem = checks.gate(w, ref, got["exit_codes"], got["stdouts"],
                                 got["stderrs"])
        if problem is not None:
            raise SystemExit("%s: %s" % (name, problem))
        entries[name] = {
            "why": w.why,
            "seed": seed,
            "generator": w.generator(),
            "exit_codes": ref.exit_codes,
            "tree_sha256": ref.tree_sha256,
            "stdout_sha256": checks.sha256("".join(got["stdouts"])),
            "output_bytes": got["bytes"],
        }
    return entries


def main():
    run.import_package()
    import numpy
    import scipy
    import workloads as wl

    context = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "workloads": record(wl.WORKLOADS, wl.DEFAULT_SEED),
    }
    run.CONTEXT.write_text(json.dumps(context, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
