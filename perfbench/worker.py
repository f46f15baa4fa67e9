"""One timed invocation in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

The parent sets PYTHONPATH to the checkout's ``src`` and notes the clock
just before starting this process, so the monotonic time at which
``multidendro.cli`` finishes importing gives the set-up time. Each CLI call
in the spec runs through ``cli.main`` with stdout and stderr sent to files,
the way a shell redirect would, and is timed from the call to the flushed
output. With a span path in the spec the layer calls are traced and the
spans are written there at the end.
"""

import time

import multidendro.cli as cli

READY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb():
    # ru_maxrss would carry the parent's peak over exec; the high-water mark
    # of this process's own address space does not
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    if not cli.__file__.startswith(spec["src"]):
        raise SystemExit("multidendro imported from %s, expected %s"
                         % (cli.__file__, spec["src"]))
    run = cli.main
    recorder = None
    if spec["spans"]:
        import tracing
        from multidendro import agglomerate

        recorder = tracing.Recorder()
        run = tracing.install(recorder, cli, agglomerate)
    calls = []
    for call in spec["calls"]:
        with open(call["stdout"], "w") as out, open(call["stderr"], "w") as err:
            sys.stdout, sys.stderr = out, err
            try:
                t0 = time.perf_counter()
                code = run(call["argv"])
                out.flush()
                wall = time.perf_counter() - t0
            finally:
                sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        calls.append({"wall": wall, "exit_code": code})
    if recorder is not None:
        recorder.save(spec["spans"])
    result = {"ready": READY, "calls": calls, "peak_rss_kb": peak_rss_kb()}
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
