"""Timed phase of the benchmark, in a process of its own.

    python3 bench/worker.py PLAN.json

PLAN.json (written by run.py) lists the CLI commands of one round. The
worker repeats whole rounds through `lie_estimate.cli.main`, serially, and
starts another only while the time measured so far plus a mean round
still fits in the run's seconds. With tracing on, one untraced round comes
first, as the reference that the traced rounds' outputs must match byte
for byte. The results go to the plan's "results" path: per-round and
per-command wall times, exit codes, the process's peak resident memory
and, when traced, the per-layer span totals of each traced round.

Set-up runs in the parent process, so it cannot set the peak memory
measured here.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _call(cli_main, argv, stdout_path):
    """Run one CLI command as its own process would; return its exit code."""
    sink = open(stdout_path, "w") if stdout_path else open(os.devnull, "w")
    with sink, contextlib.redirect_stdout(sink):
        try:
            return cli_main(argv)
        except SystemExit as exc:     # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:             # an uncaught error exits 1 with a trace
            traceback.print_exc()
            return 1


def _round(cli_main, commands, round_dir):
    os.makedirs(round_dir, exist_ok=True)
    put = lambda s: s.replace("{round}", round_dir) if s else s
    cmds = []
    start = time.perf_counter()
    for cmd in commands:
        t0 = time.perf_counter()
        rc = _call(cli_main, [put(a) for a in cmd["argv"]], put(cmd["stdout"]))
        cmds.append({"rc": rc, "seconds": time.perf_counter() - t0})
    return {"dir": round_dir, "seconds": time.perf_counter() - start,
            "commands": cmds}


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from lie_estimate import cli

    commands, seconds = plan["commands"], plan["seconds"]
    next_dir = lambda: os.path.join(plan["out"], f"round{len(rounds)}")
    rounds, timed, traces = [], [], []
    tracer = None
    start = time.perf_counter()
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        rounds.append(_round(cli.main, commands, next_dir()))
    while not timed or (time.perf_counter() - start
                        + sum(timed) / len(timed) <= seconds):
        if tracer is None:
            rounds.append(_round(cli.main, commands, next_dir()))
        else:
            tracer.reset()
            with tracer.patched(tracing.TIMED_LAYERS):
                rounds.append(_round(cli.main, commands, next_dir()))
            traces.append({"layers": tracer.layer_totals(
                tracing.TIMED_LAYERS), "tree": tracer.dump()})
        timed.append(rounds[-1]["seconds"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(plan["results"], "w") as fh:
        json.dump({"rounds": rounds, "traces": traces,
                   "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
