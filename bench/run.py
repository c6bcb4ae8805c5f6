"""Replay benchmark for lie_estimate: one command, every metric by name.

    python3 bench/run.py --workload kio-trials --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src and outputs go to ./.bench_out/<workload>-seed<n>-trace<t>/.

1. Set-up, in this process: `lie-estimate simulate --noisy` writes the
   workload's walk logs and truth CSVs. `setup_s` runs from this script's
   first statement to the end of set-up, so it includes the imports.
2. Timed phase, in a child process (bench/worker.py): whole rounds of
   `run` and `evaluate` commands through `lie_estimate.cli.main`, serially.
3. Checks, here again: every replayed trajectory and every `evaluate` is
   one operation, failed when its command exits non-zero or its output
   fails a check in bench/checks.py.

The last line of stdout is one JSON object: correct, attempted, failed
and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The exit code is 0 when a result was printed.
"""

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170.0   # the whole run must end within 180 s


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("kio-trials", "human-ekf", "long-log"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _quiet(fn):
    """cli.main with stdout discarded (simulate prints nothing useful)."""
    def call(argv):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return fn(argv)
    return call


def _check_trajectory(C, truth, times, traj, csv):
    est = C.load_trajectory(csv)
    problems = C.check_structure(est, times(traj.log))
    if not problems:
        for check in traj.checks:
            problems += check(truth(traj.truth), est)
    return problems


def _check_report(C, truth, cmd, put):
    with open(put(cmd.stdout)) as fh:
        report = json.load(fh)
    est = C.load_trajectory(put(cmd.subject.csv))
    problems = C.check_report(report, truth(cmd.subject.truth), est)
    problems += C.check_bounds(report, cmd.bounds)
    return report, problems


def judge(commands, results, checks):
    """Operations of every round: [(id, known_fault, problems)], and the
    first round's evaluate reports on reference walks."""
    truth = functools.cache(checks.load_trajectory)
    times = functools.cache(checks.log_timestamps)
    ops, reports = [], []
    for k, rnd in enumerate(results["rounds"]):
        put = lambda s: s.replace("{round}", rnd["dir"])
        for cmd, res in zip(commands, rnd["commands"]):
            failed = [f"exit code {res['rc']}"] if res["rc"] != 0 else []
            if cmd.kind == "run":
                for traj in cmd.trajectories:
                    problems = list(failed)
                    if not problems:
                        try:
                            problems = _check_trajectory(
                                checks, truth, times, traj, put(traj.csv))
                        except (OSError, ValueError) as exc:
                            problems = [f"unreadable output: {exc}"]
                    ops.append((traj.id, traj.known_fault, problems))
                continue
            problems = list(failed)
            if not problems:
                try:
                    report, problems = _check_report(checks, truth, cmd,
                                                     put)
                except (OSError, ValueError) as exc:
                    report, problems = None, [f"unreadable output: {exc}"]
                if k == 0 and not problems and cmd.subject.reference:
                    reports.append(report)
            ops.append((f"evaluate {cmd.subject.id}", "", problems))
    return ops, reports


def _outputs(commands):
    for cmd in commands:
        yield from (t.csv for t in cmd.trajectories)
        if cmd.stdout:
            yield cmd.stdout


def traced_outputs_match(commands, rounds):
    """Every traced round wrote exactly the bytes of the untraced round 0."""
    mismatched = []
    for rel in _outputs(commands):
        with open(rel.replace("{round}", rounds[0]["dir"]), "rb") as fh:
            reference = fh.read()
        for rnd in rounds[1:]:
            with open(rel.replace("{round}", rnd["dir"]), "rb") as fh:
                if fh.read() != reference:
                    mismatched.append(os.path.basename(rel))
    return mismatched


def _median_round(rounds, indices):
    """Seconds of the listed commands in a median round: each command's
    median over the rounds, summed. A slow spell of the host that hits a
    command in a minority of rounds drops out."""
    return sum(statistics.median(r["commands"][i]["seconds"] for r in rounds)
               for i in indices)


def end_to_end(commands, results, reports, setup_s):
    rounds = results["rounds"]
    runs = [i for i, c in enumerate(commands) if c.kind == "run"]
    log_s = sum(commands[i].log_seconds for i in runs)
    mean = lambda key: (statistics.fmean(r[key] for r in reports)
                        if reports else None)
    values = {
        "setup_s": (setup_s, "s"),
        "run_s": (_median_round(rounds, range(len(commands))), "s"),
        "realtime_factor": (log_s / _median_round(rounds, runs), "x"),
        "peak_rss_mb": (results["peak_rss_mb"], "MB"),
        "ate_pos_m": (mean("ate_pos_m"), "m"),
        "ate_rot_deg": (mean("ate_rot_deg"), "deg"),
        "ate_vel_mps": (mean("ate_vel_mps"), "m/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracing, commands, results, setup_layers):
    """Counts from the first traced round, self times as the median over
    the traced rounds; set-up layers from the traced set-up."""
    traces = [t["layers"] for t in results["traces"]]
    steps = sum(c.steps for c in commands if c.kind == "run")
    out = {}
    for metric, layer, field in tracing.PER_LAYER:
        if layer in tracing.SETUP_LAYERS:
            value = setup_layers[layer][field]
        elif field == "self_s":
            value = statistics.median(t[layer]["self_s"] for t in traces)
        elif field == "per_step":
            value = traces[0][layer]["calls"] / steps
        else:
            value = traces[0][layer][field]
        out[metric] = {"value": value, "unit": tracing.UNITS[field]}
    return out


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lie_estimate", "cli.py")):
        print(f"error: no lie_estimate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from lie_estimate import cli
    import checks
    import workloads

    out = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    setup = workloads.WORKLOADS[args.workload]
    setup_layers = {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer.patched(tracing.SETUP_LAYERS):
            commands = setup(_quiet(cli.main), out, args.seed)
        setup_layers = tracer.layer_totals(tracing.SETUP_LAYERS)
        setup_tree = tracer.dump()
    else:
        commands = setup(_quiet(cli.main), out, args.seed)
    setup_s = time.perf_counter() - _T0

    plan = {"src": SRC, "out": out, "seconds": args.seconds,
            "trace": bool(args.trace),
            "results": os.path.join(out, "results.json"),
            "commands": [{"argv": c.argv, "stdout": c.stdout}
                         for c in commands]}
    plan_path = os.path.join(out, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    with open(os.path.join(out, "worker.log"), "w") as log:
        try:
            rc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), plan_path],
                stdout=log, stderr=subprocess.STDOUT,
                timeout=DEADLINE_S - (time.perf_counter() - _T0)).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        print(f"error: timed phase failed ({rc}); see {out}/worker.log",
              file=sys.stderr)
        return 1
    with open(plan["results"]) as fh:
        results = json.load(fh)

    ops, reports = judge(commands, results, checks)
    unexpected = [(i, p) for i, fault, p in ops if p and not fault]
    known = sorted({(i, fault, p[0]) for i, fault, p in ops if p and fault})
    for i, fault, problem in known:
        print(f"known fault: {i}: {problem} ({fault})", file=sys.stderr)
    for i, problems in unexpected[:10]:
        print(f"FAILED {i}: {'; '.join(problems)}", file=sys.stderr)
    correct = not unexpected

    if args.trace:
        mismatched = traced_outputs_match(commands, results["rounds"])
        if mismatched:
            correct = False
            print(f"FAILED traced outputs differ from untraced: "
                  f"{sorted(set(mismatched))}", file=sys.stderr)
        untraced = results["rounds"][0]["seconds"]
        traced = statistics.median(r["seconds"]
                                   for r in results["rounds"][1:])
        print(f"tracing overhead: {traced / untraced - 1:+.1%} (untraced "
              f"round {untraced:.2f} s, traced median {traced:.2f} s)",
              file=sys.stderr)
        with open(os.path.join(out, "trace.json"), "w") as fh:
            json.dump({"setup": setup_tree, "rounds": [
                t["tree"] for t in results["traces"]]}, fh, indent=1)
        metrics = per_layer(tracing, commands, results, setup_layers)
    else:
        metrics = end_to_end(commands, results, reports, setup_s)
    print(f"{len(results['rounds'])} rounds, {len(ops)} operations, "
          f"outputs in {out}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(1 for op in ops if op[2]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
