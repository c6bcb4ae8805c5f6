"""Self-test of the benchmark: every check must refuse a wrong output.

    python3 bench/selftest.py

Replays a short noisy walk through diligent-kio, confirms that its output
passes every check, then feeds the checks deliberately wrong versions of
it (yaw offset, tilt offset, dropped row, velocity offset, NaN, non-unit
quaternion, reordered rows) and expects each to be refused. It also checks
the span arithmetic of the tracer and that BENCHMARK.json names exactly
the metrics that run.py prints. Writes under ./.bench_out/selftest/;
exits 0 when every expectation holds.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from lie_estimate import cli

import checks as C
import run
import tracing
import workloads as W

FAILURES = []


def expect(ok, what):
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        FAILURES.append(what)


def refused(problems, what):
    expect(bool(problems), f"refuses {what}: {problems[:1]}")


def passed(problems, what):
    expect(not problems, f"accepts {what}: {problems[:1]}")


def _evaluate(truth_csv, est, path):
    np.savetxt(path, est, delimiter=",", header=C.HEADER, comments="",
               fmt="%.9f")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["evaluate", truth_csv, path])
    expect(rc == 0, f"evaluate exits 0 on {os.path.basename(path)}")
    return json.loads(buf.getvalue())


def _rotate(est, axis, degrees, move_vectors):
    """Left-multiply every rotation by a fixed one; optionally rotate the
    positions and velocities with it."""
    half = np.radians(degrees) / 2.0
    q0 = np.concatenate([[np.cos(half)], np.sin(half) * np.asarray(axis)])
    w0, v0 = q0[0], q0[1:]
    q = est[:, 4:8]
    out = est.copy()
    out[:, 4] = w0 * q[:, 0] - q[:, 1:] @ v0
    out[:, 5:8] = w0 * q[:, 1:] + q[:, :1] * v0 + np.cross(v0, q[:, 1:])
    if move_vectors:
        r = C.quaternion_matrices(q0[None])[0]
        out[:, 1:4] = est[:, 1:4] @ r.T
        out[:, 8:11] = est[:, 8:11] @ r.T
    return out


def check_checks(out):
    log = os.path.join(out, "walk.jsonl")
    truth_csv = os.path.join(out, "walk_truth.csv")
    est_csv = os.path.join(out, "est.csv")
    expect(cli.main(["simulate", "--noisy", "--seed", "7", "--duration",
                     "2.5", "--out", log]) == 0, "simulate exits 0")
    expect(cli.main(["run", log, "--estimator", "diligent-kio",
                     "--out", est_csv]) == 0, "run exits 0")
    truth, est = C.load_trajectory(truth_csv), C.load_trajectory(est_csv)
    times = C.log_timestamps(log)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["evaluate", truth_csv, est_csv])
    report = json.loads(buf.getvalue())
    converge = lambda e: C.check_convergence(truth, e, 1.0, W.KIO_TILT_DEG,
                                             W.KIO_VEL_MPS)
    window = lambda e: C.check_window_velocity(truth, e, 1.0, 2.0,
                                               W.GAP_VEL_MPS)

    passed(C.check_structure(est, times), "the replay's rows")
    passed(C.check_report(report, truth, est), "evaluate's ATE")
    passed(C.check_bounds(report, W.HUMAN_BOUNDS), "the replay's accuracy")
    passed(converge(est), "the replay's convergence")
    passed(window(est), "the replay's velocity window")

    yawed = _rotate(est, (0.0, 0.0, 1.0), 20.0, move_vectors=False)
    refused(C.check_report(report, truth, yawed),
            "a yaw-offset trajectory against the original report")
    yaw_report = _evaluate(truth_csv, yawed, os.path.join(out, "yaw.csv"))
    passed(C.check_report(yaw_report, truth, yawed),
           "the ATE evaluate reports for the yaw-offset trajectory")
    refused(C.check_bounds(yaw_report, W.HUMAN_BOUNDS),
            "a yaw-offset trajectory's rotation error")
    passed(converge(yawed), "a yaw offset alone (yaw is unobservable)")
    turned = _rotate(est, (0.0, 0.0, 1.0), 20.0, move_vectors=True)
    refused(converge(turned), "a trajectory turned 20 deg about z")

    tilted = _rotate(est, (1.0, 0.0, 0.0), 2.0, move_vectors=False)
    refused(converge(tilted), "a 2 deg tilt offset")

    refused(C.check_structure(np.delete(est, 40, axis=0), times),
            "a dropped row")
    swapped = est.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    refused(C.check_structure(swapped, times), "two swapped rows")
    nan = est.copy()
    nan[30, 9] = np.nan
    refused(C.check_structure(nan, times), "a NaN velocity")
    stretched = est.copy()
    stretched[5, 4:8] *= 1.01
    refused(C.check_structure(stretched, times), "a non-unit quaternion")

    fast = est.copy()
    fast[truth[:, 0] >= 1.5, 8] += 0.1
    refused(converge(fast), "a 0.1 m/s velocity offset (convergence)")
    refused(window(fast), "a 0.1 m/s velocity offset (window)")
    refused(C.check_report(report, truth, fast),
            "a velocity offset against the original report")
    fast_report = _evaluate(truth_csv, fast, os.path.join(out, "fast.csv"))
    passed(C.check_report(fast_report, truth, fast),
           "the ATE evaluate reports for the velocity-offset trajectory")
    refused(C.check_bounds(fast_report, {"ate_vel_mps": 0.05}),
            "a velocity offset's ATE")
    short = dict(report, samples=report["samples"] - 1)
    refused(C.check_report(short, truth, est), "a report over fewer rows")


def check_tracer():
    toy = types.SimpleNamespace(__name__="toy")
    toy.outer = lambda n: sum(toy.inner(i) for i in range(n))

    def inner(i):
        if i == 2:
            try:
                toy.fail()
            except KeyError:
                pass
        return i

    def fail():
        raise KeyError("x")

    toy.inner, toy.fail = inner, fail
    layers = {name: [(toy, name)] for name in ("outer", "inner", "fail")}
    tracer = tracing.Tracer()
    with tracer.patched(layers):
        toy.outer(5)
    totals = tracer.layer_totals(layers)
    expect(toy.inner is inner and toy.fail is fail,
           "patched() restores the original attributes")
    expect((totals["outer"]["calls"], totals["inner"]["calls"],
            totals["fail"]["calls"], totals["fail"]["raised"])
           == (1, 5, 1, 1), "span counts and raised exceptions")
    edges = {(e["parent"], e["name"]) for e in tracer.dump()}
    expect(edges == {(None, "toy.outer"), ("toy.outer", "toy.inner"),
                     ("toy.inner", "toy.fail")},
           "span parents form the call tree")
    total = sum(t["self_s"] for t in totals.values() if "self_s" in t)
    expect(all(t["self_s"] >= 0.0 for t in totals.values() if "self_s" in t)
           and total > 0.0, "self times are non-negative and add up")


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([m["name"] for m in spec["per_layer"]]
           == [m for m, _, _ in tracing.PER_LAYER],
           "BENCHMARK.json per_layer names match the traced metrics")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(all(units.get(m) == tracing.UNITS[f]
               for m, _, f in tracing.PER_LAYER), "per_layer units match")
    rounds = [{"seconds": 1.0, "commands": [{"seconds": 0.5}]}]
    names = run.end_to_end([W.Command("run", [], log_seconds=1.0)],
                           {"rounds": rounds, "peak_rss_mb": 1.0}, [], 0.1)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == {k: v["unit"] for k, v in names.items()},
           "BENCHMARK.json end_to_end names and units match run.py")
    expect([w["name"] for w in spec["workloads"]] == list(W.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def main():
    out = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    check_checks(out)
    check_tracer()
    check_metric_names()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
