"""The three replay workloads: their set-up and one round of operations.

Set-up writes the walk logs and truth CSVs with `lie-estimate simulate`.
A round is the list of CLI commands that the timed phase repeats. Each
replayed trajectory and each `evaluate` is one operation, judged by its
exit code and by the checks attached to it here.

Two kinds of walk. A seeded walk draws its sensor noise from the benchmark
seed, so every seed checks the estimators on fresh data. A reference walk
draws it from a fixed seed, like a recorded dataset: the ATE of one noisy
walk moves by 40% (kio trials) to 230% (100 s odometry) of its median from
one noise draw to the next, so ATE metrics taken from seeded walks could
hold no bound. The ATE metrics are the means over the reference replays;
any change to the estimates moves them. The Monte-Carlo initial
perturbations use fixed trial seeds, so the program sees nothing of the
benchmark seed but the logs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import checks as C

RATE = 100.0
REFERENCE_SEED = 20220607   # noise seed of every reference walk

KIO_ESTIMATORS = ("diligent-kio", "diligent-kio-rie", "codiligent-kio",
                  "codiligent-kio-rie")
KIO_DURATION = 3.0
KIO_TRIALS = 2
KIO_PERTURB = ["--seed", "0", "--init-rot-deg", "30", "--init-vel", "0.5"]
# convergent-observer bounds after a 2 s window; the worst values seen over
# seeds 1-10 were 0.29 deg of tilt and 0.012 m/s
KIO_AFTER_S = 2.0
KIO_TILT_DEG = 1.5
KIO_VEL_MPS = 0.05

# The IMU-gap replay: a fixed walk on a slow gait (2 s steps) with the IMU
# records of [1.2, 1.6) s removed. Holding the last IMU sample across the
# gap keeps the velocity error at 0.028 m/s (0.016 m/s without the gap);
# the CLI today reaches 0.166 m/s.
GAP_PERIOD = 2.0
GAP_START, GAP_END = 1.2, 1.6
GAP_CHECK_END = GAP_END + 0.5
GAP_VEL_MPS = 0.05
GAP_FAULT = ("cli.driver_dt takes dt to the next record of any kind, so IMU "
             "propagation stops at the next encoder stamp inside a gap")

# evaluate bounds: about three times the worst value seen or more, over seeds
# 1-10 for the seeded human walk and on the fixed long walk
HUMAN_DURATION = 3.0
HUMAN_BOUNDS = {"ate_pos_m": 0.03, "ate_rot_deg": 3.0, "ate_vel_mps": 0.05,
                "rpe_pos_m": 0.005, "rpe_rot_deg": 0.2}

LONG_DURATION = 60.0
LONG_BOUNDS = {
    "legged-odometry": {"ate_pos_m": 0.1, "ate_rot_deg": 3.0,
                        "ate_vel_mps": 0.5, "rpe_pos_m": 0.005,
                        "rpe_rot_deg": 0.7},
    "swa": {"ate_pos_m": 0.2, "ate_rot_deg": 3.0, "ate_vel_mps": 0.08,
            "rpe_pos_m": 0.005, "rpe_rot_deg": 0.4},
}


@dataclass
class Trajectory:
    """One replayed trajectory: an operation of its own."""
    id: str
    csv: str            # "{round}" stands for the round's directory
    log: str
    truth: str
    checks: list = field(default_factory=list)   # fn(truth, est) -> problems
    known_fault: str = ""   # why it fails today
    reference: bool = False  # on a reference walk: its ATE is a metric


@dataclass
class Command:
    kind: str           # "run" or "evaluate"
    argv: list
    trajectories: list = field(default_factory=list)  # outputs of a run
    log_seconds: float = 0.0
    steps: int = 0      # log timestamps replayed
    subject: Trajectory = None                         # input of an evaluate
    bounds: dict = field(default_factory=dict)

    @property
    def stdout(self):
        return self.subject.csv[:-4] + ".json" if self.kind == "evaluate" \
            else None


@dataclass
class Walk:
    log: str
    truth: str
    duration: float
    reference: bool


def _simulate(cli_main, out, name, seed, duration, step_length=0.1,
              step_period=0.8, reference=False):
    log = os.path.join(out, f"{name}.jsonl")
    rc = cli_main(["simulate", "--noisy", "--seed", str(seed),
                   "--duration", str(duration), "--rate", str(RATE),
                   "--step-length", str(step_length),
                   "--step-period", str(step_period), "--out", log])
    if rc != 0:
        raise RuntimeError(f"simulate {name} exited {rc}")
    return Walk(log, os.path.join(out, f"{name}_truth.csv"), duration,
                reference)


def _run(walk, estimator, csv, extra=(), trials=1, checks=(),
         known_fault=""):
    outs = ([f"{csv[:-4]}_trial{i}.csv" for i in range(trials)]
            if trials > 1 else [csv])
    trajs = [Trajectory(os.path.basename(o)[:-4], o, walk.log, walk.truth,
                        list(checks), known_fault, walk.reference)
             for o in outs]
    argv = ["run", walk.log, "--estimator", estimator, "--out", csv,
            *extra] + (["--trials", str(trials)] if trials > 1 else [])
    return Command("run", argv, trajs, walk.duration * trials,
                   int(round(walk.duration * RATE)) * trials)


def _evaluations(run, bounds=None):
    return [Command("evaluate", ["evaluate", t.truth, t.csv], subject=t,
                    bounds=bounds or {}) for t in run.trajectories]


def setup_kio_trials(cli_main, out, seed):
    """Monte-Carlo sweep (two trials per variant from 30 deg / 0.5 m/s
    perturbations) on the reference walk, one perturbed replay per variant
    on the seeded walk, and the IMU-gap replay."""
    walks = {"kio-ref": _simulate(cli_main, out, "kio-ref", REFERENCE_SEED,
                                  KIO_DURATION, reference=True),
             "kio": _simulate(cli_main, out, "kio", seed, KIO_DURATION)}
    source = _simulate(cli_main, out, "gap-source", REFERENCE_SEED,
                       KIO_DURATION, step_period=GAP_PERIOD)
    gap = Walk(os.path.join(out, "gap.jsonl"), source.truth, KIO_DURATION,
               False)
    with open(source.log) as fh, open(gap.log, "w") as dst:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] != "imu" or \
                    not GAP_START - 1e-9 <= rec["t"] < GAP_END - 1e-9:
                dst.write(line)
    converge = lambda t, e: C.check_convergence(t, e, KIO_AFTER_S,
                                                KIO_TILT_DEG, KIO_VEL_MPS)
    cmds = []
    for name, trials in (("kio-ref", KIO_TRIALS), ("kio", 1)):
        for est in KIO_ESTIMATORS:
            run = _run(walks[name], est, f"{{round}}/{name}-{est}.csv",
                       KIO_PERTURB, trials, [converge])
            cmds += [run] + _evaluations(run)
    within_gap = lambda t, e: C.check_window_velocity(
        t, e, GAP_START, GAP_CHECK_END, GAP_VEL_MPS)
    cmds.append(_run(gap, "diligent-kio", "{round}/gap.csv",
                     checks=[within_gap], known_fault=GAP_FAULT))
    return cmds


def setup_human_ekf(cli_main, out, seed):
    """The reference walk on the default gait, and a seeded walk on a
    longer, slower stride."""
    cmds = []
    for walk in (_simulate(cli_main, out, "human-ref", REFERENCE_SEED,
                           HUMAN_DURATION, reference=True),
                 _simulate(cli_main, out, "human", seed, HUMAN_DURATION,
                           0.15, 1.0)):
        name = os.path.basename(walk.log)[:-6]
        run = _run(walk, "human-ekf", f"{{round}}/{name}.csv")
        cmds += [run] + _evaluations(run, HUMAN_BOUNDS)
    return cmds


def setup_long_log(cli_main, out, seed):
    """One 60 s reference walk: its ATE is a random walk in the noise draw,
    so this workload has no seeded walk and ignores the seed."""
    walk = _simulate(cli_main, out, "long", REFERENCE_SEED, LONG_DURATION,
                     reference=True)
    cmds = []
    for est in ("legged-odometry", "swa"):
        run = _run(walk, est, f"{{round}}/long-{est}.csv")
        cmds += [run] + _evaluations(run, LONG_BOUNDS[est])
    return cmds


WORKLOADS = {
    "kio-trials": setup_kio_trials,
    "human-ekf": setup_human_ekf,
    "long-log": setup_long_log,
}
