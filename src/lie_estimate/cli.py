"""Command-line harness: simulate sensor logs, replay estimators, score
trajectories, and average group elements.

Sensor logs are JSON Lines, one record per line with a "t" timestamp and a
"kind" of imu, encoder, wrench, or contact. Trajectories are CSV with the
fixed header t,px,py,pz,qw,qx,qy,qz,vx,vy,vz (w-first unit quaternions).

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import averaging as A
from . import evaluation as EV
from . import estimators as E
from . import filtercore as FC
from . import groups as G
from . import kinematics as K
from . import simdata as S
from .estimators import human_ekf as HE
from .estimators.diligent import ImuInput

log = logging.getLogger("lie_estimate")

ESTIMATORS = ("swa", "diligent-kio", "diligent-kio-rie", "codiligent-kio",
              "codiligent-kio-rie", "human-ekf", "legged-odometry")

CSV_HEADER = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz",
              "vx", "vy", "vz"]


class InputError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("LIE_ESTIMATE_LOG_LEVEL", "warn").lower()
    mapping = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=mapping.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# Trajectory CSV I/O


def write_trajectory_csv(path, rows):
    """rows: iterables of (t, position(3), rotation(3x3), velocity(3))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t, p, r, v in rows:
            q = G.rotation_to_quaternion(np.asarray(r, float))
            writer.writerow([f"{t:.6f}"]
                            + [f"{x:.9f}" for x in p]
                            + [f"{x:.9f}" for x in q]
                            + [f"{x:.9f}" for x in v])


def read_trajectory_csv(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:11] != CSV_HEADER:
                raise InputError(f"{path}: unexpected CSV header")
            samples = []
            for row in reader:
                vals = [float(x) for x in row[:11]]
                rot = G.quaternion_to_rotation(np.array(vals[4:8]))
                samples.append(EV.PoseSample(vals[0], rot, vals[1:4],
                                             vals[8:11]))
    except (OSError, ValueError, StopIteration) as exc:
        raise InputError(f"cannot read trajectory {path}: {exc}") from exc
    if not samples:
        raise InputError(f"{path}: no samples")
    return samples


def read_sensor_log(path):
    records = []
    last_t = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                kind = rec.get("kind")
                if kind not in ("imu", "encoder", "wrench", "contact"):
                    raise InputError(f"{path}:{line_no}: bad kind {kind!r}")
                key = (kind, rec.get("foot"))
                if key in last_t and rec["t"] < last_t[key]:
                    raise InputError(f"{path}:{line_no}: time went backwards")
                last_t[key] = rec["t"]
                records.append(rec)
    except OSError as exc:
        raise InputError(f"cannot read log {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"cannot parse log {path}: {exc}") from exc
    if not records:
        raise InputError(f"{path}: empty log")
    records.sort(key=lambda r: r["t"])
    return records


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    profile = S.WalkProfile(step_length=args.step_length,
                            step_period=args.step_period,
                            duration=args.duration, rate=args.rate)
    noise = _load_noise(args.config)
    if not args.noisy:
        noise = E.NoiseConfig(accel=0.0, gyro=0.0, accel_bias=0.0,
                              gyro_bias=0.0, encoder=0.0)
    traj = S.generate_walk(profile, seed=args.seed)
    records = (S.emulate_imu(traj, noise, seed=args.seed)
               + S.emulate_encoders(traj, std=noise.encoder,
                                    seed=args.seed + 1)
               + S.emulate_contacts(traj)
               + S.emulate_wrenches(traj, args.body_weight))
    records.sort(key=lambda r: (r["t"], r["kind"]))
    with open(args.out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    truth_path = args.truth or (os.path.splitext(args.out)[0] + "_truth.csv")
    write_trajectory_csv(
        truth_path,
        ((s.t, s.base_pose.matrix[:3, 3], s.base_pose.matrix[:3, :3],
          s.base_twist[:3]) for s in traj))
    log.info("wrote %s and %s", args.out, truth_path)
    return 0


def _load_noise(path):
    if path is None:
        return E.NoiseConfig()
    try:
        return E.load_noise_config(path)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run


def _initial_geometry(chain, q):
    """Base pose with identity rotation resting the lowest sole on z = 0,
    plus world foot poses."""
    feet = {}
    lowest = 0.0
    poses = chain.link_poses(q)
    for side in ("left", "right"):
        rel = K.relative_fk(chain, q, chain.base_link, f"{side}_sole", poses)
        feet[side] = rel
        lowest = min(lowest, rel.matrix[2, 3])
    base = G.se3_element(np.eye(3), [0.0, 0.0, -lowest])
    world_feet = {side: G.compose(base, rel) for side, rel in feet.items()}
    return base, world_feet


def _perturbed_initials(base, seed, rot_deg, vel):
    rng = np.random.default_rng(seed)
    roll, pitch = np.radians(rot_deg) * rng.uniform(-1.0, 1.0, 2)
    rot = G.rpy_to_rotation(roll, pitch, 0.0).matrix
    pose = G.se3_element(rot, base.matrix[:3, 3])
    velocity = rng.uniform(-vel, vel, 3)
    return pose, velocity


def run_estimator(name, records, chain, noise, seed=0,
                  init_rot_deg=0.0, init_vel=0.0):
    """Replay a sensor log and return [(t, p, R, v)] estimates."""
    if name not in ESTIMATORS:
        raise G.InvalidArgumentError(f"unknown estimator {name!r}")
    by_time = {}
    for rec in records:
        by_time.setdefault(rec["t"], []).append(rec)
    times = sorted(by_time)
    first_enc = next(r for r in records if r["kind"] == "encoder")
    q0 = np.asarray(first_enc["positions"], float)
    base0, feet0 = _initial_geometry(chain, q0)
    if init_rot_deg or init_vel:
        base0, v0 = _perturbed_initials(base0, seed, init_rot_deg, init_vel)
    else:
        v0 = np.zeros(3)

    driver = _DRIVERS[name](chain, noise, base0, v0, feet0)
    contacts = {"left": True, "right": True}
    rows = []
    prev_t = None
    for idx, t in enumerate(times):
        recs = by_time[t]
        dt = (t - prev_t) if prev_t is not None else None
        for rec in recs:
            if rec["kind"] == "contact":
                contacts = {"left": rec["left"], "right": rec["right"]}
        for rec in recs:
            if rec["kind"] == "encoder":
                driver.on_encoder(rec, contacts, dt)
        rows.append((t,) + driver.estimate())
        for rec in recs:
            if rec["kind"] == "imu":
                step = driver_dt(times, idx)
                driver.on_imu(rec, contacts, step)
        prev_t = t
    return rows


def driver_dt(times, idx):
    """Step of the IMU record at times[idx]: up to the next stamp of any
    kind; the last stamp repeats the step before it."""
    if idx + 1 < len(times):
        return times[idx + 1] - times[idx]
    return times[idx] - times[idx - 1] if idx > 0 else 0.01


class _DiligentDriver:
    variant = "discrete"
    rie = False

    def __init__(self, chain, noise, base0, v0, feet0):
        self.chain = chain
        self.noise = noise
        self.state = E.diligent_initial_state(base0, v0, feet0["left"],
                                              feet0["right"], noise)

    def on_imu(self, rec, contacts, dt):
        imu = ImuInput(np.asarray(rec["accel"], float),
                       np.asarray(rec["gyro"], float), dt)
        if self.variant == "discrete":
            fn = E.diligent_rie_predict if self.rie else E.diligent_predict
            self.state = fn(self.state, imu, contacts, self.noise)
        else:
            self.state = E.codiligent_predict(
                self.state, imu, contacts, self.noise,
                "rie" if self.rie else "lie")

    def on_encoder(self, rec, contacts, dt):
        meas = []
        q = np.asarray(rec["positions"], float)
        poses = self.chain.link_poses(q)
        for side in ("left", "right"):
            if contacts.get(side):
                z, n = E.foot_pose_measurement(self.chain, q, f"{side}_sole",
                                               self.noise, poses=poses)
                meas.append((side, z, n))
        if meas:
            fn = E.diligent_rie_update if self.rie else E.diligent_update
            self.state = fn(self.state, meas)

    def estimate(self):
        # copies: views would keep every step's whole state matrix alive
        return (self.state.base_position.copy(),
                self.state.base_rotation.copy(),
                self.state.base_velocity.copy())


class _DiligentRie(_DiligentDriver):
    rie = True


class _Codiligent(_DiligentDriver):
    variant = "continuous"


class _CodiligentRie(_DiligentDriver):
    variant = "continuous"
    rie = True


class _OdometryDriver:
    def __init__(self, chain, noise, base0, v0, feet0):
        self.chain = chain
        self.q = None
        self.state = None
        self.base0 = base0
        self.prev = (base0.matrix[:3, 3], None)
        self.vel = np.zeros(3)

    def on_encoder(self, rec, contacts, dt):
        self.q = np.asarray(rec["positions"], float)
        poses = self.chain.link_poses(self.q)
        anchor = "left_sole" if contacts.get("left") else "right_sole"
        if self.state is None:
            self.state = K.odometry_start(self.chain, self.q, anchor,
                                          self.base0, poses=poses)
        else:
            switch = None if self.state.fixed_frame == anchor else anchor
            if not contacts.get("left") and not contacts.get("right"):
                switch = None
            self.state = K.odometry_update(self.state, self.chain, self.q,
                                           contact_switch=switch, poses=poses)
        p = self.state.base_pose.matrix[:3, 3]
        prev_p, _ = self.prev
        if dt:
            self.vel = (p - prev_p) / dt
        self.prev = (p, dt)

    def on_imu(self, rec, contacts, dt):
        pass

    def estimate(self):
        pose = self.state.base_pose if self.state else self.base0
        return (pose.matrix[:3, 3], pose.matrix[:3, :3], self.vel)


class _SwaDriver:
    def __init__(self, chain, noise, base0, v0, feet0):
        self.chain = chain
        self.state = None
        self.base0 = base0
        self.imu_rot = base0.matrix[:3, :3]
        self.gyro = np.zeros(3)

    def on_imu(self, rec, contacts, dt):
        self.gyro = np.asarray(rec["gyro"], float)
        inc = G.exp(G.TangentVector(G.SO3, self.gyro * dt)).matrix
        self.imu_rot = self.imu_rot @ inc

    def on_encoder(self, rec, contacts, dt):
        q = np.asarray(rec["positions"], float)
        qd = np.asarray(rec.get("velocities", np.zeros_like(q)), float)
        flags = {f"{side}_sole": bool(contacts.get(side))
                 for side in ("left", "right")}
        poses = self.chain.link_poses(q)
        if self.state is None:
            anchor = "left_sole" if contacts.get("left") else "right_sole"
            self.state = E.swa_start(self.chain, q, anchor, self.base0,
                                     poses=poses)
        self.state = E.swa_step(self.state, self.chain, q, qd, self.gyro,
                                self.imu_rot, flags, poses=poses)

    def estimate(self):
        if self.state is None:
            return (self.base0.matrix[:3, 3], self.base0.matrix[:3, :3],
                    np.zeros(3))
        return (self.state.base_pose.matrix[:3, 3],
                self.state.base_pose.matrix[:3, :3],
                self.state.base_twist[:3])


class _HumanDriver:
    corners = ((0.08, 0.04), (0.08, -0.04), (-0.08, 0.04), (-0.08, -0.04))
    gate = 100.0

    def __init__(self, chain, noise, base0, v0, feet0):
        self.chain = chain
        self.noise = noise
        verts = []
        for side in ("left", "right"):
            sole = feet0[side].matrix[:3, 3]
            for dx, dy in self.corners:
                verts.append(sole + np.array([dx, dy, 0.0]))
        self.state = HE.human_initial_state(
            base0, v0, verts, np.zeros(3),
            feet0["left"].matrix[:3, :3], feet0["right"].matrix[:3, :3],
            noise)
        self.gyro = np.zeros(3)

    def on_imu(self, rec, contacts, dt):
        self.gyro = np.asarray(rec["gyro"], float)
        self.state = HE.human_ekf_predict(self.state, dt, self.noise,
                                          contacts=contacts)
        self.state = HE.human_update_base_gyro(
            self.state, self.gyro, self.noise.gyro ** 2 * np.eye(3))

    def on_encoder(self, rec, contacts, dt):
        q = np.asarray(rec["positions"], float)
        qd = np.asarray(rec.get("velocities", np.zeros_like(q)), float)
        poses = self.chain.link_poses(q)
        stance = [s for s in ("left", "right") if contacts.get(s)]
        if not stance:
            return
        verts, targets, covs = [], [], []
        for side in stance:
            frame = f"{side}_sole"
            sole = K.relative_fk(self.chain, q, self.chain.base_link, frame,
                                 poses)
            rel, cov = HE.vertex_position_measurement(
                self.chain, q, frame, self.noise, poses=poses, pose=sole)
            rot = sole.matrix[:3, :3]
            first = 0 if side == "left" else len(self.corners)
            for j, (dx, dy) in enumerate(self.corners):
                verts.append(first + j)
                targets.append(rel + rot @ np.array([dx, dy, 0.0]))
                covs.append(cov)
        # the terrain rows copy their horizontal target from the estimate,
        # so they go in a second stack, after the contact correction
        self.state = HE.human_update_relative_contact_position(
            self.state, verts, targets, covs)
        self.state = HE.human_update_terrain_height(
            self.state, verts, np.zeros(len(verts)), self.noise)
        # a pinned sole turns the leg kinematics into a base velocity
        # fix; an identity base pose keeps it in the body frame
        twist = K.base_velocity_from_contact(
            self.chain, q, qd, f"{stance[0]}_sole", G.identity(G.SE3),
            poses=poses)
        # finite-difference joint rates straddle touchdown, so gate the
        # velocity fixes instead of letting an outlier wrench the state
        for kind, update, value, sigma in (
                ("linear", HE.human_update_zupt_linear, twist[:3],
                 self.noise.foot_linear),
                ("angular", HE.human_update_zupt_angular, twist[3:],
                 self.noise.foot_angular)):
            try:
                self.state = update(self.state, value, sigma ** 2 * np.eye(3),
                                    gate=self.gate)
            except FC.MeasurementRejected as err:
                log.debug("t=%.6f: %s ZUPT rejected: %s", rec["t"], kind, err)

    def estimate(self):
        return (self.state.base_position.copy(),
                self.state.base_rotation.copy(),
                self.state.base_velocity.copy())


_DRIVERS = {
    "diligent-kio": _DiligentDriver,
    "diligent-kio-rie": _DiligentRie,
    "codiligent-kio": _Codiligent,
    "codiligent-kio-rie": _CodiligentRie,
    "legged-odometry": _OdometryDriver,
    "swa": _SwaDriver,
    "human-ekf": _HumanDriver,
}


def _replay(task):
    """One trial: replay the log and write its CSV. Module level, so that
    --parallel can send it to worker processes."""
    name, records, chain, noise, seed, out, rot_deg, vel = task
    rows = run_estimator(name, records, chain, noise, seed=seed,
                         init_rot_deg=rot_deg, init_vel=vel)
    write_trajectory_csv(out, rows)
    return out


def cmd_run(args):
    if args.estimator not in ESTIMATORS:
        # argparse choices already guard this; double-check for API callers
        raise G.InvalidArgumentError(f"unknown estimator {args.estimator!r}")
    records = read_sensor_log(args.log)
    chain = K.load_chain(args.chain) if args.chain else S.walker_chain()
    noise = _load_noise(args.config)
    if args.trials <= 1:
        outs = [(args.seed, args.out)]
    else:
        stem, ext = os.path.splitext(args.out)
        outs = [(args.seed + i, f"{stem}_trial{i}{ext}")
                for i in range(args.trials)]
    tasks = [(args.estimator, records, chain, noise, seed, out,
              args.init_rot_deg, args.init_vel) for seed, out in outs]
    if args.parallel and len(tasks) > 1:
        # imported here: it is a noticeable share of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor
        workers = min(len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            written = list(pool.map(_replay, tasks))
    else:
        written = [_replay(task) for task in tasks]
    log.info("wrote %s", ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# evaluate / average


def cmd_evaluate(args):
    truth = read_trajectory_csv(args.truth)
    estimate = read_trajectory_csv(args.estimate)
    n = min(len(truth), len(estimate))
    report = EV.evaluate(truth[:n], estimate[:n],
                         rpe_interval=args.rpe_interval, side=args.side)
    print(report.to_json())
    return 0


def _parse_elements(path, mode):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    elements = []
    for item in data.get("elements", []):
        vals = np.asarray(item, float)
        if mode == "rotation":
            if vals.shape != (4,):
                raise InputError("rotation entries must be quaternions "
                                 "(qw qx qy qz)")
            elements.append(G.so3_element(G.quaternion_to_rotation(vals)))
        else:
            if vals.shape != (7,):
                raise InputError("pose entries must be x y z qw qx qy qz")
            elements.append(G.se3_element(
                G.quaternion_to_rotation(vals[3:]), vals[:3]))
    if not elements:
        raise InputError(f"{path}: no elements")
    weights = data.get("weights")
    return elements, weights


def cmd_average(args):
    elements, weights = _parse_elements(args.input, args.mode)
    cfg = A.AveragingConfig(step_size=args.step_size,
                            tolerance=args.tolerance, max_iters=args.max_iters)
    mean = A.karcher_mean(elements, weights=weights, cfg=cfg)
    rot = mean.matrix[:3, :3]
    out = {"quaternion": G.rotation_to_quaternion(rot).tolist()}
    if args.mode == "pose":
        out["position"] = mean.matrix[:3, 3].tolist()
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lie-estimate",
        description="Simulate, estimate, and score legged-robot "
                    "base trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic walk log")
    sim.add_argument("--step-length", type=float, default=0.1)
    sim.add_argument("--step-period", type=float, default=0.8)
    sim.add_argument("--duration", type=float, default=10.0)
    sim.add_argument("--rate", type=float, default=100.0)
    sim.add_argument("--body-weight", type=float, default=300.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noisy", action="store_true",
                     help="apply the configured sensor noise")
    sim.add_argument("--config", help="noise config JSON")
    sim.add_argument("--out", required=True, help="sensor log path (.jsonl)")
    sim.add_argument("--truth", help="truth CSV path")
    sim.set_defaults(func=cmd_simulate)

    run = sub.add_parser("run", help="replay an estimator over a log")
    run.add_argument("log", help="sensor log (.jsonl)")
    run.add_argument("--estimator", required=True, choices=ESTIMATORS)
    run.add_argument("--chain", help="kinematic chain JSON")
    run.add_argument("--config", help="noise config JSON")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True, help="estimate CSV path")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--parallel", action="store_true")
    run.add_argument("--init-rot-deg", type=float, default=0.0,
                     help="roll/pitch perturbation range for trials")
    run.add_argument("--init-vel", type=float, default=0.0,
                     help="velocity perturbation range for trials")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("evaluate", help="score an estimate against truth")
    ev.add_argument("truth")
    ev.add_argument("estimate")
    ev.add_argument("--rpe-interval", type=int, default=1)
    ev.add_argument("--side", choices=("left", "right"), default="left")
    ev.set_defaults(func=cmd_evaluate)

    avg = sub.add_parser("average", help="average group elements")
    avg.add_argument("input", help="JSON file with elements and weights")
    avg.add_argument("--mode", choices=("rotation", "pose"),
                     default="rotation")
    avg.add_argument("--step-size", type=float, default=0.1)
    avg.add_argument("--tolerance", type=float, default=1e-4)
    avg.add_argument("--max-iters", type=int, default=100)
    avg.set_defaults(func=cmd_average)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except G.InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (G.LieGroupError, A.ConvergenceFailure, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
