"""Command-line interface tests: subcommands, IO formats, exit codes."""

import json
import logging
import os

import numpy as np
import pytest

import lie_estimate.cli as cli
import lie_estimate.estimators as E
import lie_estimate.filtercore as FC
import lie_estimate.groups as G
import lie_estimate.kinematics as K
import lie_estimate.simdata as S
import lie_estimate.uncertainty as U
from lie_estimate.estimators import human_ekf as HE


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def short_walk(tmp_path_factory):
    """A 2-second zero-noise log plus its truth, shared across tests."""
    root = tmp_path_factory.mktemp("walk")
    log = str(root / "walk.jsonl")
    truth = str(root / "truth.csv")
    code = run_cli("simulate", "--duration", "2.0", "--rate", "100",
                   "--step-period", "0.8", "--out", log, "--truth", truth)
    assert code == 0
    return log, truth


# ---------------------------------------------------------------------------
# simulate


def test_simulate_outputs(short_walk):
    log, truth = short_walk
    records = [json.loads(line) for line in open(log)]
    kinds = {r["kind"] for r in records}
    assert kinds == {"imu", "encoder", "contact", "wrench"}
    n = sum(1 for r in records if r["kind"] == "imu")
    assert n == 200  # duration * rate
    rows = open(truth).read().splitlines()
    assert rows[0] == ",".join(cli.CSV_HEADER)
    assert len(rows) == 201


def test_simulate_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.jsonl")
        run_cli("simulate", "--duration", "0.8", "--noisy", "--seed", "7",
                "--out", out)
        outs.append(open(out).read())
    assert outs[0] == outs[1]
    other = str(tmp_path / "c.jsonl")
    run_cli("simulate", "--duration", "0.8", "--noisy", "--seed", "8",
            "--out", other)
    assert open(other).read() != outs[0]


def test_trajectory_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    rot = G.rpy_to_rotation(0.1, -0.2, 0.3).matrix
    rows = [(0.5, np.array([1.0, 2.0, 3.0]), rot, np.array([0.1, 0.0, -0.1]))]
    cli.write_trajectory_csv(path, rows)
    samples = cli.read_trajectory_csv(path)
    assert len(samples) == 1
    assert samples[0].t == 0.5
    np.testing.assert_allclose(samples[0].rotation, rot, atol=1e-8)
    np.testing.assert_allclose(samples[0].position, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# run


@pytest.mark.parametrize("estimator", cli.ESTIMATORS)
def test_run_each_estimator(short_walk, tmp_path, estimator):
    log, truth = short_walk
    out = str(tmp_path / "est.csv")
    assert run_cli("run", log, "--estimator", estimator, "--out", out) == 0
    est = cli.read_trajectory_csv(out)
    assert len(est) == 200


def test_run_zero_noise_is_accurate(short_walk, tmp_path, capsys):
    log, truth = short_walk
    out = str(tmp_path / "est.csv")
    run_cli("run", log, "--estimator", "diligent-kio", "--out", out)
    assert run_cli("evaluate", truth, out) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ate_pos_m"] < 1e-4
    assert report["ate_rot_deg"] < 0.01


def test_run_trials_writes_numbered_files(short_walk, tmp_path):
    log, _ = short_walk
    out = str(tmp_path / "est.csv")
    code = run_cli("run", log, "--estimator", "swa", "--out", out,
                   "--trials", "3", "--init-rot-deg", "5.0")
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert files == ["est_trial0.csv", "est_trial1.csv", "est_trial2.csv"]
    first = cli.read_trajectory_csv(str(tmp_path / "est_trial0.csv"))
    second = cli.read_trajectory_csv(str(tmp_path / "est_trial1.csv"))
    # per-trial seeds give different initial tilts
    assert not np.allclose(first[0].rotation, second[0].rotation)


def test_run_parallel_matches_serial(short_walk, tmp_path):
    log, _ = short_walk
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    serial.mkdir()
    parallel.mkdir()
    run_cli("run", log, "--estimator", "swa",
            "--out", str(serial / "e.csv"), "--trials", "2")
    run_cli("run", log, "--estimator", "swa",
            "--out", str(parallel / "e.csv"), "--trials", "2", "--parallel")
    for name in ("e_trial0.csv", "e_trial1.csv"):
        assert (serial / name).read_text() == (parallel / name).read_text()


def test_run_trials_parse_their_inputs_once(short_walk, tmp_path,
                                            monkeypatch):
    log, _ = short_walk
    reads = []
    read = cli.read_sensor_log
    monkeypatch.setattr(cli, "read_sensor_log",
                        lambda path: reads.append(path) or read(path))
    code = run_cli("run", log, "--estimator", "legged-odometry",
                   "--out", str(tmp_path / "e.csv"), "--trials", "3")
    assert code == 0
    assert reads == [log]


def test_run_parallel_kalman_trials_match_serial(short_walk, tmp_path):
    log, _ = short_walk
    argv = ["run", log, "--estimator", "diligent-kio", "--trials", "2",
            "--init-rot-deg", "10", "--init-vel", "0.2"]
    for name, extra in (("serial", []), ("parallel", ["--parallel"])):
        (tmp_path / name).mkdir()
        assert run_cli(*argv, "--out", str(tmp_path / name / "e.csv"),
                       *extra) == 0
    for name in ("e_trial0.csv", "e_trial1.csv"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes())


def _without_imu(records, start, end):
    return [r for r in records
            if r["kind"] != "imu" or not start - 1e-9 <= r["t"] < end - 1e-9]


@pytest.mark.parametrize("gap", [None, (1.2, 1.6)])
def test_driver_dt_matches_the_stamp_lookup(short_walk, monkeypatch, gap):
    log, _ = short_walk
    records = cli.read_sensor_log(log)
    if gap:
        records = _without_imu(records, *gap)
    times = sorted({r["t"] for r in records})

    def by_lookup(t):
        idx = times.index(t)
        if idx + 1 < len(times):
            return times[idx + 1] - t
        return times[idx] - times[idx - 1] if idx > 0 else 0.01

    expect = [by_lookup(r["t"]) for r in records if r["kind"] == "imu"]
    got = []
    dt = cli.driver_dt
    monkeypatch.setattr(cli, "driver_dt",
                        lambda *args: got.append(dt(*args)) or got[-1])
    cli.run_estimator("swa", records, S.walker_chain(), E.NoiseConfig())
    assert got == expect


@pytest.mark.parametrize("name", ["diligent-kio", "codiligent-kio-rie",
                                  "human-ekf", "swa", "legged-odometry"])
def test_one_link_poses_call_per_encoder_record(short_walk, monkeypatch,
                                                name):
    log, _ = short_walk
    records = cli.read_sensor_log(log)
    calls = []
    link_poses = K.KinematicChain.link_poses
    monkeypatch.setattr(K.KinematicChain, "link_poses",
                        lambda self, s: calls.append(1) or link_poses(self, s))
    cli.run_estimator(name, records, S.walker_chain(), E.NoiseConfig())
    encoders = sum(1 for r in records if r["kind"] == "encoder")
    # plus the one call of the initial geometry
    assert len(calls) == encoders + 1


def test_human_driver_does_one_contact_and_one_terrain_stack(short_walk,
                                                             monkeypatch):
    log, _ = short_walk
    records = cli.read_sensor_log(log)
    events = []

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs:
                            events.append(name) or fn(*args, **kwargs))

    for owner, name in ((HE, "human_update_relative_contact_position"),
                        (HE, "human_update_terrain_height"),
                        (U, "transport_covariance"), (K, "relative_fk")):
        counted(owner, name)
    on_imu, on_encoder = cli._HumanDriver.on_imu, cli._HumanDriver.on_encoder
    monkeypatch.setattr(cli._HumanDriver, "on_imu", lambda self, *args:
                        events.append(("imu", 0)) or on_imu(self, *args))
    monkeypatch.setattr(
        cli._HumanDriver, "on_encoder", lambda self, rec, contacts, dt:
        events.append(("encoder", sum(map(bool, contacts.values()))))
        or on_encoder(self, rec, contacts, dt))
    cli.run_estimator("human-ekf", records, S.walker_chain(), E.NoiseConfig())

    # split the calls by the driver step that made them; the initial
    # geometry comes first and computes both soles
    steps = [[("init", 0)]]
    for event in events:
        if isinstance(event, tuple):
            steps.append([event])
        else:
            steps[-1].append(event)
    assert steps[0].count("relative_fk") == 2
    stance_samples = 0
    for (kind, stance), *calls in steps[1:]:
        stacks = 1 if kind == "encoder" and stance else 0
        stance_samples += stacks
        assert calls.count("human_update_relative_contact_position") == stacks
        assert calls.count("human_update_terrain_height") == stacks
        # one base-to-sole pose per stance foot
        assert calls.count("relative_fk") == (stance if stacks else 0)
        assert calls.count("transport_covariance") <= 2
    assert stance_samples > 0
    imu = sum(1 for r in records if r["kind"] == "imu")
    assert events.count("transport_covariance") <= 2 * (stance_samples + imu)


def test_rejected_zupts_are_logged(short_walk, monkeypatch, caplog):
    log, _ = short_walk
    records = cli.read_sensor_log(log)
    monkeypatch.setattr(cli._HumanDriver, "gate", -1.0)  # rejects everything
    with caplog.at_level(logging.DEBUG, logger="lie_estimate"):
        rejected = cli.run_estimator("human-ekf", records, S.walker_chain(),
                                     E.NoiseConfig())
    messages = [r.getMessage() for r in caplog.records
                if r.name == "lie_estimate" and r.levelno == logging.DEBUG]
    stance = sum(1 for r in records
                 if r["kind"] == "contact" and (r["left"] or r["right"]))
    assert len(messages) == 2 * stance
    assert sum("linear ZUPT rejected" in m for m in messages) == stance
    assert all("innovation gate failed" in m and m.startswith("t=")
               for m in messages)
    # the log records the rejection and nothing else: the estimates equal
    # a replay with the ZUPTs left out
    def reject(*args, **kwargs):
        raise FC.MeasurementRejected("left out")
    monkeypatch.setattr(HE, "human_update_zupt_linear", reject)
    monkeypatch.setattr(HE, "human_update_zupt_angular", reject)
    skipped = cli.run_estimator("human-ekf", records, S.walker_chain(),
                                E.NoiseConfig())
    for a, b in zip(rejected, skipped):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_identical_is_zero(short_walk, capsys):
    _, truth = short_walk
    assert run_cli("evaluate", truth, truth) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ate_pos_m"] == 0.0
    assert report["ate_rot_deg"] == 0.0


def test_evaluate_constant_offset(tmp_path, capsys):
    rot = np.eye(3)
    truth_rows = [(0.1 * k, np.array([0.0, 0.0, 0.5]), rot, np.zeros(3))
                  for k in range(10)]
    est_rows = [(t, p + np.array([0.03, 0.0, 0.0]), r, v)
                for t, p, r, v in truth_rows]
    tp, ep = str(tmp_path / "t.csv"), str(tmp_path / "e.csv")
    cli.write_trajectory_csv(tp, truth_rows)
    cli.write_trajectory_csv(ep, est_rows)
    run_cli("evaluate", tp, ep)
    report = json.loads(capsys.readouterr().out)
    assert abs(report["ate_pos_m"] - 0.03) < 1e-9
    assert report["rpe_pos_m"] < 1e-9  # a global shift cancels in increments


# ---------------------------------------------------------------------------
# average


def test_average_rotation_midpoint(tmp_path, capsys):
    qa = G.rotation_to_quaternion(G.rpy_to_rotation(0.0, 0.0, 0.2).matrix)
    qb = G.rotation_to_quaternion(G.rpy_to_rotation(0.0, 0.0, -0.2).matrix)
    path = str(tmp_path / "rots.json")
    json.dump({"elements": [qa.tolist(), qb.tolist()]}, open(path, "w"))
    assert run_cli("average", path, "--mode", "rotation", "--step-size",
                   "1.0", "--tolerance", "1e-12") == 0
    out = json.loads(capsys.readouterr().out)
    mean = G.quaternion_to_rotation(np.asarray(out["quaternion"]))
    np.testing.assert_allclose(mean, np.eye(3), atol=1e-9)


def test_average_pose(tmp_path, capsys):
    q = G.rotation_to_quaternion(np.eye(3)).tolist()
    elems = [[0.0, 0.0, 1.0] + q, [0.0, 0.0, 3.0] + q]
    path = str(tmp_path / "poses.json")
    json.dump({"elements": elems}, open(path, "w"))
    assert run_cli("average", path, "--mode", "pose", "--step-size",
                   "1.0", "--tolerance", "1e-10") == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(out["position"], [0.0, 0.0, 2.0], atol=1e-6)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_estimator_exits_2(short_walk, tmp_path):
    log, _ = short_walk
    with pytest.raises(SystemExit) as exc:
        run_cli("run", log, "--estimator", "nope",
                "--out", str(tmp_path / "e.csv"))
    assert exc.value.code == 2


def test_missing_log_exits_3(tmp_path, capsys):
    code = run_cli("run", str(tmp_path / "nothing.jsonl"),
                   "--estimator", "swa", "--out", str(tmp_path / "e.csv"))
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_corrupt_log_exits_3(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0.0, "kind": "imu"\n')
    code = run_cli("run", str(bad), "--estimator", "swa",
                   "--out", str(tmp_path / "e.csv"))
    assert code == 3


def test_backwards_time_exits_3(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"t": 1.0, "kind": "imu", "accel": [0,0,9.8], "gyro": [0,0,0]}\n'
        '{"t": 0.5, "kind": "imu", "accel": [0,0,9.8], "gyro": [0,0,0]}\n')
    code = run_cli("run", str(bad), "--estimator", "swa",
                   "--out", str(tmp_path / "e.csv"))
    assert code == 3


def test_average_bad_shape_exits_3(tmp_path):
    path = str(tmp_path / "bad.json")
    json.dump({"elements": [[1.0, 0.0]]}, open(path, "w"))
    assert run_cli("average", path, "--mode", "rotation") == 3


def test_average_empty_exits_3(tmp_path):
    path = str(tmp_path / "empty.json")
    json.dump({"elements": []}, open(path, "w"))
    assert run_cli("average", path) == 3
