"""The replay benchmark's tracer (bench/tracing.py) swaps attributes of the
program by name; these tests keep those names alive and meaningful."""

import importlib
import os
import sys

import numpy as np
import pytest

import lie_estimate.cli as cli
import lie_estimate.estimators as E
import lie_estimate.filtercore as FC
import lie_estimate.groups as G
import lie_estimate.simdata as S
from lie_estimate.estimators.diligent import ImuInput

from conftest import random_element
from test_estimators import random_diligent_state, standing_setup

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)
        sys.modules.pop("tracing", None)


def test_every_traced_attribute_resolves(tracing):
    for layers in (tracing.TIMED_LAYERS, tracing.SETUP_LAYERS):
        for layer, members in layers.items():
            for owner, attr in members:
                assert callable(getattr(owner, attr, None)), (layer, attr)


def _mean(result):
    """The mean matrix of a DiligentState or a BeliefState."""
    if isinstance(result, FC.BeliefState):
        return result.mean.matrix
    return result.element.matrix


def test_rie_names_are_the_left_error_side(rng):
    _, _, imu, meas = standing_setup()
    state = random_diligent_state(rng, scale=0.1)
    imu = ImuInput(imu.accel + 0.1, imu.gyro + 0.2, imu.dt)
    contacts = {"left": True, "right": False}
    noise = E.NoiseConfig()
    pairs = [
        (E.diligent_rie_predict(state, imu, contacts, noise),
         E.diligent_predict(state, imu, contacts, noise, side="left")),
        (E.diligent_rie_update(state, meas),
         E.diligent_update(state, meas, side="left")),
    ]
    x = random_element(G.SE3, rng)
    belief = FC.BeliefState(x, 0.01 * np.eye(6))
    dt = 0.1
    motion = (G.TangentVector(G.SE3, dt * np.arange(6.0)),
              dt * np.ones((6, 6)), dt * np.eye(6))
    z = G.compose(x, G.exp(G.TangentVector(G.SE3, 0.05 * np.ones(6))))
    meas_model = (x, z, np.eye(6), 0.1 * np.eye(6))
    pairs += [
        (FC.dlgekf_rie_predict(belief, *motion),
         FC.dlgekf_predict(belief, *motion, side="left")),
        (FC.dlgekf_rie_update(belief, *meas_model),
         FC.dlgekf_update(belief, *meas_model, side="left")),
    ]
    for alias, merged in pairs:
        assert np.array_equal(_mean(alias), _mean(merged))
        assert np.array_equal(alias.covariance, merged.covariance)
    # the right side gives a different answer, so the check above has teeth
    right = FC.dlgekf_predict(belief, *motion)
    assert not np.array_equal(right.covariance, pairs[2][1].covariance)


@pytest.mark.parametrize("name, predict, variant, side", [
    ("diligent-kio-rie", "diligent_predict", "left", "left"),
    ("diligent-kio", "diligent_predict", "right", "right"),
    ("codiligent-kio", "codiligent_predict", "lie", "right"),
    ("codiligent-kio-rie", "codiligent_predict", "rie", "left"),
])
def test_drivers_look_the_filter_steps_up_at_call_time(monkeypatch, name,
                                                       predict, variant,
                                                       side):
    traj = S.generate_walk(S.WalkProfile(duration=0.5, rate=100.0), seed=1)
    zero = E.NoiseConfig(accel=0.0, gyro=0.0, accel_bias=0.0, gyro_bias=0.0,
                         encoder=0.0)
    records = sorted(S.emulate_imu(traj, zero) + S.emulate_encoders(traj)
                     + S.emulate_contacts(traj),
                     key=lambda r: (r["t"], r["kind"]))
    seen = {predict: [], "diligent_update": []}
    for attr in seen:
        def spy(*args, original=getattr(E, attr), calls=seen[attr], **kwargs):
            # diligent_* get side=..., codiligent_predict a variant
            calls.append(kwargs["side"] if "side" in kwargs else args[4])
            return original(*args, **kwargs)
        monkeypatch.setattr(E, attr, spy)
    cli.run_estimator(name, records, S.walker_chain(), E.NoiseConfig())
    assert len(seen[predict]) == sum(1 for r in records if r["kind"] == "imu")
    assert set(seen[predict]) == {variant}
    assert len(seen["diligent_update"]) == sum(
        1 for r in records if r["kind"] == "encoder")
    assert set(seen["diligent_update"]) == {side}
