"""Span tracing around the public functions of each lie_estimate layer.

The wrappers live here, not in the program: `Tracer.patched` swaps module
and class attributes for wrappers while a block runs and restores them
afterwards. Every call records a span (name, start, end, parent); spans
are folded as they close into per-name totals, so memory does not grow
with the length of a replay. A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time

from lie_estimate import averaging as A
from lie_estimate import cli
from lie_estimate import estimators as E
from lie_estimate import evaluation as EV
from lie_estimate import filtercore as FC
from lie_estimate import groups as G
from lie_estimate import kinematics as K
from lie_estimate import simdata as S
from lie_estimate import uncertainty as U
from lie_estimate.estimators import human_ekf as HE

# layer -> the attributes whose calls make it up. The owner is the object
# the callers look the name up on, so the wrapper is the one they call.
TIMED_LAYERS = {
    "cli.read_sensor_log": [(cli, "read_sensor_log")],
    "cli.driver_dt": [(cli, "driver_dt")],
    "cli.run_estimator": [(cli, "run_estimator")],
    "cli.write_trajectory_csv": [(cli, "write_trajectory_csv")],
    "cli.read_trajectory_csv": [(cli, "read_trajectory_csv")],
    "estimators.predict": [
        (E, "diligent_predict"), (E, "diligent_rie_predict"),
        (E, "codiligent_predict"), (HE, "human_ekf_predict")],
    "estimators.update": [
        (E, "diligent_update"), (E, "diligent_rie_update"),
        (HE, "human_update_relative_contact_position"),
        (HE, "human_update_terrain_height"), (HE, "human_update_base_gyro"),
        (HE, "human_update_zupt_linear"), (HE, "human_update_zupt_angular")],
    "estimators.measurement": [
        (E, "foot_pose_measurement"), (HE, "vertex_position_measurement")],
    "estimators.swa_step": [(E, "swa_step")],
    "filtercore.predict": [
        (FC, "dlgekf_predict"), (FC, "dlgekf_rie_predict"),
        (FC, "invekf_propagate")],
    "filtercore.update": [
        (FC, "dlgekf_update"), (FC, "dlgekf_rie_update"),
        (FC, "invekf_update")],
    "uncertainty.transport_covariance": [(U, "transport_covariance")],
    "kinematics.link_poses": [(K.KinematicChain, "link_poses")],
    "kinematics.fk": [(K, "relative_fk"), (K.KinematicChain, "frame_pose")],
    "kinematics.jacobian": [
        (K, "relative_jacobian_left_trivialized"), (K, "mixed_jacobian")],
    "kinematics.odometry": [
        (K, "odometry_start"), (K, "odometry_update"),
        (K, "base_velocity_from_contact"), (K, "fused_base_velocity")],
    "groups.exp": [(G, "exp")],
    "groups.log": [(G, "log")],
    "groups.adjoint": [(G, "adjoint")],
    "groups.compose": [(G, "compose")],
    "groups.inverse": [(G, "inverse")],
    "groups.jacobian": [
        (G, "left_jacobian"), (G, "right_jacobian"),
        (G, "left_jacobian_inv"), (G, "right_jacobian_inv")],
    # validated constructions only: internal results bypass __init__
    "groups.element_checks": [(G.GroupElement, "__post_init__")],
    "groups.composite_parts": [(G, "composite_parts")],
    "averaging.karcher_mean": [(A, "karcher_mean")],
    "evaluation": [(EV, "evaluate")],
}

SETUP_LAYERS = {
    "simdata.generate_walk": [(S, "generate_walk")],
    "simdata.emulate": [
        (S, "emulate_imu"), (S, "emulate_encoders"),
        (S, "emulate_contacts"), (S, "emulate_wrenches")],
}

# The human-EKF ZUPT updates are gated; the CLI driver drops a rejection
# without a trace, so the wrapper counts the MeasurementRejected it sees.
GATED = ("human_update_zupt_linear", "human_update_zupt_angular")

# (metric, layer, field): the per-layer metrics in BENCHMARK.json order.
PER_LAYER = (
    [(f"{layer}.{f}", layer, f)
     for layer, fields in (
         ("cli.read_sensor_log", ("calls", "self_s")),
         ("cli.driver_dt", ("calls", "self_s")),
         ("cli.run_estimator", ("self_s",)),
         ("cli.write_trajectory_csv", ("self_s",)),
         ("cli.read_trajectory_csv", ("self_s",)),
         ("estimators.predict", ("calls", "self_s")),
         ("estimators.update", ("calls", "self_s")),
         ("estimators.measurement", ("calls", "self_s")),
         ("estimators.swa_step", ("self_s",)),
         ("estimators.gate", ("attempted", "accepted_ratio")),
         ("filtercore.predict", ("calls", "self_s")),
         ("filtercore.update", ("calls", "self_s")),
         ("uncertainty.transport_covariance", ("calls", "self_s")),
         ("kinematics.link_poses", ("calls", "self_s", "per_step")),
         ("kinematics.fk", ("self_s",)),
         ("kinematics.jacobian", ("calls", "self_s")),
         ("kinematics.odometry", ("self_s",)),
         ("groups.exp", ("calls", "self_s")),
         ("groups.log", ("calls", "self_s")),
         ("groups.adjoint", ("calls", "self_s")),
         ("groups.compose", ("calls", "self_s")),
         ("groups.inverse", ("calls", "self_s")),
         ("groups.jacobian", ("calls", "self_s")),
         ("groups.element_checks", ("calls", "self_s")),
         ("groups.composite_parts", ("calls",)),
         ("averaging.karcher_mean", ("calls", "self_s")),
         ("evaluation", ("self_s",)),
         ("simdata.generate_walk", ("self_s",)),
         ("simdata.emulate", ("self_s",)))
     for f in fields])

UNITS = {"calls": "count", "self_s": "s", "per_step": "calls/step",
         "attempted": "count", "accepted_ratio": "ratio"}


def _span_name(owner, attr):
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Per-name span totals: calls, self seconds, and exceptions raised.

    `edges` keeps the same totals per (parent, child) pair, which is the
    call tree folded over time.
    """

    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        self.stats = {}
        self.edges = {}

    def wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self._record(self.stats, name, duration - frame[1], raised)
                self._record(self.edges, (parent, name), duration - frame[1],
                             raised)
        return traced

    @staticmethod
    def _record(table, key, self_s, raised):
        entry = table.get(key)
        if entry is None:
            table[key] = [1, self_s, raised]
        else:
            entry[0] += 1
            entry[1] += self_s
            entry[2] += raised

    @contextlib.contextmanager
    def patched(self, layers):
        """Route every call of the layers' attributes through span wrappers
        for the duration of the block."""
        saved = []
        try:
            for members in layers.values():
                for owner, attr in members:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr,
                            self.wrap(_span_name(owner, attr), original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self, layers):
        """Fold span totals into {layer: {"calls", "self_s", "raised"}}."""
        out = {}
        for layer, members in layers.items():
            calls = self_s = raised = 0
            for owner, attr in members:
                c, s, r = self.stats.get(_span_name(owner, attr), (0, 0.0, 0))
                calls, self_s, raised = calls + c, self_s + s, raised + r
            out[layer] = {"calls": calls, "self_s": self_s, "raised": raised}
        gated = [self.stats.get(f"human_ekf.{n}", (0, 0.0, 0)) for n in GATED]
        attempted = sum(g[0] for g in gated)
        rejected = sum(g[2] for g in gated)
        out["estimators.gate"] = {
            "attempted": attempted,
            # 0 when no gated update ran, as on the workloads without it
            "accepted_ratio": ((attempted - rejected) / attempted
                               if attempted else 0.0)}
        return out

    def dump(self):
        """The folded call tree, for the trace file."""
        return [{"parent": p, "name": n, "calls": c, "self_s": s,
                 "raised": r}
                for (p, n), (c, s, r) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1])]
