"""Landmark pose blocks inside the flat-foot estimator state.

A landmark is a static world pose appended between the foot blocks and the
bias block. Augmentation inserts the pose with its prior covariance and no
cross-correlation; marginalization deletes the rows and columns, leaving
the remaining covariance untouched.
"""

from __future__ import annotations

import numpy as np

from .. import groups as G
from .diligent import DiligentState


def augment_landmark(state, landmark_id, pose, prior_covariance) -> DiligentState:
    """Insert a landmark pose with the given 6x6 prior covariance."""
    if landmark_id in state.landmark_ids:
        raise G.InvalidArgumentError(f"landmark {landmark_id!r} already present")
    if pose.tag != G.SE3:
        raise G.InvalidArgumentError("landmark pose must be a rigid transform")
    prior = np.asarray(prior_covariance, float)
    if prior.shape != (6, 6):
        raise G.InvalidArgumentError("landmark prior covariance must be 6x6")
    parts = G.composite_parts(state.element)
    element = G.composite_of(*parts[:-1], pose, parts[-1])
    n_old = len(state.landmark_ids)
    dim_new = state.dim + 6
    insert_at = 21 + 6 * n_old
    cov = np.zeros((dim_new, dim_new))
    keep = np.r_[np.arange(insert_at), np.arange(insert_at + 6, dim_new)]
    cov[np.ix_(keep, keep)] = state.covariance
    cov[insert_at:insert_at + 6, insert_at:insert_at + 6] = prior
    return DiligentState(element, cov, state.landmark_ids + (landmark_id,))


def marginalize_landmark(state, landmark_id) -> DiligentState:
    """Drop a landmark, deleting its state block and covariance rows/cols."""
    if landmark_id not in state.landmark_ids:
        raise G.InvalidArgumentError(f"unknown landmark {landmark_id!r}")
    idx = state.landmark_ids.index(landmark_id)
    parts = G.composite_parts(state.element)
    kept_parts = parts[:3 + idx] + parts[4 + idx:]
    element = G.composite_of(*kept_parts)
    start = 21 + 6 * idx
    keep = np.r_[np.arange(start), np.arange(start + 6, state.dim)]
    cov = state.covariance[np.ix_(keep, keep)]
    ids = state.landmark_ids[:idx] + state.landmark_ids[idx + 1:]
    return DiligentState(element, cov, ids)


def landmark_pose(state, landmark_id) -> G.GroupElement:
    if landmark_id not in state.landmark_ids:
        raise G.InvalidArgumentError(f"unknown landmark {landmark_id!r}")
    idx = state.landmark_ids.index(landmark_id)
    return G.composite_parts(state.element)[3 + idx]

