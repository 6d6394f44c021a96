"""Pose evaluation: ADD, ADD-S, 2D projection error and threshold judgments.

A pose is counted correct when ADD is strictly below 10% of the model
diameter (ADD-S is judged by the same rule), or when the mean 2D
projection error is strictly below 5 px.

ADD-S is scored only for a symmetric model, and only ``add_s_score``
uses scipy, importing its ``cKDTree`` on first use: the import costs
about 0.5 s and 35 MB per process, so only ``eval --symmetric`` loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSupportError
from .geometry import Intrinsics, Pose, project
from .model_tools import ModelCloud

PROJ2D_THRESHOLD_PX = 5.0
ADD_DIAMETER_FRACTION = 0.1


@dataclass
class EvalRecord:
    add: float
    add_s: float
    proj2d: float
    add_correct: bool
    proj_correct: bool
    add_s_correct: bool


def add_score(gt: Pose, est: Pose, points) -> float:
    """Mean 3D distance between model points under the two poses."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise InsufficientSupportError("empty point set")
    d = np.linalg.norm(gt.apply(pts) - est.apply(pts), axis=-1)
    return float(np.mean(d))


def add_s_score(gt: Pose, est: Pose, points) -> float:
    """Closest-point variant for symmetric objects: mean over ground-truth
    points of the distance to the nearest estimated-pose point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise InsufficientSupportError("empty point set")
    from scipy.spatial import cKDTree  # lazy: a 0.5 s import only eval --symmetric needs

    d, _ = cKDTree(est.apply(pts)).query(gt.apply(pts), k=1)
    return float(np.mean(d))


def proj2d_error(gt: Pose, est: Pose, points, intr: Intrinsics) -> float:
    """Mean pixel distance between projections under the two poses."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise InsufficientSupportError("empty point set")
    d = np.linalg.norm(project(gt, intr, pts) - project(est, intr, pts), axis=-1)
    return float(np.mean(d))


def judge(add: float, diameter: float, proj: float):
    """(add_correct, proj_correct) with strict inequalities."""
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    return add < ADD_DIAMETER_FRACTION * diameter, proj < PROJ2D_THRESHOLD_PX


def evaluate(gt: Pose, est: Pose, cloud: ModelCloud, intr: Intrinsics,
             diameter: float) -> EvalRecord:
    """Full record for one estimated pose. ADD-S is scored only when the
    cloud is symmetric; otherwise the record holds nan and incorrect."""
    points = cloud.points
    add = add_score(gt, est, points)
    proj = proj2d_error(gt, est, points, intr)
    add_ok, proj_ok = judge(add, diameter, proj)
    add_s, add_s_ok = np.nan, False
    if cloud.symmetric:
        add_s = add_s_score(gt, est, points)
        add_s_ok, _ = judge(add_s, diameter, proj)
    return EvalRecord(add=add, add_s=add_s, proj2d=proj, add_correct=add_ok,
                      proj_correct=proj_ok, add_s_correct=add_s_ok)
