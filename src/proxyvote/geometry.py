"""Closed-form 2D/3D geometry: rigid poses, pinhole intrinsics and
projection, point-to-line distance and pixel centres.

Conventions: image coordinates are continuous pixel centers, so pixel
(row i, col j) sits at (x, y) = (j + 0.5, i + 0.5). 2D points are
(x, y) arrays, 3D points (x, y, z) arrays; stacks use the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, DegenerateInputError

# Direction vectors shorter than this are treated as degenerate.
EPS_NORM = 1e-8
# Rays whose normalized cross product is below this are parallel.
EPS_PARALLEL = 1e-6


@dataclass(frozen=True)
class Pose:
    """Rigid transform (R, t) from object to camera coordinates."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("pose has non-finite entries")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        """Transform (..., 3) object points into the camera frame."""
        X = np.asarray(points, dtype=float)
        return X @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError(f"non-finite value in {self}")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")


def point_line_distance(p, v, k):
    """Perpendicular distance from k to the line through p with direction v.

    v need not be unit length; it is normalized internally.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    k = np.asarray(k, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n < EPS_NORM:
        raise DegenerateInputError(f"near-zero direction: v={v}")
    cross = v[0] * (k[1] - p[1]) - v[1] * (k[0] - p[0])
    return abs(cross) / n


def project(pose: Pose, intr: Intrinsics, points):
    """Pinhole projection of (..., 3) object points to (..., 2) pixels."""
    cam = pose.apply(points)
    z = cam[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("point has non-positive camera-frame depth")
    x = intr.fx * cam[..., 0] / z + intr.cx
    y = intr.fy * cam[..., 1] / z + intr.cy
    return np.stack([x, y], axis=-1)


def pixel_centers(mask) -> np.ndarray:
    """(M, 2) centres (x, y) of the set pixels of an (H, W) mask, row-major."""
    rows, cols = np.nonzero(mask)
    return np.column_stack([cols + 0.5, rows + 0.5])
