"""Synthetic scene generation and on-disk scene format.

Scenes are built by sampling a pose, splatting the projected model
points into a mask (a pixel is set when its centre lies within 1.5 px
of a projected point; all points are tested on one stencil array and
set in one scatter) and deriving the ideal per-keypoint direction
fields. Corruption rotates directions by Gaussian angles,
flips them with some probability and removes a contiguous occlusion
blob from the mask.

On disk a scene is a directory with: mask.pgm (P2), pose.json
({rotation: 9 row-major, translation: 3, fx, fy, cx, cy}),
keypoints.csv (kx,ky,X,Y,Z) and field_##.csv (row,col,vx,vy over
masked pixels).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ModelLoadError
from .geometry import Intrinsics, Pose, pixel_centers, project
from .model_tools import KeypointSet, ModelCloud

SPLAT_RADIUS = 1.5


@dataclass
class SceneSample:
    pose: Pose
    intr: Intrinsics
    mask: np.ndarray  # (H, W) bool
    keypoints2: np.ndarray  # (K, 2) projected keypoints, may fall outside mask
    keypoints3: np.ndarray  # (K, 3) model-frame keypoints
    gt_fields: np.ndarray  # (K, H, W, 2) unit directions, zero off-mask
    width: int
    height: int


@dataclass(frozen=True)
class NoiseSpec:
    angular_sigma: float = 0.0  # degrees
    flip_prob: float = 0.0
    occlusion_frac: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.angular_sigma < 0:
            raise ValueError("angular_sigma must be >= 0")
        if not (0 <= self.flip_prob <= 1 and 0 <= self.occlusion_frac <= 1):
            raise ValueError("probabilities must be in [0, 1]")


@dataclass(frozen=True)
class PoseRanges:
    x_range: tuple = (-0.05, 0.05)
    y_range: tuple = (-0.05, 0.05)
    z_range: tuple = (0.5, 2.0)
    margin: float = 4.0  # px kept clear of the image border

    def __post_init__(self):
        if self.z_range[0] <= 0:
            raise ValueError("z range must be positive")


def _random_rotation(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def sample_pose(rng, ranges: PoseRanges, cloud: ModelCloud, intr: Intrinsics,
                width: int, height: int) -> Pose:
    """Uniform random rotation + boxed translation such that the whole
    model projects inside the image with the configured margin."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    pts = cloud.points
    for _ in range(1000):
        R = _random_rotation(rng)
        t = np.array(
            [
                rng.uniform(*ranges.x_range),
                rng.uniform(*ranges.y_range),
                rng.uniform(*ranges.z_range),
            ]
        )
        pose = Pose(R, t)
        cam = pose.apply(pts)
        if np.any(cam[:, 2] <= 0):
            continue
        proj = project(pose, intr, pts)
        m = ranges.margin
        if (proj[:, 0] >= m).all() and (proj[:, 0] <= width - m).all() \
                and (proj[:, 1] >= m).all() and (proj[:, 1] <= height - m).all():
            return pose
    raise ConfigurationError("pose sampling failed after 1000 rejections")


def _splat_mask(proj, width, height, radius=SPLAT_RADIUS) -> np.ndarray:
    """Pixels whose centre lies within `radius` of any projected point.

    Each point's clipped pixel box is laid on a fixed S x S stencil
    (S = the widest box); the cells inside the box whose centre passes
    the disc test are set in one scatter.
    """
    mask = np.zeros((height, width), dtype=bool)
    proj = np.asarray(proj, dtype=float).reshape(-1, 2)
    px, py = proj[:, 0], proj[:, 1]
    r2 = radius * radius
    j0 = np.maximum(np.floor(px - radius - 0.5).astype(np.int64), 0)
    j1 = np.minimum(np.ceil(px + radius - 0.5).astype(np.int64), width - 1)
    i0 = np.maximum(np.floor(py - radius - 0.5).astype(np.int64), 0)
    i1 = np.minimum(np.ceil(py + radius - 0.5).astype(np.int64), height - 1)
    keep = (j1 >= j0) & (i1 >= i0)
    if not keep.any():
        return mask
    px, py, j0, j1, i0, i1 = (a[keep] for a in (px, py, j0, j1, i0, i1))
    step = np.arange(1 + int(max((j1 - j0).max(), (i1 - i0).max())))
    jj = j0[:, None, None] + step[None, None, :]  # (N, 1, S)
    ii = i0[:, None, None] + step[None, :, None]  # (N, S, 1)
    d2 = (jj + 0.5 - px[:, None, None]) ** 2 + (ii + 0.5 - py[:, None, None]) ** 2
    hit = (d2 <= r2) & (jj <= j1[:, None, None]) & (ii <= i1[:, None, None])
    n, i, j = np.nonzero(hit)
    mask[ii[n, i, 0], jj[n, 0, j]] = True
    return mask


def _ideal_fields(mask, keypoints2, height, width) -> np.ndarray:
    """(K, H, W, 2) unit directions from each masked pixel centre to each
    keypoint, zero outside the mask and within 1e-9 of the keypoint."""
    diff = np.asarray(keypoints2, dtype=float)[:, None, :] - pixel_centers(height, width)[mask]
    r = np.hypot(diff[..., 0], diff[..., 1])[..., None]  # (K, M, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = diff / np.where(r > 0, r, 1.0)
    fields = np.zeros((len(diff), height, width, 2))
    fields[:, mask] = np.where(r >= 1e-9, f, 0.0)
    return fields


def make_scene(cloud: ModelCloud, keys: KeypointSet, pose: Pose, intr: Intrinsics,
               width: int, height: int) -> SceneSample:
    """Rasterize the mask and build ideal direction fields for each keypoint."""
    proj = project(pose, intr, cloud.points)
    mask = _splat_mask(proj, width, height)
    keypoints2 = project(pose, intr, keys.points3)
    fields = _ideal_fields(mask, keypoints2, height, width)
    return SceneSample(pose=pose, intr=intr, mask=mask, keypoints2=keypoints2,
                       keypoints3=np.asarray(keys.points3, dtype=float).copy(),
                       gt_fields=fields, width=width, height=height)


def _grow_blob(mask, n_remove, rng):
    """Contiguous pixel set grown breadth-first from a random masked seed."""
    idx = np.flatnonzero(mask.ravel())
    if n_remove <= 0 or len(idx) == 0:
        return np.zeros_like(mask)
    h, w = mask.shape
    start = int(rng.choice(idx))
    blob = np.zeros_like(mask)
    seen = {start}
    queue = deque([start])
    removed = 0
    while queue and removed < n_remove:
        cur = queue.popleft()
        i, j = divmod(cur, w)
        if not mask[i, j]:
            continue
        blob[i, j] = True
        removed += 1
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= ni < h and 0 <= nj < w:
                nxt = ni * w + nj
                if nxt not in seen and mask[ni, nj]:
                    seen.add(nxt)
                    queue.append(nxt)
    return blob


def corrupt(sample: SceneSample, spec: NoiseSpec) -> SceneSample:
    """Angular noise, random flips and a grown occlusion blob; deterministic
    per spec.rng_seed. The returned mask is a subset of the original."""
    rng = np.random.default_rng(spec.rng_seed)
    k, h, w = sample.gt_fields.shape[:3]
    sigma = np.deg2rad(spec.angular_sigma)

    theta = rng.normal(0.0, sigma, size=(k, h, w)) if sigma > 0 else np.zeros((k, h, w))
    flips = rng.random(size=(k, h, w)) < spec.flip_prob

    n_remove = int(round(spec.occlusion_frac * np.count_nonzero(sample.mask)))
    blob = _grow_blob(sample.mask, n_remove, rng)
    new_mask = sample.mask & ~blob

    c, s = np.cos(theta), np.sin(theta)
    fx = sample.gt_fields[..., 0]
    fy = sample.gt_fields[..., 1]
    rx = c * fx - s * fy
    ry = s * fx + c * fy
    sign = np.where(flips, -1.0, 1.0)
    fields = np.stack([sign * rx, sign * ry], axis=-1)
    fields = np.where(new_mask[None, :, :, None], fields, 0.0)

    return replace(sample, mask=new_mask, gt_fields=fields)


# ---------------------------------------------------------------------------
# scene directory format


def _fmt(x) -> str:
    return repr(float(x))


def write_atomic(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def save_scene(directory, sample: SceneSample):
    os.makedirs(directory, exist_ok=True)
    # mask as P2 PGM
    rows = [" ".join(row) for row in np.where(sample.mask, "255", "0").tolist()]
    pgm = f"P2\n{sample.width} {sample.height}\n255\n" + "\n".join(rows) + "\n"
    write_atomic(os.path.join(directory, "mask.pgm"), pgm)

    pose_doc = {
        "rotation": [float(v) for v in sample.pose.rotation.ravel()],
        "translation": [float(v) for v in sample.pose.translation],
        "fx": sample.intr.fx,
        "fy": sample.intr.fy,
        "cx": sample.intr.cx,
        "cy": sample.intr.cy,
    }
    write_atomic(os.path.join(directory, "pose.json"),
                 json.dumps(pose_doc, indent=2, sort_keys=True) + "\n")

    lines = ["kx,ky,X,Y,Z"]
    for k2, k3 in zip(sample.keypoints2, sample.keypoints3):
        lines.append(",".join([_fmt(k2[0]), _fmt(k2[1]),
                               _fmt(k3[0]), _fmt(k3[1]), _fmt(k3[2])]))
    write_atomic(os.path.join(directory, "keypoints.csv"), "\n".join(lines) + "\n")

    ii, jj = np.nonzero(sample.mask)
    cells = list(zip(ii.tolist(), jj.tolist()))
    for fi, f in enumerate(sample.gt_fields):
        # repr of a Python float is _fmt of the numpy scalar, -0.0 included
        lines = ["row,col,vx,vy"]
        lines += [f"{i},{j},{x!r},{y!r}" for (i, j), (x, y) in zip(cells, f[ii, jj].tolist())]
        write_atomic(os.path.join(directory, f"field_{fi:02d}.csv"),
                     "\n".join(lines) + "\n")


def _load_pgm(path):
    with open(path) as f:
        tokens = []
        for line in f:
            hash_pos = line.find("#")
            if hash_pos >= 0:
                line = line[:hash_pos]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ModelLoadError(f"{path}: not a P2 PGM")
    w, h = int(tokens[1]), int(tokens[2])
    vals = np.array(tokens[4:4 + w * h], dtype=int).reshape(h, w)
    return vals > 0


def _load_csv(path, columns) -> np.ndarray:
    """(M, columns) floats of a comma-separated file below its header line."""
    with open(path) as f:
        rows = f.read().splitlines()[1:]
    tokens = ",".join(rows).split(",") if rows else []
    if len(tokens) != len(rows) * columns:
        raise ModelLoadError(f"{path}: expected {columns} columns per row")
    try:
        data = np.array(tokens, dtype=float).reshape(-1, columns)
    except ValueError as e:
        raise ModelLoadError(f"{path}: {e}") from None
    if not np.all(np.isfinite(data)):
        raise ModelLoadError(f"{path}: non-finite values")
    return data


def load_scene(directory) -> SceneSample:
    mask = _load_pgm(os.path.join(directory, "mask.pgm"))
    h, w = mask.shape
    with open(os.path.join(directory, "pose.json")) as f:
        doc = json.load(f)
    pose = Pose(np.array(doc["rotation"]).reshape(3, 3), np.array(doc["translation"]))
    intr = Intrinsics(fx=doc["fx"], fy=doc["fy"], cx=doc["cx"], cy=doc["cy"])

    keypoints = _load_csv(os.path.join(directory, "keypoints.csv"), 5)
    keypoints2 = keypoints[:, :2]
    keypoints3 = keypoints[:, 2:5]

    fields = np.zeros((len(keypoints), h, w, 2))
    for fi in range(len(keypoints)):
        data = _load_csv(os.path.join(directory, f"field_{fi:02d}.csv"), 4)
        rows = data[:, 0].astype(int)
        cols = data[:, 1].astype(int)
        fields[fi, rows, cols, 0] = data[:, 2]
        fields[fi, rows, cols, 1] = data[:, 3]
    return SceneSample(pose=pose, intr=intr, mask=mask, keypoints2=keypoints2,
                       keypoints3=keypoints3, gt_fields=fields, width=w, height=h)
