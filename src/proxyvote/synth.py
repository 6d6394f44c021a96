"""Synthetic scene generation and on-disk scene format.

Scenes are built by sampling a pose, splatting the projected model
points into a mask (a pixel is set when its centre lies within 1.5 px
of a projected point; all points are tested on one stencil array and
set in one scatter) and deriving the ideal per-keypoint direction
fields. Corruption removes a contiguous occlusion blob from the mask,
then rotates the directions at the pixels left by Gaussian angles and
flips them with some probability; its noise is drawn only for those
pixels.

On disk a scene is a directory with four files: mask.pgm (P2),
pose.json ({rotation: 9 row-major, translation: 3, fx, fy, cx, cy}),
keypoints.csv (kx,ky,X,Y,Z), and fields.npy, a float64 array of shape
(K, M, 2): each keypoint's field (vx, vy) at the M set pixels of
mask.pgm, in row-major order, so a value's row and column come from the
mask. A SceneSample holds its fields in the same (K, M, 2) form.

Every file the package writes goes through ``write_atomic`` (a temp file
and os.replace), its CSV text from ``csv_text`` and its JSON from
``write_json``, so a rewrite of the same data gives the same bytes.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .errors import DegenerateInputError, ModelLoadError
from .geometry import Intrinsics, Pose, pixel_centers, project
from .model_tools import ModelCloud

SPLAT_RADIUS = 1.5


@dataclass
class SceneSample:
    pose: Pose
    intr: Intrinsics
    mask: np.ndarray  # (H, W) bool
    keypoints2: np.ndarray  # (K, 2) projected keypoints, may fall outside mask
    keypoints3: np.ndarray  # (K, 3) model-frame keypoints
    fields: np.ndarray  # (K, M, 2) float64 directions at the M set pixels of mask, row-major

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def gt_fields(self) -> np.ndarray:
        """A fresh (K, H, W, 2) dense copy of fields, zero off the mask."""
        dense = np.zeros((len(self.fields), self.height, self.width, 2))
        dense[:, self.mask] = self.fields
        return dense


@dataclass(frozen=True)
class NoiseSpec:
    angular_sigma: float = 0.0  # degrees
    flip_prob: float = 0.0
    occlusion_frac: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not np.isfinite([self.angular_sigma, self.flip_prob, self.occlusion_frac]).all():
            raise ValueError(f"non-finite value in {self}")
        if self.angular_sigma < 0:
            raise ValueError("angular_sigma must be >= 0")
        if not (0 <= self.flip_prob <= 1 and 0 <= self.occlusion_frac <= 1):
            raise ValueError("probabilities must be in [0, 1]")


XY_RANGE = (-0.05, 0.05)  # m, the x and y of a sampled translation


@dataclass(frozen=True)
class PoseRanges:
    z_range: tuple = (0.5, 2.0)
    margin: float = 4.0  # px kept clear of the image border

    def __post_init__(self):
        if not np.isfinite([*self.z_range, self.margin]).all():
            raise ValueError(f"non-finite value in {self}")
        if self.z_range[0] <= 0:
            raise ValueError("z range must be positive")
        if self.z_range[0] > self.z_range[1]:
            raise ValueError(f"z range must not run backwards, got {self.z_range}")


def _random_rotation(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def sample_pose(rng: np.random.Generator, ranges: PoseRanges, cloud: ModelCloud,
                intr: Intrinsics, width: int, height: int) -> Pose:
    """Uniform random rotation + boxed translation such that the whole
    model projects inside the image with the configured margin."""
    pts = cloud.points
    for _ in range(1000):
        R = _random_rotation(rng)
        t = np.array([rng.uniform(*XY_RANGE), rng.uniform(*XY_RANGE),
                      rng.uniform(*ranges.z_range)])
        pose = Pose(R, t)
        cam = pose.apply(pts)
        if np.any(cam[:, 2] <= 0):
            continue
        proj = project(pose, intr, pts)
        m = ranges.margin
        if (proj[:, 0] >= m).all() and (proj[:, 0] <= width - m).all() \
                and (proj[:, 1] >= m).all() and (proj[:, 1] <= height - m).all():
            return pose
    raise DegenerateInputError("pose sampling failed after 1000 rejections")


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


def _ideal_fields(mask, keypoints2) -> np.ndarray:
    """(K, M, 2) unit directions from each masked pixel centre to each
    keypoint, zero within 1e-9 of the keypoint."""
    diff = np.asarray(keypoints2, dtype=float)[:, None, :] - pixel_centers(mask)
    r = np.hypot(diff[..., 0], diff[..., 1])[..., None]  # (K, M, 1)
    return np.divide(diff, r, out=np.zeros_like(diff), where=r >= 1e-9)


def make_scene(cloud: ModelCloud, keypoints3, pose: Pose, intr: Intrinsics,
               width: int, height: int) -> SceneSample:
    """Rasterize the mask and build ideal direction fields for each of the
    (K, 3) model-frame keypoints."""
    proj = project(pose, intr, cloud.points)
    mask = _splat_mask(proj, width, height)
    keypoints2 = project(pose, intr, keypoints3)
    return SceneSample(pose=pose, intr=intr, mask=mask, keypoints2=keypoints2,
                       keypoints3=np.array(keypoints3, dtype=float),
                       fields=_ideal_fields(mask, keypoints2))


def _grow_blob(mask, n_remove, rng):
    """Contiguous blob grown breadth-first from a random masked seed; queues masked pixels only."""
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
    per spec.rng_seed. The returned mask is a subset of the original.

    The blob is grown first; then one angle (when sigma > 0) and one flip
    draw are made per keypoint and pixel of the returned mask, in
    row-major pixel order.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n_remove = int(round(spec.occlusion_frac * np.count_nonzero(sample.mask)))
    new_mask = sample.mask & ~_grow_blob(sample.mask, n_remove, rng)

    f = sample.fields[:, new_mask[sample.mask]]  # (K, M, 2) at the kept pixels
    shape = f.shape[:2]
    sigma = np.deg2rad(spec.angular_sigma)
    theta = rng.normal(0.0, sigma, size=shape) if sigma > 0 else np.zeros(shape)
    sign = np.where(rng.random(size=shape) < spec.flip_prob, -1.0, 1.0)
    c, s = np.cos(theta), np.sin(theta)
    fx, fy = f[..., 0], f[..., 1]
    fields = np.stack([sign * (c * fx - s * fy), sign * (s * fx + c * fy)], axis=-1)
    return replace(sample, mask=new_mask, fields=fields)


# ---------------------------------------------------------------------------
# output writers and the scene directory format


def write_atomic(path, data):
    """Write data, a str or bytes, to path through a temp file and os.replace;
    the temp file is removed if the write or the replace fails."""
    tmp = f"{path}.tmp"
    f = open(tmp, "wb" if isinstance(data, bytes) else "w")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_json(path, doc):
    """Write doc to path as JSON: indent 2, sorted keys, a trailing newline."""
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def csv_text(header, columns) -> str:
    """CSV text: the header names, then one row per item of the equal-length
    columns. An integer or bool column is written in decimal, any other as
    repr of each float, which reads back to the same bits."""
    cells = [map(str, a.astype(int).tolist()) if a.dtype.kind in "biu"
             else map(repr, a.astype(float).tolist()) for a in map(np.asarray, columns)]
    return "\n".join([",".join(header), *map(",".join, zip(*cells, strict=True))]) + "\n"


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
    write_json(os.path.join(directory, "pose.json"), pose_doc)
    write_atomic(os.path.join(directory, "keypoints.csv"),
                 csv_text("kx ky X Y Z".split(),
                          np.hstack([sample.keypoints2, sample.keypoints3]).T))

    # np.save writes no timestamp, so equal fields give equal bytes
    npy = io.BytesIO()
    np.save(npy, np.ascontiguousarray(sample.fields, dtype=np.float64), allow_pickle=False)
    write_atomic(os.path.join(directory, "fields.npy"), npy.getvalue())


def _read_text(path) -> str:
    """The text of the file at path; ModelLoadError naming it if it does not decode."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ModelLoadError(f"{path}: {e}") from None


def _load_pgm(path):
    """Mask (value > 0) of a P2 PGM: any line wrapping, # comments, values past w·h ignored."""
    text = _read_text(path)
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    head = text.split(maxsplit=4)
    if len(head) < 4 or head[0] != "P2":
        raise ModelLoadError(f"{path}: not a P2 PGM")
    try:
        w, h, maxval = int(head[1]), int(head[2]), int(head[3])
        vals = np.fromstring(head[4] if len(head) > 4 else "", dtype=int, sep=" ")
    except ValueError as e:
        raise ModelLoadError(f"{path}: {e}") from None
    if w < 1 or h < 1:
        raise ModelLoadError(f"{path}: a {w}x{h} image; width and height must be positive")
    if not 1 <= maxval <= 65535:
        raise ModelLoadError(f"{path}: maxval {maxval}; it must be 1 to 65535")
    if len(vals) < w * h:
        raise ModelLoadError(f"{path}: {len(vals)} values for a {w}x{h} image")
    return vals[:w * h].reshape(h, w) > 0


def _load_csv(path, columns) -> np.ndarray:
    """(M, columns) floats of a comma-separated file below its header line."""
    rows = _read_text(path).splitlines()[1:]
    # checked per row: a long row and a short one keep the total token count
    if set(map(str.count, rows, repeat(","))) - {columns - 1}:
        raise ModelLoadError(f"{path}: expected {columns} columns per row")
    tokens = ",".join(rows).split(",") if rows else []
    try:
        data = np.array(tokens, dtype=float).reshape(-1, columns)
    except ValueError as e:
        raise ModelLoadError(f"{path}: {e}") from None
    if not np.all(np.isfinite(data)):
        raise ModelLoadError(f"{path}: non-finite values")
    return data


def _load_fields(path, shape) -> np.ndarray:
    """The finite float64 array of the given shape in the .npy file at path."""
    try:
        with open(path, "rb") as f:
            values = np.load(f, allow_pickle=False)
    except (EOFError, ValueError) as e:  # empty, cut short, pickled or object data
        raise ModelLoadError(f"{path}: {e}") from None
    if not isinstance(values, np.ndarray):  # an .npz archive
        raise ModelLoadError(f"{path}: not a single .npy array")
    if values.dtype != np.float64 or values.shape != shape:
        raise ModelLoadError(f"{path}: {values.dtype} array of shape {values.shape}, "
                             f"expected float64 of shape {shape}")
    if not np.all(np.isfinite(values)):
        raise ModelLoadError(f"{path}: non-finite values")
    return values


def _load_pose(path):
    """The Pose and Intrinsics of the pose.json at path."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise ModelLoadError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise ModelLoadError(f"{path}: not a JSON object")
    for key, n in (("rotation", 9), ("translation", 3), ("fx", 1), ("fy", 1), ("cx", 1),
                   ("cy", 1)):
        if key not in doc:
            raise ModelLoadError(f"{path}: no {key!r} key")
        items = doc[key] if n > 1 else [doc[key]]
        if not (isinstance(items, list) and len(items) == n and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                and abs(x) <= sys.float_info.max for x in items)):
            what = f"a list of {n} finite numbers" if n > 1 else "a finite number"
            raise ModelLoadError(f"{path}: {key!r} must be {what}")
    try:
        return (Pose(np.array(doc["rotation"]).reshape(3, 3), np.array(doc["translation"])),
                Intrinsics(fx=doc["fx"], fy=doc["fy"], cx=doc["cx"], cy=doc["cy"]))
    except ValueError as e:  # not a rotation, or a focal length <= 0
        raise ModelLoadError(f"{path}: {e}") from None


def load_scene(directory) -> SceneSample:
    mask = _load_pgm(os.path.join(directory, "mask.pgm"))
    pose, intr = _load_pose(os.path.join(directory, "pose.json"))
    keypoints = _load_csv(os.path.join(directory, "keypoints.csv"), 5)
    fields = _load_fields(os.path.join(directory, "fields.npy"),
                          (len(keypoints), int(np.count_nonzero(mask)), 2))
    return SceneSample(pose=pose, intr=intr, mask=mask, keypoints2=keypoints[:, :2],
                       keypoints3=keypoints[:, 2:5], fields=fields)
