"""Shared builders for the test suite."""

import numpy as np

from proxyvote.geometry import Intrinsics, pixel_centers
from proxyvote.model_tools import ModelCloud, farthest_point_sampling
from proxyvote.synth import NoiseSpec, PoseRanges, corrupt, make_scene, sample_pose


def cube_cloud(n_extra=600, seed=1, side=0.1):
    rng = np.random.default_rng(seed)
    corners = np.array([[x, y, z] for x in (0, side) for y in (0, side) for z in (0, side)])
    return ModelCloud(np.vstack([corners, rng.uniform(0, side, (n_extra, 3))]), "cube")


def default_intrinsics(width=64, height=64):
    return Intrinsics(fx=80.0, fy=80.0, cx=width / 2.0, cy=height / 2.0)


def make_cube_scene(seed=3, width=64, height=64, z_range=(0.45, 0.7), n_keypoints=8):
    cloud = cube_cloud()
    keys = cloud.points[farthest_point_sampling(cloud, n_keypoints)]
    intr = default_intrinsics(width, height)
    pose = sample_pose(np.random.default_rng(seed), PoseRanges(z_range=z_range), cloud, intr,
                       width, height)
    return cloud, keys, make_scene(cloud, keys, pose, intr, width, height)


def noisy_scene(seed):
    """A scene like the bench's infer scenes: 128 x 128, f = 160, z 0.55-0.6, noisy."""
    cloud = cube_cloud()
    keys = cloud.points[farthest_point_sampling(cloud, 8)]
    intr = Intrinsics(fx=160.0, fy=160.0, cx=64.0, cy=64.0)
    pose = sample_pose(np.random.default_rng(seed), PoseRanges(z_range=(0.55, 0.6)),
                       cloud, intr, 128, 128)
    return corrupt(make_scene(cloud, keys, pose, intr, 128, 128),
                   NoiseSpec(angular_sigma=5.0, flip_prob=0.1, occlusion_frac=0.2, rng_seed=seed))


def centre_grid(height, width):
    """(H, W, 2) centres (x, y) of every pixel of an H x W image."""
    return pixel_centers(np.ones((height, width), dtype=bool)).reshape(height, width, 2)


def disc_mask(height=64, width=64, center=(32.0, 32.0), radius=24.0):
    ctr = centre_grid(height, width)
    d = np.hypot(ctr[..., 0] - center[0], ctr[..., 1] - center[1])
    return d <= radius


def exact_field(mask, k):
    """Unit directions from each masked pixel center toward k."""
    diff = np.asarray(k, dtype=float)[None, None, :] - centre_grid(*mask.shape)
    r = np.hypot(diff[..., 0], diff[..., 1])
    ok = mask & (r > 1e-9)
    f = np.where(ok[..., None], diff / np.where(r[..., None] > 0, r[..., None], 1.0), 0.0)
    return f


def dense(fields, mask):
    """The (K, H, W, 2) stack of a (K, M, 2) masked stack, zero off mask."""
    out = np.zeros((len(fields),) + mask.shape + (2,))
    out[:, mask] = fields
    return out


def rotate_field(field, mask, sigma_deg, rng):
    """Gaussian angular perturbation of masked directions."""
    h, w = mask.shape
    theta = rng.normal(0.0, np.deg2rad(sigma_deg), size=(h, w))
    c, s = np.cos(theta), np.sin(theta)
    out = np.stack(
        [c * field[..., 0] - s * field[..., 1],
         s * field[..., 0] + c * field[..., 1]], axis=-1)
    return np.where(mask[..., None], out, 0.0)


def rotation_angle(Ra, Rb):
    """Geodesic angle between two rotation matrices."""
    c = (np.trace(Ra @ Rb.T) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def random_pose(rng, t_scale=1.0, z_offset=2.0):
    from proxyvote.geometry import Pose

    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    t = rng.normal(0, t_scale, 3)
    t[2] += z_offset
    return Pose(R, t)
