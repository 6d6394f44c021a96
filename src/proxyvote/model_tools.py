"""3D model handling: ASCII PLY/OBJ loading, farthest point sampling
and diameter computation.

scipy is imported on first use, inside ``model_diameter``: importing it
costs about 0.5 s and 30 MB per process, and only ``eval`` needs a
diameter, so ``gen``, ``train``, ``vote`` and ``report`` never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientSupportError, ModelLoadError

DIAMETER_SUBSAMPLE = 5000


@dataclass
class ModelCloud:
    points: np.ndarray  # (N, 3)
    name: str = ""
    symmetric: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if len(pts) < 4:
            raise ModelLoadError(f"model '{self.name}' has {len(pts)} points, need >= 4")
        if not np.all(np.isfinite(pts)):
            raise ModelLoadError(f"model '{self.name}' has non-finite coordinates")
        self.points = pts


@dataclass
class KeypointSet:
    points3: np.ndarray  # (count, 3), drawn from the model cloud
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))


def _parse_ply(lines, name):
    if not lines or lines[0].strip() != "ply":
        raise ModelLoadError(f"{name}: line 1: missing 'ply' magic")
    n_vertex = None
    props = []  # property names of the vertex element, in order
    in_vertex = False
    data_start = None
    for i, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] != "ascii":
                raise ModelLoadError(f"{name}: line {i}: only ASCII PLY is supported")
        elif tok[0] == "element":
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                try:
                    n_vertex = int(tok[2])
                except (IndexError, ValueError):
                    raise ModelLoadError(f"{name}: line {i}: bad element count")
        elif tok[0] == "property" and in_vertex:
            if tok[1] == "list":
                raise ModelLoadError(f"{name}: line {i}: list property in vertex element")
            props.append(tok[-1])
        elif tok[0] == "end_header":
            data_start = i  # lines[data_start] is the first data line (0-based: i)
            break
    if data_start is None:
        raise ModelLoadError(f"{name}: missing end_header")
    if n_vertex is None:
        raise ModelLoadError(f"{name}: no vertex element in header")
    for axis in ("x", "y", "z"):
        if axis not in props:
            raise ModelLoadError(f"{name}: vertex element lacks property '{axis}'")
    cols = [props.index(a) for a in ("x", "y", "z")]

    pts = np.empty((n_vertex, 3))
    data_lines = lines[data_start:]
    if len(data_lines) < n_vertex:
        raise ModelLoadError(f"{name}: expected {n_vertex} vertex lines, got {len(data_lines)}")
    for r in range(n_vertex):
        tok = data_lines[r].split()
        lineno = data_start + r + 1
        if len(tok) < len(props):
            raise ModelLoadError(f"{name}: line {lineno}: expected {len(props)} values")
        try:
            pts[r] = [float(tok[c]) for c in cols]
        except ValueError:
            raise ModelLoadError(f"{name}: line {lineno}: non-numeric vertex value")
    return pts


def _parse_obj(lines, name):
    pts = []
    for i, line in enumerate(lines, start=1):
        tok = line.split()
        if not tok or tok[0] != "v":
            continue
        if len(tok) < 4:
            raise ModelLoadError(f"{name}: line {i}: vertex needs 3 coordinates")
        try:
            pts.append([float(tok[1]), float(tok[2]), float(tok[3])])
        except ValueError:
            raise ModelLoadError(f"{name}: line {i}: non-numeric vertex value")
    return np.asarray(pts, dtype=float).reshape(-1, 3)


def load_model(path, symmetric=False) -> ModelCloud:
    """Load vertices from an ASCII PLY or OBJ file; faces are ignored."""
    path = Path(path)
    name = path.name
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ModelLoadError(f"cannot read model file {path}: {e}")
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ModelLoadError(f"{name}: not an ASCII file (binary PLY is not supported)")
    lines = text.splitlines()
    if path.suffix.lower() == ".obj":
        pts = _parse_obj(lines, name)
    else:
        pts = _parse_ply(lines, name)
    return ModelCloud(points=pts, name=path.stem, symmetric=symmetric)


def farthest_point_sampling(cloud: ModelCloud, n: int) -> KeypointSet:
    """Greedy max-min subset of n points.

    Starts from the point farthest from the centroid, then repeatedly
    adds the point with the largest distance to the selected set; ties
    break to the lowest index.
    """
    pts = cloud.points
    if n > len(pts):
        raise InsufficientSupportError(f"n={n} exceeds cloud size {len(pts)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    start = int(np.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    chosen = [start]
    mind = np.linalg.norm(pts - pts[start], axis=1)
    while len(chosen) < n:
        nxt = int(np.argmax(mind))  # argmax takes the lowest index on ties
        chosen.append(nxt)
        mind = np.minimum(mind, np.linalg.norm(pts - pts[nxt], axis=1))
    idx = np.array(chosen, dtype=int)
    return KeypointSet(points3=pts[idx].copy(), indices=idx)


def model_diameter(cloud: ModelCloud) -> float:
    """Max pairwise distance of the cloud's points; clouds above 5000 points
    are subsampled deterministically (fixed seed)."""
    pts = cloud.points
    if len(pts) > DIAMETER_SUBSAMPLE:
        rng = np.random.default_rng(0)
        sel = rng.choice(len(pts), DIAMETER_SUBSAMPLE, replace=False)
        pts = pts[np.sort(sel)]
    from scipy.spatial.distance import pdist  # lazy: a 0.5 s import only eval needs

    diameter = float(pdist(pts).max())
    if diameter == 0.0:
        raise InsufficientSupportError("need two distinct points for a diameter")
    return diameter
