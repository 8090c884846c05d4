"""Point-cloud primitives and SE(3) math.

Everything here is a pure function on immutable values: point clouds wrap a
read-only numpy array, poses validate their rotation on construction, and no
operation mutates its inputs, so concurrent use needs no locking.

Conventions fixed once and relied on everywhere else:
  * extents are axis-aligned in the world frame (height = z, width = y,
    length = x);
  * Euler angles are XYZ intrinsic, each in (-pi, pi], with rz := 0 at
    gimbal lock;
  * the principal axis is sign-fixed so its largest-magnitude component is
    positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EXIT_SOLVER, ManiplangError

_GIMBAL_EPS = 1e-9
_DEGENERATE_SPREAD = 1e-9  # spatial std-dev below which a cloud has no axis
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # each component's cyclic neighbours


class GeometryError(ManiplangError):
    exit_code = EXIT_SOLVER


class EmptyCloudError(GeometryError):
    pass


class DegenerateAxisError(GeometryError):
    pass


class DegenerateDirectionError(GeometryError):
    pass


@dataclass(frozen=True)
class _Coords3:
    """Three finite components; subclasses name what they measure."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise GeometryError(f"non-finite {self._noun}: {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr):
        x, y, z = (float(v) for v in arr)
        return cls(x, y, z)


@dataclass(frozen=True)
class Point3(_Coords3):
    """A position in meters, world frame."""

    _noun = "point"


@dataclass(frozen=True)
class Vector3(_Coords3):
    """A direction; dimensionless components."""

    _noun = "vector"


class PointCloud:
    """Non-empty set of 3D points backed by a read-only (N, 3) float array."""

    __slots__ = ("coords",)

    def __init__(self, points):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise EmptyCloudError(f"point cloud must be (N>=1, 3), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise EmptyCloudError("point cloud contains NaN or inf coordinates")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PointCloud is immutable")

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointCloud) and np.array_equal(self.coords, other.coords)


@dataclass(frozen=True)
class EulerXYZ:
    """Intrinsic XYZ Euler angles in radians, each in (-pi, pi]."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        for name, v in (("rx", self.rx), ("ry", self.ry), ("rz", self.rz)):
            if not math.isfinite(v):
                raise GeometryError(f"non-finite euler angle {name}={v}")
            if not (-math.pi < v <= math.pi + 1e-12):
                raise GeometryError(f"euler angle {name}={v} outside (-pi, pi]")

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz], dtype=float)


class PoseSE3:
    """Rigid transform: 3x3 rotation (orthonormal, det +1) plus translation."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation: Point3):
        rot = np.asarray(rotation, dtype=float)
        if rot.shape != (3, 3):
            raise GeometryError(f"rotation must be 3x3, got {rot.shape}")
        # Absolute bound (allclose would add rtol=1e-5); `not <=` also rejects NaN.
        if not np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9:
            raise GeometryError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise GeometryError("rotation determinant is not +1 within 1e-9")
        rot = rot.copy()
        rot.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", translation)

    def __setattr__(self, name, value):
        raise AttributeError("PoseSE3 is immutable")

    @classmethod
    def identity(cls, translation: Point3 | None = None) -> "PoseSE3":
        return cls(np.eye(3), translation or Point3(0.0, 0.0, 0.0))


def centroid(cloud: PointCloud) -> Point3:
    """Arithmetic mean of the cloud's points: `coords.mean(axis=0)` unless its
    sum overflows. Then the points are divided before they are summed, and the
    sum is clipped to their range, which holds the mean, against rounding."""
    coords = cloud.coords
    with np.errstate(over="ignore"):
        mean = coords.mean(axis=0)
        if not np.isfinite(mean).all():
            mean = np.clip((coords / len(coords)).sum(axis=0), coords.min(axis=0), coords.max(axis=0))
    return Point3.from_array(mean)


def principal_axis(cloud: PointCloud) -> Vector3:
    """Unit eigenvector of the covariance matrix with the largest eigenvalue.

    The sign is fixed so the component with the largest magnitude is
    positive; callers that must be sign-insensitive (alignment costs)
    take |cos| anyway.
    """
    pts = cloud.coords
    centered = pts - centroid(cloud).as_array()
    cov = centered.T @ centered / pts.shape[0]
    if not np.isfinite(cov).all():
        raise GeometryError("the covariance of the points overflows; no principal axis")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if math.sqrt(max(eigvals[-1], 0.0)) < _DEGENERATE_SPREAD:
        raise DegenerateAxisError("all points coincide; no principal axis")
    axis = fix_axis_sign(eigvecs[:, -1])
    return Vector3.from_array(axis / norm(axis))


def fix_axis_sign(axis: np.ndarray) -> np.ndarray:
    """Each axis (over the last dimension) or its negation, whichever has a
    positive largest-magnitude component."""
    rows = axis.reshape(-1, 3)
    largest = rows[np.arange(len(rows)), np.abs(rows).argmax(-1)]
    return np.where(largest.reshape(axis.shape[:-1] + (1,)) < 0, -axis, axis)


_EXTENT_AXES = {"length": 0, "width": 1, "height": 2}


def _extent_axis(dimension: str) -> int:
    if dimension not in _EXTENT_AXES:
        raise GeometryError(f"unknown dimension {dimension!r}; expected one of {sorted(_EXTENT_AXES)}")
    return _EXTENT_AXES[dimension]


def extent(cloud: PointCloud, dimension: str) -> float:
    """World-frame extent: max - min along x (length), y (width), or z (height)."""
    col = cloud.coords[:, _extent_axis(dimension)]
    return float(col.max() - col.min())


def rotated_extent(cloud: PointCloud, rotation: np.ndarray, dimension: str):
    """`extent` of the cloud turned by `rotation` about any point, then shifted
    (which changes no extent); only the one row of `rotation` needed is applied.
    A stack of rotations (..., 3, 3) gives one extent per rotation."""
    rows = rotation[..., _extent_axis(dimension), :]
    col = (cloud.coords @ rows[..., None])[..., 0]
    return col.max(-1) - col.min(-1)


@functools.cache  # built on first use, so importing geometry stays cheap
def _support_directions() -> tuple[np.ndarray, np.ndarray]:
    """The 42 unit vertices of a once-subdivided icosahedron (its 12 vertices
    and 30 edge midpoints) and its 80 faces, as (80, 3) vertex indices."""
    phi = (1 + 5**0.5) / 2
    ico = np.array([p for a in (-1, 1) for b in (-phi, phi) for p in ((0, a, b), (a, b, 0), (b, 0, a))])
    i, j = np.nonzero(np.triu(np.linalg.norm(ico[:, None] - ico, axis=-1) < 2.5, 1))  # edges: length 2
    dirs = np.concatenate([ico, ico[i] + ico[j]])
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    near = np.linalg.norm(dirs[:, None] - dirs, axis=-1) < 0.75  # subdivided edges: 0.55 and 0.62
    a, b, c = np.nonzero(near[:, :, None] & near[:, None, :] & near[None, :, :])
    ordered = (a < b) & (b < c)
    return dirs, np.stack((a[ordered], b[ordered], c[ordered]), axis=-1)


_EXTREME_MARGIN = 1e-9  # of the coordinates' magnitude; a projection rounds by ~1e-16 of it
_EXTREME_CHUNK = 256  # points tested at once: at most a (256, 320) array, 0.66 MB


def extreme_points(cloud: PointCloud) -> PointCloud:
    """The cloud without points that cannot be extreme along any direction
    (Akl and Toussaint's interior-point elimination, in 3-D). A point is dropped
    only when a ball of radius margin around it lies in the tetrahedron of the
    centroid and the extreme points along one support face's directions; the
    cloud then reaches further than the point by the margin, far more than
    rounding, so every `rotated_extent` of the kept points is the same float."""
    coords = cloud.coords
    # Scaled by a power of two (exact) to magnitudes below 1, so nothing overflows.
    pts = np.ldexp(coords, -np.frexp(np.abs(coords).max())[1])
    dirs, faces = _support_directions()
    support = pts[(dirs @ pts.T).argmax(1)][faces]
    tetra = np.concatenate([np.broadcast_to(pts.mean(0), (len(support), 1, 3)), support], axis=1)
    # Face k of a tetrahedron is the plane through its vertices other than k.
    others = tetra[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]
    normal = cross(others[..., 1, :] - others[..., 0, :], others[..., 2, :] - others[..., 0, :])
    height = ((tetra - others[..., 0, :]) * normal).sum(-1)
    length = np.sqrt((normal * normal).sum(-1))
    # A flat tetrahedron holds no such ball, and rounding picks its faces' sides.
    solid = (np.abs(height) > 2 * _EXTREME_MARGIN * length).all(-1)
    inward = normal[solid] * (np.sign(height[solid]) / length[solid])[..., None]
    offset = (inward * others[solid][..., 0, :]).sum(-1) + _EXTREME_MARGIN
    # Face-major columns, so the four tests of a tetrahedron reduce over a middle axis.
    planes, offset = inward.transpose(1, 0, 2).reshape(-1, 3).T, offset.T.reshape(-1)
    keep = np.ones(len(pts), dtype=bool)
    for start in range(0, len(pts), _EXTREME_CHUNK):
        inside = pts[start : start + _EXTREME_CHUNK] @ planes > offset
        keep[start : start + _EXTREME_CHUNK] = ~inside.reshape(len(inside), 4, -1).all(1).any(-1)
    return PointCloud(coords[keep])


def transform_cloud(cloud: PointCloud, pose_from: PoseSE3, pose_to: PoseSE3) -> PointCloud:
    """Map each point p to R . R0^-1 . (p - t0) + t.

    (R0, t0) = pose_from, (R, t) = pose_to; the rigid motion that carries
    the source pose onto the target pose.
    """
    rel = pose_to.rotation @ pose_from.rotation.T
    t0 = pose_from.translation.as_array()
    t = pose_to.translation.as_array()
    return PointCloud((cloud.coords - t0) @ rel.T + t)


def rotation_from_euler(e: EulerXYZ) -> np.ndarray:
    """Rotation matrix for intrinsic XYZ angles: R = Rx(rx) @ Ry(ry) @ Rz(rz)."""
    return rotation_xyz(e.rx, e.ry, e.rz)


def rotation_xyz(rx, ry, rz) -> np.ndarray:
    """R = Rx(rx) @ Ry(ry) @ Rz(rz); angle arrays of shape S give rotations
    of shape S + (3, 3)."""
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rot = np.empty(np.shape(cz) + (3, 3))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 0, 2] = cy * cz, -cy * sz, sy
    rot[..., 1, 0] = cx * sz + sx * sy * cz
    rot[..., 1, 1] = cx * cz - sx * sy * sz
    rot[..., 1, 2] = -sx * cy
    rot[..., 2, 0] = sx * sz - cx * sy * cz
    rot[..., 2, 1] = sx * cz + cx * sy * sz
    rot[..., 2, 2] = cx * cy
    return rot


def euler_angles(rotation) -> np.ndarray:
    """Intrinsic XYZ angles (rx, ry, rz) of a rotation, or of each in a stack
    (..., 3, 3); at gimbal lock (|ry| = pi/2) rz := 0."""
    rot = np.asarray(rotation, dtype=float)
    sy = np.minimum(np.maximum(rot[..., 0, 2], -1.0), 1.0)
    angles = np.empty(np.shape(sy) + (3,))
    angles[..., 0] = np.arctan2(-rot[..., 1, 2], rot[..., 2, 2])
    angles[..., 1] = np.arcsin(sy)
    angles[..., 2] = np.arctan2(-rot[..., 0, 1], rot[..., 0, 0])
    lock = 1.0 - np.abs(sy) < _GIMBAL_EPS
    if lock.any():
        locked = rot[lock]
        angles[lock, 0] = np.arctan2(locked[:, 2, 1], locked[:, 1, 1])
        angles[lock, 1] = np.copysign(math.pi / 2, locked[:, 0, 2])
        angles[lock, 2] = 0.0
    # atan2/asin already land in [-pi, pi]; fold the single excluded endpoint.
    angles[angles <= -math.pi] = math.pi
    return angles


def euler_from_rotation(rotation) -> EulerXYZ:
    """Intrinsic XYZ angles of one rotation matrix."""
    rot = np.asarray(rotation, dtype=float)
    if rot.shape != (3, 3):
        raise GeometryError(f"rotation must be 3x3, got {rot.shape}")
    return EulerXYZ(*euler_angles(rot).tolist())


def dot(a, b):
    """Dot products over the last axis; each is the same sum as `a @ b` of
    one pair of vectors, whatever the stack around it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def cross(a, b):
    """np.cross of float 3-vectors over the last axis, bit for bit (the same
    products, then differences), without np.cross's set-up cost."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def norm(v):
    """Euclidean lengths over the last axis."""
    return np.sqrt(dot(v, v))


def unit_direction(start, end) -> np.ndarray:
    """Unit vectors from start to end over the last axis; coincident points
    have no direction."""
    delta = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    length = norm(delta)
    coincident = length <= 1e-9
    if coincident.any():
        at = np.broadcast_to(end, delta.shape)[coincident][0]
        raise DegenerateDirectionError(f"start and end coincide within 1e-9 m at {at.tolist()}")
    return delta / length[..., None]


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation by `angle` about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float)
    length = float(norm(a))
    if length <= 1e-12:
        raise DegenerateAxisError("cannot rotate about a zero axis")
    a = a / length
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def angle_between(a, b):
    """Unsigned angle in [0, pi] between two vectors, or between each pair
    over the last axis."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if (norm(av) <= 1e-12).any() or (norm(bv) <= 1e-12).any():
        raise DegenerateAxisError("angle with a zero-length vector is undefined")
    return np.arctan2(norm(cross(av, bv)), dot(av, bv))
