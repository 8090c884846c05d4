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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ManiplangError

_GIMBAL_EPS = 1e-9
_DEGENERATE_SPREAD = 1e-9  # spatial std-dev below which a cloud has no axis


class GeometryError(ManiplangError):
    pass


class EmptyCloudError(GeometryError):
    pass


class DegenerateAxisError(GeometryError):
    pass


class DegenerateDirectionError(GeometryError):
    pass


@dataclass(frozen=True)
class Point3:
    """A position in meters, world frame."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise GeometryError(f"non-finite point: {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "Point3":
        x, y, z = (float(v) for v in arr)
        return cls(x, y, z)


@dataclass(frozen=True)
class Vector3:
    """A direction; dimensionless components."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise GeometryError(f"non-finite vector: {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "Vector3":
        x, y, z = (float(v) for v in arr)
        return cls(x, y, z)


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
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-9):
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
    """Arithmetic mean of the cloud's points."""
    return Point3.from_array(cloud.coords.mean(axis=0))


def principal_axis(cloud: PointCloud) -> Vector3:
    """Unit eigenvector of the covariance matrix with the largest eigenvalue.

    The sign is fixed so the component with the largest magnitude is
    positive; callers that must be sign-insensitive (alignment costs)
    take |cos| anyway.
    """
    pts = cloud.coords
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / pts.shape[0]
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
    rows = (
        cy * cz, -cy * sz, sy,
        cx * sz + sx * sy * cz, cx * cz - sx * sy * sz, -sx * cy,
        sx * sz - cx * sy * cz, sx * cz + cx * sy * sz, cx * cy,
    )
    return np.moveaxis(np.array(rows), 0, -1).reshape(np.shape(cz) + (3, 3))


def euler_angles(rotation) -> np.ndarray:
    """Intrinsic XYZ angles (rx, ry, rz) of a rotation, or of each in a stack
    (..., 3, 3); at gimbal lock (|ry| = pi/2) rz := 0."""
    rot = np.asarray(rotation, dtype=float)
    sy = np.minimum(np.maximum(rot[..., 0, 2], -1.0), 1.0)
    lock = 1.0 - np.abs(sy) < _GIMBAL_EPS
    ry = np.where(lock, np.copysign(math.pi / 2, sy), np.arcsin(sy))
    rx = np.arctan2(
        np.where(lock, rot[..., 2, 1], -rot[..., 1, 2]),
        np.where(lock, rot[..., 1, 1], rot[..., 2, 2]),
    )
    rz = np.where(lock, 0.0, np.arctan2(-rot[..., 0, 1], rot[..., 0, 0]))
    angles = np.stack((rx, ry, rz), axis=-1)
    # atan2/asin already land in [-pi, pi]; fold the single excluded endpoint.
    return np.where(angles <= -math.pi, math.pi, angles)


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


def direction_of(start: Point3, end: Point3) -> Vector3:
    """Unit vector from start to end; coincident points have no direction."""
    return Vector3.from_array(unit_direction(start.as_array(), end.as_array()))


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
    return np.arctan2(norm(np.cross(av, bv)), dot(av, bv))
