import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maniplang.geometry import (
    DegenerateAxisError,
    DegenerateDirectionError,
    EmptyCloudError,
    EulerXYZ,
    GeometryError,
    Point3,
    PointCloud,
    PoseSE3,
    angle_between,
    centroid,
    euler_angles,
    euler_from_rotation,
    extent,
    principal_axis,
    rotation_about_axis,
    rotation_from_euler,
    rotation_xyz,
    transform_cloud,
    unit_direction,
)
from maniplang.scene import Scene

from util import pca_axis_oracle, random_rotation

UNIT_CUBE = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]


class TestCentroid:
    def test_unit_cube_corners(self):
        c = centroid(PointCloud(UNIT_CUBE))
        assert c == Point3(0.5, 0.5, 0.5)

    def test_single_point(self):
        assert centroid(PointCloud([(1, 2, 3)])) == Point3(1, 2, 3)

    def test_hand_summed_mean(self):
        # oracle: (0+2+1)/3, (0+0+3)/3, 0
        c = centroid(PointCloud([(0, 0, 0), (2, 0, 0), (1, 3, 0)]))
        assert c == Point3(1.0, 1.0, 0.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.normal(size=(50, 3))
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            moved = pts @ rot.T + shift
            expected = rot @ centroid(PointCloud(pts)).as_array() + shift
            got = centroid(PointCloud(moved)).as_array()
            assert np.linalg.norm(expected - got) < 1e-9

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloudError):
            PointCloud(np.zeros((0, 3)))

    def test_mean_of_huge_points_does_not_overflow(self):
        # Summing first overflows to inf although the mean is finite.
        huge = PointCloud([(1e308, 0, 0)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert centroid(huge) == Point3(1e308, 0.0, 0.0)
        scene = Scene({"a": huge}, frozenset(), Point3(0, 0, 0), 1.0)
        assert scene.snapshot().part_centroids["a"] == Point3(1e308, 0.0, 0.0)

    def test_mean_at_the_float_limit_stays_finite(self):
        # Dividing first, three copies of the largest float sum past it.
        top = np.finfo(float).max
        assert centroid(PointCloud([(top, -top, 0)] * 3)) == Point3(top, -top, 0.0)


class TestPrincipalAxis:
    def test_exact_line_z(self):
        pts = [(0, 0, z) for z in np.linspace(0, 1, 30)]
        axis = principal_axis(PointCloud(pts)).as_array()
        assert np.allclose(axis, [0, 0, 1], atol=1e-12)

    def test_exact_diagonal_line(self):
        pts = [(t, t, 0) for t in np.linspace(0, 1, 30)]
        axis = principal_axis(PointCloud(pts)).as_array()
        assert np.allclose(axis, [math.sqrt(0.5), math.sqrt(0.5), 0], atol=1e-9)

    def test_noisy_elongated_gaussian_matches_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(2000, 3)) * np.array([1.0, 0.01, 0.01])
        axis = principal_axis(PointCloud(pts)).as_array()
        oracle = pca_axis_oracle(pts)
        cosine = abs(float(axis @ oracle / np.linalg.norm(oracle)))
        assert cosine > math.cos(math.radians(0.01))
        assert abs(float(axis @ [1, 0, 0])) > math.cos(math.radians(2.0))

    def test_rotation_equivariance_up_to_sign(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.normal(size=(300, 3)) * np.array([1.0, 0.2, 0.05])
            rot = random_rotation(rng)
            base = principal_axis(PointCloud(pts)).as_array()
            rotated = principal_axis(PointCloud(pts @ rot.T)).as_array()
            err = min(
                np.linalg.norm(rotated - rot @ base),
                np.linalg.norm(rotated + rot @ base),
            )
            assert err < 1e-6

    def test_sign_convention(self):
        axis = principal_axis(PointCloud([(0, 0, -z) for z in np.linspace(0, 1, 20)]))
        assert axis.z > 0

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateAxisError):
            principal_axis(PointCloud([(1, 1, 1)] * 5))


class TestExtent:
    def test_unit_cube_height(self):
        assert extent(PointCloud(UNIT_CUBE), "height") == 1.0

    def test_single_point_zero(self):
        cloud = PointCloud([(3, 4, 5)])
        for dim in ("length", "width", "height"):
            assert extent(cloud, dim) == 0.0

    def test_box_scan_oracle(self):
        corners = [(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, 5)]
        cloud = PointCloud(corners)
        assert extent(cloud, "length") == 2.0
        assert extent(cloud, "width") == 3.0
        assert extent(cloud, "height") == 5.0

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        shuffled = pts[rng.permutation(40)]
        for dim in ("length", "width", "height"):
            assert extent(PointCloud(pts), dim) >= 0.0
            assert extent(PointCloud(pts), dim) == extent(PointCloud(shuffled), dim)


class TestTransformCloud:
    def test_identity(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(30, 3)))
        pose = PoseSE3(random_rotation(rng), Point3(0.1, -0.2, 0.3))
        moved = transform_cloud(cloud, pose, pose)
        assert np.max(np.abs(moved.coords - cloud.coords)) <= 1e-12

    def test_pure_translation(self):
        cloud = PointCloud(UNIT_CUBE)
        start = PoseSE3.identity(Point3(0, 0, 0))
        end = PoseSE3.identity(Point3(0, 0, 0.1))
        moved = transform_cloud(cloud, start, end)
        assert np.allclose(moved.coords, cloud.coords + [0, 0, 0.1], atol=1e-12)

    def test_rotation_matrix_oracle(self):
        rot90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cloud = PointCloud([(1, 0, 0)])
        moved = transform_cloud(
            cloud,
            PoseSE3.identity(),
            PoseSE3(rot90, Point3(0, 0, 0)),
        )
        assert np.allclose(moved.coords, [[0, 1, 0]], atol=1e-12)


class TestEuler:
    def test_identity(self):
        e = euler_from_rotation(np.eye(3))
        assert (e.rx, e.ry, e.rz) == (0.0, 0.0, 0.0)

    def test_quarter_turn_about_x(self):
        e = euler_from_rotation(rotation_about_axis([1, 0, 0], math.pi / 2))
        assert abs(e.rx - math.pi / 2) < 1e-12
        assert abs(e.ry) < 1e-12 and abs(e.rz) < 1e-12

    def test_round_trip_random_rotations(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 1000:
            rot = random_rotation(rng)
            e = euler_from_rotation(rot)
            if abs(abs(e.ry) - math.pi / 2) < 1e-3:
                continue  # away from gimbal lock per the contract
            back = rotation_from_euler(e)
            assert np.linalg.norm(back - rot) < 1e-6
            checked += 1

    def test_gimbal_lock_sets_rz_zero(self):
        rot = rotation_about_axis([0, 1, 0], math.pi / 2)
        e = euler_from_rotation(rot)
        assert e.rz == 0.0
        assert abs(e.ry - math.pi / 2) < 1e-9

    def test_angles_stay_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            e = euler_from_rotation(random_rotation(rng))
            for v in (e.rx, e.ry, e.rz):
                assert -math.pi < v <= math.pi

    def test_euler_range_validated(self):
        with pytest.raises(Exception):
            EulerXYZ(4.0, 0.0, 0.0)


def reference_rotation_xyz(rx, ry, rz):
    """`rotation_xyz` as it was first written: nine stacked rows, moved to the back."""
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rows = (
        cy * cz, -cy * sz, sy,
        cx * sz + sx * sy * cz, cx * cz - sx * sy * sz, -sx * cy,
        sx * sz - cx * sy * cz, sx * cz + cx * sy * sz, cx * cy,
    )
    return np.moveaxis(np.array(rows), 0, -1).reshape(np.shape(cz) + (3, 3))


def reference_euler_angles(rotation):
    """`euler_angles` as it was first written: every row through each branch."""
    rot = np.asarray(rotation, dtype=float)
    sy = np.minimum(np.maximum(rot[..., 0, 2], -1.0), 1.0)
    lock = 1.0 - np.abs(sy) < 1e-9
    ry = np.where(lock, np.copysign(math.pi / 2, sy), np.arcsin(sy))
    rx = np.arctan2(
        np.where(lock, rot[..., 2, 1], -rot[..., 1, 2]),
        np.where(lock, rot[..., 1, 1], rot[..., 2, 2]),
    )
    rz = np.where(lock, 0.0, np.arctan2(-rot[..., 0, 1], rot[..., 0, 0]))
    angles = np.stack((rx, ry, rz), axis=-1)
    return np.where(angles <= -math.pi, math.pi, angles)


def identical(a, b) -> bool:
    """Same shape and the same floats, signs of zeros included."""
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _stacked(entry, size: int):
    """Arrays of `entry` draws, of shape (size,) + S for S a stack shape: (),
    (K,) or (K, M)."""
    return st.sampled_from([(), (1,), (6,), (3, 4)]).flatmap(
        lambda stack: st.lists(entry, min_size=size * math.prod(stack), max_size=size * math.prod(stack)).map(
            lambda values: np.array(values).reshape((size,) + stack)
        )
    )


# Angles at and within the gimbal-lock margin of ry = +/-pi/2 (1 - |sin ry| <
# 1e-9 within ~4.5e-5 of it), at +/-pi, at zero, and anywhere.
_angle = st.one_of(
    st.floats(-2 * math.pi, 2 * math.pi),
    st.sampled_from([0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2]),
    st.builds(lambda lock, off: lock + off, st.sampled_from([math.pi / 2, -math.pi / 2]), st.floats(-4e-5, 4e-5)),
)


@settings(max_examples=150, deadline=None)
@given(angles=_stacked(_angle, 3))
def test_rotation_helpers_equal_their_reference(angles):
    rx, ry, rz = angles
    rotation = rotation_xyz(rx, ry, rz)
    assert identical(rotation, reference_rotation_xyz(rx, ry, rz))
    assert identical(euler_angles(rotation), reference_euler_angles(rotation))


@settings(max_examples=150, deadline=None)
@given(matrices=_stacked(st.one_of(st.floats(-1.5, 1.5), st.sampled_from([-1.0, -0.0, 0.0, 1.0])), 9))
# A locked and an unlocked matrix whose atan2 gives -pi, folded to pi: rx of
# the first, rx and rz of the second.
@example(matrices=np.array([[0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, -0.0, -1.0], [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]]).T)
def test_euler_angles_equals_its_reference_on_any_matrix(matrices):
    rotation = np.moveaxis(matrices, 0, -1).reshape(matrices.shape[1:] + (3, 3))
    assert identical(euler_angles(rotation), reference_euler_angles(rotation))


class TestDirections:
    def test_unit_z(self):
        v = unit_direction([0, 0, 0], [0, 0, 2])
        assert np.allclose(v, [0, 0, 1], atol=1e-12)

    def test_coincident_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            unit_direction([1, 1, 1], [1, 1, 1])

    def test_normalization_oracle(self):
        v = unit_direction([0, 0, 0], [3, 4, 0])
        assert np.allclose(v, [0.6, 0.8, 0.0], atol=1e-12)

    def test_angle_between(self):
        assert abs(angle_between([1, 0, 0], [0, 1, 0]) - math.pi / 2) < 1e-12
        assert angle_between([1, 0, 0], [2, 0, 0]) < 1e-9


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Point3(math.nan, 0.0, 0.0), GeometryError, r"non-finite point: \(nan, 0.0, 0.0\)"),
        (lambda: EulerXYZ(0.0, math.inf, 0.0), GeometryError, "non-finite euler angle ry=inf"),
        (lambda: PoseSE3(np.eye(2), Point3(0, 0, 0)), GeometryError, r"rotation must be 3x3, got \(2, 2\)"),
        (lambda: euler_from_rotation(np.eye(4)), GeometryError, r"rotation must be 3x3, got \(4, 4\)"),
        (lambda: setattr(PoseSE3.identity(), "translation", Point3(1, 0, 0)), AttributeError, "PoseSE3 is immutable"),
        (lambda: extent(PointCloud(UNIT_CUBE), "depth"), GeometryError, "unknown dimension 'depth'"),
        (lambda: rotation_about_axis([0.0, 0.0, 0.0], 1.0), DegenerateAxisError, "cannot rotate about a zero axis"),
    ],
    ids=["nan_point", "infinite_euler_angle", "pose_rotation_not_3x3", "euler_rotation_not_3x3",
         "pose_attribute_assigned", "unknown_extent_dimension", "zero_rotation_axis"],
)
def test_invalid_geometry_raises_a_named_error(make, error, message):
    with pytest.raises(error, match=message):
        make()


class TestPose:
    def test_rejects_non_orthonormal(self):
        # The stretch has determinant 1 and R^T R off by 8e-6: inside allclose's
        # default relative tolerance, outside the promised 1e-9.
        stretch = 1.0 + 4e-6
        for rot in (np.eye(3) * 1.01, np.diag([stretch, 1.0 / stretch, 1.0]), np.full((3, 3), np.nan)):
            with pytest.raises(GeometryError, match="orthonormal"):
                PoseSE3(rot, Point3(0, 0, 0))

    def test_rejects_reflection(self):
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(Exception):
            PoseSE3(reflect, Point3(0, 0, 0))
