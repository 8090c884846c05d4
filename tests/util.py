"""Shared test helpers: independent oracles the production code never sees."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from maniplang.geometry import Point3, PointCloud
from maniplang.scene import Scene


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via quaternion normalization (independent of
    the package's Euler code)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def pca_axis_oracle(coords: np.ndarray) -> np.ndarray:
    """Dominant axis via SVD of the centered data matrix."""
    centered = coords - coords.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[0]


def lev_table_oracle(a: str, b: str) -> int:
    """Textbook full-table edit distance, written independently of the
    production bit-parallel kernel."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[m][n]


def lev_complete_search(a: str, b: str) -> int:
    """Minimum over all edit scripts by complete recursion on suffixes."""

    @lru_cache(maxsize=None)
    def best(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            best(i + 1, j) + 1,  # delete a[i]
            best(i, j + 1) + 1,  # insert b[j]
            best(i + 1, j + 1) + (a[i] != b[j]),
        )

    return best(0, 0)


def lev_enumerate(a: str, b: str) -> int:
    """True exhaustive script enumeration with a depth budget (short strings
    only); anchors the recursive oracle itself."""

    def achievable(x: str, budget: int) -> bool:
        if x == b:
            return True
        if budget == 0 or abs(len(x) - len(b)) > budget:
            return False
        alphabet = set(b) | set(x) | {"a"}
        for i in range(len(x) + 1):
            for ch in alphabet:
                if achievable(x[:i] + ch + x[i:], budget - 1):  # insert
                    return True
        for i in range(len(x)):
            if achievable(x[:i] + x[i + 1 :], budget - 1):  # delete
                return True
            for ch in alphabet:
                if ch != x[i] and achievable(x[:i] + ch + x[i + 1 :], budget - 1):
                    return True
        return False

    for budget in range(max(len(a), len(b)) + 1):
        if achievable(a, budget):
            return budget
    raise AssertionError("unreachable: any string converts within max length edits")


def unwritable_path(tmp_path):
    """A path under a regular file: no directory can be created there, even as root."""
    (tmp_path / "f.txt").write_text("", encoding="utf-8")
    return tmp_path / "f.txt" / "x"


def single_part_scene(
    name: str,
    coords,
    gripper=(0.0, 0.0, 0.0),
    grasped: bool = False,
    open_fraction: float = 1.0,
) -> Scene:
    return Scene(
        parts={name: PointCloud(coords)},
        grasped=frozenset({name} if grasped else set()),
        gripper_position=Point3(*gripper),
        gripper_open_fraction=open_fraction,
    )


CARROT_KNIFE_PROGRAM = (
    "perpendicular_cost(get_axis('carrot'), get_axis('knife blade')) + "
    "move_cost(get_centroid('knife'), get_centroid('knife blade'), offset=[0, 0, 0.1])"
)

PEN_PROGRAM = 'parallel_cost(get_axis("pen"), get_axis("pen holder"))'
