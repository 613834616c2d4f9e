"""3D scene geometry: uniform planar arrays and their element grids.

Element indexing is row-major (element k = r * cols + c) and frozen so that
codebooks and active-element masks are reproducible across runs.
"""

import numpy as np

_ORTHO_TOL = 1e-9


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector components must be finite")
    return a


def unit(v) -> np.ndarray:
    """Normalize v to unit length; raises when its norm is 0 or overflows."""
    a = _as_vec3(v)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(a)
    if not 0.0 < n < np.inf:
        raise ValueError(f"cannot normalize a vector of norm {n}")
    return a / n


class PlanarArray:
    """Uniform planar array: a rows x cols grid of elements centered on
    `center`, spanned by the orthonormal in-plane axes `axis_row` and
    `axis_col`, radiating into the half-space of `normal`.
    """

    def __init__(self, center, rows: int, cols: int, spacing: float, axis_row, axis_col,
                 normal):
        self.center = _as_vec3(center)
        self.axis_row, self.axis_col, self.normal = map(_as_vec3, (axis_row, axis_col, normal))
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        if not spacing > 0:
            raise ValueError("spacing must be positive")
        self.rows, self.cols, self.spacing = rows, cols, spacing
        axes = (self.axis_row, self.axis_col, self.normal)
        for a in axes:
            if abs(np.linalg.norm(a) - 1.0) > _ORTHO_TOL:
                raise ValueError("array axes must be unit-norm")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(np.dot(axes[i], axes[j])) > _ORTHO_TOL:
                    raise ValueError("array axes must be pairwise orthogonal")

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols


def orthonormal_frame(normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (axis_row, axis_col, normal) triad for a given facing
    direction. Uses the global z axis as "up" (y axis when normal is
    z-aligned), so arrays in the default scene stand vertically.
    """
    n = unit(normal)
    up = np.array([0.0, 0.0, 1.0])
    if np.linalg.norm(np.cross(up, n)) < 1e-6:
        up = np.array([0.0, 1.0, 0.0])
    axis_row = unit(np.cross(up, n))
    axis_col = np.cross(n, axis_row)
    return axis_row, axis_col, n


def facing_array(center, rows: int, cols: int, spacing: float, toward) -> PlanarArray:
    """Build a PlanarArray at `center` whose normal points toward `toward`."""
    center = _as_vec3(center)
    toward = _as_vec3(toward)
    axis_row, axis_col, normal = orthonormal_frame(toward - center)
    return PlanarArray(center, rows, cols, spacing, axis_row, axis_col, normal)


def element_positions(array: PlanarArray) -> np.ndarray:
    """Positions of all elements, shape (rows*cols, 3), row-major order,
    grid centered on the array center.
    """
    r = np.arange(array.rows) - (array.rows - 1) / 2.0
    c = np.arange(array.cols) - (array.cols - 1) / 2.0
    offsets = (
        r[:, None, None] * array.spacing * array.axis_row
        + c[None, :, None] * array.spacing * array.axis_col
    )
    return (array.center + offsets).reshape(-1, 3)
