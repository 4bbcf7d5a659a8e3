import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def bw32_systole():
    """``systole(bw_lattice(4))``, the g=32 Barnes-Wall (squared systole, kissing number), computed once."""
    from symplat import bw_lattice, systole

    return systole(bw_lattice(4))


def siegel_to_obj(z) -> dict:
    """Siegel point file form {"g": g, "x": Mat, "y": Mat} of ``z``."""
    from symplat.linalg import mat_to_obj

    return {"g": z.g, "x": mat_to_obj(z.x), "y": mat_to_obj(z.y)}


def brute_force_short(basis, r2, eps=1e-9):
    """Independent short-vector oracle: scan an axis-aligned coordinate box.

    Any x with ||B x|| <= r satisfies |x_i| <= r ||B^-1||_2, so the box
    below provably contains every solution.
    """
    basis = np.asarray(basis, dtype=np.float64)
    d = basis.shape[0]
    bound = int(np.ceil(np.sqrt(r2) * np.linalg.norm(np.linalg.inv(basis), 2)))
    axes = [np.arange(-bound, bound + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[np.any(grid != 0, axis=1)]
    vecs = grid @ basis.T
    n2 = np.einsum("ij,ij->i", vecs, vecs)
    keep = n2 <= r2 * (1 + eps)
    return grid[keep], n2[keep]


def coord_multiset(coords):
    return sorted(tuple(int(c) for c in row) for row in coords)


def random_spd(rng, dim, scale=1.0):
    m = rng.normal(0.0, scale, size=(dim, dim))
    return m.T @ m + np.eye(dim)


def random_invertible(rng, dim, min_det=0.1, max_cond=None, tries=200):
    for _ in range(tries):
        b = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(b)) <= min_det:
            continue
        if max_cond is not None and np.linalg.cond(b) > max_cond:
            continue
        return b
    raise AssertionError("could not draw an invertible matrix")


def random_circulant_row(rng, g, tries=500):
    """Row with entries in [1, 2] whose circulant is comfortably invertible."""
    from symplat import circulant_from_row

    for _ in range(tries):
        row = rng.uniform(1.0, 2.0, size=g)
        if abs(np.linalg.det(circulant_from_row(row))) > 0.1:
            return row
    raise AssertionError("could not draw an invertible circulant row")


def random_a2n_row(rng, g, tries=500):
    """Row with entries in [1, 2] whose XOR-patterned matrix is invertible."""
    from symplat import a2n_eigenvalues

    for _ in range(tries):
        row = rng.uniform(1.0, 2.0, size=g)
        if np.min(np.abs(a2n_eigenvalues(row))) > 0.1:
            return row
    raise AssertionError("could not draw an invertible patterned row")
