import numpy as np
import pytest

import adialab as al
from adialab.hamiltonians import eval_batch
from adialab.problems import PAULI_X, PAULI_Z


@pytest.fixture(scope="session")
def lz():
    return al.landau_zener()


@pytest.fixture(scope="session")
def grover2():
    return al.grover(2)


@pytest.fixture(scope="session")
def grover3():
    return al.grover(3)


@pytest.fixture(scope="session")
def rand4():
    return al.random_interpolation(4, seed=7)


@pytest.fixture(scope="session")
def const_instance():
    return al.constant((0.0, 2.0))


@pytest.fixture(scope="session")
def suite(lz, grover2, grover3, rand4):
    # the nondegenerate library instances used by path-based invariants
    return [lz, grover2, grover3, rand4]


def sampled_only(point_fn, dim: int = 2) -> al.TimeDependentHamiltonian:
    """An instance for tests that only sample H(s); its evaluator calls
    ``point_fn(s)`` once per point of a non-empty s array."""
    return al.TimeDependentHamiltonian(
        dim=dim, evaluator=lambda s_values: np.array([point_fn(s) for s in s_values])
    )


def rotating_two_level(rate: float = np.pi) -> al.TimeDependentHamiltonian:
    """H(s) = -(cos(rate*s) Z + sin(rate*s) X); the ground state rotates
    in the real plane at constant speed rate/2 with a constant gap of 2."""
    return al.TimeDependentHamiltonian(
        dim=2,
        evaluator=lambda s_values: -(
            np.cos(rate * s_values)[:, None, None] * PAULI_Z
            + np.sin(rate * s_values)[:, None, None] * PAULI_X
        ),
        name="rotating_two_level",
        params={"rate": rate},
    )


def svd_norm(mats: np.ndarray) -> np.ndarray:
    """Oracle operator norm: the largest singular value, by LAPACK's SVD,
    independent of the library's norm route."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def dense_sample(h: al.TimeDependentHamiltonian, per_cell: int = 64) -> np.ndarray:
    """``per_cell`` points in each cell of a shifted frame's spline, its
    knots included."""
    knots = h.affine.shift.x
    offsets = np.diff(knots)[:, None] * np.arange(per_cell) / per_cell
    return np.append((knots[:-1, None] + offsets).ravel(), knots[-1])


def dense_derivative_norms(h: al.TimeDependentHamiltonian, per_cell: int = 64):
    """Oracle for a shifted frame's ||H~'|| and ||H~''||: the largest SVD
    norms of D - c'(s) I and c''(s) I over ``dense_sample``, with c' and c''
    from the spline.  Both norms are convex in the scalar, so the largest
    is at the sample's smallest or largest c' (c''), and only those
    matrices are formed."""
    s, spline, eye = dense_sample(h, per_cell), h.affine.shift, np.eye(h.dim)
    slope, curvature = (
        values[[values.argmin(), values.argmax()], None, None]
        for values in (spline(s, 1), spline(s, 2))
    )
    return (
        float(svd_norm(h.affine.diff - slope * eye).max()),
        float(svd_norm(curvature * eye).max()),
    )


def dense_norm(h: al.TimeDependentHamiltonian, per_cell: int = 64) -> float:
    """Oracle for a shifted frame's ||H~||: the largest SVD norm of
    H~(s) from eval_batch over ``dense_sample``."""
    s = dense_sample(h, per_cell)
    return max(
        float(svd_norm(eval_batch(h, s[lo : lo + 4096])).max())
        for lo in range(0, s.size, 4096)
    )
