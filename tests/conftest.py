import numpy as np
import pytest

import adialab as al
from adialab._linalg import golden_section_max, opnorm
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


def sampled_only(evaluator, dim: int = 2) -> al.TimeDependentHamiltonian:
    """An instance for tests that only sample H(s)."""
    return al.TimeDependentHamiltonian(dim=dim, evaluator=evaluator)


def rotating_two_level(rate: float = np.pi) -> al.TimeDependentHamiltonian:
    """H(s) = -(cos(rate*s) Z + sin(rate*s) X); the ground state rotates
    in the real plane at constant speed rate/2 with a constant gap of 2."""
    return al.TimeDependentHamiltonian(
        dim=2,
        evaluator=lambda s: -(np.cos(rate * s) * PAULI_Z + np.sin(rate * s) * PAULI_X),
        name="rotating_two_level",
        params={"rate": rate},
    )


def per_matrix_curves(h: al.TimeDependentHamiltonian, grid: np.ndarray):
    """||H(s)||, ||H'(s)|| and ||H''(s)|| on ``grid``, matrix by matrix:
    H from eval_batch, H' and H'' from derivative point by point."""
    derivatives = (
        opnorm(np.array([al.derivative(h, float(s), order).entries for s in grid]))
        for order in (1, 2)
    )
    return (opnorm(eval_batch(h, grid)), *derivatives)


def per_matrix_norms(h: al.TimeDependentHamiltonian, grid_size: int) -> al.NormBundle:
    """Oracle for norm_bundle: the grid sups of ``per_matrix_curves`` on a
    uniform grid, each refined once by golden section around its argmax."""
    grid = np.linspace(0.0, 1.0, grid_size)
    point_fns = (
        lambda s: opnorm(al.eval_at(h, s).entries),
        lambda s: opnorm(al.derivative(h, s, 1).entries),
        lambda s: opnorm(al.derivative(h, s, 2).entries),
    )
    sups = []
    for curve, point_fn in zip(per_matrix_curves(h, grid), point_fns):
        i = int(np.argmax(curve))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid_size - 1)]
        _, refined = golden_section_max(point_fn, float(lo), float(hi))
        sups.append(max(float(curve[i]), float(refined)))
    return al.NormBundle(*sups, grid_size)
