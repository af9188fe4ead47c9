import numpy as np
import pytest

import adialab as al
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
    """An instance for tests that only sample H(s): its d1 and d2 are zero,
    which is wrong for any non-constant evaluator, so it must never be
    differentiated."""
    zero = np.zeros((dim, dim), dtype=complex)
    return al.TimeDependentHamiltonian(
        dim=dim, evaluator=evaluator, d1=lambda s: zero, d2=lambda s: zero
    )


def plain_copy(inst: al.TimeDependentHamiltonian) -> al.TimeDependentHamiltonian:
    """``inst`` without its affine record: the same evaluator, d1 and d2,
    which norm_bundle samples matrix by matrix and eval_batch checks."""
    return al.TimeDependentHamiltonian(
        dim=inst.dim, evaluator=inst.evaluator, d1=inst.d1, d2=inst.d2
    )


def rotating_two_level(rate: float = np.pi) -> al.TimeDependentHamiltonian:
    """H(s) = -(cos(rate*s) Z + sin(rate*s) X); the ground state rotates
    in the real plane at constant speed rate/2 with a constant gap of 2."""
    return al.TimeDependentHamiltonian(
        dim=2,
        evaluator=lambda s: -(np.cos(rate * s) * PAULI_Z + np.sin(rate * s) * PAULI_X),
        d1=lambda s: rate * (np.sin(rate * s) * PAULI_Z - np.cos(rate * s) * PAULI_X),
        d2=lambda s: rate**2
        * (np.cos(rate * s) * PAULI_Z + np.sin(rate * s) * PAULI_X),
        name="rotating_two_level",
        params={"rate": rate},
    )
