"""Deterministic library of time-dependent Hamiltonian instances.

Building the same instance twice yields bit-identical matrices (the random
family is driven by a seeded generator), so experiment outputs are exactly
reproducible.  Closed-form spectral facts, where available, are exposed as
plain functions for use as independent test oracles.

transverse_ising at s = 1 has a doubly degenerate ground space: tracked in
full space it is the fixture for the gap-collapse error path.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DomainError
from .hamiltonians import TimeDependentHamiltonian, affine_hamiltonian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def landau_zener() -> TimeDependentHamiltonian:
    """Two-level avoided crossing H(s) = (1-s) Z + s X."""
    return affine_hamiltonian(PAULI_Z, PAULI_X, name="landau_zener")


def landau_zener_eigenvalue(s, branch: str = "ground"):
    """Closed-form eigenvalues -/+ sqrt((1-s)^2 + s^2)."""
    root = np.sqrt((1.0 - np.asarray(s)) ** 2 + np.asarray(s) ** 2)
    return -root if branch == "ground" else root


def landau_zener_gap(s):
    return 2.0 * np.sqrt((1.0 - np.asarray(s)) ** 2 + np.asarray(s) ** 2)


def grover(n: int, marked: int = 0) -> TimeDependentHamiltonian:
    """Projector interpolation from the uniform state to a marked state.

    H(s) = (1-s)(I - |phi><phi|) + s(I - |m><m|) on N = 2^n levels.
    """
    if not (1 <= n <= 10):
        raise DomainError(f"grover requires 1 <= n <= 10, got n={n}")
    size = 2**n
    if not (0 <= marked < size):
        raise DomainError(f"marked must lie in [0, {size}), got {marked}")
    phi = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    eye = np.eye(size, dtype=complex)
    h0 = eye - np.outer(phi, phi.conj())
    h1 = eye.copy()
    h1[marked, marked] = 0.0
    return affine_hamiltonian(h0, h1, name="grover", params={"n": n, "marked": marked})


def grover_gap(n: int, s):
    """Gap between the two nontrivial branches: sqrt(1 - 4(1-1/N)s(1-s))."""
    size = 2**n
    s = np.asarray(s)
    return np.sqrt(1.0 - 4.0 * (1.0 - 1.0 / size) * s * (1.0 - s))


def grover_ground_energy(n: int, s):
    return 0.5 * (1.0 - grover_gap(n, s))


def _kron_chain(ops) -> np.ndarray:
    return reduce(np.kron, ops)


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    ops = [np.eye(2, dtype=complex)] * n
    ops[site] = op
    return _kron_chain(ops)


def transverse_ising(n: int, J: float = 1.0) -> TimeDependentHamiltonian:
    """Open-chain anneal H(s) = -(1-s) sum X_i - s J sum Z_i Z_{i+1}.

    At s = 1 the classical term has a doubly degenerate ground space, so
    full-space tracking fails there with a gap-collapse error; the second
    ground state is parity-odd, outside the subspace ``zero_frame`` runs in.
    """
    if not (1 <= n <= 8):
        raise DomainError(f"transverse_ising requires 1 <= n <= 8, got n={n}")
    size = 2**n
    h0 = np.zeros((size, size), dtype=complex)
    for i in range(n):
        h0 -= _site_operator(PAULI_X, i, n)
    h1 = np.zeros((size, size), dtype=complex)
    for i in range(n - 1):
        h1 -= J * (
            _site_operator(PAULI_Z, i, n) @ _site_operator(PAULI_Z, i + 1, n)
        )
    return affine_hamiltonian(h0, h1, name="transverse_ising", params={"n": n, "J": J})


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.conj().T)


def random_interpolation(dim: int, seed: int) -> TimeDependentHamiltonian:
    """Seeded random affine path between two dense Hermitian endpoints."""
    if not (2 <= dim <= 64):
        raise DomainError(f"random_interpolation requires 2 <= dim <= 64, got {dim}")
    rng = np.random.default_rng(seed)
    h0 = _random_hermitian(rng, dim)
    h1 = _random_hermitian(rng, dim)
    return affine_hamiltonian(
        h0, h1, name="random_interpolation", params={"dim": dim, "seed": seed}
    )


def constant(diagonal=(0.0, 2.0)) -> TimeDependentHamiltonian:
    """Constant diagonal Hamiltonian; H'(s) = H''(s) = 0 exactly."""
    values = np.asarray(diagonal, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise DomainError("constant requires at least two diagonal values")
    mat = np.diag(values).astype(complex)
    return affine_hamiltonian(
        mat, mat, name="constant", params={"diagonal": [float(v) for v in values]}
    )


_FACTORIES = {
    "landau_zener": landau_zener,
    "grover": grover,
    "transverse_ising": transverse_ising,
    "random_interpolation": random_interpolation,
    "constant": constant,
}


@dataclass(frozen=True)
class InstanceSpec:
    """Named instance plus its kind-specific parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def build(self) -> TimeDependentHamiltonian:
        if self.kind not in _FACTORIES:
            raise DomainError(
                f"unknown instance kind {self.kind!r}; expected one of "
                f"{sorted(_FACTORIES)}"
            )
        factory = _FACTORIES[self.kind]
        try:
            inspect.signature(factory).bind(**self.params)
        except TypeError as exc:
            raise DomainError(f"instance {self.kind!r}: {exc}") from None
        return factory(**self.params)


__all__ = [
    "InstanceSpec",
    "affine_hamiltonian",
    "constant",
    "grover",
    "grover_gap",
    "grover_ground_energy",
    "landau_zener",
    "landau_zener_eigenvalue",
    "landau_zener_gap",
    "random_interpolation",
    "transverse_ising",
    "PAULI_X",
    "PAULI_Z",
]
