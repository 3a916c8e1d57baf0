"""Finite-dimensional Clifford representations and twisted curvature terms.

Generators e_1..e_m are anti-Hermitian with e_i e_j + e_j e_i = -2 delta_ij,
built as i times the Hermitian tensor-product gamma matrices over Pauli
factors; the spinor space has dimension 2^floor(m/2).

For a unitary-connection curvature R (antisymmetric in (i,j), each block
anti-Hermitian on the fiber), the twisted curvature endomorphism is

    K = 1/2 sum_{i,j} (e_i e_j) (x) R_ij

acting on spinors (x) fiber; the sum runs over all ordered pairs (diagonal
terms vanish since R_ii = 0).  K is Hermitian, and under tensor products of
bundles, R^{V1 (x) V2} = R^{V1} (x) 1 + 1 (x) R^{V2}, its least eigenvalue is
superadditive by Weyl's inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError
from .geometry import _integer

MAX_CLIFFORD_DIM = 8

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class CliffordRep:
    m: int
    spinor_dim: int
    gammas: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class CurvatureData:
    """Curvature blocks R[i, j] of a unitary connection; shape (m, m, f, f)."""

    m: int
    fiber_dim: int
    R: np.ndarray

    def validate(self) -> None:
        f = self.fiber_dim
        if self.R.shape != (self.m, self.m, f, f):
            raise InvalidParameterError(
                f"curvature array has shape {self.R.shape}, "
                f"expected {(self.m, self.m, f, f)}"
            )
        anti = self.R + np.transpose(self.R, (1, 0, 2, 3))
        if np.max(np.abs(anti)) > 1e-12:
            raise InvalidParameterError("curvature not antisymmetric in (i, j)")
        herm = self.R + np.conjugate(np.transpose(self.R, (0, 1, 3, 2)))
        if np.max(np.abs(herm)) > 1e-12:
            raise InvalidParameterError("curvature blocks not anti-Hermitian")


@dataclass(frozen=True)
class CurvatureEndomorphism:
    matrix: np.ndarray
    lambda_min: float


def build_clifford(m: int) -> CliffordRep:
    """Anti-Hermitian generators on the 2^floor(m/2)-dimensional spinor space."""
    m = _integer(m, "tangent dimension", 1)
    if m > MAX_CLIFFORD_DIM:
        raise InvalidParameterError(
            f"tangent dimension must lie in [1, {MAX_CLIFFORD_DIM}], got {m}"
        )
    k = m // 2
    dim = 2**k
    hermitian = []
    for a in range(k):
        # two generators per Pauli level: sigma_3^(x)a (x) sigma_{1,2} (x) 1
        for s in (0, 1):
            mat = np.eye(1, dtype=complex)
            for b in range(a):
                mat = np.kron(mat, _PAULI[2])
            mat = np.kron(mat, _PAULI[s])
            for _ in range(a + 1, k):
                mat = np.kron(mat, np.eye(2, dtype=complex))
            hermitian.append(mat)
    if m % 2 == 1:
        mat = np.eye(1, dtype=complex)
        for _ in range(k):
            mat = np.kron(mat, _PAULI[2])
        hermitian.append(mat)
    gammas = tuple(1j * g for g in hermitian[:m])
    return CliffordRep(m=m, spinor_dim=dim, gammas=gammas)


def make_curvature(m: int, fiber_dim: int, blocks) -> CurvatureData:
    """Assemble CurvatureData from {(i, j): block} with i < j, filling R_ji = -R_ij."""
    m, fiber_dim = _dimensions(m, fiber_dim)
    R = np.zeros((m, m, fiber_dim, fiber_dim), dtype=complex)
    for (i, j), block in blocks.items():
        if not (0 <= i < m and 0 <= j < m):
            raise InvalidParameterError(f"index pair {(i, j)} out of range for m={m}")
        if i == j:
            raise InvalidParameterError("diagonal curvature blocks must vanish")
        B = np.asarray(block, dtype=complex)
        R[i, j] = B
        R[j, i] = -B
    data = CurvatureData(m=m, fiber_dim=fiber_dim, R=R)
    data.validate()
    return data


def random_curvature(m: int, fiber_dim: int, rng) -> CurvatureData:
    """Random anti-Hermitian curvature blocks, for property sweeps."""
    m, fiber_dim = _dimensions(m, fiber_dim)
    blocks = {}
    for i in range(m):
        for j in range(i + 1, m):
            A = rng.normal(size=(fiber_dim, fiber_dim)) \
                + 1j * rng.normal(size=(fiber_dim, fiber_dim))
            blocks[(i, j)] = 0.5 * (A - A.conj().T)
    return make_curvature(m, fiber_dim, blocks)


def _dimensions(m, fiber_dim) -> tuple[int, int]:
    """(m, fiber_dim) as ints of at least 1."""
    return _integer(m, "tangent dimension", 1), _integer(fiber_dim, "fiber dimension", 1)


def _assemble(rep: CliffordRep, R: np.ndarray) -> np.ndarray:
    """1/2 sum_{i,j} (e_i e_j) (x) R[i, j] as one (s f) x (s f) matrix."""
    E = np.stack(rep.gammas)
    G = E[:, None] @ E[None, :]  # G[i, j] = e_i e_j
    s, f = E.shape[-1], R.shape[-1]
    return (0.5 * np.einsum("ijac,ijbd->abcd", G, R)).reshape(s * f, s * f)


def _lift(R: np.ndarray, other_dim: int, side: str) -> np.ndarray:
    """Blocks R[i, j] (x) 1 (side "first") or 1 (x) R[i, j] ("second")."""
    m, f = R.shape[0], R.shape[-1]
    eye = np.eye(other_dim, dtype=complex)
    spec = "ijac,bd->ijabcd" if side == "first" else "ijbd,ac->ijabcd"
    return np.einsum(spec, R, eye).reshape(m, m, f * other_dim, f * other_dim)


def curvature_endomorphism(rep: CliffordRep, data: CurvatureData) -> CurvatureEndomorphism:
    """K = 1/2 sum_{i,j} (e_i e_j) (x) R_ij with its least eigenvalue."""
    if rep.m != data.m:
        raise InvalidParameterError(
            f"tangent dimensions differ: rep has {rep.m}, curvature has {data.m}"
        )
    data.validate()
    K = _assemble(rep, data.R)
    herm_defect = float(np.max(np.abs(K - K.conj().T)))
    if herm_defect > 1e-10:
        raise NumericalFailureError(
            "assembled curvature endomorphism is not Hermitian; "
            "sign conventions are inconsistent",
            defect=herm_defect,
        )
    K = 0.5 * (K + K.conj().T)
    lam_min = float(np.linalg.eigvalsh(K)[0])
    return CurvatureEndomorphism(matrix=K, lambda_min=lam_min)


def tensor_curvature(d1: CurvatureData, d2: CurvatureData) -> CurvatureData:
    """Curvature of the tensor-product connection: R1 (x) 1 + 1 (x) R2."""
    if d1.m != d2.m:
        raise InvalidParameterError(
            f"tangent dimensions differ: {d1.m} vs {d2.m}"
        )
    R = _lift(d1.R, d2.fiber_dim, "first") + _lift(d2.R, d1.fiber_dim, "second")
    data = CurvatureData(m=d1.m, fiber_dim=d1.fiber_dim * d2.fiber_dim, R=R)
    data.validate()
    return data


def partial_spectrum(rep: CliffordRep, data: CurvatureData, other_dim: int, side: str):
    """Spectrum of the one-factor operator acting on spinors (x) V1 (x) V2.

    side = "first": 1/2 sum (e_i e_j) (x) R_ij (x) 1_{other};
    side = "second": 1/2 sum (e_i e_j) (x) 1_{other} (x) R_ij.
    """
    if side not in ("first", "second"):
        raise InvalidParameterError(f"side must be 'first' or 'second', got {side}")
    other_dim = _integer(other_dim, "other fiber dimension", 1)
    K = _assemble(rep, _lift(data.R, other_dim, side))
    return np.linalg.eigvalsh(0.5 * (K + K.conj().T))
