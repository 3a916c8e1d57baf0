import numpy as np
import pytest

from scx.clifford import (
    CliffordRep,
    CurvatureData,
    build_clifford,
    curvature_endomorphism,
    make_curvature,
    partial_spectrum,
    random_curvature,
    tensor_curvature,
)
from scx.errors import InvalidParameterError


class TestBuildClifford:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_anticommutation_and_antihermitian(self, m):
        rep = build_clifford(m)
        assert rep.spinor_dim == 2 ** (m // 2)
        eye = np.eye(rep.spinor_dim)
        for i in range(m):
            assert np.allclose(rep.gammas[i], -rep.gammas[i].conj().T)
            for j in range(m):
                anti = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
                expect = -2 * eye if i == j else np.zeros_like(eye)
                assert np.allclose(anti, expect, atol=1e-13)

    def test_m1_is_imaginary_unit(self):
        rep = build_clifford(1)
        assert rep.spinor_dim == 1
        assert rep.gammas[0] == pytest.approx(1j)

    def test_m2_volume_element_eigenvalues(self):
        rep = build_clifford(2)
        eigs = np.linalg.eigvals(rep.gammas[0] @ rep.gammas[1])
        assert sorted(np.round(e.imag, 12) for e in eigs) == [-1.0, 1.0]
        assert np.allclose([e.real for e in eigs], 0.0, atol=1e-13)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            build_clifford(0)
        with pytest.raises(InvalidParameterError):
            build_clifford(9)


class TestCurvatureEndomorphism:
    def test_flat_bundle_gives_zero(self):
        rep = build_clifford(3)
        data = make_curvature(3, 2, {})
        K = curvature_endomorphism(rep, data)
        assert np.allclose(K.matrix, 0)
        assert K.lambda_min == 0.0

    def test_m2_line_bundle_closed_form(self):
        rep = build_clifford(2)
        for c in (0.3, -1.7, 2.0):
            data = make_curvature(2, 1, {(0, 1): np.array([[1j * c]])})
            K = curvature_endomorphism(rep, data)
            assert K.lambda_min == pytest.approx(-abs(c), abs=1e-12)
            assert np.allclose(np.linalg.eigvalsh(K.matrix), [-abs(c), abs(c)])

    def test_hermitian_output(self, rng):
        for m in (2, 3, 4):
            rep = build_clifford(m)
            data = random_curvature(m, 3, rng)
            K = curvature_endomorphism(rep, data)
            assert np.allclose(K.matrix, K.matrix.conj().T, atol=1e-12)
            assert K.lambda_min == pytest.approx(np.linalg.eigvalsh(K.matrix)[0])

    def test_dimension_mismatch(self, rng):
        rep = build_clifford(2)
        with pytest.raises(InvalidParameterError):
            curvature_endomorphism(rep, random_curvature(3, 2, rng))

    def test_invalid_curvature_rejected(self):
        bad = np.zeros((2, 2, 1, 1), dtype=complex)
        bad[0, 1] = 1.0  # not anti-Hermitian, not antisymmetric
        with pytest.raises(InvalidParameterError):
            CurvatureData(m=2, fiber_dim=1, R=bad).validate()


class TestTensorCurvature:
    def test_trivial_factor_is_identity(self, rng):
        d1 = random_curvature(3, 2, rng)
        trivial = make_curvature(3, 1, {})
        d12 = tensor_curvature(d1, trivial)
        assert d12.fiber_dim == 2
        assert np.allclose(d12.R, d1.R)

    def test_two_line_bundles_add(self):
        a, b = 0.4, -1.1
        d1 = make_curvature(2, 1, {(0, 1): np.array([[1j * a]])})
        d2 = make_curvature(2, 1, {(0, 1): np.array([[1j * b]])})
        d12 = tensor_curvature(d1, d2)
        assert d12.R[0, 1][0, 0] == pytest.approx(1j * (a + b))
        rep = build_clifford(2)
        K = curvature_endomorphism(rep, d12)
        assert K.lambda_min == pytest.approx(-abs(a + b), abs=1e-12)

    def test_invariants_preserved(self, rng):
        d1 = random_curvature(4, 2, rng)
        d2 = random_curvature(4, 3, rng)
        d12 = tensor_curvature(d1, d2)
        d12.validate()  # antisymmetry and anti-Hermitian blocks survive

    def test_mismatch_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            tensor_curvature(random_curvature(2, 1, rng), random_curvature(3, 1, rng))


class TestAdditivity:
    def test_fifty_seeded_instances(self):
        rng = np.random.default_rng(42)
        worst = np.inf
        gaps = []
        for _ in range(50):
            m = int(rng.choice([2, 3, 4]))
            rep = build_clifford(m)
            d1 = random_curvature(m, int(rng.integers(1, 5)), rng)
            d2 = random_curvature(m, int(rng.integers(1, 5)), rng)
            l1 = curvature_endomorphism(rep, d1).lambda_min
            l2 = curvature_endomorphism(rep, d2).lambda_min
            l12 = curvature_endomorphism(rep, tensor_curvature(d1, d2)).lambda_min
            gap = l12 - (l1 + l2)
            gaps.append(gap)
            worst = min(worst, gap)
        assert worst >= -1e-9
        # the lower bound is generically not attained; report the observed gap
        print(f"\nobserved additivity gap: median {np.median(gaps):.4f}, "
              f"max {max(gaps):.4f}, min {worst:.2e}")

    def test_partial_spectra_multiplicity(self, rng):
        m, f1, f2 = 3, 2, 3
        rep = build_clifford(m)
        d1 = random_curvature(m, f1, rng)
        d2 = random_curvature(m, f2, rng)
        spec1 = np.linalg.eigvalsh(curvature_endomorphism(rep, d1).matrix)
        part1 = np.sort(partial_spectrum(rep, d1, f2, "first"))
        assert np.allclose(part1, np.sort(np.repeat(spec1, f2)), atol=1e-9)
        spec2 = np.linalg.eigvalsh(curvature_endomorphism(rep, d2).matrix)
        part2 = np.sort(partial_spectrum(rep, d2, f1, "second"))
        assert np.allclose(part2, np.sort(np.repeat(spec2, f1)), atol=1e-9)

    def test_basis_covariance(self, rng):
        m = 3
        rep = build_clifford(m)
        data = random_curvature(m, 2, rng)
        spec = np.linalg.eigvalsh(curvature_endomorphism(rep, data).matrix)
        z = rng.normal(size=(rep.spinor_dim, rep.spinor_dim)) \
            + 1j * rng.normal(size=(rep.spinor_dim, rep.spinor_dim))
        q, _ = np.linalg.qr(z)
        rot = CliffordRep(m=m, spinor_dim=rep.spinor_dim,
                          gammas=tuple(q @ g @ q.conj().T for g in rep.gammas))
        spec_rot = np.linalg.eigvalsh(curvature_endomorphism(rot, data).matrix)
        assert np.allclose(spec, spec_rot, atol=1e-9)


# loop assemblies kept as references for the vectorized ones
def _endomorphism_loop(rep, data):
    size = rep.spinor_dim * data.fiber_dim
    K = np.zeros((size, size), dtype=complex)
    for i in range(rep.m):
        for j in range(rep.m):
            if i != j:
                K += 0.5 * np.kron(rep.gammas[i] @ rep.gammas[j], data.R[i, j])
    return 0.5 * (K + K.conj().T)


def _tensor_loop(d1, d2):
    f1, f2 = d1.fiber_dim, d2.fiber_dim
    R = np.zeros((d1.m, d1.m, f1 * f2, f1 * f2), dtype=complex)
    for i in range(d1.m):
        for j in range(d1.m):
            if i != j:
                R[i, j] = (np.kron(d1.R[i, j], np.eye(f2, dtype=complex))
                           + np.kron(np.eye(f1, dtype=complex), d2.R[i, j]))
    return R


def _partial_loop(rep, data, other_dim, side):
    eye = np.eye(other_dim, dtype=complex)
    size = rep.spinor_dim * data.fiber_dim * other_dim
    K = np.zeros((size, size), dtype=complex)
    for i in range(rep.m):
        for j in range(rep.m):
            if i != j:
                block = (np.kron(data.R[i, j], eye) if side == "first"
                         else np.kron(eye, data.R[i, j]))
                K += 0.5 * np.kron(rep.gammas[i] @ rep.gammas[j], block)
    return np.linalg.eigvalsh(0.5 * (K + K.conj().T))


class TestVectorizedAssembly:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_bitwise_equal_to_loops(self, m, rng):
        rep = build_clifford(m)
        for _ in range(12):
            d1 = random_curvature(m, int(rng.integers(1, 5)), rng)
            d2 = random_curvature(m, int(rng.integers(1, 4)), rng)
            assert np.array_equal(curvature_endomorphism(rep, d1).matrix,
                                  _endomorphism_loop(rep, d1))
            assert np.array_equal(tensor_curvature(d1, d2).R, _tensor_loop(d1, d2))
            for side in ("first", "second"):
                assert np.array_equal(partial_spectrum(rep, d1, d2.fiber_dim, side),
                                      _partial_loop(rep, d1, d2.fiber_dim, side))
