import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cbbench import numerics
from cbbench.errors import DegenerateInputError, InvalidArgumentError, NumericError
from cbbench.numerics import (
    _openblas,
    covariance,
    default_ridge,
    derive_stream,
    gaussian_entropy,
    gram_schmidt,
    pca_fit,
)

from conftest import traced_peak

H1 = 0.5 * (math.log(2 * math.pi) + 1.0)  # entropy of a 1-D unit Gaussian


class TestRandomStream:
    def test_replay_determinism(self):
        a = derive_stream(7, b"a").words(100)
        b = derive_stream(7, b"a").words(100)
        assert np.array_equal(a, b)

    def test_label_separation(self):
        a = derive_stream(7, b"a").words(8)
        b = derive_stream(7, b"b").words(8)
        assert not np.array_equal(a, b)
        assert a[0] != b[0]

    def test_seed_separation(self):
        assert derive_stream(1, b"a").words(1)[0] != derive_stream(2, b"a").words(1)[0]

    def test_gaussian_moments(self):
        draws = derive_stream(7, b"g").normals(100_000)
        assert -0.02 < draws.mean() < 0.02
        assert 0.97 < draws.var() < 1.03

    def test_uniforms_in_unit_interval(self):
        u = derive_stream(7, b"u").uniforms(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_integers_below_one_are_zeros(self):
        draws = derive_stream(7, b"i").integers(5, 1)
        assert draws.dtype == np.int64 and np.array_equal(draws, np.zeros(5))

    @pytest.mark.parametrize("label", ["a", 5, 0, None, bytearray(b"a"), [97]])
    def test_label_not_bytes_rejected(self, label):
        with pytest.raises(InvalidArgumentError, match="^label must be bytes"):
            derive_stream(1, label)

    def test_seed_out_of_range(self):
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(InvalidArgumentError, match="^origin_seed "):
                derive_stream(seed, b"a")

    @pytest.mark.parametrize("count,n", [(512, 128), (512, 256), (3, 2), (1, 1000), (7, 16)])
    def test_batched_permutations_equal_sequential_calls(self, count, n):
        batched = derive_stream(9, b"p")
        sequential = derive_stream(9, b"p")
        rows = batched.permutation(n, count)
        expected = np.stack([sequential._gen.permutation(n) for _ in range(count)])
        assert rows.shape == (count, n) and rows.dtype == expected.dtype
        assert np.array_equal(rows, expected)
        # the batch leaves the stream where the sequential calls leave it
        assert np.array_equal(batched.words(4), sequential.words(4))


def mgs_oracle(m: np.ndarray) -> np.ndarray:
    """Two-pass modified Gram-Schmidt over the rows, one row at a time."""
    q = np.asarray(m, dtype=np.float64).copy()
    for i in range(q.shape[0]):
        v = q[i]
        for _ in range(2):
            if i:
                v = v - (q[:i] @ v) @ q[:i]
        q[i] = v / np.linalg.norm(v)
    return q


class TestGramSchmidt:
    def test_identity_fixed_point(self):
        assert np.allclose(gram_schmidt(np.eye(2)), np.eye(2))

    def test_projector_matches_brute_force_oracle(self):
        m = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        q = gram_schmidt(m)
        # oracle: orthonormal row-space basis via SVD
        _, s, vt = np.linalg.svd(m, full_matrices=False)
        basis = vt[: np.sum(s > 1e-12)]
        assert np.allclose(q.T @ q, basis.T @ basis, atol=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateInputError):
            gram_schmidt(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError, match="row 0 "):
            gram_schmidt(np.zeros((2, 3)))

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gram_schmidt(np.zeros((3, 2)))

    @pytest.mark.parametrize("rows,cols", [(3, 5), (16, 16), (64, 100), (512, 1024)])
    def test_orthonormality_at_scale(self, rows, cols, rng):
        m = rng.standard_normal((rows, cols))
        q = gram_schmidt(m)
        assert np.abs(q @ q.T - np.eye(rows)).max() <= 1e-8

    def test_span_preserved(self, rng):
        m = rng.standard_normal((6, 9))
        q = gram_schmidt(m)
        # every original row must lie in the span of the output rows
        recon = (m @ q.T) @ q
        assert np.allclose(recon, m, atol=1e-10)

    @pytest.mark.parametrize("rows,cols", [(128, 128), (256, 256), (64, 100)])
    def test_matches_modified_gram_schmidt(self, rows, cols, rng):
        m = rng.standard_normal((rows, cols))
        q = gram_schmidt(m)
        assert q.flags.c_contiguous
        assert np.abs(q - mgs_oracle(m)).max() <= 1e-12

    def test_degenerate_error_names_dependent_row(self):
        m = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, -3.0, 0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="row 2 "):
            gram_schmidt(m)

    def test_tiny_full_rank_accepted(self):
        # the threshold scales with max|m|, so a tiny matrix is judged as its scaled copy
        assert np.array_equal(gram_schmidt(np.eye(2) * 1e-13), np.eye(2))

    def test_tiny_dependent_row_refused_by_name(self):
        m = 1e-13 * np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, -3.0, 0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="row 2 "):
            gram_schmidt(m)

    def test_power_of_two_rescales_give_equal_bits(self, rng):
        m = rng.standard_normal((8, 12))
        q = gram_schmidt(m)
        for e in range(-960, 1021, 60):  # |m| stays within float64's normal range
            assert np.array_equal(gram_schmidt(np.ldexp(m, e)), q), e


def linalg_qr_rows(m: np.ndarray) -> np.ndarray:
    """Sign-fixed rows of Q from ``np.linalg.qr(m.T)``, as a C-order array."""
    q, r = np.linalg.qr(m.T)
    return np.ascontiguousarray((q * np.sign(np.diag(r))).T)


class TestHouseholderPaths:
    @pytest.fixture(autouse=True)
    def bundled_openblas(self):
        if _openblas() is None:
            pytest.skip(f"numpy {np.__version__} bundles no OpenBLAS whose LAPACK can be called")

    @pytest.mark.parametrize("rows,cols", [(1, 9), (3, 5), (64, 100), (128, 128), (128, 256),
                                           (256, 256)])
    def test_lapack_equals_linalg_qr_bits(self, rows, cols, rng):
        m = rng.standard_normal((rows, cols))
        assert np.array_equal(gram_schmidt(m), linalg_qr_rows(m))

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(0, 8)).map(
        lambda s: (s[0], s[0] + s[1])), elements=st.floats(-1e6, 1e6)))
    def test_lapack_equals_linalg_qr_bits_on_drawn_matrices(self, m):
        # gram_schmidt factors m scaled by its peak's power of two, which is
        # exact; np.linalg.qr of an unscaled subnormal m would underflow
        try:
            q = gram_schmidt(m)
        except DegenerateInputError:
            return
        assert np.array_equal(q, linalg_qr_rows(np.ldexp(m, -np.frexp(np.abs(m).max())[1])))

    def test_linalg_qr_not_called(self, rng, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.qr called with the bundled LAPACK present")

        monkeypatch.setattr(np.linalg, "qr", refused)
        assert gram_schmidt(rng.standard_normal((16, 20))).shape == (16, 20)

    def test_fallback_gives_equal_bits(self, rng, monkeypatch):
        ms = [rng.standard_normal(shape) for shape in [(1, 9), (3, 5), (64, 100), (256, 256)]]
        lapack = [gram_schmidt(m) for m in ms]
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        for m, q in zip(ms, lapack):
            assert np.array_equal(gram_schmidt(m), q)
        with pytest.raises(DegenerateInputError, match="row 1 "):
            gram_schmidt(np.array([[1.0, 0.0], [2.0, 0.0]]))


def svd_only_fit(x: np.ndarray, r: int) -> tuple[np.ndarray, ...]:
    """``pca_fit`` without its QR step: (mean, components, explained variance)
    from one SVD of the centered matrix, whatever its shape."""
    mean = x.mean(axis=0)
    _, singular, vt = np.linalg.svd(x - mean, full_matrices=False)
    return mean, vt[:r], singular[:r] ** 2 / (len(x) - 1)


# (rows, cols, whether pca_fit takes the QR step): dgesdd factors a matrix
# first from rows >= cols * 11 // 6 on (469 for 256 columns, 234 for 128), and
# one row below that its direct path gives other bits
PCA_SHAPES = [(468, 256, False), (469, 256, True), (1500, 256, True), (233, 128, False),
              (234, 128, True), (300, 128, True), (2000, 64, True), (120, 300, False)]
# Gaussian features, protected bits and small integer codes; the last two are
# rank-deficient, as protected rows are
PCA_KINDS = {
    "gaussian": lambda rng, shape: rng.standard_normal(shape),
    "bits": lambda rng, shape: rng.integers(0, 2, shape).astype(float),
    "codes": lambda rng, shape: rng.integers(0, 4, shape).astype(float),
}


class TestPca:
    @pytest.fixture
    def bundled_openblas(self):
        if _openblas() is None:
            pytest.skip(f"numpy {np.__version__} bundles no OpenBLAS, whose dgesdd factors a "
                        "tall matrix by QR first from rows >= cols * 11 // 6 on")

    @pytest.mark.parametrize("kind", PCA_KINDS)
    @pytest.mark.parametrize("rows,cols,tall", PCA_SHAPES)
    def test_qr_step_keeps_the_svd_bits(self, bundled_openblas, rows, cols, tall, kind, rng,
                                        monkeypatch):
        x = PCA_KINDS[kind](rng, (rows, cols))
        r = min(rows - 1, cols)
        expected = svd_only_fit(x, r)
        qr_calls, lapack = [], numerics._lapack

        def counted_lapack(routine, *args):
            qr_calls.append(routine)
            return lapack(routine, *args)

        monkeypatch.setattr(numerics, "_lapack", counted_lapack)
        model = pca_fit(x, r)
        assert qr_calls == [_openblas().dgeqrf] * tall
        for got, want in zip((model.mean, model.components, model.explained_variance), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [2.0**-462, 2.0**-456, 1e137, 2.0**460])
    def test_qr_step_skipped_where_dgesdd_rescales(self, bundled_openblas, scale, rng):
        # dgesdd rescales a matrix whose largest |value| is outside
        # [2**-459, 2**459]. R's entries reach the column norms, about 17 times
        # the centered matrix's peak here: at 2**-462 only R is inside, at
        # 1e137 only the centered matrix, at 2**-456 both and at 2**460 neither
        x = rng.standard_normal((300, 128)) * scale
        model = pca_fit(x, 16)
        for got, want in zip((model.mean, model.components, model.explained_variance),
                             svd_only_fit(x, 16)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [1.0, 1e137])
    def test_fallback_qr_step_keeps_the_svd_bits(self, bundled_openblas, scale, rng,
                                                  monkeypatch):
        x = rng.standard_normal((1500, 256)) * scale
        expected = svd_only_fit(x, 16)
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        model = pca_fit(x, 16)
        for got, want in zip((model.mean, model.components, model.explained_variance), expected):
            assert np.array_equal(got, want)

    def test_tall_fit_holds_one_centered_copy(self, bundled_openblas, rng):
        # np.linalg.qr(mode="r") copied the 2.9 MiB centered matrix twice,
        # one of them traced: the fit's traced peak was 6.4 MiB
        x = rng.standard_normal((1500, 256))
        assert traced_peak(pca_fit, x, 16) < x.nbytes + 2**20

    def test_rank_one_data(self):
        x = np.array([[t, 2.0 * t] for t in np.linspace(-1, 1, 20)])
        model = pca_fit(x, 1)
        total = np.trace(covariance(x))
        assert model.explained_variance[0] / total >= 0.999999

    def test_matches_covariance_eigendecomposition(self, rng):
        x = rng.standard_normal((10, 5))
        model = pca_fit(x, 3)
        eigvals = np.sort(np.linalg.eigvalsh(covariance(x)))[::-1]
        assert np.abs(model.explained_variance - eigvals[:3]).max() < 1e-8

    def test_components_orthonormal(self, rng):
        x = rng.standard_normal((30, 12))
        model = pca_fit(x, 8)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(8)).max() < 1e-8

    def test_orthonormal_even_when_rank_deficient(self, rng):
        base = rng.standard_normal((4, 10))
        x = np.vstack([base, base, base])  # rank <= 4 with 12 rows
        model = pca_fit(x, 8)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(8)).max() < 1e-8

    def test_r_out_of_range(self, rng):
        x = rng.standard_normal((10, 5))
        with pytest.raises(InvalidArgumentError):
            pca_fit(x, 6)  # r > cols
        with pytest.raises(InvalidArgumentError):
            pca_fit(x, 0)
        with pytest.raises(InvalidArgumentError):
            pca_fit(rng.standard_normal((3, 10)), 3)  # r > rows - 1

    def test_two_rows_fit_one_component(self):
        model = pca_fit(np.array([[0.0, 1.0], [2.0, 1.0]]), 1)
        assert np.array_equal(model.mean, [1.0, 1.0])
        assert np.array_equal(np.abs(model.components), [[1.0, 0.0]])
        assert np.allclose(model.explained_variance, [2.0], rtol=1e-12)

    def test_transform_centers_fitting_data(self, rng):
        x = rng.standard_normal((25, 6)) + 3.0
        model = pca_fit(x, 4)
        z = (x - model.mean) @ model.components.T
        assert np.abs(z.mean(axis=0)).max() < 1e-10

    def test_variance_bookkeeping(self, rng):
        x = rng.standard_normal((40, 9))
        model = pca_fit(x, 9 - 1)
        z = (x - model.mean) @ model.components.T
        # fitting-data variance in the retained subspace equals the
        # explained variances exactly
        assert abs(np.trace(covariance(z)) - model.explained_variance.sum()) < 1e-8


class TestCovariance:
    def test_hand_example(self):
        cov = covariance(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(cov, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_rows(self):
        cov = covariance(np.tile([1.0, -2.0, 3.0], (5, 1)))
        assert np.allclose(cov, 0.0)

    def test_symmetry_and_psd(self, rng):
        x = rng.standard_normal((20, 7))
        cov = covariance(x)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_single_row_rejected(self):
        with pytest.raises(InvalidArgumentError):
            covariance(np.ones((1, 3)))


class TestGaussianEntropy:
    def test_scalar_unit_gaussian(self):
        assert abs(gaussian_entropy(np.array([[1.0]])) - H1) < 1e-12

    def test_independence_additivity(self):
        assert abs(gaussian_entropy(np.eye(2)) - 2 * H1) < 1e-12

    def test_correlated_pair(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = 2 * H1 + 0.5 * math.log(0.75)
        assert abs(gaussian_entropy(cov) - expected) < 1e-12

    def test_monotone_in_ridge(self, rng):
        x = rng.standard_normal((30, 4))
        cov = covariance(x)
        values = [gaussian_entropy(cov, r) for r in (0.0, 1e-8, 1e-4, 1e-2, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_singular_without_ridge_raises(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericError):
            gaussian_entropy(singular)
        # the default ridge rescues it
        value = gaussian_entropy(singular, default_ridge(singular))
        assert np.isfinite(value)

    def test_indefinite_after_ridge_raises(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericError):
            gaussian_entropy(indefinite, 0.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_entropy(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_entropy(np.eye(2), -1e-3)


def test_default_ridge_floor_and_scale():
    assert default_ridge(np.zeros((3, 3))) == 1e-12
    assert abs(default_ridge(np.eye(4) * 2.0) - 2e-6) < 1e-18
    # relative for every positive trace, however small: no floor binds
    assert default_ridge(np.eye(4) * 2.0**-40) == 1e-6 * 2.0**-38 / 4
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    for k in (-200, -60, 60, 200):
        assert default_ridge(cov * 2.0**k) == default_ridge(cov) * 2.0**k
