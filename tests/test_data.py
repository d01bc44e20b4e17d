import numpy as np
import pytest

import lngd.data
from lngd.data import (
    SignalSpec,
    generate_dataset,
    stream_test_set,
)
from lngd.data import _project_noise
from lngd.decomposition import SpanProducts
from lngd.experiments import axis_aligned_spec


class TestSignalSpec:
    def test_rejects_zero_mu(self):
        with pytest.raises(ValueError):
            SignalSpec(mu=np.zeros(3), sigma_p=1.0, d=3)

    def test_rejects_bad_sigma_p(self):
        with pytest.raises(ValueError):
            SignalSpec(mu=np.array([1.0, 0.0]), sigma_p=0.0, d=2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SignalSpec(mu=np.array([1.0, 0.0]), sigma_p=1.0, d=3)

    def test_rejects_d_below_2(self):
        with pytest.raises(ValueError):
            SignalSpec(mu=np.array([1.0]), sigma_p=1.0, d=1)


class TestNoiseVector:
    def test_projection_removes_mu_component_exactly(self, spec2d):
        # mu = [2, 0], sigma_p = 0.5, z = (1, 1) -> xi = (0, 0.5)
        xi = _project_noise(spec2d, np.array([1.0, 1.0]))
        assert np.array_equal(xi, np.array([0.0, 0.5]))

    def test_zero_input_gives_zero(self, spec2d):
        assert np.array_equal(_project_noise(spec2d, np.zeros(2)), np.zeros(2))

    def test_orthogonality_general_mu(self):
        spec = SignalSpec(mu=np.array([1.0, 2.0, -0.5]), sigma_p=2.0, d=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            xi = _project_noise(spec, rng.standard_normal(spec.d))
            assert abs(xi @ spec.mu) <= 1e-9 * spec.mu_norm * np.linalg.norm(xi)

    def test_norm_concentration_at_scale(self):
        # Monte Carlo on |xi|^2 in [sigma_p^2 d / 2, 3 sigma_p^2 d / 2]
        # = [250, 750] at d = 2000, sigma_p = 0.5.
        spec = axis_aligned_spec(2.0, 0.5, 2000)
        rng = np.random.default_rng(11)
        draws = _project_noise(spec, rng.standard_normal((1000, 2000)))
        sq = np.einsum("ij,ij->i", draws, draws)
        inside = np.mean((sq >= 250.0) & (sq <= 750.0))
        assert inside >= 0.99

    def test_marginal_covariance(self):
        # Empirical covariance along mu is ~0 and sigma_p^2 off-axis.
        spec = SignalSpec(mu=np.array([1.0, 1.0]), sigma_p=1.5, d=2)
        rng = np.random.default_rng(5)
        draws = _project_noise(spec, rng.standard_normal((20000, 2)))
        along = draws @ (spec.mu / spec.mu_norm)
        perp = draws @ (np.array([1.0, -1.0]) / np.sqrt(2))
        assert np.max(np.abs(along)) <= 1e-12
        assert abs(np.var(perp) - spec.sigma_p**2) <= 0.05


class TestGenerateDataset:
    def test_each_sample_has_signal_and_noise_patch(self, spec2d):
        # Point i's patches are labels[i] * mu (mu is the last row of points)
        # and its noise row, which is orthogonal to mu.
        ds = generate_dataset(spec2d, 20, np.random.default_rng(0))
        assert ds.points.shape == (21, 2)
        assert np.array_equal(ds.points[-1], spec2d.mu)
        assert set(ds.labels) == {1.0, -1.0}
        assert np.abs(ds.noise_matrix @ spec2d.mu).max() <= 1e-12

    def test_empty_dataset(self, spec2d):
        ds = generate_dataset(spec2d, 0, np.random.default_rng(0))
        assert len(ds) == 0

    def test_negative_n_rejected(self, spec2d):
        with pytest.raises(ValueError):
            generate_dataset(spec2d, -1, np.random.default_rng(0))

    def test_label_mean(self, spec2d):
        ds = generate_dataset(spec2d, 10000, np.random.default_rng(1))
        assert abs(ds.labels.mean()) <= 0.05

    def test_determinism(self, spec2d):
        a = generate_dataset(spec2d, 5, np.random.default_rng(99))
        b = generate_dataset(spec2d, 5, np.random.default_rng(99))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.noise_matrix, b.noise_matrix)

    def test_noise_block_stored_once_in_draw_order(self, small_spec):
        # noise_matrix is the block the draw produced (no stacked copy), and
        # the draw order labels, patch slots (drawn, then dropped), noise
        # block is unchanged.
        rng = np.random.default_rng(21)
        ds = generate_dataset(small_spec, 6, rng)
        replay = np.random.default_rng(21)
        labels = np.where(replay.random(6) < 0.5, 1, -1)
        replay.random(6)  # patch slots
        noise = _project_noise(small_spec, replay.standard_normal((6, small_spec.d)))
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.noise_matrix, noise)
        assert ds.noise_matrix.flags.c_contiguous
        assert np.shares_memory(ds.noise_matrix, ds.points)
        assert rng.random() == replay.random()

    def test_dropped_points_refuse_and_the_rest_stays(self, small_spec):
        ds = generate_dataset(small_spec, 6, np.random.default_rng(21))
        kept = generate_dataset(small_spec, 6, np.random.default_rng(21))
        ds.drop_points()  # |xi_i|^2 was not read before: the drop computes it
        for read in ("points", "noise_matrix"):
            with pytest.raises(RuntimeError, match="dropped"):
                getattr(ds, read)
        assert np.array_equal(ds.labels, kept.labels) and len(ds) == 6
        assert ds.xi_norms_sq.tobytes() == kept.xi_norms_sq.tobytes()
        assert ds.spec is small_spec

    @pytest.mark.parametrize("d, n_test", [(60, 1), (60, 50), (2000, 600), (100_000, 13)],
                             ids=["one_point", "under_one_chunk", "ragged_last_chunk",
                                  "few_rows_per_chunk"])
    def test_streamed_test_set_matches_one_block_draw(self, d, n_test):
        # The streamed draw reads the same points from the same stream as
        # generate_dataset, in chunks of at most TEST_CHUNK_VALUES // d rows. Row
        # blocks can change which BLAS kernel computes a row, so the span
        # coordinates are held to 1e-12. The init projections are held to
        # identity at the width of the reference configs (m = 20); at 2m <= 6
        # and d >= 2000 their last bits can differ as well.
        spec = axis_aligned_spec(1.5, 0.5, d)
        train = generate_dataset(spec, 6, np.random.default_rng(3))
        w0 = np.random.default_rng(4).standard_normal((d, 40))
        block_rng, stream_rng = np.random.default_rng(8), np.random.default_rng(8)
        block = generate_dataset(spec, n_test, block_rng)
        labels, chunks = stream_test_set(spec, n_test, stream_rng)
        sizes = []

        def counted(chunks):
            for x in chunks:
                sizes.append(len(x))
                yield x

        got = SpanProducts.of(counted(chunks), n_test, train, w0)
        want = SpanProducts.of([block.noise_matrix], n_test, train, w0)
        rows = max(1, lngd.data.TEST_CHUNK_VALUES // d)
        assert sum(sizes) == n_test and max(sizes) == min(n_test, rows)
        assert np.array_equal(labels, block.labels)
        assert np.array_equal(got.w0, want.w0)
        assert np.abs(got.span - want.span).max() <= 1e-12 * np.abs(want.span).max()
        assert stream_rng.random() == block_rng.random()
        with pytest.raises(ValueError, match="held 0 points"):  # the chunks are read once
            SpanProducts.of(chunks, n_test, train, w0)

    def test_pairwise_overlap_concentration(self):
        # |<xi_i, xi_j>| <= 2 sigma_p^2 sqrt(d log(4 n^2 / delta)) in >= 99%
        # of trials at d = 2000, n = 20, delta = 0.01.
        spec = axis_aligned_spec(2.0, 0.5, 2000)
        bound = 2 * spec.sigma_p**2 * np.sqrt(spec.d * np.log(4 * 400 / 0.01))
        rng = np.random.default_rng(17)
        passes = 0
        trials = 200
        for _ in range(trials):
            xi = _project_noise(spec, rng.standard_normal((20, spec.d)))
            gram = xi @ xi.T
            off = gram[~np.eye(20, dtype=bool)]
            passes += np.all(np.abs(off) <= bound)
        assert passes / trials >= 0.99
