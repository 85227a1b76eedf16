import warnings

import numpy as np
import pytest

from conftest import power_spectrum, reference_exact_dmd, traced_peak
from prismflow.errors import ContractViolation, ShapeError
from prismflow.numcore import RngStream
from prismflow.spectra import (DmdSpectrum, _snapshots, exact_dmd,
                               spectral_overlap)


def reference_snapshots(batch, delay):
    """Snapshot matrices built window by window: each window's delay
    embedding over its first S - delay start indices, one-step pairs."""
    s = batch.shape[1]
    cols_x, cols_y = [], []
    for w in batch:
        emb = np.concatenate([w[i:s - delay + i] for i in range(delay)], axis=1)
        cols_x.append(emb[:-1])
        cols_y.append(emb[1:])
    return np.concatenate(cols_x, axis=0).T, np.concatenate(cols_y, axis=0).T


def rotation_batch(phi, steps=40, n=3, seed=0):
    """Trajectories of the planar rotation x_{s+1} = R(phi) x_s."""
    rot = np.array([[np.cos(phi), -np.sin(phi)],
                    [np.sin(phi), np.cos(phi)]])
    gen = RngStream(seed).generator()
    out = np.empty((n, steps, 2))
    for i in range(n):
        x = gen.standard_normal(2)
        for s in range(steps):
            out[i, s] = x
            x = rot @ x
    return out


class TestExactDmd:
    @pytest.mark.parametrize("phi", [0.1, 0.5, 1.0])
    def test_recovers_rotation_eigenvalues(self, phi):
        spec = exact_dmd(rotation_batch(phi), rank=2)
        expected = np.sort_complex(np.array([np.exp(1j * phi),
                                             np.exp(-1j * phi)]))
        got = np.sort_complex(spec.eigenvalues)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_recovers_decay_rate(self):
        traj = 3.0 * 0.5 ** np.arange(12.0)
        batch = traj.reshape(1, 12, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = exact_dmd(batch, rank=1)
        assert spec.eigenvalues[0] == pytest.approx(0.5, abs=1e-8)

    def test_delay_embedding_recovers_tone_from_scalar_channel(self):
        s = np.arange(64)
        phase = 2.0 * np.pi * 3.0 / 64.0
        batch = np.stack([np.sin(phase * s + th)
                          for th in (0.0, 1.0, 2.5)])[:, :, None]
        spec = exact_dmd(batch, rank=2, delay=2)
        got = np.sort_complex(spec.eigenvalues)
        expected = np.sort_complex(np.array([np.exp(1j * phase),
                                             np.exp(-1j * phase)]))
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_warns_when_rank_deficient(self):
        batch = np.ones((1, 10, 3))  # rank-1 snapshots
        with pytest.warns(UserWarning, match="rank reduced"):
            exact_dmd(batch, rank=3)

    def test_eigenvalues_sorted_by_real_part(self):
        spec = exact_dmd(rotation_batch(0.7), rank=2)
        assert list(spec.eigenvalues.real) == sorted(spec.eigenvalues.real)

    def test_working_memory_is_three_snapshot_matrices(self):
        """X and X' of 4,000 windows (S=64, delay 8) are 14 MB each. The
        SVD holds X and V^T; X' is built once X is dropped, next to V^T
        and U^T X'. Holding X and X' together took four matrices."""
        batch = RngStream(5).generator().standard_normal((4000, 64, 1))
        spec, peak = traced_peak(exact_dmd, batch, rank=10, delay=8)
        assert spec.rank == 8
        assert peak < 3.5 * _snapshots(batch, 8).nbytes

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            exact_dmd(np.zeros((4, 5)))
        with pytest.raises(ContractViolation):
            exact_dmd(np.zeros((1, 2, 1)), delay=2)


def dmd_with_warnings(fn, batch, rank, delay):
    """fn's spectrum and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = fn(batch, rank=rank, delay=delay)
    return spec, [(w.category, str(w.message)) for w in caught]


def two_tone_windows(n, seed):
    """Windows holding tones of 2 and 8 cycles per 64 steps, each at its
    own random phase: delay-embedded rank 4. Unlike the bimodal set, whose
    windows hold one tone each, the first window excites all four modes,
    so no amplitude is rounding noise."""
    theta = RngStream(seed).generator().uniform(-np.pi, np.pi, size=(2, n, 1))
    phase = 2.0 * np.pi * np.arange(64) / 64.0
    return (np.sin(2.0 * phase + theta[0]) + np.sin(8.0 * phase + theta[1]))[
        :, :, None]


TALL_SVD_CASES = {
    # name: (batch, rank, delay, expected rank)
    "two-tone": (two_tone_windows(500, 4), 10, 8, 4),
    "noise": (RngStream(6).generator().standard_normal((200, 64, 1)), 10, 8, 8),
    "rotation-0.1": (rotation_batch(0.1), 2, 1, 2),
    "rotation-0.5": (rotation_batch(0.5), 2, 1, 2),
    "rotation-1.0": (rotation_batch(1.0), 2, 1, 2),
    "channels-3": (RngStream(7).generator().standard_normal((30, 20, 3)),
                   5, 2, 5),
}


class TestTallSvd:
    """exact_dmd factors the tall X^T; the oracle factors the wide X."""

    @pytest.mark.parametrize("name", sorted(TALL_SVD_CASES))
    def test_matches_wide_svd_oracle(self, name):
        batch, rank, delay, expected = TALL_SVD_CASES[name]
        # every singular value is decades away from the 1e-10 rank
        # tolerance, so both factorizations keep the same modes
        sig = np.linalg.svd(_snapshots(batch, delay), compute_uv=False)
        rel = sig / max(sig[0], 1.0)
        assert np.all((rel > 1e-6) | (rel < 1e-12))
        got, got_warned = dmd_with_warnings(exact_dmd, batch, rank, delay)
        want, want_warned = dmd_with_warnings(reference_exact_dmd, batch,
                                              rank, delay)
        assert got.rank == want.rank == expected
        assert got_warned == want_warned
        assert len(got_warned) == (expected < min(rank, sig.size))
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues,
                                   rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   rtol=1e-9, atol=0.0)

    def test_working_memory_is_two_snapshot_matrices(self):
        """The SVD of X^T holds X and its right singular vectors V, both
        (snapshots, state); X' is built next to V once X is dropped. The
        working copy and workspace that numpy's LAPACK wrapper takes with
        malloc are not traced, in either orientation."""
        batch = RngStream(5).generator().standard_normal((4000, 64, 1))
        spec, peak = traced_peak(exact_dmd, batch, rank=10, delay=8)
        assert spec.rank == 8
        assert peak < 2.5 * _snapshots(batch, 8).nbytes


class TestSnapshots:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("delay", [1, 2, 5, 11])
    def test_bitwise_equal_to_window_loop(self, d, delay):
        batch = RngStream(3).generator().standard_normal((4, 12, d))
        x, y = _snapshots(batch, delay), _snapshots(batch, delay, lag=1)
        want_x, want_y = reference_snapshots(batch, delay)
        assert x.shape == want_x.shape and y.shape == want_y.shape
        np.testing.assert_array_equal(x, want_x)
        np.testing.assert_array_equal(y, want_y)
        if x.size:
            for got, want in zip(np.linalg.svd(x, full_matrices=False),
                                 np.linalg.svd(want_x, full_matrices=False)):
                np.testing.assert_array_equal(got, want)


class TestPowerSpectrum:
    def test_pure_tone_energy_in_one_bin(self):
        s = np.arange(32)
        batch = np.sin(2 * np.pi * 5 * s / 32).reshape(1, 32, 1)
        ps = power_spectrum(batch)
        assert ps.band_fraction(5) == pytest.approx(1.0, abs=1e-12)
        assert ps.band_fraction(4) == pytest.approx(0.0, abs=1e-12)

    def test_parseval(self):
        batch = RngStream(3).generator().standard_normal((6, 16, 2))
        ps = power_spectrum(batch)
        w = np.full(9, 2.0)
        w[0] = w[-1] = 1.0
        for d in range(2):
            lhs = float(w @ ps.power[:, d])
            rhs = float(np.mean(np.sum(batch[:, :, d] ** 2, axis=1)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_constant_signal_is_dc_only(self):
        ps = power_spectrum(np.full((2, 16, 1), 2.5))
        assert ps.band_fraction(0) == pytest.approx(1.0, abs=1e-12)


class TestSpectralOverlap:
    def spec(self, eigs):
        eigs = np.asarray(eigs, dtype=complex)
        return DmdSpectrum(eigenvalues=eigs,
                           amplitudes=np.ones(eigs.size), rank=eigs.size)

    def test_identical_sets_score_one(self):
        a = self.spec([1.0, 0.5 + 0.5j, -0.2j])
        assert spectral_overlap(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_translation_closed_form(self):
        a = self.spec([0.0, 1.0])
        b = self.spec([0.3, 1.3])
        assert spectral_overlap(a, b) == pytest.approx(np.exp(-0.3), abs=1e-12)

    def test_symmetric(self):
        a = self.spec([0.1, 0.9, 0.4 + 0.2j])
        b = self.spec([0.2, 0.8])
        assert spectral_overlap(a, b) == spectral_overlap(b, a)

    def test_farther_cloud_scores_lower(self):
        real = self.spec([1.0, np.exp(0.5j)])
        near = self.spec([0.95, np.exp(0.45j)])
        far = self.spec([0.2, -0.7])
        assert spectral_overlap(real, near) > spectral_overlap(real, far)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            spectral_overlap(self.spec([1.0]), self.spec([]))
