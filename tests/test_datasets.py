import numpy as np
import pytest

from prismflow.datasets import (Dataset, DiagnosticSpec,
                                gen_bimodal_frequency, gen_sines,
                                gen_velocity_mixture_diagnostic,
                                load_csv_windows, normalize, save_csv_windows,
                                velocity_energy_gap)
from prismflow.errors import (ConfigError, ContractViolation, ParseError)
from prismflow.numcore import RngStream
from prismflow.sampler import export_samples


class TestGenSines:
    def test_shape_and_range(self):
        ds = gen_sines(10, 24, 3)
        assert ds.windows.shape == (10, 24, 3)
        assert ds.windows.min() >= -1.0 and ds.windows.max() <= 1.0
        assert ds.labels is None

    def test_reproducible(self):
        a = gen_sines(4, 8, 1, rng=RngStream(3))
        b = gen_sines(4, 8, 1, rng=RngStream(3))
        np.testing.assert_array_equal(a.windows, b.windows)

    def test_zero_frequency_is_constant(self):
        ds = gen_sines(5, 16, 1, freq_range=(0.0, 0.0))
        spread = ds.windows.max(axis=1) - ds.windows.min(axis=1)
        np.testing.assert_allclose(spread, 0.0, atol=1e-12)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            gen_sines(0, 8, 1)
        with pytest.raises(ConfigError):
            gen_sines(1, 8, 1, freq_range=(1.0, 0.0))


class TestGenBimodalFrequency:
    def test_each_window_is_a_pure_tone_at_its_label(self):
        ds = gen_bimodal_frequency(50, 64, 1, 2, 8, RngStream(1))
        spec = np.abs(np.fft.rfft(ds.windows[:, :, 0], axis=1)) ** 2
        peak = spec.argmax(axis=1)
        np.testing.assert_array_equal(peak, np.where(ds.labels == 0, 2, 8))
        # a pure tone has all energy in its own bin
        total = spec.sum(axis=1)
        top = spec[np.arange(50), peak]
        np.testing.assert_allclose(top / total, 1.0, atol=1e-12)

    def test_both_regimes_present(self):
        ds = gen_bimodal_frequency(200, 64, 1, 2, 8, RngStream(0))
        assert 0 < ds.labels.sum() < 200

    def test_aliased_frequency_rejected(self):
        with pytest.raises(ConfigError):
            gen_bimodal_frequency(10, 16, 1, 2, 8)
        with pytest.raises(ConfigError):
            gen_bimodal_frequency(10, 64, 1, 4, 4)


class TestVelocityDiagnostic:
    def test_velocity_is_exactly_two_valued(self):
        spec = DiagnosticSpec(separation=2.0, n=100)
        x0, x1, signs = gen_velocity_mixture_diagnostic(spec, RngStream(2))
        u = x1 - x0
        expected = np.broadcast_to(signs[:, None, None] * 2.0, u.shape)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_energy_gap_oracle(self):
        # mean ||u||^2 is exactly c^2; the squared mean vanishes with n
        spec = DiagnosticSpec(separation=2.0, n=5000)
        x0, x1, _ = gen_velocity_mixture_diagnostic(spec, RngStream(0))
        mean_sq, sq_mean = velocity_energy_gap(x0, x1)
        assert mean_sq == pytest.approx(4.0, abs=1e-12)
        assert sq_mean <= mean_sq
        assert mean_sq - sq_mean == pytest.approx(4.0, abs=0.2)

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            DiagnosticSpec(weights=(0.7, 0.7)).validate()


class TestCsvRoundTrip:
    def test_blocks_round_trip(self, tmp_path):
        w = RngStream(5).generator().standard_normal((3, 6, 2))
        path = str(tmp_path / "w.csv")
        save_csv_windows(w, path, channel_names=["a", "b"])
        back = load_csv_windows(path, seq_len=6, mode="blocks")
        np.testing.assert_array_equal(back.windows, w)

    def test_sliding_window_count(self, tmp_path):
        path = str(tmp_path / "long.csv")
        save_csv_windows(np.arange(10.0).reshape(1, 10, 1), path)
        ds = load_csv_windows(path, seq_len=4, stride=2)
        assert ds.windows.shape == (4, 4, 1)
        np.testing.assert_array_equal(ds.windows[1, :, 0], [2, 3, 4, 5])

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match=r"3: column 2"):
            load_csv_windows(str(path), seq_len=2, mode="blocks")

    def test_ragged_cells_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="expected 2 cells"):
            load_csv_windows(str(path), seq_len=2, mode="blocks")

    def test_mixed_block_lengths_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a\n1.0\n2.0\n\n3.0\n")
        with pytest.raises(ParseError, match="mixed lengths"):
            load_csv_windows(str(path), mode="blocks")

    def test_missing_file(self):
        with pytest.raises(ContractViolation):
            load_csv_windows("/does/not/exist.csv", seq_len=4)

    def test_too_short_for_window(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a\n1.0\n2.0\n")
        with pytest.raises(ContractViolation):
            load_csv_windows(str(path), seq_len=5)


class TestNormalization:
    def test_maps_to_unit_interval(self):
        w = RngStream(7).generator().standard_normal((5, 8, 3)) * 4.0 + 2.0
        nd = normalize(Dataset(w))
        assert nd.windows.min() == pytest.approx(-1.0)
        assert nd.windows.max() == pytest.approx(1.0)

    def test_constant_channel_passthrough(self):
        w = np.ones((4, 6, 1)) * 3.0
        nd = normalize(Dataset(w))
        np.testing.assert_array_equal(nd.windows, w)
        assert nd.norm_scale[0] == 1.0

    def test_round_trip(self, tmp_path):
        w = RngStream(8).generator().standard_normal((5, 8, 2))
        nd = normalize(Dataset(w))
        path = str(tmp_path / "back.csv")
        export_samples(nd.windows, path, nd.norm_shift, nd.norm_scale)
        back = load_csv_windows(path, mode="blocks")
        np.testing.assert_allclose(back.windows, w, atol=1e-12)
