import struct

import numpy as np
import pytest

from prismflow.checkpoint import (FORMAT_VERSION, MAGIC, atomic_write_bytes,
                                  load_checkpoint, save_checkpoint)
from prismflow.errors import ContractViolation, ParseError
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        blocks = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.5, -2.0])}
        save_checkpoint(path, {"k": 1, "s": "x"}, blocks)
        header, back = load_checkpoint(path)
        assert header == {"k": 1, "s": "x"}
        np.testing.assert_array_equal(back["w"], blocks["w"])
        np.testing.assert_array_equal(back["b"], blocks["b"])
        assert back["b"].ndim == 1

    def test_layout_prefix(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {}, {})
        raw = open(path, "rb").read()
        assert raw[:4] == MAGIC
        assert struct.unpack_from("<I", raw, 4)[0] == FORMAT_VERSION

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ContractViolation, match="magic"):
            load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {}, {})
        raw = bytearray(open(path, "rb").read())
        struct.pack_into("<I", raw, 4, 99)
        (tmp_path / "v.ckpt").write_bytes(bytes(raw))
        with pytest.raises(ContractViolation, match="version"):
            load_checkpoint(str(tmp_path / "v.ckpt"))

    def test_truncation_and_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"k": 1}, {"w": np.arange(6.0).reshape(2, 3)})
        raw = open(path, "rb").read()
        bad = tmp_path / "bad.ckpt"
        for cut in range(4, len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ParseError):
                load_checkpoint(str(bad))
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("header", [b"\xff\xfe", b"{not json", b"[1]"])
    def test_malformed_header_rejected(self, tmp_path, header):
        raw = (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header))
               + header + struct.pack("<Q", 0))
        path = tmp_path / "h.ckpt"
        path.write_bytes(raw)
        with pytest.raises(ParseError):
            load_checkpoint(str(path))

    def test_three_dimensional_block_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            save_checkpoint(str(tmp_path / "c.ckpt"), {},
                            {"t": np.zeros((2, 2, 2))})

    def test_exact_float_preservation(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        vals = np.array([np.pi, 1e-300, -0.0, 1.0 / 3.0])
        save_checkpoint(path, {}, {"v": vals})
        _, back = load_checkpoint(path)
        assert back["v"].tobytes() == vals.tobytes()


class TestAtomicWrite:
    def test_no_partial_files_left(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(str(path), b"hello")
        assert path.read_bytes() == b"hello"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.bin"]
        assert leftovers == []

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(str(path), b"one")
        atomic_write_bytes(str(path), b"two")
        assert path.read_bytes() == b"two"


class TestModelCheckpoint:
    def test_model_round_trip_bitwise(self, tiny_model, tmp_path):
        path = str(tmp_path / "model.ckpt")
        tiny_model.norm_shift = np.array([0.5, -0.5])
        tiny_model.norm_scale = np.array([2.0, 3.0])
        tiny_model.save(path, extra_header={"note": "test"})
        back = PrismFlowModel.load(path)
        for name, p in tiny_model.params().items():
            assert p.tobytes() == back.params()[name].tobytes(), name
        assert back.cfg == tiny_model.cfg
        np.testing.assert_array_equal(back.norm_shift, [0.5, -0.5])
        assert back.extra_header["note"] == "test"

    def test_loaded_model_generates_identically(self, tiny_model, tmp_path):
        from prismflow.sampler import SamplerConfig, generate

        path = str(tmp_path / "model.ckpt")
        tiny_model.save(path)
        back = PrismFlowModel.load(path)
        a = generate(tiny_model, 2, SamplerConfig(steps=4), RngStream(1))
        b = generate(back, 2, SamplerConfig(steps=4), RngStream(1))
        np.testing.assert_array_equal(a, b)
