import struct

import numpy as np
import pytest

from baryvae.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    MultimodalDataset,
    ToyConfig,
    background,
    gen_toy,
    glyph,
    load_idx,
    split,
)
from baryvae.errors import IdxFormatError


class TestToyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToyConfig(num_modalities=0, examples_per_class=5)
        with pytest.raises(ValueError):
            ToyConfig(num_modalities=9, examples_per_class=5)
        with pytest.raises(ValueError):
            ToyConfig(num_modalities=2, examples_per_class=5, noise_level=0.5)
        with pytest.raises(ValueError):
            ToyConfig(num_modalities=2, examples_per_class=5, background_ids=(0,))

    def test_default_backgrounds_follow_modality_index(self):
        cfg = ToyConfig(num_modalities=3, examples_per_class=1)
        assert cfg.background_ids == (0, 1, 2)


class TestGenToy:
    def test_pure_glyphs_without_noise_or_background(self):
        cfg = ToyConfig(
            num_modalities=1,
            examples_per_class=4,
            classes=3,
            noise_level=0.0,
            background_ids=(0,),
            seed=1,
        )
        ds = gen_toy(cfg)
        # background pattern 0 contributes on odd rows; blank it via class check:
        # all examples of one class must be identical when noise is zero
        for cls in range(3):
            rows = ds.modalities[0][ds.labels == cls]
            assert np.all(rows == rows[0])

    def test_glyph_plus_background_composition(self):
        cfg = ToyConfig(
            num_modalities=2, examples_per_class=2, classes=2, noise_level=0.0, seed=3
        )
        ds = gen_toy(cfg)
        for m in range(2):
            expected = np.clip(
                glyph(0).reshape(-1) + 0.4 * background(m).reshape(-1), 0.0, 1.0
            )
            assert np.allclose(ds.modalities[m][0], expected)

    def test_deterministic(self):
        cfg = ToyConfig(num_modalities=3, examples_per_class=10, noise_level=0.2, seed=9)
        a, b = gen_toy(cfg), gen_toy(cfg)
        for ma, mb in zip(a.modalities, b.modalities):
            assert np.array_equal(ma, mb)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_alignment(self):
        cfg = ToyConfig(num_modalities=5, examples_per_class=100, seed=0)
        ds = gen_toy(cfg)
        assert ds.num_examples == 1000
        assert ds.num_modalities == 5
        assert all(m.shape == (1000, 64) for m in ds.modalities)
        assert np.all((ds.labels >= 0) & (ds.labels < 10))
        counts = np.bincount(ds.labels)
        assert np.all(counts == 100)

    def test_pixel_range(self):
        cfg = ToyConfig(num_modalities=4, examples_per_class=20, noise_level=0.3, seed=5)
        ds = gen_toy(cfg)
        for m in ds.modalities:
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_glyphs_distinct(self):
        flat = [glyph(d).reshape(-1) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(flat[i], flat[j])

    def test_resolution_scaling(self):
        cfg = ToyConfig(num_modalities=1, examples_per_class=1, resolution=16, seed=0)
        ds = gen_toy(cfg)
        assert ds.modalities[0].shape[1] == 256


def write_idx_pair(tmp_path, images, labels, image_magic=IDX_IMAGE_MAGIC,
                   label_magic=IDX_LABEL_MAGIC, truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        img_bytes = img_bytes[:-truncate_images]
    lbl_bytes = struct.pack(">II", label_magic, len(labels)) + labels.tobytes()
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(img_bytes)
    lbl_path.write_bytes(lbl_bytes)
    return str(img_path), str(lbl_path)


class TestLoadIdx:
    def test_well_formed_file(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint16).astype(np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [3, 7])
        ds = load_idx(img, lbl)
        assert ds.num_examples == 2
        assert ds.modalities[0].shape == (2, 784)
        assert np.array_equal(ds.labels, [3, 7])
        assert np.allclose(ds.modalities[0][0], images[0].reshape(-1) / 255.0)

    def test_wrong_image_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0xDEAD)
        with pytest.raises(IdxFormatError, match="0x00000803"):
            load_idx(img, lbl)

    def test_wrong_label_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], label_magic=0xBEEF)
        with pytest.raises(IdxFormatError, match="0x00000801"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 2])
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(img, lbl)

    def test_truncated_images(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], truncate_images=3)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("cut", ["images", "labels"])
    def test_every_strict_prefix_raises(self, tmp_path, cut):
        images = np.arange(12).reshape(2, 2, 3)
        img, lbl = write_idx_pair(tmp_path, images, [4, 9])
        assert load_idx(img, lbl).num_examples == 2
        path = tmp_path / ("images.idx" if cut == "images" else "labels.idx")
        whole = path.read_bytes()
        for size in range(len(whole)):
            path.write_bytes(whole[:size])
            with pytest.raises(IdxFormatError, match="truncated"):
                load_idx(img, lbl)

    def test_no_images(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 2)), [])
        with pytest.raises(IdxFormatError, match="holds no images"):
            load_idx(img, lbl)


class TestDataset:
    def test_dims_are_array_widths(self):
        ds = MultimodalDataset([np.zeros((5, 4)), np.ones((5, 3))], np.arange(5))
        assert ds.dims == [4, 3]
        assert ds.take([0, 2]).dims == [4, 3]

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 2)], ids=["one_d", "three_d"])
    def test_modality_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            MultimodalDataset([np.zeros((5, 4)), np.zeros(shape)], np.arange(5))


class TestSplit:
    def make_dataset(self, n=1000):
        rng = np.random.default_rng(4)
        labels = np.arange(n) % 10
        return MultimodalDataset([rng.random((n, 4))], labels)

    def test_fraction(self):
        train, test = split(self.make_dataset(), 0.8, seed=0)
        assert train.num_examples == 800
        assert test.num_examples == 200

    def test_deterministic(self):
        ds = self.make_dataset()
        a_train, a_test = split(ds, 0.8, seed=3)
        b_train, b_test = split(ds, 0.8, seed=3)
        assert np.array_equal(a_train.modalities[0], b_train.modalities[0])
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_stratified_within_one(self):
        ds = self.make_dataset(995)  # 99 or 100 per class, uneven split points
        train, test = split(ds, 0.8, seed=1)
        for cls in range(10):
            total = np.sum(ds.labels == cls)
            got = np.sum(train.labels == cls)
            assert abs(got - 0.8 * total) <= 1.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            split(self.make_dataset(), 1.0, seed=0)

    @pytest.mark.parametrize("fraction,side", [(0.1, "train"), (0.9, "test")])
    def test_empty_side_rejected(self, fraction, side):
        ds = gen_toy(ToyConfig(num_modalities=2, examples_per_class=2))
        with pytest.raises(ValueError, match=f"train_fraction {fraction} leaves the {side}"):
            split(ds, fraction, seed=0)

    def test_alignment_preserved(self):
        rng = np.random.default_rng(6)
        n = 100
        labels = np.repeat(np.arange(10), 10)
        marker = labels[:, None] + np.zeros((n, 3))
        ds = MultimodalDataset([marker, 2.0 * marker], labels)
        train, _ = split(ds, 0.7, seed=2)
        # example i carries its label in every modality
        assert np.all(train.modalities[0][:, 0] == train.labels)
        assert np.all(train.modalities[1][:, 0] == 2.0 * train.labels)
