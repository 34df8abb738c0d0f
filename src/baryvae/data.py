"""Synthetic multimodal datasets and IDX image-file ingestion.

The toy generator produces aligned digit images across modalities: one fixed
glyph per class, one procedural background texture per modality, and seeded
per-pixel Bernoulli noise, all clamped to [0, 1]. This mirrors the structure
of digit-over-background benchmarks at desk scale with zero external data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .diffgraph import rng_stream
from .errors import IdxFormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

BACKGROUND_SCALE = 0.4

_TAG_TOY_NOISE = 11
_TAG_SPLIT_CLASS = 12
_TAG_SPLIT_ORDER = 13

# 8x8 bitmap font for digits 0-9; '#' marks lit pixels.
_GLYPHS = [
    [
        "..####..",
        ".##..##.",
        ".##..##.",
        ".##..##.",
        ".##..##.",
        ".##..##.",
        "..####..",
        "........",
    ],
    [
        "...##...",
        "..###...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "..####..",
        "........",
    ],
    [
        "..####..",
        ".##..##.",
        ".....##.",
        "....##..",
        "...##...",
        "..##....",
        ".######.",
        "........",
    ],
    [
        "..####..",
        ".##..##.",
        ".....##.",
        "...###..",
        ".....##.",
        ".##..##.",
        "..####..",
        "........",
    ],
    [
        "....##..",
        "...###..",
        "..#.##..",
        ".#..##..",
        ".######.",
        "....##..",
        "....##..",
        "........",
    ],
    [
        ".######.",
        ".##.....",
        ".#####..",
        ".....##.",
        ".....##.",
        ".##..##.",
        "..####..",
        "........",
    ],
    [
        "..####..",
        ".##.....",
        ".#####..",
        ".##..##.",
        ".##..##.",
        ".##..##.",
        "..####..",
        "........",
    ],
    [
        ".######.",
        ".....##.",
        "....##..",
        "...##...",
        "..##....",
        "..##....",
        "..##....",
        "........",
    ],
    [
        "..####..",
        ".##..##.",
        ".##..##.",
        "..####..",
        ".##..##.",
        ".##..##.",
        "..####..",
        "........",
    ],
    [
        "..####..",
        ".##..##.",
        ".##..##.",
        "..#####.",
        ".....##.",
        "....##..",
        "..###...",
        "........",
    ],
]


@dataclass
class MultimodalDataset:
    """Aligned per-modality 2-D arrays (examples x width) with one shared label per example."""

    modalities: list = field()
    labels: np.ndarray = field()

    def __post_init__(self):
        self.modalities = [np.asarray(m, dtype=np.float64) for m in self.modalities]
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if any(m.ndim != 2 for m in self.modalities):
            shapes = [m.shape for m in self.modalities]
            raise ValueError(f"every modality must be a 2-D array, got shapes {shapes}")
        counts = {m.shape[0] for m in self.modalities}
        if len(counts) != 1:
            raise ValueError(f"modalities have differing example counts: {sorted(counts)}")
        if self.labels.shape != (self.modalities[0].shape[0],):
            raise ValueError("labels length must match example count")

    @property
    def num_examples(self) -> int:
        return self.modalities[0].shape[0]

    @property
    def num_modalities(self) -> int:
        return len(self.modalities)

    @property
    def dims(self) -> list:
        return [m.shape[1] for m in self.modalities]

    def take(self, indices) -> "MultimodalDataset":
        indices = np.asarray(indices)
        return MultimodalDataset([m[indices] for m in self.modalities], self.labels[indices])


@dataclass(frozen=True)
class ToyConfig:
    """Configuration for the synthetic multimodal digit dataset."""

    num_modalities: int
    examples_per_class: int
    classes: int = 10
    resolution: int = 8
    background_ids: tuple = None
    noise_level: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_modalities <= 8:
            raise ValueError("num_modalities must be in 1..8")
        if not 1 <= self.classes <= len(_GLYPHS):
            raise ValueError(f"classes must be in 1..{len(_GLYPHS)}")
        if self.examples_per_class < 1:
            raise ValueError("examples_per_class must be positive")
        if self.resolution < 1:
            raise ValueError("resolution must be positive")
        if not 0.0 <= self.noise_level < 0.5:
            raise ValueError("noise_level must be in [0, 0.5)")
        ids = self.background_ids
        if ids is None:
            ids = tuple(range(self.num_modalities))
        else:
            ids = tuple(int(i) for i in ids)
            if len(ids) != self.num_modalities:
                raise ValueError("background_ids length must equal num_modalities")
        object.__setattr__(self, "background_ids", ids)


def glyph(digit: int, resolution: int = 8) -> np.ndarray:
    """The class glyph as a resolution x resolution float image in {0, 1}."""
    rows = _GLYPHS[digit]
    base = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])
    if resolution == 8:
        return base
    idx = (np.arange(resolution) * 8) // resolution
    return base[np.ix_(idx, idx)]


def background(pattern_id: int, resolution: int = 8) -> np.ndarray:
    """Procedural background texture number `pattern_id`, values in [0, 1]."""
    r, c = np.meshgrid(np.arange(resolution), np.arange(resolution), indexing="ij")
    span = max(resolution - 1, 1)
    center = (resolution - 1) / 2.0
    radius = np.sqrt((r - center) ** 2 + (c - center) ** 2)
    patterns = [
        (r % 2).astype(float),
        ((r + c) % 2).astype(float),
        c / span,
        ((r % 3 == 1) & (c % 3 == 1)).astype(float),
        (radius.astype(int) % 2).astype(float),
        ((r + c) % 3 == 0).astype(float),
        r / span,
        (c % 2).astype(float),
    ]
    return patterns[pattern_id % len(patterns)]


def gen_toy(config: ToyConfig) -> MultimodalDataset:
    """Generate the synthetic aligned multimodal dataset for `config`.

    Every example of class c shares the same glyph; modality m adds its own
    background texture scaled by BACKGROUND_SCALE plus seeded Bernoulli pixel
    noise. Deterministic for a fixed seed.
    """
    res = config.resolution
    dim = res * res
    n = config.classes * config.examples_per_class
    labels = np.repeat(np.arange(config.classes), config.examples_per_class)
    modalities = []
    for m in range(config.num_modalities):
        bg = background(config.background_ids[m], res).reshape(-1)
        data = np.empty((n, dim))
        for cls in range(config.classes):
            base = glyph(cls, res).reshape(-1) + BACKGROUND_SCALE * bg
            rng = rng_stream(config.seed, _TAG_TOY_NOISE, m, cls)
            noise = (
                rng.random((config.examples_per_class, dim)) < config.noise_level
            ).astype(np.float64)
            rows = slice(cls * config.examples_per_class, (cls + 1) * config.examples_per_class)
            data[rows] = np.clip(base[None, :] + noise, 0.0, 1.0)
        modalities.append(data)
    return MultimodalDataset(modalities, labels)


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str, labels_path: str) -> MultimodalDataset:
    """Load a single-modality dataset from IDX image and label files.

    Expects the de-facto layout: big-endian magic 0x00000803 for images
    (count, rows, cols, then raw bytes) and 0x00000801 for labels (count,
    then raw bytes). Pixels are rescaled to [0, 1].
    """
    files = [(images_path, IDX_IMAGE_MAGIC, 3), (labels_path, IDX_LABEL_MAGIC, 1)]
    bufs = []
    for path, _, _ in files:
        with open(path, "rb") as f:
            bufs.append(f.read())
    arrays = []
    for (path, magic, dims), buf in zip(files, bufs):
        found = _read_be_u32(buf, 0, path)
        if found != magic:
            raise IdxFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
        shape = [_read_be_u32(buf, 4 * i, path) for i in range(1, dims + 1)]
        if magic == IDX_IMAGE_MAGIC and shape[0] == 0:
            # nothing to learn from, and rows x cols may pass numpy's limit
            raise IdxFormatError(f"{path}: holds no images")
        offset, size = 4 + 4 * dims, math.prod(shape)
        if len(buf) < offset + size:
            raise IdxFormatError(
                f"{path}: truncated file ({len(buf)} bytes, expected {offset + size})"
            )
        arrays.append((np.frombuffer(buf, dtype=np.uint8, count=size, offset=offset), shape))
    (pixels, (n_images, rows, cols)), (labels, (n_labels,)) = arrays
    if n_images != n_labels:
        raise IdxFormatError(
            f"image/label count mismatch: {n_images} images vs {n_labels} labels"
        )
    data = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    return MultimodalDataset([data], labels.astype(np.int64))


def split(dataset: MultimodalDataset, train_fraction: float, seed: int):
    """Seeded stratified split into (train, test).

    Per-class counts in the train split equal round(fraction * class size), so
    class proportions are preserved within one example. Raises ValueError if
    either side comes out empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    train_idx, test_idx = [], []
    for cls in np.unique(dataset.labels):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        perm = rng_stream(seed, _TAG_SPLIT_CLASS, int(cls)).permutation(cls_idx.size)
        n_train = int(round(train_fraction * cls_idx.size))
        shuffled = cls_idx[perm]
        train_idx.extend(shuffled[:n_train])
        test_idx.extend(shuffled[n_train:])
    for side, idx in (("train", train_idx), ("test", test_idx)):
        if not idx:
            raise ValueError(f"train_fraction {train_fraction} leaves the {side} split empty")
    order = rng_stream(seed, _TAG_SPLIT_ORDER)
    train_idx = np.asarray(train_idx)[order.permutation(len(train_idx))]
    test_idx = np.asarray(test_idx)[order.permutation(len(test_idx))]
    return dataset.take(train_idx), dataset.take(test_idx)
