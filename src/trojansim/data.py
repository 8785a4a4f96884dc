"""Dataset containers, binary parsers (MNIST IDX, CIFAR-10), synthetic
generators, and the validation/stream split.

Pixels are normalized to [0,1] float32 at ingest; any fixed-point conversion
happens inside the model pipeline.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .rng import BLOCK_DRAWS, Xoshiro256StarStar
from .tensor import FLOAT32, Tensor

NUM_CLASSES = 10

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
CIFAR_RECORD_LEN = 3073  # 1 label byte + 3*32*32 pixels


@dataclass(frozen=True, eq=False)
class Dataset:
    name: str
    items: tuple[tuple[Tensor, int], ...]

    def __post_init__(self):
        shapes = {img.shape for img, _ in self.items}
        if len(shapes) > 1:
            raise DataError(f"dataset {self.name!r} mixes image shapes: {sorted(shapes)}")
        for i, (_, label) in enumerate(self.items):
            if not 0 <= label < NUM_CLASSES:
                raise DataError(f"dataset {self.name!r} item {i} has label {label} outside [0, {NUM_CLASSES})")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def image_shape(self) -> tuple[int, ...] | None:
        return self.items[0][0].shape if self.items else None

    def images(self) -> list[Tensor]:
        return [img for img, _ in self.items]

    def labels(self) -> list[int]:
        return [label for _, label in self.items]


@dataclass(frozen=True)
class SplitPlan:
    validation_count: int = 100
    stream_count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.validation_count < 0 or self.stream_count < 0:
            raise ConfigError("split counts must be nonnegative")


class ByteCursor:
    """Reads a byte buffer front to back. A short read raises ParseError
    naming the field and the offset where the read started."""

    def __init__(self, buf: bytes, label: str = "file"):
        self.buf = buf
        self.label = label
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise ParseError(f"{self.label} truncated reading {what}", offset=self.off)
        chunk = self.buf[self.off : self.off + n]
        self.off += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u32be(self, what: str) -> int:
        return struct.unpack(">I", self.take(4, what))[0]

    def done(self):
        if self.off != len(self.buf):
            raise ParseError(
                f"{self.label} has {len(self.buf) - self.off} trailing bytes", offset=self.off
            )


def _scale_pixels(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float32) / np.float32(255.0)


def parse_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse an MNIST-style IDX image/label file pair (big-endian headers)."""
    img_cur = ByteCursor(Path(images_path).read_bytes(), "images file")
    magic = img_cur.u32be("magic")
    if magic != IDX_IMAGES_MAGIC:
        raise ParseError(f"images file magic {magic}, expected {IDX_IMAGES_MAGIC}", offset=0)
    count = img_cur.u32be("image count")
    rows = img_cur.u32be("row count")
    cols = img_cur.u32be("column count")
    pixels = np.frombuffer(
        img_cur.take(count * rows * cols, "pixel data"), dtype=np.uint8
    )
    img_cur.done()

    lab_cur = ByteCursor(Path(labels_path).read_bytes(), "labels file")
    magic = lab_cur.u32be("magic")
    if magic != IDX_LABELS_MAGIC:
        raise ParseError(f"labels file magic {magic}, expected {IDX_LABELS_MAGIC}", offset=0)
    label_count = lab_cur.u32be("label count")
    if label_count != count:
        raise ParseError(
            f"label count {label_count} does not match image count {count}", offset=4
        )
    labels = lab_cur.take(count, "label data")
    lab_cur.done()
    for i, label in enumerate(labels):
        if label >= NUM_CLASSES:
            raise ParseError(f"label {label} at item {i} outside [0, {NUM_CLASSES})", offset=8 + i)

    scaled = _scale_pixels(pixels)
    per_image = rows * cols
    items = tuple(
        (
            Tensor((1, rows, cols), FLOAT32, scaled[i * per_image : (i + 1) * per_image]),
            int(labels[i]),
        )
        for i in range(count)
    )
    return Dataset(name="mnist", items=items)


def parse_cifar10(bin_path: str | Path) -> Dataset:
    """Parse a CIFAR-10 binary batch: 3073-byte records, RGB planes."""
    buf = Path(bin_path).read_bytes()
    if len(buf) % CIFAR_RECORD_LEN != 0:
        full = len(buf) // CIFAR_RECORD_LEN
        raise ParseError(
            f"file size {len(buf)} is not a multiple of {CIFAR_RECORD_LEN}",
            offset=full * CIFAR_RECORD_LEN,
        )
    items = []
    for rec in range(len(buf) // CIFAR_RECORD_LEN):
        start = rec * CIFAR_RECORD_LEN
        label = buf[start]
        if label >= NUM_CLASSES:
            raise ParseError(f"record {rec} has label {label} outside [0, {NUM_CLASSES})", offset=start)
        raw = np.frombuffer(buf, dtype=np.uint8, count=CIFAR_RECORD_LEN - 1, offset=start + 1)
        items.append((Tensor((3, 32, 32), FLOAT32, _scale_pixels(raw)), label))
    return Dataset(name="cifar10", items=tuple(items))


def synthesize(
    count: int, shape: tuple[int, ...], seed: int, mode: str = "uniform", indices=None
) -> Dataset:
    """Generate a deterministic synthetic dataset.

    uniform: pixels i.i.d. in [0,1), image-like, drawn in one bulk draw
    into one read-only float32 array whose rows are the images.
    gaussianActivationProbe: pixels i.i.d. standard normal (unclipped), for
    driving wide activation excursions in Monte-Carlo probes. Labels are
    assigned round-robin.

    indices, ascending, picks the images of the count-image set to draw
    (default all). Image i takes the same draws and label i % 10 whichever
    images are drawn with it: the draws of the others are jumped over.
    """
    _check_synthesis(count, mode)
    if indices is None:
        indices = range(count)
    elif any(not 0 <= a < b for a, b in zip(indices, [*indices[1:], count])):
        raise ConfigError(f"synthesis indices must ascend within [0, {count})")
    rng = Xoshiro256StarStar(seed)
    n = math.prod(shape)
    # image i's draws start i * per_image draws after the seed's state
    # whichever images are drawn, so each image gets the same bits as a
    # draw of its own
    if mode == "uniform":
        pixels = rng.next_double_rows(indices, n, np.float32)
        pixels.flags.writeable = False
        items = tuple((Tensor._built(shape, FLOAT32, row), i % NUM_CLASSES) for i, row in zip(indices, pixels))
        return Dataset(name=_synthetic_name(mode, seed), items=items)
    # Box-Muller takes a block's worth of images' doubles per bulk draw
    per_image = 2 * ((n + 1) // 2)
    per_call = max(1, BLOCK_DRAWS // per_image)
    items = []
    done = 0  # images past the state
    for at in range(0, len(indices), per_call):
        group = np.asarray(indices[at:at + per_call], dtype=np.int64)
        for i, row in zip(group.tolist(), rng.next_double_rows(group - done, per_image)):
            items.append((Tensor(shape, FLOAT32, np.array(_box_muller(row, n), dtype=np.float32)), i % NUM_CLASSES))
        done = int(group[-1]) + 1
    return Dataset(name=_synthetic_name(mode, seed), items=tuple(items))


def _check_synthesis(count: int, mode: str) -> None:
    if count < 0:
        raise ConfigError("count must be >= 0")
    if mode not in ("uniform", "gaussianActivationProbe"):
        raise ConfigError(f"unknown synthesis mode {mode!r}")


def _synthetic_name(mode: str, seed: int) -> str:
    return f"synthetic-{mode}-{seed}"


def _box_muller(draws: np.ndarray, n: int) -> list[float]:
    # one pair of draws per two outputs; the transcendentals stay scalar libm
    # calls, which NumPy's vectorised ones are not guaranteed to match
    draws = draws.tolist()
    out: list[float] = []
    for i in range(0, len(draws), 2):
        u1 = 1.0 - draws[i]  # (0, 1]: keeps log() finite
        u2 = draws[i + 1]
        radius = math.sqrt(-2.0 * math.log(u1))
        out.append(radius * math.cos(2.0 * math.pi * u2))
        if len(out) < n:
            out.append(radius * math.sin(2.0 * math.pi * u2))
    return out


def split_indices(count: int, plan: SplitPlan, name: str = "dataset") -> tuple[list[int], list[int]]:
    """The ascending validation and stream indices that split picks from a
    count-item dataset called name (the name is for the error message).

    A seeded Fisher-Yates shuffle: step i (count - 1 down to 1) swaps i with
    j = u % (i + 1), u being the generator's next word; the words come from
    one bulk draw and only the swaps are a Python loop.
    """
    need = plan.validation_count + plan.stream_count
    if need > count:
        raise DataError(
            f"split needs {need} items ({plan.validation_count} validation + "
            f"{plan.stream_count} stream) but dataset {name!r} has {count}"
        )
    words = Xoshiro256StarStar(plan.seed).next_u64s(max(count - 1, 0))
    swaps = words % np.arange(count, 1, -1, dtype=np.uint64)
    perm = list(range(count))
    for i, j in zip(range(count - 1, 0, -1), swaps.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return sorted(perm[: plan.validation_count]), sorted(perm[plan.validation_count : need])


def _subsets(name: str, items, val_idx: list[int], stream_idx: list[int]) -> tuple[Dataset, Dataset]:
    validation = Dataset(name=f"{name}/validation", items=tuple(items[i] for i in val_idx))
    stream = Dataset(name=f"{name}/stream", items=tuple(items[i] for i in stream_idx))
    return validation, stream


def split(dataset: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    """Carve disjoint validation and stream subsets, order-preserving.

    split_indices picks the index sets; within each subset the original
    dataset order is kept.
    """
    val_idx, stream_idx = split_indices(len(dataset), plan, dataset.name)
    return _subsets(dataset.name, dataset.items, val_idx, stream_idx)


def synthesize_split(
    count: int, shape: tuple[int, ...], seed: int, mode: str, plan: SplitPlan, stream: bool = True
) -> tuple[Dataset, Dataset | None]:
    """split(synthesize(count, shape, seed, mode), plan), drawing only the
    images it keeps: the validation set's, and the stream's unless stream is
    false, when the stream comes back as None."""
    _check_synthesis(count, mode)
    val_idx, stream_idx = split_indices(count, plan, _synthetic_name(mode, seed))
    if not stream:
        stream_idx = []
    drawn = sorted(val_idx + stream_idx)
    images = synthesize(count, shape, seed, mode, drawn)
    validation, kept = _subsets(images.name, dict(zip(drawn, images.items)), val_idx, stream_idx)
    return validation, kept if stream else None
