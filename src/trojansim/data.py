"""Dataset containers, binary parsers (MNIST IDX, CIFAR-10), synthetic
generators, and the validation/stream split.

A dataset is one array of pixels and one of labels, which every producer
here fills or slices. Pixels are normalized to [0,1] float32 at ingest; any
fixed-point conversion happens inside the model pipeline.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
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
    """A named set of images: pixels, one read-only C-contiguous float32
    (N, *image_shape) array whose rows are the images, and labels, one
    read-only int64 (N,) array of their classes in [0, NUM_CLASSES). Both
    are frozen as given, pixels that are not C-contiguous copied first."""

    name: str
    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pixels, labels = np.ascontiguousarray(self.pixels), self.labels
        if (pixels.ndim < 2 or pixels.dtype != np.float32
                or labels.dtype != np.int64 or labels.shape != pixels.shape[:1]):
            raise DataError(f"dataset {self.name!r} needs float32 (N, *image_shape) pixels and int64 (N,) labels, "
                            f"got {pixels.dtype} pixels {pixels.shape} and {labels.dtype} labels {labels.shape}")
        _check_labels(labels, lambda i: DataError(
            f"dataset {self.name!r} item {i} has label {labels[i]} outside [0, {NUM_CLASSES})"))
        pixels.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "pixels", pixels)

    def __len__(self) -> int:
        return len(self.pixels)

    @property
    def image_shape(self) -> tuple[int, ...]:
        return self.pixels.shape[1:]

    def images(self) -> list[Tensor]:
        """The images as tensors viewing their pixel rows. Passes over a
        dataset take its pixels; this stays for the benchmark's workloads
        (perfbench), which hold malicious images as tensors, and the CLI's
        synthesized malicious images come from it."""
        rows = self.pixels.reshape(len(self), math.prod(self.image_shape))
        return [Tensor._built(self.image_shape, FLOAT32, row) for row in rows]

    @cached_property
    def items(self) -> tuple[tuple[Tensor, int], ...]:
        """(image, label) pairs, built on first use. No package code reads
        them; they stay because the benchmark (perfbench) does."""
        return tuple(zip(self.images(), self.labels.tolist()))


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
    return np.divide(raw, np.float32(255.0), dtype=np.float32)


def _check_labels(labels: np.ndarray, error) -> None:
    """Raise error(i), i the first index whose label is outside [0, NUM_CLASSES)."""
    bad = np.flatnonzero((labels < 0) | (labels >= NUM_CLASSES))
    if bad.size:
        raise error(int(bad[0]))


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
    labels = np.frombuffer(lab_cur.take(count, "label data"), dtype=np.uint8)
    lab_cur.done()
    _check_labels(labels, lambda i: ParseError(f"label {labels[i]} at item {i} outside [0, {NUM_CLASSES})",
                                               offset=8 + i))
    scaled = _scale_pixels(pixels).reshape(count, 1, rows, cols)
    return Dataset("mnist", scaled, labels.astype(np.int64))


def parse_cifar10(bin_path: str | Path) -> Dataset:
    """Parse a CIFAR-10 binary batch: 3073-byte records, RGB planes."""
    buf = Path(bin_path).read_bytes()
    if len(buf) % CIFAR_RECORD_LEN != 0:
        full = len(buf) // CIFAR_RECORD_LEN
        raise ParseError(
            f"file size {len(buf)} is not a multiple of {CIFAR_RECORD_LEN}",
            offset=full * CIFAR_RECORD_LEN,
        )
    records = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR_RECORD_LEN)
    _check_labels(records[:, 0], lambda rec: ParseError(
        f"record {rec} has label {records[rec, 0]} outside [0, {NUM_CLASSES})", offset=rec * CIFAR_RECORD_LEN))
    pixels = _scale_pixels(records[:, 1:]).reshape(len(records), 3, 32, 32)
    return Dataset("cifar10", pixels, records[:, 0].astype(np.int64))


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
    if indices is not None and any(not 0 <= a < b for a, b in zip(indices, [*indices[1:], count])):
        raise ConfigError(f"synthesis indices must ascend within [0, {count})")
    drawn = np.arange(count) if indices is None else np.asarray(indices, dtype=np.int64)
    labels = drawn % NUM_CLASSES
    rng = Xoshiro256StarStar(seed)
    n = math.prod(shape)
    # image i's draws start i * per_image draws after the seed's state
    # whichever images are drawn, so each image gets the same bits as a
    # draw of its own
    if mode == "uniform":
        pixels = rng.next_double_rows(drawn, n, np.float32)
    else:
        # Box-Muller takes a block's worth of images' doubles per bulk draw
        per_image = 2 * ((n + 1) // 2)
        per_call = max(1, BLOCK_DRAWS // per_image)
        pixels = np.empty((len(drawn), n), dtype=np.float32)
        done = 0  # images past the state
        for at in range(0, len(drawn), per_call):
            group = drawn[at:at + per_call]
            for row, draws in zip(pixels[at:at + per_call], rng.next_double_rows(group - done, per_image)):
                row[:] = _box_muller(draws, n)
            done = int(group[-1]) + 1
    return Dataset(_synthetic_name(mode, seed), pixels.reshape(len(drawn), *shape), labels)


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


def split(dataset: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    """Carve disjoint validation and stream subsets, order-preserving.

    split_indices picks the index sets; within each subset the original
    dataset order is kept.
    """
    val_idx, stream_idx = split_indices(len(dataset), plan, dataset.name)
    return tuple(Dataset(f"{dataset.name}/{kind}", dataset.pixels[rows], dataset.labels[rows])
                 for kind, rows in (("validation", val_idx), ("stream", stream_idx)))


def synthesize_split(
    count: int, shape: tuple[int, ...], seed: int, mode: str, plan: SplitPlan, stream: bool = True
) -> tuple[Dataset, Dataset | None]:
    """split(synthesize(count, shape, seed, mode), plan), drawing only the
    images it keeps, in one walk: the validation set's, and the stream's
    unless stream is false, when the stream comes back as None."""
    _check_synthesis(count, mode)
    val_idx, stream_idx = split_indices(count, plan, _synthetic_name(mode, seed))
    drawn = sorted(val_idx + stream_idx) if stream else val_idx
    images = synthesize(count, shape, seed, mode, drawn)
    if not stream:
        return Dataset(f"{images.name}/validation", images.pixels, images.labels), None
    # the sets interleave: the stream's rows move up in place (synthesize's
    # array, held by nothing else) a quarter of SCRATCH_BYTES at a time, each
    # block below the rows left, and the validation rows, set aside, go last
    in_val = np.isin(drawn, val_idx)
    pixels, labels, rows = images.pixels, images.labels, np.flatnonzero(~in_val)
    held = pixels[in_val]
    pixels.flags.writeable = True
    block = max(1, BLOCK_DRAWS // (2 * math.prod(shape)))
    for at in range(0, len(rows), block):
        part = rows[at:at + block]
        pixels[at:at + len(part)] = pixels[part]
    pixels[len(rows):] = held
    return (Dataset(f"{images.name}/validation", pixels[len(rows):], labels[in_val]),
            Dataset(f"{images.name}/stream", pixels[:len(rows)], labels[rows]))
