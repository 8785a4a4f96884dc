import struct

import numpy as np
import pytest

from oracles import write_cifar10, write_idx
from trojansim.data import (
    Dataset,
    SplitPlan,
    parse_cifar10,
    parse_idx,
    split,
    split_indices,
    synthesize,
    synthesize_split,
)
from trojansim.defense import PER_IMAGE, PER_PIXEL, ScalePlan, alter_validation
from trojansim.errors import ConfigError, DataError, ParseError
from trojansim.rng import Xoshiro256StarStar


def idx_pair(tmp_path, pixel_bytes, labels, rows=2, cols=2,
             img_magic=2051, lab_magic=2049, label_count=None):
    """Hand-build an IDX image/label file pair."""
    n = len(labels)
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", img_magic, n, rows, cols) + bytes(pixel_bytes))
    lab.write_bytes(struct.pack(">II", lab_magic, label_count if label_count is not None else n)
                    + bytes(labels))
    return img, lab


# --- IDX -----------------------------------------------------------------


def test_parse_idx_known_images(tmp_path):
    img, lab = idx_pair(tmp_path, [0, 128, 255, 64, 10, 20, 30, 40], [3, 7])
    ds = parse_idx(img, lab)
    assert len(ds) == 2 and ds.image_shape == (1, 2, 2)
    first = ds.pixels[0].reshape(-1)
    assert first[0] == 0.0 and first[2] == 1.0  # byte 0 -> 0.0, byte 255 -> 1.0
    expected = np.array([0, 128, 255, 64], dtype=np.uint8).astype(np.float32) / np.float32(255)
    assert np.array_equal(first, expected)
    assert ds.labels.tolist() == [3, 7]


def test_parse_idx_bad_magic(tmp_path):
    img, lab = idx_pair(tmp_path, [0] * 8, [1, 2], img_magic=1234)
    with pytest.raises(ParseError) as e:
        parse_idx(img, lab)
    assert e.value.offset == 0

    img, lab = idx_pair(tmp_path, [0] * 8, [1, 2], lab_magic=99)
    with pytest.raises(ParseError, match="labels") as e:
        parse_idx(img, lab)
    assert e.value.offset == 0


def test_parse_idx_truncated_pixels(tmp_path):
    img, lab = idx_pair(tmp_path, [0] * 5, [1, 2])  # need 8 pixel bytes
    with pytest.raises(ParseError, match="truncated") as e:
        parse_idx(img, lab)
    assert e.value.offset == 16


def test_parse_idx_count_mismatch(tmp_path):
    img, lab = idx_pair(tmp_path, [0] * 8, [1, 2], label_count=3)
    with pytest.raises(ParseError, match="count") as e:
        parse_idx(img, lab)
    assert e.value.offset == 4


def test_parse_idx_label_out_of_range(tmp_path):
    img, lab = idx_pair(tmp_path, [0] * 8, [1, 12])
    with pytest.raises(ParseError, match="12") as e:
        parse_idx(img, lab)
    assert e.value.offset == 8 + 1


def test_idx_write_then_read_roundtrip(tmp_path):
    ds = synthesize(5, (1, 3, 3), seed=8)
    write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
    back = parse_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    again_i, again_l = tmp_path / "i2.idx", tmp_path / "l2.idx"
    write_idx(back, again_i, again_l)
    back2 = parse_idx(again_i, again_l)
    for a, la, b, lb in zip(back.pixels, back.labels, back2.pixels, back2.labels):
        assert np.array_equal(a, b) and la == lb


def test_write_idx_rejects_multichannel(tmp_path):
    ds = synthesize(2, (3, 4, 4), seed=1)
    with pytest.raises(ConfigError):
        write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")


# --- CIFAR-10 ------------------------------------------------------------


def test_parse_cifar_empty_and_single(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"")
    assert len(parse_cifar10(p)) == 0

    p.write_bytes(bytes([7]) + bytes(range(256)) * 12)
    ds = parse_cifar10(p)
    assert len(ds) == 1 and ds.labels[0] == 7
    assert ds.image_shape == (3, 32, 32)


def test_parse_cifar_bad_size(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(bytes(3073 * 2 + 100))
    with pytest.raises(ParseError, match="3073") as e:
        parse_cifar10(p)
    assert e.value.offset == 3073 * 2


def test_parse_cifar_bad_label(tmp_path):
    p = tmp_path / "c.bin"
    rec = bytes([1]) + bytes(3072)
    bad = bytes([11]) + bytes(3072)
    p.write_bytes(rec + bad + rec)
    with pytest.raises(ParseError, match="record 1") as e:
        parse_cifar10(p)
    assert e.value.offset == 3073


def test_cifar_write_then_read_roundtrip(tmp_path):
    ds = synthesize(3, (3, 32, 32), seed=4)
    p = tmp_path / "c.bin"
    write_cifar10(ds, p)
    back = parse_cifar10(p)
    write_cifar10(back, tmp_path / "c2.bin")
    back2 = parse_cifar10(tmp_path / "c2.bin")
    for a, la, b, lb in zip(back.pixels, back.labels, back2.pixels, back2.labels):
        assert np.array_equal(a, b) and la == lb


# --- synthesize ----------------------------------------------------------


def test_synthesize_deterministic():
    a = synthesize(4, (1, 3, 3), seed=5)
    b = synthesize(4, (1, 3, 3), seed=5)
    c = synthesize(4, (1, 3, 3), seed=6)
    for ia, ib in zip(a.pixels, b.pixels):
        assert np.array_equal(ia, ib)
    assert not np.array_equal(a.pixels[0], c.pixels[0])


def test_synthesize_modes_and_labels():
    ds = synthesize(12, (1, 2, 2), seed=0)
    assert ds.labels.tolist() == [i % 10 for i in range(12)]
    for img in ds.pixels:
        assert np.all((img >= 0) & (img < 1))
    probe = synthesize(40, (1, 4, 4), seed=0, mode="gaussianActivationProbe")
    vals = probe.pixels.reshape(-1)
    assert abs(float(vals.mean())) < 0.2 and 0.7 < float(vals.std()) < 1.3
    assert len(synthesize(0, (1, 2, 2), seed=0)) == 0
    with pytest.raises(ConfigError):
        synthesize(1, (1, 2, 2), seed=0, mode="laplacian")
    with pytest.raises(ConfigError):
        synthesize(-1, (1, 2, 2), seed=0)


# --- split ---------------------------------------------------------------


def test_split_counts_disjoint_and_order():
    base = synthesize(50, (1, 2, 2), seed=3)
    val, stream = split(base, SplitPlan(10, 25, seed=1))
    assert len(val) == 10 and len(stream) == 25
    # each image identified by its bytes: the 50 uniform images are distinct
    pos = {img.tobytes(): i for i, img in enumerate(base.pixels)}
    assert len(pos) == len(base)
    val_ids = {img.tobytes() for img in val.pixels}
    stream_ids = {img.tobytes() for img in stream.pixels}
    assert not val_ids & stream_ids
    # order preserved: positions within the base dataset stay ascending
    for part in (val, stream):
        indices = [pos[img.tobytes()] for img in part.pixels]
        assert indices == sorted(indices)
        assert part.labels.tolist() == [i % 10 for i in indices]


def test_split_deterministic():
    base = synthesize(40, (1, 2, 2), seed=3)
    v1, s1 = split(base, SplitPlan(5, 20, seed=9))
    v2, s2 = split(base, SplitPlan(5, 20, seed=9))
    assert v1.labels.tolist() == v2.labels.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(s1.pixels, s2.pixels))


def test_split_empty_validation_and_insufficient():
    base = synthesize(30, (1, 2, 2), seed=3)
    val, stream = split(base, SplitPlan(0, 30, seed=0))
    assert len(val) == 0 and len(stream) == 30
    with pytest.raises(DataError, match="35"):
        split(base, SplitPlan(5, 30, seed=0))


def scalar_split_indices(count, plan):
    """The Fisher-Yates split drawn one next_u64 call per step."""
    rng = Xoshiro256StarStar(plan.seed)
    perm = list(range(count))
    for i in range(count - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    need = plan.validation_count + plan.stream_count
    return sorted(perm[: plan.validation_count]), sorted(perm[plan.validation_count : need])


@pytest.mark.parametrize(
    "count, plan",
    [
        (0, SplitPlan(0, 0, seed=0)),
        (1, SplitPlan(1, 0, seed=4)),
        (2, SplitPlan(1, 1, seed=2**64 - 1)),
        (1100, SplitPlan(100, 1000, seed=3)),
        (1600, SplitPlan(100, 1500, seed=0)),
        (400, SplitPlan(37, 120, seed=2**64 - 1)),
    ],
)
def test_split_indices_equal_the_scalar_shuffle(count, plan):
    assert split_indices(count, plan) == scalar_split_indices(count, plan)


def test_split_indices_refuse_a_short_dataset_by_name():
    with pytest.raises(DataError, match=r"^split needs 11 items \(5 validation \+ 6 stream\) but dataset 'd' has 10$"):
        split_indices(10, SplitPlan(5, 6, seed=0), "d")


@pytest.mark.parametrize("count, v, s", [(40, 10, 25), (40, 0, 40), (40, 12, 0), (40, 0, 0), (0, 0, 0)])
@pytest.mark.parametrize("mode", ["uniform", "gaussianActivationProbe"])
def test_synthesize_split_equals_split_of_the_whole_set(count, v, s, mode):
    plan = SplitPlan(v, s, seed=5)
    want = split(synthesize(count, (1, 3, 3), 8, mode), plan)
    for keep_stream in (True, False):
        got = synthesize_split(count, (1, 3, 3), 8, mode, plan, keep_stream)
        if not keep_stream:
            assert got[1] is None
        for a, b in zip(got, want if keep_stream else want[:1]):
            assert a.name == b.name and a.labels.tolist() == b.labels.tolist()
            assert [img.tobytes() for img in a.pixels] == [img.tobytes() for img in b.pixels]


def test_synthesize_split_checks_the_mode_before_the_counts():
    with pytest.raises(ConfigError):
        synthesize_split(3, (1, 2, 2), 0, "laplacian", SplitPlan(5, 5, seed=0))
    with pytest.raises(DataError, match="'synthetic-uniform-0' has 3"):
        synthesize_split(3, (1, 2, 2), 0, "uniform", SplitPlan(2, 2, seed=0), stream=False)


def test_dataset_invariants():
    ds = synthesize(3, (1, 2, 2), seed=1)
    with pytest.raises(DataError, match="item 1 has label 10"):
        Dataset("bad", ds.pixels, np.array([3, 10, -1], dtype=np.int64))
    with pytest.raises(DataError, match="item 2 has label -1"):
        Dataset("bad", ds.pixels, np.array([3, 4, -1], dtype=np.int64))
    with pytest.raises(DataError, match="labels"):
        Dataset("short", ds.pixels, ds.labels[:2])
    with pytest.raises(DataError, match="labels"):
        Dataset("int32", ds.pixels, ds.labels.astype(np.int32))
    with pytest.raises(DataError, match="pixels"):
        Dataset("float64", ds.pixels.astype(np.float64), ds.labels)
    with pytest.raises(DataError, match="pixels"):
        Dataset("flat", ds.pixels.reshape(-1)[:3], ds.labels)


def _parsed_idx(tmp_path):
    write_idx(synthesize(7, (1, 5, 4), seed=2), tmp_path / "i.idx", tmp_path / "l.idx")
    return parse_idx(tmp_path / "i.idx", tmp_path / "l.idx")


def _parsed_cifar(tmp_path):
    write_cifar10(synthesize(4, (3, 32, 32), seed=3), tmp_path / "c.bin")
    return parse_cifar10(tmp_path / "c.bin")


def _altered(mode):
    return alter_validation(synthesize(6, (2, 3, 3), seed=4), ScalePlan(9, mode, 0.5, 2.0))


# every producer of a Dataset, by name: (tmp_path -> dataset, image shape)
PRODUCERS = {
    "parse_idx": (_parsed_idx, (1, 5, 4)),
    "parse_cifar10": (_parsed_cifar, (3, 32, 32)),
    "uniform": (lambda _: synthesize(9, (2, 3, 4), seed=5), (2, 3, 4)),
    "gaussian": (lambda _: synthesize(9, (1, 3, 3), seed=5, mode="gaussianActivationProbe"), (1, 3, 3)),
    "picked": (lambda _: synthesize(9, (1, 3, 3), seed=5, indices=[1, 4, 8]), (1, 3, 3)),
    "empty": (lambda _: synthesize(0, (1, 3, 3), seed=5), (1, 3, 3)),
    "split-validation": (lambda _: split(synthesize(20, (1, 3, 3), seed=6), SplitPlan(5, 9, seed=1))[0], (1, 3, 3)),
    "split-stream": (lambda _: split(synthesize(20, (1, 3, 3), seed=6), SplitPlan(5, 9, seed=1))[1], (1, 3, 3)),
    "synthesize_split-validation": (
        lambda _: synthesize_split(20, (1, 3, 3), 6, "uniform", SplitPlan(5, 9, seed=1))[0], (1, 3, 3)),
    "synthesize_split-stream": (
        lambda _: synthesize_split(20, (1, 3, 3), 6, "gaussianActivationProbe", SplitPlan(5, 9, seed=1))[1],
        (1, 3, 3)),
    "altered-perImage": (lambda _: _altered(PER_IMAGE), (2, 3, 3)),
    "altered-perPixel": (lambda _: _altered(PER_PIXEL), (2, 3, 3)),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_dataset_contract_of_every_producer(producer, tmp_path):
    make, shape = PRODUCERS[producer]
    ds = make(tmp_path)
    n = len(ds)
    assert ds.pixels.dtype == np.float32 and ds.pixels.shape == (n, *shape) and ds.image_shape == shape
    assert ds.pixels.flags.c_contiguous and not ds.pixels.flags.writeable
    assert ds.labels.dtype == np.int64 and ds.labels.shape == (n,)
    assert all(0 <= label < 10 for label in ds.labels.tolist())
    with pytest.raises(ValueError):
        ds.pixels[...] = 0


@pytest.mark.parametrize("producer", ["parse_idx", "uniform", "gaussian", "split-stream", "altered-perPixel"])
def test_dataset_contract_images_and_items_are_the_rows(producer, tmp_path):
    make, shape = PRODUCERS[producer]
    ds = make(tmp_path)
    images = ds.images()
    assert len(images) == len(ds.items) == len(ds)
    for row, label, img, (item, item_label) in zip(ds.pixels, ds.labels, images, ds.items):
        assert img.shape == item.shape == shape and img.dtype == item.dtype == "float32"
        assert img.data.tobytes() == item.data.tobytes() == row.tobytes()
        assert item_label == label and type(item_label) is int
    assert ds.items is ds.items  # built once


def test_parse_idx_reports_the_first_of_two_bad_labels(tmp_path):
    img, lab = idx_pair(tmp_path, [0] * 20, [1, 2, 10, 3, 255])
    with pytest.raises(ParseError, match="label 10 at item 2") as e:
        parse_idx(img, lab)
    assert e.value.offset == 8 + 2


def test_parse_cifar_reports_the_first_of_two_bad_labels(tmp_path):
    p = tmp_path / "c.bin"
    good, bad, worse = (bytes([label]) + bytes(3072) for label in (4, 12, 10))
    p.write_bytes(good + good + bad + good + worse)
    with pytest.raises(ParseError, match="record 2 has label 12") as e:
        parse_cifar10(p)
    assert e.value.offset == 3073 * 2


def test_parsed_pixels_are_bytes_over_255_image_by_image(tmp_path):
    raw = np.arange(3 * 20, dtype=np.int64).reshape(3, 20) * 37 % 256
    img, lab = idx_pair(tmp_path, raw.reshape(-1).tolist(), [0, 5, 9], rows=4, cols=5)
    ds = parse_idx(img, lab)
    for got, want in zip(ds.pixels, raw):
        assert got.tobytes() == (want.astype(np.uint8).astype(np.float32) / np.float32(255)).tobytes()
    p = tmp_path / "c.bin"
    records = np.arange(2 * 3073, dtype=np.int64).reshape(2, 3073) * 101 % 256
    records[:, 0] = [3, 8]
    p.write_bytes(records.astype(np.uint8).tobytes())
    ds = parse_cifar10(p)
    assert ds.labels.tolist() == [3, 8]
    for got, want in zip(ds.pixels, records[:, 1:]):
        assert got.tobytes() == (want.astype(np.uint8).astype(np.float32) / np.float32(255)).tobytes()
