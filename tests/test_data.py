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
    first = ds.items[0][0].data
    assert first[0] == 0.0 and first[2] == 1.0  # byte 0 -> 0.0, byte 255 -> 1.0
    expected = np.array([0, 128, 255, 64], dtype=np.uint8).astype(np.float32) / np.float32(255)
    assert np.array_equal(first, expected)
    assert ds.labels() == [3, 7]


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
    for (a, la), (b, lb) in zip(back.items, back2.items):
        assert np.array_equal(a.data, b.data) and la == lb


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
    assert len(ds) == 1 and ds.items[0][1] == 7
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
    for (a, la), (b, lb) in zip(back.items, back2.items):
        assert np.array_equal(a.data, b.data) and la == lb


# --- synthesize ----------------------------------------------------------


def test_synthesize_deterministic():
    a = synthesize(4, (1, 3, 3), seed=5)
    b = synthesize(4, (1, 3, 3), seed=5)
    c = synthesize(4, (1, 3, 3), seed=6)
    for (ia, _), (ib, _) in zip(a.items, b.items):
        assert np.array_equal(ia.data, ib.data)
    assert not np.array_equal(a.items[0][0].data, c.items[0][0].data)


def test_synthesize_modes_and_labels():
    ds = synthesize(12, (1, 2, 2), seed=0)
    assert ds.labels() == [i % 10 for i in range(12)]
    for img, _ in ds.items:
        assert np.all((img.data >= 0) & (img.data < 1))
    probe = synthesize(40, (1, 4, 4), seed=0, mode="gaussianActivationProbe")
    vals = np.concatenate([img.data for img, _ in probe.items])
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
    val_ids = {id(img) for img, _ in val.items}
    stream_ids = {id(img) for img, _ in stream.items}
    assert not val_ids & stream_ids
    # order preserved: positions within the base dataset stay ascending
    pos = {id(img): i for i, (img, _) in enumerate(base.items)}
    for part in (val, stream):
        indices = [pos[id(img)] for img, _ in part.items]
        assert indices == sorted(indices)


def test_split_deterministic():
    base = synthesize(40, (1, 2, 2), seed=3)
    v1, s1 = split(base, SplitPlan(5, 20, seed=9))
    v2, s2 = split(base, SplitPlan(5, 20, seed=9))
    assert [l for _, l in v1.items] == [l for _, l in v2.items]
    assert all(np.array_equal(a.data, b.data) for (a, _), (b, _) in zip(s1.items, s2.items))


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
            assert a.name == b.name and a.labels() == b.labels()
            assert [img.data.tobytes() for img in a.images()] == [img.data.tobytes() for img in b.images()]


def test_synthesize_split_checks_the_mode_before_the_counts():
    with pytest.raises(ConfigError):
        synthesize_split(3, (1, 2, 2), 0, "laplacian", SplitPlan(5, 5, seed=0))
    with pytest.raises(DataError, match="'synthetic-uniform-0' has 3"):
        synthesize_split(3, (1, 2, 2), 0, "uniform", SplitPlan(2, 2, seed=0), stream=False)


def test_dataset_invariants():
    ds = synthesize(3, (1, 2, 2), seed=1)
    with pytest.raises(DataError):
        Dataset("mix", (ds.items[0], (synthesize(1, (1, 3, 3), 0).items[0][0], 1)))
