"""Data synthesis, IDX loading, and the reproducible SGD loop."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdens import net as net_module
from specdens.errors import InputFormatError, UsageError
from specdens.net import MlpSpec
from specdens.pipeline import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    METRICS_COLUMNS,
    GmmSpec,
    TrainConfig,
    _first_per_class,
    gaussian_mixture,
    load_idx,
    train_sgd,
)

from oracles import first_per_class_loop, gaussian_mixture_loop


def idx_image_bytes(images, magic=IDX_IMAGES_MAGIC):
    count, rows, cols = images.shape
    return struct.pack(">IIII", magic, count, rows, cols) + images.tobytes()


def idx_label_bytes(labels, magic=IDX_LABELS_MAGIC, count=None):
    return struct.pack(">II", magic, count if count is not None else len(labels)) \
        + bytes(labels)


def write_pair(tmp_path, images, labels, gz=False, **kwargs):
    img = idx_image_bytes(images, **{k: v for k, v in kwargs.items()
                                     if k == "magic"})
    lbl = idx_label_bytes(labels)
    if gz:
        img, lbl = gzip.compress(img), gzip.compress(lbl)
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    ip.write_bytes(img)
    lp.write_bytes(lbl)
    return ip, lp


@pytest.fixture
def tiny_idx(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 3, 2), dtype=np.uint8)
    labels = [0, 1, 2, 0, 1, 2, 0, 1, 0, 0]
    return images, np.array(labels, dtype=np.uint8), tmp_path


class TestLoadIdx:
    def test_roundtrip(self, tiny_idx):
        """Pixels come back flattened, scaled to [0, 1], labels intact."""
        images, labels, tmp = tiny_idx
        ds = load_idx(*write_pair(tmp, images, labels))
        assert ds.x.shape == (10, 6)
        assert ds.y.dtype == np.int64
        np.testing.assert_array_equal(ds.y, labels)
        np.testing.assert_allclose(ds.x, images.reshape(10, 6) / 255.0)
        assert ds.class_count == 3

    def test_gzip_is_sniffed_not_named(self, tiny_idx):
        # compression is detected from the 1f 8b bytes, the filename
        # still says .idx
        images, labels, tmp = tiny_idx
        plain = load_idx(*write_pair(tmp, images, labels))
        zipped = load_idx(*write_pair(tmp, images, labels, gz=True))
        assert np.array_equal(plain.x, zipped.x)
        assert np.array_equal(plain.y, zipped.y)

    def test_bad_image_magic(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels, magic=0xDEADBEEF)
        with pytest.raises(InputFormatError, match="bad magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels)
        lp.write_bytes(idx_label_bytes(labels, magic=IDX_IMAGES_MAGIC))
        with pytest.raises(InputFormatError, match="bad magic"):
            load_idx(ip, lp)

    def test_truncated_image_payload(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels)
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(InputFormatError, match="payload"):
            load_idx(ip, lp)

    def test_short_header(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels)
        ip.write_bytes(b"\x00\x00\x08\x03")
        with pytest.raises(InputFormatError, match="too short"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels[:-2])
        with pytest.raises(InputFormatError, match="mismatch"):
            load_idx(ip, lp)

    def test_empty_pair_rejected(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.empty((0, 2, 2), dtype=np.uint8), [])
        with pytest.raises(UsageError, match="at least one example"):
            load_idx(ip, lp)

    def test_truncated_labels(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels)
        lp.write_bytes(idx_label_bytes(labels, count=len(labels) + 4))
        with pytest.raises(InputFormatError, match="truncated"):
            load_idx(ip, lp)

    def test_limit_per_class_keeps_first_in_file_order(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels)
        ds = load_idx(ip, lp, limit_per_class=2)
        # labels are 0,1,2,0,1,2,0,1,0,0 -> first two of each are
        # positions 0..5
        np.testing.assert_array_equal(ds.y, [0, 1, 2, 0, 1, 2])
        np.testing.assert_allclose(ds.x, images.reshape(10, 6)[:6] / 255.0)
        assert ds.class_count == 3  # inferred before subsampling

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=40),
           st.integers(min_value=1, max_value=4))
    def test_first_per_class_matches_the_label_loop(self, labels, k):
        """Random label streams: classes short of k, classes that never
        appear below the largest label, and the empty stream."""
        y = np.array(labels, dtype=np.int64)
        class_count = int(y.max()) + 1 if y.size else 1
        keep = _first_per_class(y, k, class_count)
        assert keep.dtype == np.int64
        np.testing.assert_array_equal(keep, first_per_class_loop(y, k))

    def test_limit_validation(self, tiny_idx):
        images, labels, tmp = tiny_idx
        ip, lp = write_pair(tmp, images, labels)
        with pytest.raises(UsageError):
            load_idx(ip, lp, limit_per_class=0)


class TestGaussianMixture:
    def test_deterministic(self):
        spec = GmmSpec(classes=3, n_per_class=10, dim=5, separation=2.0, seed=3)
        a_train, a_test = gaussian_mixture(spec)
        b_train, b_test = gaussian_mixture(spec)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.x, b_test.x)
        assert not np.array_equal(a_train.x, a_test.x[: a_train.n])

    def test_shapes_labels_and_splits(self):
        spec = GmmSpec(classes=2, n_per_class=7, dim=3, separation=1.0,
                       n_test_per_class=4, seed=0)
        train, test = gaussian_mixture(spec)
        assert train.n == 14 and test.n == 8
        assert train.split == "train" and test.split == "test"
        np.testing.assert_array_equal(np.bincount(train.y), [7, 7])
        np.testing.assert_array_equal(np.bincount(test.y), [4, 4])

    @pytest.mark.parametrize("spec", [
        GmmSpec(classes=3, n_per_class=5, dim=4, separation=2.0, seed=3),
        GmmSpec(classes=4, n_per_class=3, dim=6, separation=1.5, std=0.7,
                n_test_per_class=2, seed=9),
    ])
    def test_matches_the_class_by_class_draw(self, spec):
        train, test = gaussian_mixture(spec)
        for data, (x, y) in zip((train, test), gaussian_mixture_loop(spec)):
            assert np.array_equal(data.x, x)
            assert np.array_equal(data.y, y) and data.y.dtype == np.int64

    def test_class_means_sit_on_their_axes(self):
        spec = GmmSpec(classes=3, n_per_class=4000, dim=4, separation=6.0,
                       std=1.0, seed=1)
        train, _ = gaussian_mixture(spec)
        for c in range(3):
            centroid = train.x[train.y == c].mean(axis=0)
            expected = np.zeros(4)
            expected[c] = 6.0
            np.testing.assert_allclose(centroid, expected, atol=0.1)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            GmmSpec(classes=1, n_per_class=5, dim=4, separation=1.0)
        with pytest.raises(UsageError, match="dim"):
            GmmSpec(classes=5, n_per_class=5, dim=3, separation=1.0)
        with pytest.raises(UsageError):
            GmmSpec(classes=2, n_per_class=0, dim=4, separation=1.0)
        with pytest.raises(UsageError):
            GmmSpec(classes=2, n_per_class=5, dim=4, separation=1.0, std=0.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(UsageError, match="unknown gmm spec key"):
            GmmSpec.from_dict({"classes": 2, "n_per_class": 5, "dim": 4,
                               "separation": 1.0, "color": "red"})


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            TrainConfig(epochs=0, lr=0.1)
        with pytest.raises(UsageError):
            TrainConfig(epochs=1, lr=-0.1)
        with pytest.raises(UsageError):
            TrainConfig(epochs=1, lr=0.1, momentum=1.0)
        with pytest.raises(UsageError):
            TrainConfig(epochs=1, lr=0.1, batch_size=0)

    def test_default_anneal_points_are_thirds(self):
        assert TrainConfig(epochs=9, lr=0.1).anneal_at == (3, 6)
        assert TrainConfig(epochs=4, lr=0.1).anneal_at == (1, 2)

    def test_lr_schedule_stages(self):
        """The rate drops the epoch after each anneal point."""
        cfg = TrainConfig(epochs=6, lr=1.0, anneal_factor=0.5,
                          anneal_at=(2, 4))
        assert [cfg.lr_for_epoch(e) for e in range(1, 7)] == \
            [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]

    def test_anneal_at_zero_is_ignored(self):
        cfg = TrainConfig(epochs=4, lr=1.0, anneal_at=(0,))
        assert cfg.lr_for_epoch(1) == 1.0

    def test_checkpoint_set_default_is_geometric(self):
        assert TrainConfig(epochs=10, lr=0.1).checkpoint_epochs == \
            (0, 1, 2, 4, 8, 10)
        assert TrainConfig(epochs=8, lr=0.1).checkpoint_epochs == \
            (0, 1, 2, 4, 8)
        assert TrainConfig(epochs=1, lr=0.1).checkpoint_epochs == (0, 1)

    def test_explicit_checkpoints_always_include_final(self):
        cfg = TrainConfig(epochs=10, lr=0.1, checkpoint_epochs=(3,))
        assert cfg.checkpoint_epochs == (3, 10)

    @pytest.mark.parametrize("key", ["anneal_at", "checkpoint_epochs"])
    def test_schedule_epochs_lie_within_the_run(self, key):
        for outside in ((7, -1), (4,), (-1,)):
            with pytest.raises(UsageError, match="0..3"):
                TrainConfig(epochs=3, lr=0.1, **{key: outside})
        inside = TrainConfig(epochs=3, lr=0.1, **{key: (0, 3)})
        assert getattr(inside, key) == (0, 3)

    def test_long_run_checks_its_schedule_in_small_memory(self):
        # each listed epoch is range-checked, not looked up in a set of
        # every epoch of the run
        tracemalloc.start()
        try:
            cfg = TrainConfig(epochs=10 ** 6, lr=0.1)
            with pytest.raises(UsageError, match=r"got \[-1, 1000001\]"):
                TrainConfig(epochs=10 ** 6, lr=0.1,
                            anneal_at=(1000001, 5, -1, 1000001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.checkpoint_epochs[-2:] == (1 << 19, 10 ** 6)
        assert peak < 1 << 20

    def test_from_dict_strict_and_roundtrip(self):
        cfg = TrainConfig(epochs=6, lr=0.2, anneal_at=(2,))
        again = TrainConfig.from_dict(
            {k: v for k, v in cfg.to_dict().items()
             if k != "checkpoint_epochs"})
        assert again.anneal_at == (2,)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(UsageError, match="unknown train config key"):
            TrainConfig.from_dict({"epochs": 1, "lr": 0.1, "turbo": True})


@pytest.fixture(scope="module")
def gmm_data():
    spec = GmmSpec(classes=3, n_per_class=30, dim=4, separation=3.0,
                   std=1.0, seed=2)
    return gaussian_mixture(spec)


@pytest.fixture(scope="module")
def net_spec():
    return MlpSpec(layer_dims=(4, 8, 3), activation="tanh")


class TestTrainSgd:
    def test_metrics_cover_every_epoch_and_error_falls(self, gmm_data,
                                                       net_spec):
        train, test = gmm_data
        cfg = TrainConfig(epochs=6, lr=0.1, weight_decay=1e-4,
                          batch_size=16, seed=1)
        result = train_sgd(net_spec, train, test, cfg)
        assert not result.diverged
        assert [m.epoch for m in result.metrics] == list(range(7))
        assert len(result.metrics[0].row()) == len(METRICS_COLUMNS)
        assert result.metrics[-1].train_error < result.metrics[0].train_error
        assert result.metrics[-1].train_error <= 0.10  # blobs are separable

    def test_checkpoints_match_the_configured_set(self, gmm_data, net_spec):
        train, test = gmm_data
        cfg = TrainConfig(epochs=6, lr=0.1, batch_size=16, seed=1)
        result = train_sgd(net_spec, train, test, cfg)
        assert [c.epoch for c in result.checkpoints] == \
            list(cfg.checkpoint_epochs)
        assert result.checkpoints[-1].epoch == 6
        assert result.checkpoints[-1].meta["config"]["epochs"] == 6

    def test_rerun_is_bit_identical(self, gmm_data, net_spec):
        train, test = gmm_data
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=16, seed=4)
        a = train_sgd(net_spec, train, test, cfg)
        b = train_sgd(net_spec, train, test, cfg)
        assert np.array_equal(a.checkpoints[-1].theta, b.checkpoints[-1].theta)
        assert a.metrics == b.metrics

    def test_resume_replays_the_exact_remaining_run(self, gmm_data, net_spec):
        train, test = gmm_data
        cfg = TrainConfig(epochs=6, lr=0.1, weight_decay=1e-4,
                          batch_size=16, seed=1)
        full = train_sgd(net_spec, train, test, cfg)
        mid = next(c for c in full.checkpoints if c.epoch == 4)
        resumed = train_sgd(net_spec, train, test, cfg, resume_from=mid)
        assert np.array_equal(resumed.checkpoints[-1].theta, full.checkpoints[-1].theta)
        assert np.array_equal(resumed.checkpoints[-1].velocity, full.checkpoints[-1].velocity)
        # only the remaining epochs are evaluated
        assert [m.epoch for m in resumed.metrics] == [5, 6]

    def test_test_split_never_influences_training(self, gmm_data, net_spec):
        train, test = gmm_data
        _, other = gaussian_mixture(GmmSpec(
            classes=3, n_per_class=30, dim=4, separation=1.0, std=2.0,
            seed=99))
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=16, seed=1)
        a = train_sgd(net_spec, train, test, cfg)
        b = train_sgd(net_spec, train, other, cfg)
        assert np.array_equal(a.checkpoints[-1].theta, b.checkpoints[-1].theta)

    def test_evaluation_forwards_each_distinct_split_once(self, gmm_data,
                                                          net_spec,
                                                          monkeypatch):
        # idx configs train and test on one split; its numbers are reused
        train, test = gmm_data
        cfg = TrainConfig(epochs=2, lr=0.1, batch_size=16, seed=1)
        forwarded = []
        forward = net_module._forward

        def counted(spec, Ws, bs, X):
            forwarded.append(X)
            return forward(spec, Ws, bs, X)

        monkeypatch.setattr(net_module, "_forward", counted)
        separate = train_sgd(net_spec, train, test, cfg)
        assert sum(X is train.x for X in forwarded) == cfg.epochs + 1
        assert sum(X is test.x for X in forwarded) == cfg.epochs + 1
        forwarded.clear()
        shared = train_sgd(net_spec, train, train, cfg)
        assert sum(X is train.x for X in forwarded) == cfg.epochs + 1
        for a, b in zip(separate.metrics, shared.metrics):
            assert (b.train_loss, b.train_error) == (a.train_loss,
                                                     a.train_error)
            assert (b.test_loss, b.test_error) == (a.train_loss,
                                                   a.train_error)

    def test_divergence_is_flagged_not_raised(self, gmm_data, net_spec):
        train, test = gmm_data
        cfg = TrainConfig(epochs=4, lr=1e200, batch_size=16, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            result = train_sgd(net_spec, train, test, cfg)
        assert result.diverged
        # the poisoned epoch is dropped; epoch 0 remains the last good state
        assert [m.epoch for m in result.metrics] == [0]
        assert result.checkpoints[-1].epoch == 0
        assert np.isfinite(result.checkpoints[-1].theta).all()
