"""Clip segmentation, labeling, metrics, folds, synthesis, and manifests."""

import numpy as np
import pytest

from dmsn.pipeline import (Clip, ClipDataset, DatasetError, ManifestError,
                           SynthConfig, VideoRecord, aggregate_video_score,
                           bdi_severity_band, clip_label, dataset_from_videos,
                           format_synth_config, load_manifest, loso_splits,
                           mean_frame_displacement, metric_mae, metric_mse,
                           metric_rmse, parse_synth_config, quantize_pspi,
                           save_manifest, segment_clips, synth_generate)
from dmsn.tensorfile import write_tensor


def make_video(frames, subject="s1", video="v1", label=2.0, frame_labels=None):
    data = np.zeros((3, frames, 4, 4), dtype=np.float32)
    if frame_labels is not None:
        return VideoRecord(subject, video, data, "frame",
                           frame_labels=frame_labels)
    return VideoRecord(subject, video, data, "video", video_label=label)


class TestSegmentation:
    def test_35_frames_gives_two_clips(self):
        clips, short = segment_clips(make_video(35), 16)
        assert len(clips) == 2 and not short
        assert [c.clip_index for c in clips] == [0, 1]

    def test_exact_fit(self):
        clips, short = segment_clips(make_video(16), 16)
        assert len(clips) == 1 and not short

    def test_short_video_warns(self):
        clips, short = segment_clips(make_video(15), 16)
        assert clips == [] and short

    def test_concatenated_clips_reproduce_leading_frames(self):
        rng = np.random.default_rng(0)
        video = make_video(37)
        video.frames = rng.normal(size=(3, 37, 4, 4)).astype(np.float32)
        clips, _ = segment_clips(video, 8)
        joined = np.concatenate([c.data for c in clips], axis=1)
        np.testing.assert_array_equal(joined, video.frames[:, :32])

    def test_count_is_floor_property(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            frames = int(rng.integers(1, 60))
            clip_len = int(rng.integers(1, 20))
            clips, _ = segment_clips(make_video(frames), clip_len)
            assert len(clips) == frames // clip_len


class TestQuantization:
    def test_quoted_mapping_all_sixteen(self):
        want = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 4,
                6: 5, 7: 5, 8: 5, 9: 5, 10: 5, 11: 5,
                12: 5, 13: 5, 14: 5, 15: 5}
        for level, ordinal in want.items():
            assert quantize_pspi(level) == ordinal

    def test_monotone_and_surjective(self):
        values = [quantize_pspi(v) for v in range(16)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert set(values) == {0, 1, 2, 3, 4, 5}

    def test_out_of_range_rejected(self):
        for bad in (-1, 16, 3.5):
            with pytest.raises(ValueError):
                quantize_pspi(bad)


class TestClipLabels:
    def test_constant_frames(self):
        assert clip_label([3, 3, 3, 3]) == 3.0

    def test_mean_of_quantized_halves(self):
        assert clip_label([0] * 8 + [4] * 8) == 2.0

    def test_quantize_then_average_hand_case(self):
        # raw [6,6,1,1] -> quantized [5,5,1,1] -> 3.0
        assert clip_label([6, 6, 1, 1]) == 3.0

    def test_frame_labeled_video_segments_with_labels(self):
        video = make_video(8, frame_labels=[0, 0, 0, 0, 6, 6, 1, 1])
        clips, _ = segment_clips(video, 4)
        assert [c.label for c in clips] == [0.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clip_label([])


class TestAggregationAndBands:
    def test_odd_median(self):
        assert aggregate_video_score([2, 5, 3]) == 3.0

    def test_even_median_is_middle_mean(self):
        assert aggregate_video_score([1, 2, 3, 4]) == 2.5

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.normal(size=int(rng.integers(1, 12)))
            m = aggregate_video_score(scores)
            assert m == aggregate_video_score(list(reversed(scores.tolist())))
            assert scores.min() <= m <= scores.max()

    def test_band_boundaries_as_printed(self):
        for score, band in ((0, "minimal"), (13, "minimal"), (14, "mild"),
                            (19, "mild"), (20, "moderate"), (28, "moderate"),
                            (29, "severe"), (63, "severe")):
            assert bdi_severity_band(score) == band

    def test_band_out_of_range(self):
        for bad in (-1, 64):
            with pytest.raises(ValueError):
                bdi_severity_band(bad)


class TestMetrics:
    def test_identical_vectors_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert metric_mae(v, v) == metric_mse(v, v) == metric_rmse(v, v) == 0

    def test_hand_case(self):
        pred, truth = [0.0, 0.0], [3.0, 4.0]
        assert metric_mae(pred, truth) == 3.5
        assert metric_mse(pred, truth) == 12.5
        assert metric_rmse(pred, truth) == pytest.approx(np.sqrt(12.5))

    def test_rmse_dominates_mae_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            p = rng.normal(size=n)
            t = rng.normal(size=n)
            assert metric_rmse(p, t) >= metric_mae(p, t) - 1e-12

    def test_rmse_squared_equals_mse(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, t = rng.normal(size=7), rng.normal(size=7)
            assert abs(metric_rmse(p, t) ** 2 - metric_mse(p, t)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metric_mae([1.0], [1.0, 2.0])


class TestLoso:
    def make_dataset(self, subjects=("s1", "s2", "s3")):
        videos = [make_video(16, subject=s, video=f"{s}-v", label=1.0)
                  for s in subjects]
        return dataset_from_videos(videos, 16)

    def test_three_subjects_three_folds(self):
        plan = loso_splits(self.make_dataset())
        assert len(plan.folds) == 3
        assert [test for _, test in plan.folds] == [("s1",), ("s2",), ("s3",)]

    def test_folds_partition_subjects(self):
        plan = loso_splits(self.make_dataset(("b", "a", "d", "c")))
        tests = [test for _, test in plan.folds]
        assert tests == [("a",), ("b",), ("c",), ("d",)]
        for train, test in plan.folds:
            assert set(train) & set(test) == set()
            assert sorted(set(train) | set(test)) == ["a", "b", "c", "d"]

    def test_single_subject_rejected(self):
        with pytest.raises(DatasetError):
            loso_splits(self.make_dataset(("only",)))

    def test_clips_of_one_video_never_straddle(self):
        videos = [make_video(32, subject=s, video=f"{s}-v", label=1.0)
                  for s in ("s1", "s2")]
        ds = dataset_from_videos(videos, 16)
        plan = loso_splits(ds)
        for train_subjects, test_subjects in plan.folds:
            for clip in ds.clips:
                in_train = clip.subject_id in train_subjects
                in_test = clip.subject_id in test_subjects
                assert in_train != in_test


class TestSynth:
    def test_same_seed_bitwise_identical(self):
        a = synth_generate(SynthConfig(clip_count=6, clip_len=4, seed=9))
        b = synth_generate(SynthConfig(clip_count=6, clip_len=4, seed=9))
        assert len(a.clips) == len(b.clips)
        for ca, cb in zip(a.clips, b.clips):
            assert ca.data.tobytes() == cb.data.tobytes()
            assert ca.label == cb.label

    def test_zero_label_is_static(self):
        ds = synth_generate(SynthConfig(clip_count=2, clip_len=6,
                                        label_min=0.0, label_max=0.0, seed=1))
        for clip in ds.clips:
            for t in range(1, 6):
                np.testing.assert_array_equal(clip.data[:, t],
                                              clip.data[:, 0])

    def test_displacement_tracks_label_monotonically(self):
        ds = synth_generate(SynthConfig(clip_count=100, clip_len=8, seed=3))
        labels = ds.labels()
        disp = np.array([mean_frame_displacement(c.data) for c in ds.clips])
        order = np.argsort(labels)
        assert np.all(np.diff(disp[order]) > -0.02)  # discretization slack
        assert np.corrcoef(labels, disp)[0, 1] > 0.999

    def test_subject_assignment_round_robin(self):
        ds = synth_generate(SynthConfig(clip_count=8, clip_len=4, subjects=4,
                                        seed=4))
        assert ds.subjects() == ["s001", "s002", "s003", "s004"]

    def test_config_text_roundtrip(self):
        cfg = SynthConfig(clip_count=10, clip_len=8, height=24, width=20,
                          subjects=3, label_max=5.0, step_per_unit=0.7, seed=2)
        assert parse_synth_config(format_synth_config(cfg)) == cfg

    def test_config_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_synth_config("wibble=3\n")

    def test_config_repeated_key_rejected(self):
        with pytest.raises(ValueError,
                           match="line 2: key 'clip_count' given twice"):
            parse_synth_config("clip_count=3\nclip_count=5\n")

    @pytest.mark.parametrize("text, line, key", [
        ("clip_count=3\nclip_len=4.5\n", 2, "clip_len"),
        ("label_max=high\n", 1, "label_max")], ids=["int", "float"])
    def test_config_bad_number_names_line(self, text, line, key):
        with pytest.raises(ValueError,
                           match=f"line {line}: {key} has a bad value"):
            parse_synth_config(text)

    @pytest.mark.parametrize("field, value, message", [
        ("height", 0, "height must be >= 1"),
        ("width", -1, "width must be >= 1"),
        ("label_min", float("nan"), "label_min must be finite"),
        ("label_max", float("inf"), "label_max must be finite"),
    ])
    def test_config_rejects_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**{field: value})

    def test_config_rejects_overflowing_label_range(self):
        with pytest.raises(ValueError, match="label_max - label_min"):
            SynthConfig(label_min=-1e308, label_max=1e308)


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path):
        ds = synth_generate(SynthConfig(clip_count=5, clip_len=4, height=8,
                                        width=8, seed=11))
        manifest = tmp_path / "manifest.tsv"
        save_manifest(ds, manifest, data_dir=tmp_path / "clips")
        back = load_manifest(manifest)
        assert len(back.clips) == 5
        assert back.clip_len == 4
        for a, b in zip(ds.clips, back.clips):
            assert (a.subject_id, a.video_id, a.clip_index) == \
                (b.subject_id, b.video_id, b.clip_index)
            assert abs(a.label - b.label) <= 1e-5 * max(1.0, abs(a.label))
            np.testing.assert_array_equal(a.data, b.data)

    def test_label_six_significant_digits(self, tmp_path):
        ds = ClipDataset(4, [Clip("s1", "v1", 0, 1.2345678901,
                                  data=np.zeros((3, 4, 4, 4),
                                                dtype=np.float32))])
        manifest = tmp_path / "m.tsv"
        save_manifest(ds, manifest)
        line = manifest.read_text().strip()
        assert line.split("\t")[4] == "1.23457"
        back = load_manifest(manifest)
        assert back.clips[0].label == 1.23457

    def test_missing_field_cites_line_number(self, tmp_path):
        write_tensor(tmp_path / "x.dmsn", np.zeros((1, 3, 4, 8, 8), np.float32))
        path = tmp_path / "bad.tsv"
        path.write_text("s1\tv1\t0\tx.dmsn\t1.0\ns2\tv2\t0\n")
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_bad_number_cites_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("s1\tv1\tzero\tx.dmsn\t1.0\n")
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(path)


    def _manifest_of(self, tmp_path, shapes):
        """A manifest whose line ``i`` points at a zero tensor of ``shapes[i]``."""
        lines = []
        for i, shape in enumerate(shapes):
            write_tensor(tmp_path / f"c{i}.dmsn", np.zeros(shape, np.float32))
            lines.append(f"s1\tv1\t{i}\tc{i}.dmsn\t1.0\n")
        path = tmp_path / "m.tsv"
        path.write_text("".join(lines))
        return path

    def test_multi_sample_tensor_rejected(self, tmp_path):
        path = self._manifest_of(tmp_path, [(1, 3, 4, 8, 8), (2, 3, 4, 8, 8)])
        with pytest.raises(ManifestError, match="line 2: .*2 samples"):
            load_manifest(path)

    def test_channel_count_other_than_three_rejected(self, tmp_path):
        path = self._manifest_of(tmp_path, [(1, 1, 4, 8, 8)])
        with pytest.raises(ManifestError, match="line 1: .*1 channels"):
            load_manifest(path)

    def test_frame_size_differing_from_first_clip_rejected(self, tmp_path):
        path = self._manifest_of(tmp_path, [(1, 3, 4, 8, 8), (1, 3, 4, 8, 8),
                                            (1, 3, 4, 8, 6)])
        with pytest.raises(ManifestError, match="line 3: frame size"):
            load_manifest(path)

    def test_non_finite_label_rejected(self, tmp_path):
        path = self._manifest_of(tmp_path, [(1, 3, 4, 8, 8)] * 2)
        path.write_text(path.read_text().replace("1\tc1.dmsn\t1.0",
                                                 "1\tc1.dmsn\tnan"))
        with pytest.raises(ManifestError, match="line 2: .*'nan' of c1.dmsn"):
            load_manifest(path)

    def test_truncated_tensor_names_line_and_file(self, tmp_path):
        path = self._manifest_of(tmp_path, [(1, 3, 4, 8, 8)] * 2)
        (tmp_path / "c1.dmsn").write_bytes(b"DMSN\x01")
        with pytest.raises(ManifestError,
                           match="line 2: tensor file c1.dmsn: truncated"):
            load_manifest(path)

    def test_missing_tensor_names_line_and_file(self, tmp_path):
        path = self._manifest_of(tmp_path, [(1, 3, 4, 8, 8)] * 2)
        (tmp_path / "c1.dmsn").unlink()
        with pytest.raises(ManifestError, match="line 2: tensor file c1.dmsn"):
            load_manifest(path)


class TestVideoRecordValidation:
    def test_frame_label_length_checked(self):
        with pytest.raises(DatasetError):
            make_video(8, frame_labels=[1, 2, 3])

    def test_video_label_required(self):
        data = np.zeros((3, 4, 4, 4), dtype=np.float32)
        with pytest.raises(DatasetError):
            VideoRecord("s", "v", data, "video", video_label=None)
