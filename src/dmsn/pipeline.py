"""Dataset handling and evaluation protocol.

Covers clip segmentation, ordinal pain-level quantization, clip labeling,
median video aggregation, subject-exclusive cross-validation folds, the error
metrics, a seeded synthetic-video generator, and the tab-separated clip
manifest format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensorfile

PSPI_TO_ORDINAL = (0, 1, 2, 3, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5)

BDI_BANDS = (("minimal", 0, 13), ("mild", 14, 19),
             ("moderate", 20, 28), ("severe", 29, 63))


class ManifestError(ValueError):
    """Malformed manifest line; message cites the line number."""


class DatasetError(ValueError):
    """Dataset contents violate a protocol precondition."""


def quantize_pspi(level: int) -> int:
    """Map a 0-15 pain level onto the 6-step ordinal scale."""
    if not 0 <= int(level) <= 15 or int(level) != level:
        raise ValueError(f"pain level must be an integer in 0..15, got {level!r}")
    return PSPI_TO_ORDINAL[int(level)]


def clip_label(frame_labels) -> float:
    """Scalar label for a clip from its per-frame pain levels: each frame is
    quantized to the ordinal scale first, and the results are averaged."""
    if len(frame_labels) == 0:
        raise ValueError("clip_label needs at least one frame label")
    return float(np.mean([quantize_pspi(v) for v in frame_labels]))


def bdi_severity_band(score) -> str:
    """Depression severity band for a 0-63 inventory score."""
    if not 0 <= score <= 63:
        raise ValueError(f"score must be in 0..63, got {score!r}")
    for name, _, hi in BDI_BANDS:
        if score <= hi:
            return name
    raise AssertionError("unreachable")


def aggregate_video_score(clip_scores) -> float:
    """Median of the clip scores; even counts take the middle-pair mean."""
    if len(clip_scores) == 0:
        raise ValueError("aggregate_video_score needs at least one score")
    return float(np.median(np.asarray(clip_scores, dtype=np.float64)))


def metric_mae(pred, truth) -> float:
    p, t = _paired(pred, truth)
    return float(np.mean(np.abs(p - t)))


def metric_mse(pred, truth) -> float:
    p, t = _paired(pred, truth)
    return float(np.mean((p - t) ** 2))


def metric_rmse(pred, truth) -> float:
    return float(np.sqrt(metric_mse(pred, truth)))


def _paired(pred, truth):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"metric inputs must be equal nonempty lengths, "
                         f"got {p.shape} vs {t.shape}")
    return p, t


@dataclass
class VideoRecord:
    """One source video: frames plus either a video-scalar or per-frame labels."""

    subject_id: str
    video_id: str
    frames: np.ndarray                  # (3, frame_count, h, w)
    label_kind: str = "video"           # "video" | "frame"
    video_label: float | None = None
    frame_labels: list[int] | None = None

    def __post_init__(self):
        if self.label_kind == "frame":
            if self.frame_labels is None or \
                    len(self.frame_labels) != self.frames.shape[1]:
                raise DatasetError(
                    f"video {self.video_id}: per-frame labels must match the "
                    f"{self.frames.shape[1]} frames")
        elif self.label_kind == "video":
            if self.video_label is None:
                raise DatasetError(f"video {self.video_id}: missing scalar label")
        else:
            raise DatasetError(f"label_kind must be 'video' or 'frame', "
                               f"got {self.label_kind!r}")


@dataclass
class Clip:
    subject_id: str
    video_id: str
    clip_index: int
    label: float
    data: np.ndarray | None = None      # (3, clip_len, h, w)
    tensor_file: str | None = None


@dataclass
class ClipDataset:
    clip_len: int
    clips: list[Clip] = field(default_factory=list)

    def subjects(self) -> list[str]:
        return sorted({c.subject_id for c in self.clips})

    def labels(self) -> np.ndarray:
        return np.array([c.label for c in self.clips], dtype=np.float64)

    def clip_arrays(self) -> list[np.ndarray]:
        missing = [c for c in self.clips if c.data is None]
        if missing:
            raise DatasetError(f"clip {missing[0].video_id}:"
                               f"{missing[0].clip_index} has no loaded tensor")
        return [c.data for c in self.clips]

    def subset(self, subjects) -> "ClipDataset":
        keep = set(subjects)
        return ClipDataset(self.clip_len,
                           [c for c in self.clips if c.subject_id in keep])


def segment_clips(video: VideoRecord, clip_len: int) -> list[Clip]:
    """Non-overlapping ``clip_len`` windows from frame 0; the remainder drops,
    so a video shorter than one clip gives none."""
    if clip_len < 1:
        raise ValueError(f"clip_len must be >= 1, got {clip_len}")
    frame_count = video.frames.shape[1]
    count = frame_count // clip_len
    clips = []
    for k in range(count):
        lo, hi = k * clip_len, (k + 1) * clip_len
        if video.label_kind == "frame":
            label = clip_label(video.frame_labels[lo:hi])
        else:
            label = float(video.video_label)
        clips.append(Clip(video.subject_id, video.video_id, k, label,
                          data=video.frames[:, lo:hi]))
    return clips


def dataset_from_videos(videos, clip_len: int) -> ClipDataset:
    ds = ClipDataset(clip_len)
    for video in videos:
        ds.clips.extend(segment_clips(video, clip_len))
    return ds


@dataclass(frozen=True)
class FoldPlan:
    """Ordered leave-one-subject-out folds: (train subjects, test subjects)."""

    folds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


def loso_splits(dataset: ClipDataset) -> FoldPlan:
    """One fold per subject, lexicographic; that subject's clips are the test set."""
    subjects = dataset.subjects()
    if len(subjects) < 2:
        raise DatasetError(f"leave-one-subject-out needs >= 2 subjects, "
                           f"got {len(subjects)}")
    folds = tuple(
        (tuple(s for s in subjects if s != test), (test,))
        for test in subjects)
    return FoldPlan(folds)


# -- synthetic clip generator -------------------------------------------------

BUMP_SIGMA = 2.5  # the bump's Gaussian width in pixels


@dataclass(frozen=True)
class SynthConfig:
    """Moving-bump surrogate videos whose motion speed encodes the label.

    Each video is one clip of a Gaussian bump traveling on a circle; the
    per-frame displacement is ``step_per_unit * label`` pixels, so a zero
    label means a static bump and motion statistics grow affinely with the
    label.
    """

    clip_count: int = 64
    clip_len: int = 16
    height: int = 32
    width: int = 32
    subjects: int = 4
    label_min: float = 0.0
    label_max: float = 4.0
    step_per_unit: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("clip_count", "clip_len", "height", "width", "subjects"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        for name in ("label_min", "label_max", "step_per_unit"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.label_min < 0:
            raise ValueError(f"label_min must be >= 0 (the motion encodes "
                             f"a label's magnitude only), got {self.label_min}")
        if self.label_max < self.label_min:
            raise ValueError("label_max must be >= label_min")
        diameter = 2.0 * _synth_radius(self)
        if abs(self.step_per_unit) * self.label_max > diameter:
            raise ValueError(f"step_per_unit * label_max must be at most the "
                             f"circle's diameter {diameter:g} px, got "
                             f"{self.step_per_unit} * {self.label_max}")


def _synth_radius(cfg: SynthConfig) -> float:
    """Radius in pixels of the circle a synthetic bump travels on."""
    return max(4.0, min(cfg.height, cfg.width) / 5.0)


def _synth_video(cfg: SynthConfig, rng: np.random.Generator, subject: str,
                 video: str) -> VideoRecord:
    label = float(rng.uniform(cfg.label_min, cfg.label_max))
    radius = _synth_radius(cfg)
    step = cfg.step_per_unit * label
    # chord of `step` pixels per frame along a circle of this radius
    dtheta = 2.0 * np.arcsin(step / (2.0 * radius))
    theta0 = rng.uniform(0, 2 * np.pi)
    cy = cfg.height / 2.0 + rng.uniform(-1.0, 1.0)
    cx = cfg.width / 2.0 + rng.uniform(-1.0, 1.0)
    amplitude = rng.uniform(0.5, 1.0, size=3)
    # every frame's bump at once, (t, h, w) in float64; each channel's
    # float64 product is rounded straight into the float32 clip
    theta = (theta0 + np.arange(cfg.clip_len) * dtheta)[:, None, None]
    ys = np.arange(cfg.height, dtype=np.float64)[:, None]
    xs = np.arange(cfg.width, dtype=np.float64)[None, :]
    bump = (ys - (cy + radius * np.sin(theta))) ** 2
    bump = bump + (xs - (cx + radius * np.cos(theta))) ** 2
    np.negative(bump, out=bump)
    bump /= 2.0 * BUMP_SIGMA ** 2
    np.exp(bump, out=bump)
    data = np.empty((3, cfg.clip_len, cfg.height, cfg.width),
                    dtype=np.float32)
    for ch in range(3):
        np.multiply(amplitude[ch], bump, out=data[ch], casting="same_kind")
    return VideoRecord(subject, video, data, "video", video_label=label)


def synth_generate(cfg: SynthConfig) -> ClipDataset:
    """Deterministic synthetic dataset; same seed gives bitwise-identical clips."""
    rng = np.random.default_rng(cfg.seed)
    videos = [_synth_video(cfg, rng, f"s{v % cfg.subjects + 1:03d}",
                           f"v{v + 1:04d}") for v in range(cfg.clip_count)]
    return dataset_from_videos(videos, cfg.clip_len)


def mean_frame_displacement(clip: np.ndarray) -> float:
    """Mean per-frame centroid travel of one clip; the motion statistic the
    generator encodes the label into."""
    intensity = clip.astype(np.float64).sum(axis=0)       # (t, h, w)
    t, h, w = intensity.shape
    mass = intensity.sum(axis=(1, 2))
    ys = np.arange(h)[None, :, None]
    xs = np.arange(w)[None, None, :]
    cy = (intensity * ys).sum(axis=(1, 2)) / mass
    cx = (intensity * xs).sum(axis=(1, 2)) / mass
    if t < 2:
        return 0.0
    return float(np.mean(np.hypot(np.diff(cy), np.diff(cx))))


def format_synth_config(cfg: SynthConfig) -> str:
    """key=value text form of a generator configuration."""
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


# -- manifest ------------------------------------------------------------------

_MANIFEST_FIELDS = 5


def utf8_lines(path):
    """Yield ``(lineno, line)`` for the lines of the text file at ``path``,
    numbered from 1, each with its newline; ``line`` is None for a line
    holding bytes that are not UTF-8, so the caller can name it.  Decoding
    with surrogateescape reads past such bytes (as lone surrogates, which do
    not encode) to the lines after them."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                line = None
            yield lineno, line


def save_manifest(dataset: ClipDataset, manifest_path, data_dir=None) -> None:
    """Write the manifest and any in-memory clip tensors next to it.

    One tab-separated line per clip: subject, video, clip index, tensor file
    (relative to the manifest), label at 6 significant digits.
    """
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(manifest_path) or "."
    data_dir = os.fspath(data_dir) if data_dir is not None else base
    os.makedirs(data_dir, exist_ok=True)
    lines = []
    for clip in dataset.clips:
        tensor_file = clip.tensor_file
        if tensor_file is None:
            tensor_file = os.path.join(
                os.path.relpath(data_dir, base),
                f"{clip.video_id}_{clip.clip_index:03d}.dmsn")
            tensor_file = os.path.normpath(tensor_file)
        out_path = os.path.normpath(os.path.join(base, tensor_file))
        if clip.data is not None:
            tensorfile.write_tensor(out_path, clip.data[None])
        lines.append("\t".join([clip.subject_id, clip.video_id,
                                str(clip.clip_index), tensor_file,
                                f"{clip.label:.6g}"]))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def load_manifest(path) -> ClipDataset:
    """Parse a manifest; malformed lines fail with their line number."""
    path = os.fspath(path)
    base = os.path.dirname(path) or "."
    clips = []
    clip_len = frame = None
    for lineno, line in utf8_lines(path):
        if line is None:
            raise ManifestError(f"line {lineno}: not UTF-8 text")
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != _MANIFEST_FIELDS:
            raise ManifestError(f"line {lineno}: expected "
                                f"{_MANIFEST_FIELDS} tab-separated fields, "
                                f"got {len(parts)}")
        subject, video, index_text, tensor_file, label_text = parts
        try:
            index = int(index_text)
            label = float(label_text)
        except ValueError:
            raise ManifestError(f"line {lineno}: bad numeric field") from None
        if not np.isfinite(label):
            raise ManifestError(f"line {lineno}: label {label_text!r} of "
                                f"{tensor_file} is not finite")
        tensor_path = os.path.join(base, tensor_file)
        try:
            tensor = tensorfile.read_tensor(tensor_path)
        except (OSError, tensorfile.TensorFileError) as exc:
            raise ManifestError(f"line {lineno}: tensor file "
                                f"{tensor_file}: {exc}") from exc
        n, c, t, h, w = tensor.shape
        if n != 1:
            raise ManifestError(f"line {lineno}: clip tensor holds {n} "
                                f"samples, expected 1")
        if c != 3:
            raise ManifestError(f"line {lineno}: clip tensor has {c} "
                                f"channels, expected 3")
        if clip_len is None:
            clip_len, frame = t, (h, w)
        elif t != clip_len:
            raise ManifestError(f"line {lineno}: clip length "
                                f"{t} != {clip_len}")
        elif (h, w) != frame:
            raise ManifestError(f"line {lineno}: frame size {(h, w)} "
                                f"!= {frame}")
        clips.append(Clip(subject, video, index, label, data=tensor[0],
                          tensor_file=tensor_file))
    return ClipDataset(clip_len or 0, clips)
