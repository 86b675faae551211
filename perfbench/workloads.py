"""The three workloads.

Each workload drives the library only through its public functions, from a
single process, one operation at a time (a closed loop with one client):

* ``train-desk``: ``training.train_step`` with Adam and MSE on batches of 8
  seeded synthetic 3x8x32x32 clips, model ``dmsn`` at width 1/8 with 4
  branches.  Small channel widths leave the step bound by overhead (the stem,
  im2col gathers, batchnorm, per-unit Python glue); it is the only workload
  with backward and optimizer work.
* ``eval-full``: eval-mode ``model.model_forward`` on one 1x3x16x112x112 clip
  at full width, parameters in the ``init_params`` default dtype.  Forward
  only and GEMM-bound at 64-1024 channels with large activations.
* ``ckpt-io``: a full-width checkpoint plus a desk manifest of seeded clips,
  saved (``save_checkpoint`` + ``save_manifest``) and loaded back
  (``load_checkpoint`` + ``load_manifest``) in a temporary directory the
  benchmark owns.  The only workload that touches ``tensorfile``, the
  checkpoint container and the manifest format.

A workload's ``setup`` is what ``setup_s`` times; ``prepare`` makes the next
operation's input outside the timed region, ``op`` is the timed operation
and ``check`` says whether its output is correct.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from dmsn import model, pipeline, training

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_FILE = HERE / "eval_reference.json"

DESK_MODEL = dict(model_kind="dmsn", clip_len=8, input_size=(32, 32),
                  branch_count=4, width_multiplier=Fraction(1, 8))
DESK_CLIPS = 64
DESK_BATCH = 8


def desk_dataset(seed: int) -> pipeline.ClipDataset:
    return pipeline.synth_generate(pipeline.SynthConfig(
        clip_count=DESK_CLIPS, clip_len=DESK_MODEL["clip_len"],
        height=DESK_MODEL["input_size"][0], width=DESK_MODEL["input_size"][1],
        subjects=4, seed=seed))


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def eval_pool(reference: dict) -> np.ndarray:
    """The reference clips, drawn from the seed stored with the references."""
    rng = np.random.default_rng(reference["pool_seed"])
    return rng.standard_normal(
        [reference["pool_size"]] + reference["clip_shape"]).astype(np.float32)


def score_tolerance(reference: dict) -> float:
    """Absolute score tolerance: a share of the reference scores' RMS.

    Wide enough for float32 compute and far narrower than the change a wrong
    kernel makes; ``selftest.py`` checks both.
    """
    scores = np.asarray(reference["scores"], dtype=np.float64)
    return reference["relative_tolerance"] * float(np.sqrt(np.mean(scores ** 2)))


class Workload:
    warmup_ops = 2
    min_timed_ops = 1
    clips_per_op = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def prepare(self, i: int):
        return None

    def op(self, arg):
        raise NotImplementedError

    def check(self, i: int, output) -> bool:
        raise NotImplementedError

    def keep(self, output):
        """What the self-test compares between traced and untraced runs."""
        return output

    def mac_probe(self):
        """A clip batch for the MAC-counter check, or None for no forward."""
        return None

    def dtypes(self) -> dict:
        return {"params": str(self.params["conv1.w"].dtype),
                "activations": str(self.mac_probe().dtype)}


class TrainDesk(Workload):
    warmup_ops = 3
    min_timed_ops = 110     # ten steps beyond the p90
    clips_per_op = DESK_BATCH

    def setup(self, seed: int) -> None:
        self.spec = model.build_model(model.ModelConfig(seed=seed, **DESK_MODEL))
        self.params = model.init_params(self.spec)
        data = desk_dataset(seed)
        self.clips = np.stack(data.clip_arrays())
        self.labels = data.labels()
        self.optimizer = training.init_optimizer(
            "adam", training.lr_at(training.SCHEDULES["pain"], 0))
        self.order_rng = np.random.default_rng(seed)
        self.order: list[int] = []

    def prepare(self, i: int):
        if len(self.order) < DESK_BATCH:
            self.order.extend(self.order_rng.permutation(DESK_CLIPS).tolist())
        batch, self.order = self.order[:DESK_BATCH], self.order[DESK_BATCH:]
        return self.clips[batch], self.labels[batch]

    def op(self, batch):
        x, y = batch
        self.params, loss = training.train_step(
            self.spec, self.params, x, y, self.optimizer, "mse")
        return loss

    def check(self, i: int, loss) -> bool:
        return math.isfinite(loss)

    def mac_probe(self):
        return self.clips[:DESK_BATCH]


class EvalFull(Workload):
    warmup_ops = 1      # after the MAC-counter forward, which warms up too

    def setup(self, seed: int) -> None:
        self.reference = load_reference()
        self.tolerance = score_tolerance(self.reference)
        self.spec = model.build_model(model.ModelConfig(
            seed=self.reference["param_seed"]))
        self.params = model.init_params(self.spec)
        self.pool = eval_pool(self.reference)
        self.order_rng = np.random.default_rng(seed)
        self.picks: dict[int, int] = {}

    def prepare(self, i: int):
        self.picks[i] = int(self.order_rng.integers(len(self.pool)))
        return self.pool[self.picks[i]][None]

    def op(self, clip):
        return model.model_forward(self.spec, self.params, clip, mode="eval")

    def check(self, i: int, scores) -> bool:
        ref = self.reference["scores"][self.picks[i]]
        return (scores.shape == (1,)
                and abs(float(scores[0]) - ref) <= self.tolerance)

    def mac_probe(self):
        return self.pool[:1]


class CkptIO(Workload):
    clips_per_op = DESK_CLIPS
    workdir = None

    def setup(self, seed: int) -> None:
        self.spec = model.build_model(model.ModelConfig(seed=seed))
        self.params = model.init_params(self.spec)
        self.data = desk_dataset(seed)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="ckpt-io-", dir=OUT_DIR))
        self.phase_s = {"save": [], "load": []}

    def teardown(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def prepare(self, i: int) -> Path:
        # Every round trip writes fresh files; removing the last round's
        # files here keeps that cost out of the timed operation.
        rounds = self.workdir / "rounds"
        shutil.rmtree(rounds, ignore_errors=True)
        rounds.mkdir()
        return rounds

    def op(self, rounds: Path):
        t0 = time.perf_counter()
        model.save_checkpoint(self.spec, self.params, rounds / "model.ckpt")
        pipeline.save_manifest(self.data, rounds / "manifest.tsv")
        t1 = time.perf_counter()
        loaded = model.load_checkpoint(rounds / "model.ckpt")
        manifest = pipeline.load_manifest(rounds / "manifest.tsv")
        t2 = time.perf_counter()
        self.phase_s["save"].append(t1 - t0)
        self.phase_s["load"].append(t2 - t1)
        return loaded, manifest

    def check(self, i: int, output) -> bool:
        (spec, params), manifest = output
        if spec.config != self.spec.config or params.keys() != self.params.keys():
            return False
        if not all(_same_bits(params[k], v) for k, v in self.params.items()):
            return False
        if len(manifest.clips) != len(self.data.clips):
            return False
        for got, want in zip(manifest.clips, self.data.clips):
            # the manifest stores labels at 6 significant digits by design
            if ((got.subject_id, got.video_id, got.clip_index)
                    != (want.subject_id, want.video_id, want.clip_index)
                    or got.label != float(f"{want.label:.6g}")
                    or not _same_bits(got.data, want.data)):
                return False
        return True

    def keep(self, output):
        return None     # the check above is already bit-exact

    def dtypes(self) -> dict:
        return {"params": str(self.params["conv1.w"].dtype),
                "activations": str(self.data.clips[0].data.dtype)}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                               np.ascontiguousarray(b).view(np.uint8)))


WORKLOADS = {"train-desk": TrainDesk, "eval-full": EvalFull, "ckpt-io": CkptIO}
