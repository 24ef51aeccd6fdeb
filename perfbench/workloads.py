"""The benchmark workloads.

Each workload makes the public calls that one CLI command makes, split
into a set-up (the program calls before the first timed operation) and a
round (one fixed unit of timed work), plus checks on the outputs that
run outside the timed region:

- train_paper: `vemoclap train` -- train() for one epoch over the carved
  paper-sized split, including its validation pass, then save_checkpoint.
- predict_single: `vemoclap predict` as a stream of single-video
  requests, read_container + predict_label, one pass over the test
  containers in a seeded order per round.

The benchmark calls the program through module attributes
(`training.train`, not a name imported from it), so the traced run's
wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

from vemoclap import container, dataset, model, training
from vemoclap.rng import SplitMix64

from inputs import Plan, video_digest

PROB_SUM_TOL = 1e-5  # float32 softmax rows sum to 1 within a few ulps
CROSS_CHECK_TOL = 1e-6  # eval vs predict probabilities, absolute
CROSS_CHECK_VIDEOS = 32
VAL_FRACTION = 0.10  # the `vemoclap train` default


class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _prob_row_ok(p: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(p)) and abs(float(np.sum(p, dtype=np.float64)) - 1.0) <= PROB_SUM_TOL)


class _Workload:
    name = ""
    unit = ""  # what one round's work count counts
    min_rounds = 1

    def __init__(self, spec: dict, plan: Plan, work_dir: str, outcome: Outcome):
        self.spec = spec
        self.plan = plan
        self.seed = int(spec["seed"])
        self.work_dir = work_dir
        self.outcome = outcome
        self.digests: dict[str, str] = spec["digests"]

    # What set-up builds; dropped before the next set-up so repeated
    # set-ups do not stack up in peak memory.
    setup_state: tuple[str, ...] = ()
    # What a round keeps for its checks; dropped before the next round so
    # two rounds' outputs never count together in peak memory.
    round_state: tuple[str, ...] = ()

    def check_setup(self) -> None:
        pass

    def prepare_round(self) -> None:
        for attr in self.round_state:
            self.__dict__.pop(attr, None)

    def busy_seconds(self, wall: float) -> float:
        """Seconds of the last round that count towards videos_per_s."""
        return wall

    def check_round(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def release(self) -> None:
        for attr in self.setup_state:
            self.__dict__.pop(attr, None)

    def _decode_problem(self, vf):
        if self.digests.get(vf.video_id) != video_digest(vf):
            return f"decoded {vf.video_id} differs from the generated video"
        return None


class TrainPaper(_Workload):
    name = "train_paper"
    unit = "training videos"
    min_rounds = 2  # the second same-seed round is the determinism check
    setup_state = ("stats", "val_videos", "train_videos", "config", "params")
    round_state = ("result", "params")

    def setup(self) -> None:
        manifest = dataset.read_manifest(self.spec["manifest"])
        self.stats = dataset.compute_stats(manifest, split="train")
        train_m, val_m = dataset.carve_validation(manifest, fraction=VAL_FRACTION, seed=self.seed)
        self.val_videos = [val_m.load_video(r) for r in val_m.rows]
        self.train_videos = [train_m.load_video(r) for r in train_m.split_rows("train")]
        self.config = self.plan.model_config()
        self.params = model.init_params(self.config, seed=self.seed)

    def check_setup(self) -> None:
        for vf in self.train_videos + self.val_videos:
            problem = self._decode_problem(vf)
            if problem:
                self.outcome.fail(1, f"train set-up: {problem}")
        self.first = None
        self.ckpt = os.path.join(self.work_dir, "model.vmf")
        self.tconf = training.TrainConfig(
            batch_size=self.plan.batch, max_epochs=1, seed=self.seed
        )

    def steps_per_epoch(self) -> int:
        return math.ceil(len(self.train_videos) / self.plan.batch)

    def prepare_round(self) -> None:
        # Every round starts from the same seeded weights; init is set-up work.
        super().prepare_round()
        self.params = model.init_params(self.config, seed=self.seed)

    def round(self) -> int:
        self.result = training.train(
            self.train_videos, self.val_videos, self.params, self.config, self.tconf, self.stats
        )
        model.save_checkpoint(
            self.ckpt, self.result.params, self.config, self.seed, self.stats.digest()
        )
        return len(self.train_videos) * len(self.result.history)

    def round_ops(self) -> int:
        return self.steps_per_epoch() * self.tconf.max_epochs

    def check_round(self) -> None:
        steps = self.steps_per_epoch() * len(self.result.history)
        loss = self.result.history[-1].train_loss
        if not math.isfinite(loss):
            self.outcome.fail(steps, f"train loss is not finite: {loss!r}")
            return
        got = (np.float64(loss).tobytes(), _sha256_file(self.ckpt))
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.outcome.fail(steps, "same-seed rounds differ in final loss or checkpoint digest")


class PredictSingle(_Workload):
    name = "predict_single"
    unit = "requests"
    min_rounds = 1

    setup_state = ("params", "config", "stats")

    def setup(self) -> None:
        """What `_load_checkpoint_with_stats` in the CLI does before
        `vemoclap predict` touches a container."""
        self.params, self.config, header = model.load_checkpoint(self.spec["checkpoint"])
        self.stats = dataset.load_stats(self.spec["stats"])
        if header.get("stats_digest") != self.stats.digest():
            raise ValueError("stats digest does not match the checkpoint")

    def check_setup(self) -> None:
        self.paths = list(self.spec["containers"])
        self.seen: dict[str, np.ndarray] = {}
        self.seen_path: dict[str, str] = {}
        self.latencies_ns: list[int] = []
        self.passes = 0

    def prepare_round(self) -> None:
        self.round_ns = 0
        order = SplitMix64(self.seed).derive("perfbench", "requests", self.passes).permutation(
            len(self.paths)
        )
        self.passes += 1
        self.order = [self.paths[int(i)] for i in order]

    def round(self) -> int:
        """One pass of single-video requests; each is timed on its own and
        checked after its timer stops."""
        for path in self.order:
            t0 = time.perf_counter_ns()
            try:
                vf = container.read_container(path)
                _label, probs = training.predict_label(vf, self.params, self.config, self.stats)
            except Exception as exc:  # one failed request must not end the stream
                self.outcome.fail(1, f"predict {path}: {type(exc).__name__}: {exc}")
                continue
            finally:
                took = time.perf_counter_ns() - t0
                self.latencies_ns.append(took)
                self.round_ns += took
            self._check_request(vf, probs, path)
        return len(self.order)

    def busy_seconds(self, wall: float) -> float:
        # The requests' own time, without the checks run between them.
        return self.round_ns * 1e-9

    def _check_request(self, vf, probs, path) -> None:
        problem = self._decode_problem(vf)
        first = self.seen.setdefault(vf.video_id, probs)
        self.seen_path.setdefault(vf.video_id, path)
        if not _prob_row_ok(probs):
            problem = f"{vf.video_id} probabilities are not a distribution"
        elif not np.array_equal(first, probs):
            problem = f"repeated request for {vf.video_id} gave other probabilities"
        if problem:
            self.outcome.fail(1, f"predict: {problem}")

    def round_ops(self) -> int:
        return len(self.paths)

    def finish(self) -> None:
        """evaluate() over CROSS_CHECK_VIDEOS seeded requested videos, with
        batchmates present, gives their single-request probabilities
        within CROSS_CHECK_TOL: this guards batchmate independence once
        forward is batched."""
        paths = self._subset(sorted(self.seen_path.values()))
        videos = [container.read_container(p) for p in paths]
        res = training.evaluate(videos, self.params, self.config, self.stats)
        for vid, p in zip(res.video_ids, res.probabilities):
            q = self.seen[vid]
            err = float(np.max(np.abs(np.asarray(p, np.float64) - np.asarray(q, np.float64))))
            if not err <= CROSS_CHECK_TOL:
                self.outcome.fail(1, f"predict: {vid} evaluate/predict probabilities differ by {err:.3g}")

    def _subset(self, paths: list[str]) -> list[str]:
        order = SplitMix64(self.seed).derive("perfbench", "cross-check").permutation(len(paths))
        return [paths[int(i)] for i in order[:CROSS_CHECK_VIDEOS]]


WORKLOADS = {w.name: w for w in (TrainPaper, PredictSingle)}
