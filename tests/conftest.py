import os
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

import vemoclap.autograd as ag
from vemoclap.container import MODALITY_NAMES, EmotionLabel, VideoFeatures
from vemoclap.model import ModelConfig, init_params


def finite_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Independent central-difference oracle.

    `f` takes no arguments and recomputes the scalar from `x`, which is
    perturbed in place one element at a time (and restored). Both `x` and
    the result are walked in x's own memory order, through views, so an
    output-major (Fortran-order) weight is perturbed too.
    """
    assert x.dtype == np.float64, "finite differences need float64 storage"
    order = ag.memory_order(x)
    grad = np.zeros_like(x)
    flat = np.reshape(x, -1, order=order, copy=False)
    gflat = np.reshape(grad, -1, order=order, copy=False)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f())
        flat[i] = orig - eps
        lo = float(f())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def tiny_dims(fd: int = 8) -> dict:
    return {name: fd for name in MODALITY_NAMES}


def tiny_config(fd: int = 8, d: int = 8, heads: int = 2, n: int = 4, dropout: float = 0.0) -> ModelConfig:
    return ModelConfig(input_dims=tiny_dims(fd), d=d, heads=heads, dropout_p=dropout, n=n)


def make_video(
    rng: np.random.Generator,
    n_stored: int = 4,
    k: int = 2,
    dims: dict | None = None,
    label: int = 0,
    video_id: str = "vid",
) -> VideoFeatures:
    dims = dims or tiny_dims()
    frames = np.sort(rng.choice(n_stored, size=k, replace=False)) if k else np.zeros(0, np.int64)
    return VideoFeatures(
        video_id=video_id,
        label=EmotionLabel(label),
        clip=rng.uniform(0.0, 1.0, (n_stored, dims["clip"])).astype(np.float32),
        beats=rng.uniform(0.0, 1.0, (n_stored, dims["beats"])).astype(np.float32),
        expression=rng.uniform(0.0, 1.0, (k, dims["expression"])).astype(np.float32),
        expression_frame_index=frames.astype(np.int64),
        ocr_sentiment=rng.uniform(0.0, 1.0, dims["ocr_sentiment"]).astype(np.float32),
        asr_sentiment=rng.uniform(0.0, 1.0, dims["asr_sentiment"]).astype(np.float32),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def tiny_params():
    config = tiny_config()
    return config, init_params(config, seed=11, dtype=np.float64)


USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@dataclass
class PoolUse:
    """The name of the thread each task ran on, and whether the process
    looked as if it may use one CPU."""

    threads: list = field(default_factory=list)
    one_cpu: bool = False

    def as_expected(self) -> bool:
        """Some task ran on a worker thread exactly when there is a pool."""
        on_worker = any(name.startswith("vemoclap-worker") for name in self.threads)
        return bool(self.threads) and on_worker == (not self.one_cpu and USABLE_CPUS > 1)


@pytest.fixture
def pooled(monkeypatch):
    """Every group of two or more independent tasks (`autograd.run_halves`)
    is split between the calling thread and the worker pool, whatever its
    size (POOL_MIN_WORK is 0). The value records where the tasks ran.
    `test_training_in_branches_is_bit_identical_to_inline` keeps an older
    name: each group's two halves are branches of work, one on the calling
    thread and one on the pool."""
    use = PoolUse()
    real = ag._settle

    def recorded(task):
        use.threads.append(threading.current_thread().name)
        return real(task)

    monkeypatch.setattr(ag, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(ag, "_settle", recorded)
    return use


@pytest.fixture(params=["pool", "one_cpu"])
def pool_or_one_cpu(request, pooled, monkeypatch):
    """`pooled`, and then again in a process that looks as if it may use
    one CPU, where there is no worker pool and every task runs on the
    calling thread."""
    if request.param == "one_cpu":
        monkeypatch.setattr(ag, "_POOL", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pooled.one_cpu = True
    return pooled
