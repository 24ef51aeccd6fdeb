import numpy as np
import pytest

import vemoclap.autograd as ag
import vemoclap.model as model
from vemoclap.container import MODALITY_NAMES, EmotionLabel, VideoFeatures
from vemoclap.model import ModelConfig, init_params


def finite_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Independent central-difference oracle.

    `f` takes no arguments and recomputes the scalar from `x`, which is
    perturbed in place one element at a time (and restored).
    """
    assert x.dtype == np.float64, "finite differences need float64 storage"
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
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


@pytest.fixture
def fanned_out(monkeypatch):
    """Training forwards run their pairings through `autograd.branches`
    whatever their size (the size floor is 0). The value lists the branch
    count of every `branches` call made while the fixture is active."""
    calls = []
    real = ag.branches

    def counted(fns):
        calls.append(len(fns))
        return real(fns)

    monkeypatch.setattr(model, "BRANCH_MIN_ELEMENTS", 0)
    monkeypatch.setattr(ag, "branches", counted)
    return calls
