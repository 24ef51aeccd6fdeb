import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vemoclap.autograd as ag
import vemoclap.model as model
import vemoclap.training as training
from vemoclap.autograd import Graph, Tensor
from vemoclap.container import read_container, write_container
from vemoclap.dataset import compute_stats, normalize_features
from vemoclap.model import forward, init_params
from vemoclap.synth import synth_dataset
from vemoclap.training import (
    ADAM_CHUNK,
    AdamState,
    EvalResult,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    cross_entropy,
    evaluate,
    history_csv,
    predict_label,
    train,
)

from conftest import USABLE_CPUS, gathered, make_video, tiny_config, tiny_dims



class OneTensorParams:
    """Minimal stand-in exposing the named_tensors() surface adam_step needs."""

    def __init__(self, tensor):
        self.tensor = tensor

    def named_tensors(self):
        return [("theta", self.tensor)]


def make_separable_videos(seed, per_class, n_stored=4, margin=12.0, dims=None, prefix="v"):
    """Class mean rides on the clip features; everything else is noise."""
    dims = dims or tiny_dims()
    rng = np.random.default_rng(seed)
    videos = []
    for label in range(6):
        mean = np.zeros(dims["clip"])
        mean[label % dims["clip"]] = margin / math.sqrt(2.0)
        for j in range(per_class):
            vf = make_video(
                rng,
                n_stored=n_stored,
                k=int(rng.integers(0, n_stored + 1)),
                dims=dims,
                label=label,
                video_id=f"{prefix}_{label}_{j}",
            )
            vf.clip = (mean[None, :] + rng.standard_normal(vf.clip.shape)).astype(np.float32)
            videos.append(vf)
    return videos


# ---------------------------------------------------------------------------
# cross_entropy


def test_cross_entropy_perfect_prediction_is_zero():
    probs = Tensor(np.eye(6, dtype=np.float32)[[2, 5]])
    loss = cross_entropy(probs, [2, 5])
    assert float(loss.data) == 0.0


def test_cross_entropy_uniform_is_ln6():
    probs = Tensor(np.full((4, 6), 1.0 / 6.0, dtype=np.float64))
    loss = cross_entropy(probs, [0, 1, 2, 3])
    assert abs(float(loss.data) - math.log(6.0)) < 1e-6


def test_cross_entropy_matches_scalar_loop_oracle(rng):
    raw = rng.uniform(0.05, 1.0, (8, 6))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = [int(v) for v in rng.integers(0, 6, 8)]
    loss = cross_entropy(Tensor(probs, dtype=np.float64), labels)
    oracle = sum(-math.log(max(float(probs[i, lab]), 1e-12)) for i, lab in enumerate(labels))
    oracle /= len(labels)
    assert abs(float(loss.data) - oracle) < 1e-6


def test_cross_entropy_clamps_zero_probability():
    probs = np.zeros((1, 6), dtype=np.float64)
    probs[0, 0] = 1.0
    loss = cross_entropy(Tensor(probs), [3])
    assert abs(float(loss.data) - (-math.log(1e-12))) < 1e-6


def test_cross_entropy_rejects_bad_labels():
    probs = Tensor(np.full((2, 6), 1.0 / 6.0, dtype=np.float32))
    with pytest.raises(ValueError):
        cross_entropy(probs, [0, 6])
    with pytest.raises(ValueError):
        cross_entropy(probs, [0])


def test_cross_entropy_gradient_direction():
    probs_val = np.full((1, 6), 1.0 / 6.0, dtype=np.float64)
    probs = Tensor(probs_val, requires_grad=True)
    with Graph() as g:
        loss = cross_entropy(probs, [2])
    grads = g.backward(loss)
    # Only the true-label probability receives gradient; pushing it up
    # lowers the loss.
    assert grads[probs][0, 2] < 0.0
    others = np.delete(grads[probs][0], 2)
    assert np.all(others == 0.0)


# ---------------------------------------------------------------------------
# adam_step


def test_first_adam_step_moves_by_minus_lr():
    theta = Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)
    params = OneTensorParams(theta)
    state = AdamState.for_params(params)
    config = TrainConfig(lr=1e-5)
    adam_step(params, {"theta": np.ones(5, dtype=np.float32)}, state, config)
    assert np.all(np.abs(theta.data.astype(np.float64) + config.lr) < 1e-9)


@pytest.mark.parametrize("lr", [0.0, -1e-5, math.nan, math.inf, -math.inf])
def test_train_config_rejects_an_lr_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="finite and positive"):
        TrainConfig(lr=lr)


def test_adam_zero_gradient_is_identity():
    start = np.array([0.3, -0.7, 2.0], dtype=np.float32)
    theta = Tensor(start.copy(), requires_grad=True)
    params = OneTensorParams(theta)
    state = AdamState.for_params(params)
    adam_step(params, {"theta": np.zeros(3, dtype=np.float32)}, state, TrainConfig())
    assert np.array_equal(theta.data, start)
    assert state.step == 1


def test_adam_three_step_trajectory_matches_reference():
    # Quadratic f(x) = 0.5 * x^T A x with exact gradient A x.
    a_matrix = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=np.float64)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    theta = Tensor(np.array([1.0, -2.0], dtype=np.float64), requires_grad=True)
    params = OneTensorParams(theta)
    state = AdamState.for_params(params)
    config = TrainConfig(lr=lr)

    # Hand-rolled reference on plain Python floats.
    ref = [1.0, -2.0]
    m = [0.0, 0.0]
    v = [0.0, 0.0]
    for t in range(1, 4):
        grad = a_matrix @ theta.data
        adam_step(params, {"theta": grad}, state, config)

        ref_grad = [
            a_matrix[0, 0] * ref[0] + a_matrix[0, 1] * ref[1],
            a_matrix[1, 0] * ref[0] + a_matrix[1, 1] * ref[1],
        ]
        for i in range(2):
            m[i] = b1 * m[i] + (1 - b1) * ref_grad[i]
            v[i] = b2 * v[i] + (1 - b2) * ref_grad[i] ** 2
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            ref[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
        assert np.allclose(theta.data, ref, atol=1e-10)


class NamedParams:
    def __init__(self, tensors):
        self.tensors = tensors

    def named_tensors(self):
        return list(self.tensors.items())


def test_chunked_adam_matches_plain_reference_bit_for_bit():
    # One tensor smaller than a chunk, one whose size is not a multiple of
    # it, and an output-major (Fortran-order) matrix over one chunk in size
    # fed row-major gradients.
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    shapes = {"small": (7, 11), "ragged": (2 * ADAM_CHUNK + 4099,), "output_major": (300, 229)}
    rng = np.random.default_rng(21)
    start = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()}
    start["output_major"] = np.asfortranarray(start["output_major"])
    grads = [
        {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()}
        for _ in range(3)
    ]
    params = NamedParams({name: Tensor(start[name], requires_grad=True) for name in shapes})
    assert params.tensors["output_major"].data.flags.f_contiguous
    assert all(step_grads["output_major"].flags.c_contiguous for step_grads in grads)
    state = AdamState.for_params(params)
    config = TrainConfig(lr=lr)

    # Plain whole-array Adam in float32, one numpy expression per line.
    f32 = np.float32
    ref = {name: start[name].copy() for name in shapes}
    m = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    v = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    for t, step_grads in enumerate(grads, start=1):
        adam_step(params, step_grads, state, config)
        for name, g in step_grads.items():
            m[name] = m[name] * f32(b1) + f32(1.0 - b1) * g
            v[name] = v[name] * f32(b2) + f32(1.0 - b2) * (g * g)
            m_hat = m[name] / f32(1.0 - b1**t)
            v_hat = v[name] / f32(1.0 - b2**t)
            ref[name] = ref[name] - f32(lr) * m_hat / (np.sqrt(v_hat) + f32(eps))
        for name, tensor in params.named_tensors():
            assert tensor.data.tobytes() == ref[name].tobytes(), (name, t)
            assert state.m[name].tobytes() == m[name].tobytes(), (name, t)
            assert state.v[name].tobytes() == v[name].tobytes(), (name, t)
        for held in (params.tensors["output_major"].data, state.m["output_major"], state.v["output_major"]):
            assert held.flags.f_contiguous


def test_adam_aborts_on_non_finite_gradient():
    theta = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    params = OneTensorParams(theta)
    state = AdamState.for_params(params)
    with pytest.raises(TrainingDivergedError):
        adam_step(params, {"theta": np.array([1.0, np.nan], dtype=np.float32)}, state, TrainConfig())


def test_chunked_adam_on_the_pool_matches_plain_reference_bit_for_bit(pooled):
    test_chunked_adam_matches_plain_reference_bit_for_bit()
    assert pooled.as_expected()


def test_adam_on_the_pool_raises_a_divergence_once_both_halves_finished(pooled):
    tensors = {name: Tensor(np.zeros(4, dtype=np.float32), requires_grad=True) for name in "abcd"}
    params = NamedParams(tensors)
    state = AdamState.for_params(params)
    grads = {name: np.ones(4, dtype=np.float32) for name in tensors}
    grads["b"] = np.array([1.0, np.inf, 1.0, 1.0], dtype=np.float32)
    with pytest.raises(TrainingDivergedError, match="'b' at step 1"):
        adam_step(params, grads, state, TrainConfig(lr=0.5))
    assert state.step == 1
    assert pooled.as_expected()
    # Every other tensor took its step.
    for name in "acd":
        assert np.array_equal(tensors[name].data, np.full(4, -0.5, dtype=np.float32)), name
    assert not tensors["b"].data.any()


# ---------------------------------------------------------------------------
# optimization sanity


def test_loss_strictly_decreases_on_fixed_batch():
    config = tiny_config(n=4, dropout=0.0)
    params = init_params(config, seed=1)
    videos = make_separable_videos(seed=2, per_class=2, n_stored=config.n)
    stats = compute_stats(None, videos=videos)
    rows, faces = gathered(videos)
    rows = normalize_features(rows, stats)
    labels = [int(vf.label) for vf in videos]
    state = AdamState.for_params(params)
    tconf = TrainConfig(lr=1e-3)

    losses = []
    for _ in range(10):
        with Graph() as g:
            probs = forward(rows, faces, params, config)
            loss = cross_entropy(probs, labels)
        leaf_grads = g.backward(loss)
        grads = {name: leaf_grads[t] for name, t in params.named_tensors() if t in leaf_grads}
        adam_step(params, grads, state, tconf)
        losses.append(float(loss.data))
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


# ---------------------------------------------------------------------------
# the full loop


def small_training_setup(seed=0, per_class_train=2, per_class_val=1):
    config = tiny_config(n=4, dropout=0.0)
    train_videos = make_separable_videos(seed=10, per_class=per_class_train, prefix="tr")
    val_videos = make_separable_videos(seed=11, per_class=per_class_val, prefix="va")
    stats = compute_stats(None, videos=train_videos)
    params = init_params(config, seed=seed)
    return config, params, train_videos, val_videos, stats


def test_patience_one_with_flat_validation_runs_two_epochs():
    config, params, train_videos, val_videos, stats = small_training_setup()
    tconf = TrainConfig(lr=1e-12, patience=1, max_epochs=50, seed=3)  # lr so small nothing changes
    result = train(train_videos, val_videos, params, config, tconf, stats)
    assert len(result.history) == 2
    assert result.best_epoch == 1


def test_training_is_bitwise_deterministic(tmp_path):
    histories = []
    checkpoints = []
    for run in range(2):
        config, params, train_videos, val_videos, stats = small_training_setup(seed=4)
        tconf = TrainConfig(lr=1e-3, patience=3, max_epochs=4, batch_size=5, seed=99)
        result = train(train_videos, val_videos, params, config, tconf, stats)
        histories.append(history_csv(result.history))
        from vemoclap.model import save_checkpoint

        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, result.params, config, seed=99, stats_digest=stats.digest())
        checkpoints.append(path.read_bytes())
    assert histories[0] == histories[1]
    assert checkpoints[0] == checkpoints[1]


def dropout_training_bytes(path) -> tuple[str, bytes]:
    """History CSV and checkpoint bytes of a short run with dropout on."""
    config = tiny_config(n=4, dropout=0.5)
    train_videos = make_separable_videos(seed=10, per_class=2, prefix="tr")
    val_videos = make_separable_videos(seed=11, per_class=1, prefix="va")
    stats = compute_stats(None, videos=train_videos)
    params = init_params(config, seed=6)
    tconf = TrainConfig(lr=1e-3, patience=3, max_epochs=2, batch_size=5, seed=21)
    result = train(train_videos, val_videos, params, config, tconf, stats)
    model.save_checkpoint(path, result.params, config, seed=21, stats_digest=stats.digest())
    with open(path, "rb") as fh:
        return history_csv(result.history), fh.read()


@pytest.mark.parametrize("pool_first", [False, True], ids=["inline_first", "pool_first"])
def test_training_on_the_pool_is_bit_identical_to_inline(tmp_path, pooled, monkeypatch, pool_first):
    runs = {}
    for on_pool in (pool_first, not pool_first):
        monkeypatch.setattr(ag, "POOL_MIN_WORK", 0 if on_pool else 2**62)
        pooled.threads.clear()
        runs[on_pool] = dropout_training_bytes(tmp_path / f"pool{on_pool}.ckpt")
        assert pooled.as_expected() if on_pool else set(pooled.threads) == {"MainThread"}
    assert runs[True] == runs[False]


def test_predictions_on_the_pool_are_bit_identical_to_inline(pooled, monkeypatch):
    # Batch-32 products have SMALL_PRODUCT_ROWS rows or more and fill
    # buffers allocated on the calling thread; batch-1 products are swapped.
    n = 8
    assert 32 * n >= ag.SMALL_PRODUCT_ROWS > n
    config = tiny_config(fd=16, d=16, heads=4, n=n, dropout=0.5)
    videos = make_separable_videos(seed=12, per_class=6, n_stored=n + 3, dims=tiny_dims(16))
    stats = compute_stats(None, videos=videos)
    params = init_params(config, seed=8)
    runs = {}
    for floor in (0, 2**62):
        monkeypatch.setattr(ag, "POOL_MIN_WORK", floor)
        single = np.stack([predict_label(vf, params, config, stats)[1] for vf in videos])
        batched = evaluate(videos, params, config, stats).probabilities
        runs[floor] = (single.tobytes(), batched.tobytes())
    assert runs[0] == runs[2**62]
    assert pooled.as_expected()


def _train_and_send(path, conn) -> None:
    conn.send(dropout_training_bytes(path))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_training_in_a_forked_child_after_the_pool_ran(tmp_path, pooled):
    expected = dropout_training_bytes(tmp_path / "parent.ckpt")
    assert pooled.as_expected()
    assert (ag._POOL is not None) == (USABLE_CPUS > 1)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_and_send, args=(tmp_path / "child.ckpt", send))
    child.start()
    send.close()
    try:
        # A child that kept the parent's pool would wait forever on a
        # worker thread that does not exist in it.
        assert receive.poll(60), "the forked child did not finish training"
        assert receive.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


# Width of every feature and of d, frames per video and batch size in the
# BLAS thread-count test. Its projections are [256, 128] @ [128, 128]
# products, far past OpenBLAS's 2^18 m*n*k single-thread cutoff; on a
# 2-vCPU x86 box with OpenBLAS 0.3.31 one took 122-139 us at 1 thread and
# 56-76 us at 2.
THREADS_WIDTH, THREADS_N, THREADS_BATCH = 128, 16, 16

# Trains and evaluates from the manifest in argv[1], writes the checkpoint
# and the probabilities to argv[2] and prints the BLAS's own thread count
# (None when numpy's BLAS is not an OpenBLAS it can query) and the median
# time of one projection-sized product as JSON.
THREADS_CHILD = f"""
import ctypes, glob, json, os, sys, time
import numpy as np
from vemoclap.dataset import compute_stats, read_manifest
from vemoclap.model import ModelConfig, init_params, save_checkpoint
from vemoclap.training import TrainConfig, evaluate, train

def blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None

a = np.ones(({THREADS_BATCH * THREADS_N}, {THREADS_WIDTH}), np.float32)
b = np.ones(({THREADS_WIDTH}, {THREADS_WIDTH}), np.float32, order="F")
times = []
for _ in range(200):
    start = time.perf_counter()
    a @ b
    times.append(time.perf_counter() - start)

manifest = read_manifest(os.path.join(sys.argv[1], "manifest.csv"))
train_videos, test_videos = manifest.load_split("train"), manifest.load_split("test")
stats = compute_stats(manifest)
config = ModelConfig(stats.channel_dims(), d={THREADS_WIDTH}, heads=2, dropout_p=0.5, n={THREADS_N})
tconf = TrainConfig(batch_size={THREADS_BATCH}, lr=1e-3, max_epochs=3, patience=3, seed=5)
result = train(train_videos, test_videos, init_params(config, seed=3), config, tconf, stats)
save_checkpoint(os.path.join(sys.argv[2], "model.ckpt"), result.params, config, 5, stats.digest())
probs = evaluate(test_videos, result.params, config, stats).probabilities
np.save(os.path.join(sys.argv[2], "probs.npy"), probs)
print(json.dumps({{"blas_threads": blas_threads(), "product_us": float(np.median(times)) * 1e6}}))
"""


@pytest.mark.skipif(USABLE_CPUS < 2, reason="OpenBLAS runs at most one thread per CPU")
def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    data = tmp_path / "data"
    synth_dataset(
        data, videos_per_class=8, test_videos_per_class=2, seed=12, margin=6.0,
        n_stored=THREADS_N + 4, dims={name: THREADS_WIDTH for name in tiny_dims()},
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", THREADS_CHILD, str(data), str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["blas_threads"] in (None, threads), report
        runs[threads] = (report, (out / "model.ckpt").read_bytes(), np.load(out / "probs.npy"))
    timings = {threads: run[0]["product_us"] for threads, run in runs.items()}
    assert runs[1][1] == runs[2][1], f"checkpoints differ; product us by thread count: {timings}"
    assert np.array_equal(runs[1][2], runs[2][2]), f"probabilities differ; product us: {timings}"


def test_weight_matrices_stay_output_major_through_init_load_and_training(tmp_path):
    def layouts(params):
        matrices = [(name, t.data) for name, t in params.named_tensors() if t.data.ndim == 2]
        assert len(matrices) == 13
        return {name: (arr.flags.f_contiguous, arr.flags.c_contiguous) for name, arr in matrices}

    output_major = {name: (True, False) for name in layouts(init_params(tiny_config(), seed=1))}
    config, params, train_videos, val_videos, stats = small_training_setup(seed=4)
    assert layouts(params) == output_major
    path = tmp_path / "init.ckpt"
    model.save_checkpoint(path, params, config, seed=4, stats_digest=stats.digest())
    assert layouts(model.load_checkpoint(path)[0]) == output_major
    # train() ends by handing its best-epoch snapshot back to the params.
    tconf = TrainConfig(lr=1e-3, patience=1, max_epochs=3, batch_size=5, seed=99)
    result = train(train_videos, val_videos, params, config, tconf, stats)
    assert layouts(result.params) == output_major


def test_best_checkpoint_dominates_later_epochs():
    config, params, train_videos, val_videos, stats = small_training_setup(seed=5)
    tconf = TrainConfig(lr=1e-3, patience=4, max_epochs=6, batch_size=6, seed=7)
    result = train(train_videos, val_videos, params, config, tconf, stats)
    best = result.best_val_accuracy
    after_best = [h.val_accuracy for h in result.history if h.epoch > result.best_epoch]
    assert all(best >= acc for acc in after_best)
    assert result.history[result.best_epoch - 1].val_accuracy == best


def test_train_rejects_empty_splits():
    config, params, train_videos, val_videos, stats = small_training_setup()
    with pytest.raises(ValueError):
        train([], val_videos, params, config, TrainConfig(), stats)
    with pytest.raises(ValueError):
        train(train_videos, [], params, config, TrainConfig(), stats)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_twice_gives_identical_predictions():
    config, params, train_videos, val_videos, stats = small_training_setup(seed=6)
    result_a = evaluate(val_videos, params, config, stats)
    result_b = evaluate(val_videos, params, config, stats)
    assert isinstance(result_a, EvalResult)
    assert result_a.predicted_labels == result_b.predicted_labels
    assert np.array_equal(result_a.probabilities, result_b.probabilities)
    assert 0.0 <= result_a.accuracy <= 1.0


def test_evaluate_and_predict_label_run_forward_with_no_graph(monkeypatch):
    config, params, train_videos, val_videos, stats = small_training_setup(seed=6)
    seen = []

    def spy(*args, **kwargs):
        seen.append(ag.active_graph())
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", spy)
    evaluate(val_videos, params, config, stats)
    assert seen and all(graph is None for graph in seen)
    seen.clear()
    predict_label(val_videos[0], params, config, stats)
    assert seen == [None]


def test_evaluate_all_correct_scores_one():
    config, params, train_videos, val_videos, stats = small_training_setup(seed=6)
    # Force a constant prediction of class 3, then evaluate on all-3 labels.
    params.w_head.data[:] = 0.0
    params.b_head.data[:] = 0.0
    params.b_head.data[3] = 5.0
    joy_only = [vf for vf in val_videos if int(vf.label) == 3]
    result = evaluate(joy_only, params, config, stats)
    assert result.accuracy == 1.0
    assert result.predicted_labels == [3] * len(joy_only)


def test_evaluate_order_independence():
    config, params, train_videos, val_videos, stats = small_training_setup(seed=8)
    base = evaluate(val_videos, params, config, stats)
    shuffled = evaluate(val_videos[::-1], params, config, stats)
    assert shuffled.accuracy == base.accuracy
    assert shuffled.predicted_labels == base.predicted_labels[::-1]


def test_evaluate_matches_single_video_predictions_under_heavy_padding():
    config = tiny_config(n=4, dropout=0.0)
    rng = np.random.default_rng(12)
    # Mostly faceless or one-face videos next to a full one: most of the
    # batch's padded expression layout would be padding.
    videos = [
        make_video(rng, n_stored=4, k=(0, 1, 0, 4, 1, 0, 2)[i % 7], label=i % 6, video_id=f"p{i}")
        for i in range(20)
    ]
    stats = compute_stats(None, videos=videos)
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-10)):
        params = init_params(config, seed=3, dtype=dtype)
        result = evaluate(videos, params, config, stats)
        for vf, row in zip(videos, result.probabilities):
            _, alone = predict_label(vf, params, config, stats)
            assert np.allclose(row, alone, rtol=0.0, atol=tol), vf.video_id
        perm = np.random.default_rng(1).permutation(len(videos))
        permuted = evaluate([videos[i] for i in perm], params, config, stats)
        assert np.allclose(permuted.probabilities, result.probabilities[perm], rtol=0.0, atol=tol)


def test_a_batch_in_which_no_video_keeps_a_face_evaluates(monkeypatch):
    config = tiny_config(n=4)
    rng = np.random.default_rng(5)
    videos = [make_video(rng, n_stored=9, k=0, label=i, video_id=f"f{i}") for i in range(5)]
    # Equidistant sampling of 9 stored frames picks 0, 2, 5 and 8, so
    # faces at frames 1, 3 and 7 are all dropped.
    videos[1] = make_video(rng, n_stored=9, k=3, label=1, video_id="f1")
    videos[1].expression_frame_index = np.array([1, 3, 7])
    stats = compute_stats(None, videos=videos)
    params = init_params(config, seed=2)
    queries = []
    real = model.cross_attention

    def spy(pairs, *args, **kwargs):
        queries.append(pairs[-1][0].data.copy())  # expression -> clip
        return real(pairs, *args, **kwargs)

    monkeypatch.setattr(model, "cross_attention", spy)
    result = evaluate(videos, params, config, stats)
    assert result.probabilities.shape == (5, 6)
    assert np.allclose(result.probabilities.sum(axis=1), 1.0)
    assert len(queries) == 1
    assert queries[0].shape == (5, config.input_dims["expression"]) and not queries[0].any()


def test_a_faceless_container_of_another_face_width_predicts(tmp_path):
    config, params, train_videos, val_videos, stats = small_training_setup(seed=6)
    faceless = dataclasses.replace(
        val_videos[0], expression=np.zeros((0, 5), np.float32), expression_frame_index=[]
    )
    path = tmp_path / "faceless.vmf"
    write_container(faceless, path)
    vf = read_container(path)
    assert vf.expression.shape == (0, 5) != (0, config.input_dims["expression"])
    label, probs = predict_label(vf, params, config, stats)
    assert 0 <= label < 6 and probs.shape == (6,)
    # Next to videos that keep faces, it gets the same answer.
    result = evaluate([vf] + val_videos, params, config, stats)
    assert result.predicted_labels[0] == label
    assert np.allclose(result.probabilities[0], probs, rtol=0.0, atol=1e-6)


def test_argmax_tie_breaks_to_lowest_label():
    config, params, train_videos, val_videos, stats = small_training_setup(seed=9)
    # Zero head makes every logit equal, so probabilities tie at exactly 1/6.
    params.w_head.data[:] = 0.0
    params.b_head.data[:] = 0.0
    label, probs = predict_label(val_videos[0], params, config, stats)
    assert np.all(probs == probs[0])
    assert label == 0


def test_history_csv_layout():
    from vemoclap.training import EpochStats

    text = history_csv([EpochStats(1, 1.5, 0.25), EpochStats(2, 1.25, 0.5)])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_accuracy"
    assert lines[1].startswith("1,1.5,")
    assert len(lines) == 3
