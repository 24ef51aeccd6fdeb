import dataclasses
import hashlib
import math

import numpy as np
import pytest

import vemoclap.autograd as ag
import vemoclap.model as model
from vemoclap.autograd import DegenerateInputError, Graph, ShapeError, Tensor
from vemoclap.model import (
    PAIRINGS,
    AttentionParams,
    ConfigError,
    ModelConfig,
    cross_attention,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from vemoclap.rng import SplitMix64
from vemoclap.training import cross_entropy

from conftest import make_video, tiny_config, tiny_dims


def oracle_cross_attention(q_seq, kv_seq, p: AttentionParams, heads, kv_mask=None, eps=1e-5):
    """Straight-line reference: explicit loops, no shared code with the model."""
    q_seq = np.asarray(q_seq, dtype=np.float64)
    kv_seq = np.asarray(kv_seq, dtype=np.float64)
    wq, bq = p.w_q.data.astype(np.float64), p.b_q.data.astype(np.float64)
    wk, bk = p.w_k.data.astype(np.float64), p.b_k.data.astype(np.float64)
    wv, bv = p.w_v.data.astype(np.float64), p.b_v.data.astype(np.float64)
    wo, bo = p.w_o.data.astype(np.float64), p.b_o.data.astype(np.float64)
    gamma, beta = p.gamma.data.astype(np.float64), p.beta.data.astype(np.float64)

    def project(x, w, b):
        t, d_out = x.shape[0], w.shape[1]
        out = np.zeros((t, d_out))
        for i in range(t):
            for j in range(d_out):
                acc = float(b[j])
                for l in range(x.shape[1]):
                    acc += float(x[i, l]) * float(w[l, j])
                out[i, j] = acc
        return out

    tq, tkv = q_seq.shape[0], kv_seq.shape[0]
    d = wq.shape[1]
    dh = d // heads
    q = project(q_seq, wq, bq)
    k = project(kv_seq, wk, bk)
    v = project(kv_seq, wv, bv)

    merged = np.zeros((tq, d))
    for h in range(heads):
        cols = range(h * dh, (h + 1) * dh)
        for i in range(tq):
            scores = []
            for j in range(tkv):
                s = sum(q[i, c] * k[j, c] for c in cols) / math.sqrt(dh)
                if kv_mask is not None and not kv_mask[j]:
                    s -= 1e9
                scores.append(s)
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            z = sum(exps)
            weights = [e / z for e in exps]
            for c in cols:
                merged[i, c] = sum(weights[j] * v[j, c] for j in range(tkv))

    projected = project(merged, wo, bo)
    residual = projected + q
    out = np.zeros_like(residual)
    for i in range(tq):
        mu = residual[i].mean()
        var = ((residual[i] - mu) ** 2).mean()
        inv = 1.0 / math.sqrt(var + eps)
        out[i] = gamma * ((residual[i] - mu) * inv) + beta
    return out


def f64_pairing_params(seed=0, d=4, heads=2, dq=5, dkv=3) -> AttentionParams:
    dims = dict(tiny_dims(8))
    dims["clip"], dims["beats"] = dq, dkv
    config = ModelConfig(input_dims=dims, d=d, heads=heads, dropout_p=0.0, n=4)
    return init_params(config, seed=seed, dtype=np.float64).pairings[0]


# ---------------------------------------------------------------------------
# config and parameters


def test_config_requires_divisible_heads():
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(input_dims=tiny_dims(), d=10, heads=4)


@pytest.mark.parametrize(
    "widths, match",
    [
        ({"ocr_sentiment": 8, "asr_sentiment": 6}, "must agree"),
        ({"expression": -1}, "positive"),
        ({"clip": 0}, "positive"),
    ],
)
def test_config_rejects_bad_widths(widths, match):
    with pytest.raises(ConfigError, match=match):
        ModelConfig(input_dims={**tiny_dims(), **widths}, d=8, heads=2)


def test_init_is_deterministic_and_gamma_ones():
    config = tiny_config()
    a = init_params(config, seed=77)
    b = init_params(config, seed=77)
    for (name_a, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.data, tb.data), name_a
    for pairing in a.pairings:
        assert np.all(pairing.gamma.data == 1.0)
        assert np.all(pairing.beta.data == 0.0)
        assert np.all(pairing.b_q.data == 0.0)
    c = init_params(config, seed=78)
    assert not np.array_equal(a.pairings[0].w_q.data, c.pairings[0].w_q.data)


def test_init_glorot_bounds():
    config = tiny_config(fd=8, d=8)
    params = init_params(config, seed=1)
    bound = math.sqrt(6.0 / (8 + 8))
    w = params.pairings[0].w_q.data
    assert np.all(np.abs(w) <= bound)
    assert w.std() > 0.1 * bound  # actually spread out, not collapsed


def test_param_count_matches_closed_form():
    # d=8, heads=2, every input dim 8: per pairing 4 weight matrices of
    # 8x8 plus six 8-vectors, head (3*8 + 2*8) x 6 + 6.
    config = tiny_config(fd=8, d=8, heads=2)
    params = init_params(config, seed=0)
    per_pairing = 4 * 8 * 8 + 6 * 8
    head = (3 * 8 + 2 * 8) * 6 + 6
    assert param_count(params) == 3 * per_pairing + head == 1158


def test_param_count_sentiment_widening_only_touches_head():
    dims = tiny_dims(8)
    base = param_count(init_params(ModelConfig(input_dims=dims, d=8, heads=2), seed=0))
    wider = dict(dims)
    wider["ocr_sentiment"] = wider["asr_sentiment"] = 16
    grown = param_count(init_params(ModelConfig(input_dims=wider, d=8, heads=2), seed=0))
    assert grown - base == 2 * 8 * 6


def test_default_config_param_count_is_reported():
    dims = {"clip": 512, "beats": 768, "expression": 768, "ocr_sentiment": 768, "asr_sentiment": 768}
    config = ModelConfig(input_dims=dims)
    total = param_count(init_params(config, seed=0))
    assert total == 3_697_670  # documented alongside the published ~11M figure


# ---------------------------------------------------------------------------
# cross_attention


def attend(q_rows, kv_rows, p, heads, kv_mask=None, q_lengths=None):
    """One pairing through the list form of `cross_attention`."""
    return cross_attention(
        [(q_rows, kv_rows, p)],
        heads=heads,
        kv_masks=None if kv_mask is None else [kv_mask],
        q_lengths=None if q_lengths is None else [q_lengths],
    )[0]


def test_single_kv_row_dominates_every_query():
    p = f64_pairing_params(d=4, heads=2, dq=5, dkv=3)
    rng = np.random.default_rng(0)
    q_seq = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
    kv_seq = Tensor(rng.standard_normal((1, 3)), dtype=np.float64)

    out = attend(q_seq, kv_seq, p, heads=2)
    # Weights over a singleton are exactly 1, so the pre-residual content is
    # W_O(V row) + b_O for every query row; check via the oracle with zeroed
    # residual influence removed: all rows share one attended value.
    v_row = kv_seq.data @ p.w_v.data.astype(np.float64) + p.b_v.data
    attended = v_row @ p.w_o.data.astype(np.float64) + p.b_o.data
    q_proj = q_seq.data @ p.w_q.data.astype(np.float64) + p.b_q.data
    oracle = oracle_cross_attention(q_seq.data, kv_seq.data, p, heads=2)
    assert np.allclose(out.data, oracle, atol=1e-10)
    # And explicitly: residual minus projected query equals the shared value.
    recon = np.tile(attended, (4, 1)) + q_proj
    mu = recon.mean(axis=-1, keepdims=True)
    var = ((recon - mu) ** 2).mean(axis=-1, keepdims=True)
    expected = (recon - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out.data, expected * p.gamma.data + p.beta.data, atol=1e-10)


def test_tiny_case_matches_hand_rolled_oracle():
    p = f64_pairing_params(seed=3, d=4, heads=2, dq=5, dkv=3)
    rng = np.random.default_rng(1)
    q_seq = rng.standard_normal((2, 5))
    kv_seq = rng.standard_normal((3, 3))
    out = attend(Tensor(q_seq, dtype=np.float64), Tensor(kv_seq, dtype=np.float64), p, heads=2)
    oracle = oracle_cross_attention(q_seq, kv_seq, p, heads=2)
    assert np.allclose(out.data, oracle, rtol=1e-12, atol=1e-12)


def test_kv_permutation_invariance():
    p = f64_pairing_params(seed=5, d=8, heads=4, dq=6, dkv=7)
    rng = np.random.default_rng(2)
    q_seq = rng.standard_normal((3, 6))
    kv_seq = rng.standard_normal((5, 7))
    base = attend(Tensor(q_seq, dtype=np.float64), Tensor(kv_seq, dtype=np.float64), p, heads=4)
    for trial in range(20):
        perm = np.random.default_rng(trial).permutation(5)
        out = attend(
            Tensor(q_seq, dtype=np.float64), Tensor(kv_seq[perm], dtype=np.float64), p, heads=4
        )
        assert np.allclose(out.data, base.data, atol=1e-5)


def test_query_permutation_equivariance():
    p = f64_pairing_params(seed=6, d=4, heads=2, dq=6, dkv=7)
    rng = np.random.default_rng(3)
    q_seq = rng.standard_normal((4, 6))
    kv_seq = rng.standard_normal((5, 7))
    base = attend(Tensor(q_seq, dtype=np.float64), Tensor(kv_seq, dtype=np.float64), p, heads=2)
    perm = np.array([2, 0, 3, 1])
    permuted = attend(
        Tensor(q_seq[perm], dtype=np.float64), Tensor(kv_seq, dtype=np.float64), p, heads=2
    )
    assert np.allclose(permuted.data, base.data[perm], atol=1e-5)
    assert np.allclose(
        ag.mean_pool(permuted, [4]).data, ag.mean_pool(base, [4]).data, atol=1e-5
    )


def test_appending_masked_row_is_a_noop():
    p = f64_pairing_params(seed=7, d=8, heads=2, dq=6, dkv=7)
    rng = np.random.default_rng(4)
    q_seq = Tensor(rng.standard_normal((3, 6)), dtype=np.float64)
    kv_seq = rng.standard_normal((4, 7))
    base = attend(q_seq, Tensor(kv_seq, dtype=np.float64), p, heads=2)
    extended = np.vstack([kv_seq, rng.standard_normal((1, 7))])
    mask = np.array([True, True, True, True, False])
    out = attend(q_seq, Tensor(extended, dtype=np.float64), p, heads=2, kv_mask=mask)
    assert np.allclose(out.data, base.data, atol=1e-6)


def test_masked_oracle_agreement():
    p = f64_pairing_params(seed=8, d=4, heads=2, dq=5, dkv=3)
    rng = np.random.default_rng(5)
    q_seq = rng.standard_normal((2, 5))
    kv_seq = rng.standard_normal((4, 3))
    mask = np.array([True, False, True, False])
    out = attend(
        Tensor(q_seq, dtype=np.float64), Tensor(kv_seq, dtype=np.float64), p, heads=2, kv_mask=mask
    )
    oracle = oracle_cross_attention(q_seq, kv_seq, p, heads=2, kv_mask=mask)
    assert np.allclose(out.data, oracle, rtol=1e-10, atol=1e-10)


def test_all_rows_masked_is_degenerate():
    p = f64_pairing_params()
    q_seq = Tensor(np.zeros((2, 5)), dtype=np.float64)
    kv_seq = Tensor(np.zeros((3, 3)), dtype=np.float64)
    with pytest.raises(DegenerateInputError):
        attend(q_seq, kv_seq, p, heads=2, kv_mask=np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# forward


def test_forward_outputs_probability_vector(rng):
    config = tiny_config()
    params = init_params(config, seed=0)
    vf = make_video(rng, n_stored=config.n, k=2)
    probs = forward([vf], params, config)
    assert probs.shape == (1, 6)
    assert np.all(probs.data >= 0.0)
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6


def test_forward_handles_zero_expression_rows(rng):
    config = tiny_config()
    params = init_params(config, seed=0)
    vf = make_video(rng, n_stored=config.n, k=0)
    probs = forward([vf], params, config)
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6


def test_forward_inference_is_bitwise_deterministic(rng):
    config = tiny_config(dropout=0.5)  # dropout must not fire with no graph
    params = init_params(config, seed=0)
    vf = make_video(rng, n_stored=config.n, k=1)
    a = forward([vf], params, config)
    b = forward([vf], params, config)
    assert a.data.tobytes() == b.data.tobytes()


BATCH_TOL = {np.float32: 1e-6, np.float64: 1e-10}


def mixed_batch(rng, n, count=9):
    """Videos with k = 0, 1, ..., n faces (cycled), so most are padded."""
    return [
        make_video(rng, n_stored=n, k=i % (n + 1), label=i % 6, video_id=f"v{i}")
        for i in range(count)
    ]


def test_forward_batching_consistency(rng):
    # Expression queries (the only padded modality) cover k = 0 .. n faces.
    config = tiny_config()
    for dtype, tol in BATCH_TOL.items():
        params = init_params(config, seed=0, dtype=dtype)
        videos = mixed_batch(rng, config.n)
        assert len({vf.k for vf in videos}) == config.n + 1
        batch_rows = forward(videos, params, config)
        assert batch_rows.shape == (len(videos), 6)
        for i, vf in enumerate(videos):
            single = forward([vf], params, config)
            assert np.allclose(single.data[0], batch_rows.data[i], rtol=0.0, atol=tol)


def test_forward_batch_permutation_permutes_rows(rng):
    config = tiny_config()
    for dtype, tol in BATCH_TOL.items():
        params = init_params(config, seed=3, dtype=dtype)
        videos = mixed_batch(rng, config.n)
        base = forward(videos, params, config).data
        for trial in range(5):
            perm = np.random.default_rng(trial).permutation(len(videos))
            permuted = forward([videos[i] for i in perm], params, config).data
            assert np.allclose(permuted, base[perm], rtol=0.0, atol=tol)


def test_padded_rows_get_zero_weight_and_zero_gradient():
    # Two sequences of 3 and 1 query rows and 3 key/value rows each; the
    # shorter query sequence is padded inside attention, and one key/value
    # row of each sequence is masked.
    p = f64_pairing_params(seed=9, d=8, heads=2, dq=5, dkv=3)
    rng = np.random.default_rng(6)
    q_lengths = np.array([3, 1])
    kv_valid = np.array([True, False, True, True, True, False])
    q_data = rng.standard_normal((4, 5))
    kv_data = rng.standard_normal((6, 3))
    w = rng.standard_normal((2, 8))

    def pooled(q_arr, kv_arr, requires_grad=False):
        q_rows = Tensor(q_arr, requires_grad=requires_grad, dtype=np.float64)
        kv_rows = Tensor(kv_arr, requires_grad=requires_grad, dtype=np.float64)
        with Graph() as g:
            attn = attend(q_rows, kv_rows, p, heads=2, kv_mask=kv_valid, q_lengths=q_lengths)
            out = ag.mean_pool(attn, q_lengths)
            loss = ag.sum_all(ag.mul(out, Tensor(w, dtype=np.float64)))
        return out, loss, g, q_rows, kv_rows

    base, loss, g, q_rows, kv_rows = pooled(q_data, kv_data, requires_grad=True)
    grads = g.backward(loss)
    # Masked rows get exactly zero gradient; real rows do get some.
    assert np.all(grads[kv_rows][~kv_valid] == 0.0)
    assert np.all(np.abs(grads[q_rows]).sum(axis=-1) > 0.0)
    assert np.all(np.abs(grads[kv_rows][kv_valid]).sum(axis=-1) > 0.0)

    # Zero weight: whatever the masked rows hold, the pooled output is the same.
    kv_junk = kv_data.copy()
    kv_junk[~kv_valid] = 1e3 * rng.standard_normal((int((~kv_valid).sum()), 3))
    assert np.array_equal(pooled(q_data, kv_junk)[0].data, base.data)


def test_padded_key_rows_get_exactly_zero_attention_weight():
    rng = np.random.default_rng(8)
    mask = np.array([[True, False, True, False], [True, True, True, False]])
    q = Tensor(rng.standard_normal((2 * 3, 4)), dtype=np.float64)
    k = Tensor(rng.standard_normal((2 * 4, 4)), dtype=np.float64)
    # With v = one-hot key-row indicators, the output holds the weights.
    for row in range(4):
        v_data = np.zeros((2 * 4, 4))
        v_data[row::4] = 1.0
        weights = ag.attention(q, k, Tensor(v_data, dtype=np.float64), 2, [3, 3],
                               kv_mask=mask.ravel()).data.reshape(2, 3, 4)
        assert np.all(weights[~mask[:, row]] == 0.0)
        assert np.all(weights[mask[:, row]] > 0.0)


def test_tape_size_does_not_grow_with_batch(rng):
    config = tiny_config(dropout=0.5)
    params = init_params(config, seed=0)
    videos = mixed_batch(rng, config.n, count=8)
    sizes = []
    for batch in (videos[:1], videos):
        with Graph() as g:
            probs = forward(batch, params, config, rng=SplitMix64(0).derive("drop"))
            cross_entropy(probs, [int(vf.label) for vf in batch])
        sizes.append(len(g))
    # Per pairing: four bias-fused projections, attention, dropout, the
    # residual add, layer norm and the pool (9 x 3); concat_cols, the head
    # matmul and softmax; five loss ops.
    assert sizes == [35, 35], sizes


def test_tape_size_does_not_grow_with_batch_on_the_pool(rng, pooled):
    test_tape_size_does_not_grow_with_batch(rng)
    assert pooled.as_expected()


def operand_rows(graph) -> dict[int, int]:
    """{id(w): rows of a} for every (a, w, ...) input triple on the tape:
    each member of a `matmuls` entry, a `matmul` and a layer norm."""
    return {
        id(entry.inputs[j + 1]): entry.inputs[j].shape[0]
        for entry in graph._tape
        for j in range(0, len(entry.inputs) - 1, 3)
    }


def test_training_step_on_the_pool_gives_gradients_to_parameters_only(rng, pooled):
    config = tiny_config(dropout=0.5)
    params = init_params(config, seed=0)
    videos = mixed_batch(rng, config.n, count=8)
    with Graph() as g:
        probs = forward(videos, params, config, rng=SplitMix64(0).derive("drop"))
        loss = cross_entropy(probs, [int(vf.label) for vf in videos])
    grads = g.backward(loss)
    assert pooled.as_expected()
    assert len(g) == 35
    # The parameters are the only leaves: no op output is a key.
    assert set(grads) == {t for _, t in params.named_tensors()}
    for name, t in params.named_tensors():
        assert grads[t].shape == t.shape, name


def test_expression_projections_see_only_real_rows(rng):
    config = tiny_config(dropout=0.5)
    params = init_params(config, seed=0)
    videos = mixed_batch(rng, config.n, count=8)
    real_rows = sum(max(vf.k, 1) for vf in videos)
    assert real_rows < len(videos) * max(vf.k for vf in videos)  # the batch has padding
    with Graph() as g:
        forward(videos, params, config, rng=SplitMix64(0).derive("drop"))
    rows_into = operand_rows(g)
    for (q_name, _), p in zip(PAIRINGS, params.pairings):
        expect = real_rows if q_name == "expression" else len(videos) * config.n
        assert rows_into[id(p.w_q)] == expect, q_name
        assert rows_into[id(p.w_o)] == expect, q_name
        assert rows_into[id(p.gamma)] == expect, q_name  # layer norm's input


def test_expression_projections_see_only_real_rows_on_the_pool(rng, pooled):
    test_expression_projections_see_only_real_rows(rng)
    assert pooled.as_expected()


def test_every_key_value_side_is_b_equal_blocks_of_n_rows(rng, monkeypatch):
    # attention reads its key/value rows as B blocks of N_kv / B rows and
    # cannot tell unequal lengths that happen to divide evenly, so a
    # pairing with a padded key/value side must fail here.
    config = tiny_config(dropout=0.5)
    params = init_params(config, seed=0)
    videos = mixed_batch(rng, config.n)
    expression = [max(vf.k, 1) for vf in videos]
    assert len(set(expression)) > 1
    seen = []
    real = ag.attention

    def spied(q, k, v, heads, q_lengths, kv_mask=None):
        seen.append((k.shape[0], v.shape[0], [int(x) for x in q_lengths]))
        return real(q, k, v, heads, q_lengths, kv_mask=kv_mask)

    monkeypatch.setattr(ag, "attention", spied)
    with Graph():
        forward(videos, params, config, rng=SplitMix64(0).derive("drop"))
    rows = len(videos) * config.n
    assert [(k_rows, v_rows) for k_rows, v_rows, _ in seen] == [(rows, rows)] * len(PAIRINGS)
    # Only the expression query side has unequal lengths.
    full = [config.n] * len(videos)
    assert sorted(q for _, _, q in seen) == sorted([full, full, expression])


def test_every_key_value_side_is_b_equal_blocks_of_n_rows_on_the_pool(rng, monkeypatch, pooled):
    test_every_key_value_side_is_b_equal_blocks_of_n_rows(rng, monkeypatch)
    assert pooled.as_expected()


def test_a_pairings_dropout_does_not_depend_on_other_pairings_rows(rng, monkeypatch):
    # Expression's query row count, Σ max(k, 1), moves with the face
    # counts, and its dropout draws must not shift clip -> beats's or
    # beats -> clip's mask.
    assert PAIRINGS[:2] == (("clip", "beats"), ("beats", "clip"))
    config = tiny_config(dropout=0.5)
    params = init_params(config, seed=0)
    outputs = {id(p): [] for p in params.pairings[:2]}
    videos = mixed_batch(rng, config.n, count=6)
    more_faces = list(videos)
    faces = rng.uniform(0.0, 1.0, (config.n, config.input_dims["expression"]))
    more_faces[2] = dataclasses.replace(
        videos[2],
        expression=faces.astype(np.float32),
        expression_frame_index=np.arange(config.n),
    )
    assert more_faces[2].k != videos[2].k

    real = model.cross_attention

    def recorded(pairs, *args, **kwargs):
        outs = real(pairs, *args, **kwargs)
        for (_, _, pairing_params), out in zip(pairs, outs):
            if id(pairing_params) in outputs:
                outputs[id(pairing_params)].append(out.data.tobytes())
        return outs

    monkeypatch.setattr(model, "cross_attention", recorded)
    for batch in (videos, more_faces):
        with Graph():
            forward(batch, params, config, rng=SplitMix64(0).derive("drop"))
    for got in outputs.values():
        assert len(got) == 2 and got[0] == got[1]


def test_a_pairings_dropout_does_not_depend_on_other_pairings_rows_on_the_pool(
    rng, monkeypatch, pooled
):
    test_a_pairings_dropout_does_not_depend_on_other_pairings_rows(rng, monkeypatch)
    assert pooled.as_expected()


def test_default_pairing_gradients_through_padded_queries_match_finite_differences(rng):
    config = ModelConfig(input_dims=tiny_dims(4), d=4, heads=2, dropout_p=0.0, n=4)
    params = init_params(config, seed=4, dtype=np.float64)
    # k = 0, 1, 3 and n: a faceless video, two padded ones and a full one.
    videos = [
        make_video(rng, n_stored=4, k=k, dims=tiny_dims(4), label=i, video_id=f"g{i}")
        for i, k in enumerate((0, 1, 3, 4))
    ]
    labels = [int(vf.label) for vf in videos]

    def loss_fn(_ignored):
        return cross_entropy(forward(videos, params, config), labels)

    for name, tensor in params.named_tensors():
        report = ag.grad_check(loss_fn, tensor, eps=1e-4, tol=1e-4)
        assert report.passed, (name, str(report))


def test_forward_rejects_wrong_channel_dim(rng):
    config = tiny_config()
    params = init_params(config, seed=0)
    bad_dims = dict(tiny_dims())
    bad_dims["clip"] = 5
    vf = make_video(rng, n_stored=config.n, k=1, dims=bad_dims)
    with pytest.raises(ShapeError):
        forward([vf], params, config)


def test_forward_rejects_unsampled_video(rng):
    config = tiny_config(n=4)
    params = init_params(config, seed=0)
    vf = make_video(rng, n_stored=9, k=1)
    with pytest.raises(ShapeError, match="sample"):
        forward([vf], params, config)


def test_forward_dropout_needs_rng_in_training(rng):
    config = tiny_config(dropout=0.5)
    params = init_params(config, seed=0)
    vf = make_video(rng, n_stored=config.n, k=1)
    with Graph():
        with pytest.raises(ValueError, match="rng"):
            forward([vf], params, config)
        probs = forward([vf], params, config, rng=SplitMix64(0).derive("drop"))
    assert probs.shape == (1, 6)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    config = tiny_config()
    params = init_params(config, seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, seed=21, stats_digest="abc123")
    loaded, loaded_config, header = load_checkpoint(path)
    assert loaded_config == config
    assert header["seed"] == 21
    assert header["stats_digest"] == "abc123"
    for (name, orig), (_, back) in zip(params.named_tensors(), loaded.named_tensors()):
        assert np.array_equal(orig.data, back.data), name
        assert back.requires_grad


def test_checkpoint_same_params_same_bytes(tmp_path):
    config = tiny_config()
    params = init_params(config, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, config, seed=5, stats_digest="x")
    save_checkpoint(p2, params, config, seed=5, stats_digest="x")
    assert p1.read_bytes() == p2.read_bytes()


# sha256 of init_params + save_checkpoint at a fixed seed: pins the
# parameters' draw order, names and shapes.
@pytest.mark.parametrize(
    "seed, digest",
    [(7, "b8089b7115d16c6aa3c7643afd274c79f4e8d28ca9714d69052361a5bee9ba63")],
    ids=["default"],
)
def test_init_checkpoint_bytes_are_pinned(tmp_path, seed, digest):
    dims = {"clip": 5, "beats": 4, "expression": 3, "ocr_sentiment": 2, "asr_sentiment": 2}
    config = ModelConfig(input_dims=dims, d=8, heads=2, n=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(config, seed=seed), config, seed=seed, stats_digest="x")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_checkpoint_missing_parameter_detected(tmp_path):
    from vemoclap.container import read_blocks, write_blocks

    config = tiny_config()
    params = init_params(config, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, seed=5, stats_digest="x")
    entries = read_blocks(path)
    write_blocks(path, entries[:-1])  # drop head.bias
    with pytest.raises(ValueError, match="head.bias"):
        load_checkpoint(path)


def test_checkpoint_with_a_repeated_parameter_is_rejected(tmp_path):
    from vemoclap.container import SchemaError, array_entry, read_blocks, write_blocks

    config = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(config, seed=5), config, seed=5, stats_digest="x")
    entries = read_blocks(path)
    bias = entries[-1]
    assert bias.name == "head.bias"
    entries.append(array_entry("head.bias", np.full(bias.dims, 7.0, dtype=np.float32)))
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match="'head.bias' appears twice"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("heads", None),
        ("dropout_p", None),
        ("class_count", None),
        ("input_dims", None),
        ("d", "8"),
        ("heads", 2.0),
        ("n", True),
        ("dropout_p", "0.5"),
        ("input_dims", {"clip": "8"}),
        ("pairings", [["clip"]]),
        ("pairings", [["clip", 3]]),
        ("input_dims", {**tiny_dims(), "ocr_sentiment": 3}),
        ("input_dims", {**tiny_dims(), "beats": -2}),
        ("input_dims", {**tiny_dims(), "expression": 0}),
        ("class_count", 7),
        ("class_count", 6.0),
        ("pairings", None),
        ("pairings", [["clip", "expression"], ["beats", "beats"], ["expression", "beats"]]),
    ],
)
def test_checkpoint_header_field_missing_or_mistyped_is_a_value_error(tmp_path, field, value):
    from vemoclap.container import entry_json, json_entry, read_blocks, write_blocks

    config = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(config, seed=5), config, seed=5, stats_digest="x")
    entries = read_blocks(path)
    header = entry_json(entries[0])
    if value is None:
        del header["model_config"][field]
    else:
        header["model_config"][field] = value
    entries[0] = json_entry("config", header)
    write_blocks(path, entries)
    with pytest.raises(ValueError, match=field):
        load_checkpoint(path)


def test_checkpoint_header_without_model_config_is_a_value_error(tmp_path):
    from vemoclap.container import entry_json, json_entry, read_blocks, write_blocks

    config = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(config, seed=5), config, seed=5, stats_digest="x")
    entries = read_blocks(path)
    for header in ({"kind": "vemoclap-checkpoint"}, ["not", "an", "object"]):
        entries[0] = json_entry("config", header)
        write_blocks(path, entries)
        with pytest.raises(ValueError, match="model_config"):
            load_checkpoint(path)


def test_cross_attention_takes_rows_only():
    p = f64_pairing_params()
    q_rows, kv_rows = np.ones((4, 5)), np.ones((3, 3))
    with pytest.raises(ShapeError, match="rows"):
        attend(Tensor(q_rows.reshape(2, 2, 5), dtype=np.float64),
                        Tensor(kv_rows, dtype=np.float64), p, heads=2)
    with pytest.raises(ShapeError, match="rows"):
        attend(Tensor(q_rows, dtype=np.float64),
                        Tensor(kv_rows.reshape(1, 3, 3), dtype=np.float64), p, heads=2)
    # Without lengths a side's rows are one sequence.
    one = attend(Tensor(q_rows, dtype=np.float64), Tensor(kv_rows, dtype=np.float64), p, heads=2)
    same = attend(Tensor(q_rows, dtype=np.float64), Tensor(kv_rows, dtype=np.float64), p,
                           heads=2, q_lengths=[4])
    assert one.data.tobytes() == same.data.tobytes()
    # Two query sequences need the key/value rows to split into two.
    with pytest.raises(ShapeError, match="split evenly"):
        attend(Tensor(q_rows, dtype=np.float64), Tensor(kv_rows, dtype=np.float64), p,
                        heads=2, q_lengths=[2, 2])
    with pytest.raises(ShapeError, match="heads"):
        attend(Tensor(q_rows, dtype=np.float64), Tensor(kv_rows, dtype=np.float64), p, heads=3)


def test_cross_attention_rejects_empty_sequences():
    p = f64_pairing_params()
    with pytest.raises(ShapeError, match="nonempty"):
        attend(Tensor(np.zeros((0, 5)), dtype=np.float64),
                        Tensor(np.zeros((3, 3)), dtype=np.float64), p, heads=2)
    with pytest.raises(ShapeError, match="nonempty"):
        attend(Tensor(np.zeros((2, 5)), dtype=np.float64),
                        Tensor(np.zeros((0, 3)), dtype=np.float64), p, heads=2)


def test_pairings_run_together_give_each_pairings_own_result_bit_for_bit(pooled):
    # Stage by stage over three pairings, as forward runs them, against
    # each pairing on its own: outputs and gradients, with dropout on.
    rng = np.random.default_rng(12)
    params = [f64_pairing_params(seed=s, d=8, heads=2, dq=5, dkv=3) for s in range(3)]
    lengths = [np.array([2, 3]), np.array([4, 1]), np.array([1, 1])]
    sides = [
        (Tensor(rng.standard_normal((int(q.sum()), 5)), dtype=np.float64),
         Tensor(rng.standard_normal((6, 3)), dtype=np.float64))
        for q in lengths
    ]
    w = rng.standard_normal((2, 8))

    def run(which):
        with Graph() as g:
            outs = cross_attention(
                [(*sides[i], params[i]) for i in which], heads=2, dropout_p=0.5,
                rngs=[SplitMix64(9).derive("pairing", i) for i in which],
                q_lengths=[lengths[i] for i in which],
            )
            pooled_rows = [ag.mean_pool(out, lengths[i]) for out, i in zip(outs, which)]
            loss = ag.sum_all(ag.mul(ag.concat_cols(pooled_rows), Tensor(np.tile(w, len(which)))))
        grads = g.backward(loss)
        leaves = [t for i in which for _, t in vars(params[i]).items()]
        return [o.data.tobytes() for o in outs], [grads[t].tobytes() for t in leaves], len(g)

    together = run([0, 1, 2])
    alone = [run([i]) for i in range(3)]
    assert together[0] == [b for outs, _, _ in alone for b in outs]
    assert together[1] == [b for _, grads, _ in alone for b in grads]
    # Nine ops per pairing; concat_cols, mul and sum_all once, not three times.
    assert together[2] == 3 * 9 + 3 == sum(n for _, _, n in alone) - 2 * 3
    assert pooled.as_expected()


def test_checkpoint_rejects_wrong_parameter_shape(tmp_path):
    from vemoclap.container import array_entry, entry_array, read_blocks, write_blocks

    config = tiny_config()
    params = init_params(config, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, seed=5, stats_digest="x")
    entries = read_blocks(path)
    for i, entry in enumerate(entries):
        if entry.name == "head.bias":
            entries[i] = array_entry("head.bias", np.zeros(7, dtype=np.float32))
    write_blocks(path, entries)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_unexpected_entries(tmp_path):
    from vemoclap.container import array_entry, read_blocks, write_blocks

    config = tiny_config()
    params = init_params(config, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, seed=5, stats_digest="x")
    entries = read_blocks(path)
    entries.append(array_entry("stowaway", np.ones(3, dtype=np.float32)))
    write_blocks(path, entries)
    with pytest.raises(ValueError, match="stowaway"):
        load_checkpoint(path)
