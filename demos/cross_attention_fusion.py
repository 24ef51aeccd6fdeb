"""Cross-attention over unequal-length sequences, and the batched fusion forward."""

import numpy as np

from vemoclap.autograd import Tensor
from vemoclap.container import EmotionLabel, VideoFeatures
from vemoclap.model import PAIRINGS, ModelConfig, cross_attention, forward, init_params, param_count

rng = np.random.default_rng(0)

# A small config: common dimension 16, 4 heads, 6 frames per video.
dims = {"clip": 12, "beats": 10, "expression": 10, "ocr_sentiment": 4, "asr_sentiment": 4}
config = ModelConfig(input_dims=dims, d=16, heads=4, dropout_p=0.0, n=6)
params = init_params(config, seed=1)
print("pairings:", PAIRINGS)
print("trainable parameters:", param_count(params))

# cross_attention takes a list of (query rows, key/value rows, params)
# pairings and returns one output per pairing. Here one attention module
# fuses a 6-row query sequence with a 9-row key/value sequence; the output
# always has the query's temporal length.
q_seq = Tensor(rng.standard_normal((6, 12)).astype(np.float32))
kv_seq = Tensor(rng.standard_normal((9, 10)).astype(np.float32))
[fused] = cross_attention([(q_seq, kv_seq, params.pairings[0])], heads=config.heads)
print("attention output shape:", fused.shape)

# No positional encoding anywhere, so shuffling key/value rows changes
# nothing (queries only see the set of rows). Passed alongside the
# original, the shuffled pairing runs in the same stages:
perm = rng.permutation(9)
shuffled = Tensor(kv_seq.data[perm])
both = cross_attention(
    [(q_seq, kv_seq, params.pairings[0]), (q_seq, shuffled, params.pairings[0])], heads=4
)
print("max deviation under kv permutation:", np.abs(both[1].data - both[0].data).max())

# Masked rows get a -1e9 score bias and drop out of the softmax entirely:
extended = Tensor(np.vstack([kv_seq.data, rng.standard_normal((1, 10)).astype(np.float32)]))
mask = np.array([True] * 9 + [False])
[masked] = cross_attention([(q_seq, extended, params.pairings[0])], heads=4, kv_masks=[mask])
print("max deviation after appending a masked row:", np.abs(masked.data - fused.data).max())

# The full forward runs a whole batch at once: three pooled attention
# vectors + two sentiment vectors per video -> linear head -> softmax over
# the six emotions, one [B, 6] row per video.
def make_video(video_id, faces):
    return VideoFeatures(
        video_id=video_id,
        label=EmotionLabel.JOY,
        clip=rng.uniform(0, 1, (6, 12)).astype(np.float32),
        beats=rng.uniform(0, 1, (6, 10)).astype(np.float32),
        expression=rng.uniform(0, 1, (len(faces), 10)).astype(np.float32),
        expression_frame_index=np.array(faces, dtype=np.int64),
        ocr_sentiment=rng.uniform(0, 1, 4).astype(np.float32),
        asr_sentiment=rng.uniform(0, 1, 4).astype(np.float32),
    )


# Face counts differ (2, 0 and 5 rows): the batch carries expression as
# its 2 + 1 + 5 real rows, a faceless video keeping one zero row, plus the
# per-video lengths [2, 1, 5] -- the same rows-plus-lengths layout that
# cross_attention takes above, there with one sequence per side. Only the
# attention products pad to 5 rows; projections, dropout, layer norm and
# the pool never see a padded row.
videos = [
    make_video("two-faces", [1, 4]),
    make_video("no-face", []),
    make_video("five", [0, 1, 2, 3, 5]),
]
probs = forward(videos, params, config)
print("batched probabilities:", probs.shape)
for label, p in zip(EmotionLabel, probs.data[0]):
    print(f"  {label.label_name:<9} {p:.4f}")
print("row sums:", probs.data.sum(axis=1))

# A video's row does not depend on its batchmates or on the padding:
for i, vf in enumerate(videos):
    alone = forward([vf], params, config)
    print(f"{vf.video_id}: max deviation batch vs alone {np.abs(alone.data[0] - probs.data[i]).max():.1e}")
