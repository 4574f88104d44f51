"""The three mechanisms: distance-aware attention, memory selection, low-rank adapters.

Run: python3 demos/02_attention_memory_lora.py
"""

import math

import numpy as np

from sliceseg.attention import AttentionContext, cross_slice_weights, distance_modulation
from sliceseg.lora import lora_forward
from sliceseg.memory import select_memory
from sliceseg.tensor import Tensor, cosines

# --- distance-aware attention -------------------------------------------
# Weights come from similarity * exp(-lambda * d^2), softmax-normalized,
# computed as one tape node. The context carries each slot's cosine with
# the query, as memory scoring gives it, and its gap in um (None when a
# slice has no z: the gap is then estimated as 10 * (1 - cosine)).
lam = Tensor(0.1)
print("modulation at d=0, 5, 20 um:", np.round(distance_modulation([0.0, 5.0, 20.0], 0.1), 4))

query = Tensor([1.0, 0.0])
near_similar = Tensor([0.95, math.sqrt(1 - 0.95**2)])
far_similar = Tensor([0.95, math.sqrt(1 - 0.95**2)])
slots = [near_similar, far_similar]
sims = cosines(query.data, np.array([e.data for e in slots]))
alpha = cross_slice_weights(AttentionContext(query, slots, [2.0, 30.0], sims), lam).data
print("equal similarity, distances 2 vs 30 um -> weights", np.round(alpha, 4))
alpha = cross_slice_weights(AttentionContext(query, slots, [2.0, None], sims), lam).data
print("the far slot's z unknown, its gap estimated -> weights", np.round(alpha, 4))

# --- memory selection -----------------------------------------------------
# The memory bank holds the earlier slices' pooled embeddings and the
# confidences of their predictions, one row per slice. A slice scores the
# whole bank at once, cosine similarity times confidence, and keeps the
# top-k rows; ties break toward the more recent slice. Rows are slice indices.
embeddings = np.array([[sim, math.sqrt(1 - sim * sim)] for sim in (0.9, 0.6, 0.9, 0.2)])
confidences = np.array([0.5, 0.9, 0.5, 1.0])
scores = cosines(query.data, embeddings) * confidences
print("scores:", np.round(scores, 3), "-> top-2 slices:", select_memory(scores, k=2))

# --- low-rank adapters ----------------------------------------------------
# An adapted projection is three tensors: the frozen base W and the rank-r
# factors A and B, which learn. B starts at zero, so the adapter is an
# exact no-op at init.
rng = np.random.default_rng(0)
W = Tensor(rng.standard_normal((8, 8)) / np.sqrt(8))
A = Tensor(rng.normal(0.0, 0.02, size=(2, 8)), requires_grad=True)
B = Tensor(np.zeros((8, 2)), requires_grad=True)
x = Tensor(rng.standard_normal((3, 8)))
print("adapter is identity at init:",
      np.array_equal(lora_forward(x, W, A, B).data, x.data @ W.data.T))

# The forward pass applies the merged weight W + B A; it equals the
# factored form x W^T + (x A^T) B^T.
B.data = np.random.default_rng(1).standard_normal(B.shape)
merged = lora_forward(x, W, A, B).data
factored = x.data @ W.data.T + (x.data @ A.data.T) @ B.data.T
print("merged forward matches the factored form:",
      float(np.abs(merged - factored).max()) < 1e-12)
