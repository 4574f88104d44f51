"""The three mechanisms: distance-aware attention, memory selection, low-rank adapters.

Run: python3 demos/02_attention_memory_lora.py
"""

import math

import numpy as np

from sliceseg.attention import AttentionContext, cross_slice_weights, distance_modulation
from sliceseg.lora import init_lora, lora_forward, merge
from sliceseg.memory import MemoryBank, MemoryEntry, select_memory
from sliceseg.tensor import Tensor

# --- distance-aware attention -------------------------------------------
# Weights come from similarity * exp(-lambda * d^2), softmax-normalized.
lam = Tensor(0.1)
print("modulation at d=0, 5, 20 um:",
      [round(distance_modulation(d, lam).item(), 4) for d in (0.0, 5.0, 20.0)])

query = Tensor([1.0, 0.0])
near_similar = Tensor([0.95, math.sqrt(1 - 0.95**2)])
far_similar = Tensor([0.95, math.sqrt(1 - 0.95**2)])
ctx = AttentionContext(query, [near_similar, far_similar], distances=[2.0, 30.0])
alpha = cross_slice_weights(ctx, lam).data
print("equal similarity, distances 2 vs 30 um -> weights", np.round(alpha, 4))

# --- memory selection -----------------------------------------------------
# Entries are scored by cosine similarity times prediction confidence;
# ties break toward the more recent slice.
bank = MemoryBank()
for i, (sim, conf) in enumerate([(0.9, 0.5), (0.5, 0.9), (0.9, 0.5), (0.2, 1.0)]):
    emb = Tensor([sim, math.sqrt(1 - sim * sim)])
    bank.insert(MemoryEntry(i, emb, Tensor(np.zeros((1, 2))), conf))
chosen = select_memory(bank, query, k=2)
print("top-2 slices by sim*confidence:", [e.slice_index for e in chosen])

# --- low-rank adapters ----------------------------------------------------
# The base matrix stays frozen; only the rank-r factors learn. At init the
# up-projection is zero, so the adapter is an exact no-op.
adapter = init_lora(d_in=8, d_out=8, rank=2, seed=0)
x = Tensor(np.random.default_rng(0).standard_normal((3, 8)))
base_only = x.data @ adapter.base.data.T
print("adapter is identity at init:",
      np.array_equal(lora_forward(x, adapter).data, base_only))

# The forward pass applies the merged weight W + (alpha/r) B A; it equals
# the factored form x W^T + (alpha/r) (x A^T) B^T.
adapter.B.data = np.random.default_rng(1).standard_normal(adapter.B.shape)
merged = lora_forward(x, adapter).data
factored = (x.data @ adapter.base.data.T
            + adapter.scale * (x.data @ adapter.A.data.T) @ adapter.B.data.T)
print("merged forward matches the factored form:",
      float(np.abs(merged - factored).max()) < 1e-12)
