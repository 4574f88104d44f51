"""Tour of the tensor core: building a graph, backprop, and checking gradients.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from sliceseg import tensor as T
from sliceseg.gradcheck import max_rel_error
from sliceseg.tensor import Tensor

# Tensors wrap float64 arrays; set requires_grad to collect gradients.
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
w = Tensor(np.array([[0.5, -0.2], [0.1, 0.3]]), requires_grad=True)

# Ops compose into a graph (linear is x @ w.T); backward() walks it in reverse.
y = T.tanh(T.linear(x, w))
loss = T.mean(y)
loss.backward()

print("loss          :", loss.item())
print("dloss/dw      :\n", w.grad)

# Gradients accumulate until zero_grad; a second backward adds on top.
w_first = w.grad.copy()
w.zero_grad()
x.zero_grad()
loss2 = T.mean(T.tanh(T.linear(x, w)))
loss2.backward()
print("same graph twice, same gradient:", np.allclose(w.grad, w_first))

# Every gradient in the package is validated against central differences.
w.zero_grad()
x.zero_grad()


def probe():
    return T.mean(T.tanh(T.linear(x, w)))


probe().backward()
err = max_rel_error(probe, w)
print(f"finite-difference relative error: {err:.2e}")
