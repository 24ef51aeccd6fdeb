"""Tour of the autograd core: tensors, the tape, backward, grad_check."""

import numpy as np

import vemoclap.autograd as ag
from vemoclap.autograd import Graph, Mode, Tensor
from vemoclap.rng import SplitMix64

# Tensors are float32 numpy arrays, optionally marked as needing a gradient.
a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
b = Tensor([[5.0, 6.0], [7.0, 8.0]])
print("a @ b =\n", ag.matmul(a, b).data)

# Ops record onto a tape only inside a TRAINING graph. backward() walks the
# tape in reverse execution order and returns the gradients of the leaves:
# tensors that require gradients and that no recorded op produced (here a,
# not product or loss). It changes no tensor.
with Graph(Mode.TRAINING) as graph:
    product = ag.matmul(a, b)
    loss = ag.sum_all(product)
print("tape length:", len(graph))
grads = graph.backward(loss)
print("d(sum(a@b))/da =\n", grads[a])  # rows of ones times b^T

# Softmax is max-shifted, so huge logits stay finite:
logits = Tensor([1000.0, 1000.0, 999.0])
print("softmax([1000, 1000, 999]) =", ag.softmax(logits).data)

# Dropout is inverted: train-time survivors are scaled by 1/(1-p) so
# inference needs no correction. Outside a TRAINING graph it is identity.
x = Tensor(np.ones(10, dtype=np.float32))
with Graph(Mode.TRAINING):
    dropped = ag.dropout(x, 0.5, SplitMix64(7).derive("demo"))
print("dropout(ones, p=0.5):", dropped.data)
print("inference dropout is the same object:", ag.dropout(x, 0.5) is x)

# grad_check compares the tape's gradients against central differences.
# Use float64 for the check: float32 loss quantization swamps a 1e-4 tol.
y = Tensor(np.linspace(-1.0, 1.0, 5), dtype=np.float64)


def pick_largest_probability(t):
    return ag.reshape(ag.take_per_row(ag.reshape(ag.softmax(t), (1, 5)), [4]), ())


print("grad_check:", ag.grad_check(pick_largest_probability, y))
