"""Dense-tensor numeric core with reverse-mode automatic differentiation.

Just enough machinery to express and train the fusion classifier: 2-D
products with an optional fused bias (BLAS `matmuls` for projections, a
batch-independent `matmul` for the head), batched multi-head attention,
softmax, layer norm, dropout, temporal pooling, concatenation and a
handful of pointwise/reduction ops.
Values are float32 by default; float64 is supported so gradient
verification can run at full precision.

Sequences have one layout: the rows of B sequences stacked one after
another as an [N, C] tensor, plus a [B] array of per-sequence row
counts. `mean_pool` and `attention`'s queries take exactly that, and
`attention`'s keys/values are B equal blocks of rows; only the products
inside `attention` see a padded [B, heads, t, dh] layout.

Execution model
---------------
Ops run eagerly on numpy arrays. Inside a :class:`Graph` (entered as a
context manager), every op whose inputs require gradients appends a tape
entry and dropout fires; :meth:`Graph.backward` then walks the tape in
exact reverse execution order and returns the leaves' gradients. With no
graph (inference), nothing is recorded, no gradient is computed and
dropout is the identity.

The tape holds only what a vjp reads. An entry keeps its vjp, which
saves the arrays it needs, and names the op's outputs and inputs by
keys that hold no data; only leaves are held as tensors. So an op
output that no vjp reads (a dropout output, a residual sum, a layer
norm output) is freed as soon as the forward drops it. Backward
consumes the tape: it pops each entry before running its vjp, so what
the entry saved is freed once the vjp has run, and a second backward
on the same graph raises GraphUsageError. `len(graph)` counts the
recorded ops before and after.

Gradient ownership
------------------
Backward returns a dict from each leaf (a requires_grad tensor that no
op on the tape produced) to its gradient, and changes no tensor. While
it walks, it holds the leaves' gradients and one summed gradient for
each op output that gradient has reached and whose entry it has not
walked yet. A returned gradient is the very array a vjp returned (or
the sum of several), so two leaves may get one array (``add`` hands
``g`` to both operands) or arrays that share memory (``reshape`` returns
a view in both directions). So nothing may write into a returned
gradient or a vjp's input or output in place: read gradients, or
replace them, never mutate them.

NaN/Inf is a hard error at op boundaries: tensors are validated at
construction and every op validates its output, so divergence surfaces
at the first op that sees it. Vjps do not check their gradients; Adam
checks each gradient before it updates a parameter.

Threads
-------
The active graph is per thread, and one thread builds and walks a tape.
Concurrency lives inside ops: :func:`matmuls` runs independent products,
and its backward their vjps, as two halves on the calling thread and a
pool of (CPUs - 1) worker threads, made on first use (none with one
CPU); `training.adam_step` splits its tensors the same way. Workers only
run numpy work on arrays handed to them. Independent graphs may run on
separate threads.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import SplitMix64

_SUPPORTED_DTYPES = (np.float32, np.float64)

# Finite stand-in for -inf in attention masking; exp(-1e9) underflows to
# exactly 0 after max-subtraction, so masked rows carry zero weight.
MASK_BIAS = 1.0e9
# Added to layer_norm's variance before the square root; fixed.
LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NonFiniteError(ValueError):
    """A NaN or Inf appeared at an op boundary."""


class DegenerateInputError(ValueError):
    """Structurally valid input with no usable content (e.g. all rows masked)."""


class GraphUsageError(RuntimeError):
    """Graph/backward API used outside its contract."""


# Kept only because perfbench/tracing.py:81 reads this one-member enum and
# `Graph.mode`; ROADMAP item 1 deletes both together with that line.
class Mode(Enum):
    TRAINING = "training"


def _ensure_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value in {where}")


def memory_order(arr: np.ndarray) -> str:
    """"F" for a Fortran-ordered array that is not also C-contiguous, else
    "C": the order in which `np.reshape(arr, -1, order=...)` walks arr's
    memory, and so can view it without copying when arr is contiguous."""
    return "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous else "C"


class Tensor:
    """Dense float array, optionally marked as needing a gradient.

    Activations are row-major (C order). The model's weight matrices are
    output-major: Fortran order, so a logical [in, out] matrix holds each
    output column's weights together, as PyTorch's [out, in] nn.Linear
    weight does. Shape and indexing do not depend on the layout, and the
    constructor keeps the layout of the array it copies.

    `copy=False` adopts `data` as is when it already is an ndarray of the
    dtype; the caller hands that array over and keeps no other use of it.

    Tensor defines no __eq__, so it hashes by identity: two tensors with
    equal data are distinct dict keys, as in `Graph.backward`'s result.
    `_key` names an op output on the tape of the graph that recorded it
    (see `Graph._record`), and is None for any other tensor.
    """

    __slots__ = ("data", "requires_grad", "_key")

    def __init__(self, data, requires_grad: bool = False, dtype=None, *, copy: bool = True):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in _SUPPORTED_DTYPES:
                dtype = data.dtype
            else:
                dtype = np.float32
        elif np.dtype(dtype).type not in _SUPPORTED_DTYPES:
            raise TypeError(f"unsupported dtype {dtype}; use float32 or float64")
        arr = np.array(data, dtype=dtype, copy=True if copy else None)
        _ensure_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._key = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


@dataclass
class _TapeEntry:
    """One recorded op: vjp takes one gradient (or None) per output and
    returns one per input, which backward adds up in `inputs` order.

    Outputs and inputs are named as `Graph._name` names them, so an entry
    holds no op output."""

    outs: tuple[object, ...]
    inputs: tuple[object, ...]
    vjp: Callable[..., tuple[Optional[np.ndarray], ...]]


_ACTIVE = threading.local()


def active_graph() -> Optional["Graph"]:
    return getattr(_ACTIVE, "graph", None)


class Graph:
    """Ordered tape of executed ops; context manager activating recording.

    While a Graph is active, every op whose inputs require gradients is
    recorded on it and dropout fires. Inference runs with no graph.
    """

    mode = Mode.TRAINING

    def __init__(self):
        self._tape: list[_TapeEntry] = []  # in execution order
        self._recorded = 0  # op outputs keyed so far
        self._token = object()  # marks the keys this graph hands out
        self._walked = False
        self._outer: Optional[Graph] = None

    def __enter__(self) -> "Graph":
        self._outer = active_graph()
        _ACTIVE.graph = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.graph = self._outer
        self._outer = None

    def __len__(self) -> int:
        """Recorded ops, counting each `matmuls` member as a `matmul`;
        backward does not change it."""
        return self._recorded

    def _name(self, t: Tensor) -> object:
        """How this tape names t: None when t needs no gradient, its key
        when an op on this tape produced it, else t itself (a leaf)."""
        if not t.requires_grad:
            return None
        key = t._key
        return key if key is not None and key[0] is self._token else t

    def _record(self, outs: Sequence[Tensor], inputs: Sequence[Tensor], vjp) -> None:
        """Appends an entry for the op that made `outs` from `inputs`, and
        gives each requires_grad output a key: (this graph's token, its
        count), which holds no data."""
        for out in outs:
            if out.requires_grad:
                out._key = (self._token, self._recorded)
                self._recorded += 1
        self._tape.append(
            _TapeEntry(tuple(out._key for out in outs), tuple(map(self._name, inputs)), vjp)
        )

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d loss / d leaf for every leaf that loss depends on: each
        requires_grad tensor reachable from loss that no op on this tape
        produced. No tensor that an op on this tape produced is a key.

        Walks the tape in exact reverse execution order and consumes it:
        each entry, with the arrays its vjp saved, is freed once its vjp
        has run. A second call raises GraphUsageError. Changes no tensor.
        The gradients are not copied (see "Gradient ownership" in the
        module docstring).
        """
        if self._walked:
            raise GraphUsageError("backward already ran on this graph; its tape is consumed")
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise GraphUsageError("loss does not depend on any requires_grad tensor recorded here")

        self._walked = True
        flowing: dict = {self._name(loss): np.ones((), dtype=loss.dtype)}
        while self._tape:
            entry = self._tape.pop()
            g_outs = [flowing.pop(key, None) for key in entry.outs]
            if all(g is None for g in g_outs):
                continue
            for key, g_in in zip(entry.inputs, entry.vjp(*g_outs)):
                if g_in is not None:
                    seen = flowing.get(key)
                    flowing[key] = g_in if seen is None else seen + g_in
        # Whatever remains was never produced by a tape entry: the leaves.
        return {t: g for t, g in flowing.items() if isinstance(t, Tensor)}


def _result(out_data: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out._key = None
    return out


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], vjp, name: str) -> Tensor:
    """Wrap an op result, validating finiteness and recording if needed."""
    _ensure_finite(out_data, name)
    out = _result(out_data)
    graph = active_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        graph._record((out,), inputs, vjp)
    return out


def _same_dtype(*tensors: Tensor):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise TypeError(f"mixed dtypes in op: {[str(x.dtype) for x in tensors]}")
    return dt


# ---------------------------------------------------------------------------
# Worker pool

# A group of tasks goes to the worker pool only from this much work in all
# (multiply-adds for `matmuls`, element passes for `training.adam_step`);
# below it, the hand-off costs about what it saves. Fixed, not a setting.
POOL_MIN_WORK = 1 << 22

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """After fork: the child has none of the parent's worker threads."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool() -> Optional[ThreadPoolExecutor]:
    """The shared pool of up to CPUs - 1 worker threads, started as tasks
    find none idle, or None when the process may use one CPU."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            if (cpus or 1) < 2:
                return None
            _POOL = ThreadPoolExecutor(cpus - 1, thread_name_prefix="vemoclap-worker")
        return _POOL


def _settle(task: Callable):
    try:
        return task(), None
    except BaseException as exc:  # raised again once every task has finished
        return None, exc


def run_halves(tasks: Sequence[Callable], costs: Sequence[int]) -> list:
    """[task() for task in tasks] for independent tasks that run numpy
    work only: no op, no graph.

    The tasks split into two halves of about equal cost (largest first,
    each to the lighter half). From POOL_MIN_WORK in total, the pool runs
    the second half while this thread runs the first. If tasks raised,
    the first in task order raises again once every task has finished.
    """
    halves: tuple[list[int], list[int]] = ([], [])
    lead = 0  # the first half's cost minus the second's
    for i in sorted(range(len(tasks)), key=costs.__getitem__, reverse=True):
        second = lead > 0
        halves[second].append(i)
        lead += -costs[i] if second else costs[i]

    def settle(indices: list[int]) -> list:
        return [_settle(tasks[i]) for i in indices]

    pool = _pool() if len(tasks) > 1 and sum(costs) >= POOL_MIN_WORK else None
    there = pool.submit(settle, halves[1]) if pool is not None else None
    outcomes = dict(zip(halves[0], settle(halves[0])))
    outcomes.update(zip(halves[1], settle(halves[1]) if there is None else there.result()))
    for i in range(len(tasks)):
        if outcomes[i][1] is not None:
            raise outcomes[i][1]
    return [outcomes[i][0] for i in range(len(tasks))]


# ---------------------------------------------------------------------------
# Ops


# Products with fewer rows than this run as (b.T @ a.T).T. A batch-1
# request's projections have at most n = 16 rows; there BLAS streams an
# output-major weight about twice as fast this way round (0.19-0.40 ms
# against 0.46-0.77 ms per [16, 512|768] @ [512|768, 512] product with
# 12 weights taking turns in cache), with the same bits from 4 rows up.
# From about 192 rows on, a @ b is as fast or faster. Fixed, not a setting.
SMALL_PRODUCT_ROWS = 128


def _check_product(a: Tensor, b: Tensor, bias: Optional[Tensor], op: str) -> None:
    """Raises unless a @ b + bias is a product of 2-D operands of one dtype
    plus an optional [b.shape[1]] bias row."""
    _same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{op} needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op} inner dimensions differ: {a.shape} @ {b.shape}")
    if bias is not None:
        _same_dtype(a, bias)
        if bias.shape != (b.shape[1],):
            raise ShapeError(f"{op} bias must have shape ({b.shape[1]},), got {bias.shape}")


def _product_task(a: Tensor, b: Tensor, bias: Optional[Tensor], op: str) -> Callable[[], np.ndarray]:
    """Checks the operands of a @ b + bias and returns a task computing it
    with BLAS. An output with SMALL_PRODUCT_ROWS rows or more is allocated
    now, on the calling thread; the task fills it."""
    _check_product(a, b, bias, op)
    ad, bd = a.data, b.data
    buffer = None if ad.shape[0] < SMALL_PRODUCT_ROWS else np.empty((ad.shape[0], bd.shape[1]), ad.dtype)

    def task() -> np.ndarray:
        if buffer is None:
            out = np.ascontiguousarray((bd.T @ ad.T).T)
        else:
            out = np.matmul(ad, bd, out=buffer)
        if bias is not None:
            out += bias.data
        return out

    return task


def _product_vjp(a: Tensor, b: Tensor, bias: Optional[Tensor]):
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    nbias = bias is not None and bias.requires_grad

    def vjp(g):
        return (
            g @ bd.T if na else None,
            (g.T @ ad).T if nb else None,
            g.sum(axis=0) if nbias else None,
        )

    return vjp


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """2-D matrix product plus an optional bias row, a @ b + bias, with
    the bias and gradients of `matmuls`.

    BLAS picks its kernel by operand shape, so a row of a BLAS a @ b can
    round differently when a has 1 row than when it has 32. Here entry
    (i, j) is np.sum over the contiguous products a[i] * b[:, j], a
    pairwise sum, plus bias[j], so each output row has the same bits
    whatever rows a holds besides it. It materializes an [m, n, k]
    temporary, so it suits narrow products such as the classifier head.
    """
    _check_product(a, b, bias, "matmul")
    # b's columns made contiguous, so the k axis of the temporary is
    # contiguous too and numpy sums it pairwise, not one by one.
    out = (a.data[:, None, :] * np.ascontiguousarray(b.data.T)[None, :, :]).sum(axis=-1)
    if bias is not None:
        out += bias.data
    inputs = (a, b) if bias is None else (a, b, bias)
    return _emit(out, inputs, _product_vjp(a, b, bias), "matmul")


def matmuls(products: Sequence[tuple[Tensor, Tensor, Tensor]]) -> list[Tensor]:
    """[a @ b + bias for a, b, bias in products] for independent BLAS
    products, run as two halves of about equal cost on this thread and the
    worker pool (see `run_halves`), forward and backward.

    da = g @ b.T, db = (g.T @ a).T and dbias = g.sum(axis=0); db holds the
    values of a.T @ g, laid out output-major like the model's weights.
    The [n] bias is added in place into the fresh product, the same
    rounding as a separate `add` but with one pass and one tape entry
    fewer. With fewer than SMALL_PRODUCT_ROWS rows in a, the product is
    computed as (b.T @ a.T).T, which reads an output-major b faster. With
    OpenBLAS at the model's widths, db has the bits of a.T @ g, and the
    swapped product, from 4 rows up, the bits of a @ b.

    Each member gets the values and gradients that a one-member group
    would give it, to the bit. The group is one tape entry, which hands
    each input its gradients in the order separate one-member entries
    would have. A non-finite member raises NonFiniteError once every
    member has finished.
    """
    tasks = [_product_task(a, b, bias, "matmuls") for a, b, bias in products]
    costs = [a.shape[0] * a.shape[1] * b.shape[1] for a, b, _ in products]

    def forward(task: Callable[[], np.ndarray]) -> np.ndarray:
        out = task()
        _ensure_finite(out, "matmuls")
        return out

    outs = [_result(out) for out in run_halves([functools.partial(forward, t) for t in tasks], costs)]
    vjps = [_product_vjp(*member) for member in products]

    def vjp(*g_outs):
        live = [i for i, g in enumerate(g_outs) if g is not None]
        parts = run_halves([functools.partial(vjps[i], g_outs[i]) for i in live], [2 * costs[i] for i in live])
        grads = dict(zip(live, parts))
        # Members last to first, as separate entries are walked.
        return tuple(g for i in reversed(range(len(vjps))) for g in grads.get(i, (None,) * 3))

    needs = [any(t.requires_grad for t in member) for member in products]
    graph = active_graph()
    if graph is not None and any(needs):
        for out, need in zip(outs, needs):
            out.requires_grad = need
        graph._record(outs, [t for member in reversed(products) for t in member], vjp)
    return outs


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.shape}")
    return _emit(
        np.ascontiguousarray(x.data.T), (x,), lambda g: (np.ascontiguousarray(g.T),), "transpose"
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over rows of 2-D a."""
    _same_dtype(a, b)
    broadcast_bias = a.data.ndim == 2 and b.data.ndim == 1 and b.shape[0] == a.shape[1]
    if not broadcast_bias and a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} + {b.shape}")
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        gb = None
        if nb:
            gb = g.sum(axis=0) if broadcast_bias else g
        return (g if na else None, gb)

    return _emit(a.data + b.data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g * bd if na else None, g * ad if nb else None)

    return _emit(ad * bd, (a, b), vjp, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = x.dtype.type(c)
    return _emit(x.data * c, (x,), lambda g: (g * c,), "scale")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of a numpy array along its last axis, with max-subtraction."""
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching softmax's input from g, given its output."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    if x.data.ndim < 1:
        raise ShapeError("softmax needs at least one axis")
    out = _softmax(x.data)
    return _emit(out, (x,), lambda g: (_softmax_vjp(out, g),), "softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per last-axis slice: zero mean, unit variance (LAYER_NORM_EPS added
    to the variance), then gamma * xhat + beta."""
    _same_dtype(x, gamma, beta)
    c = x.shape[-1] if x.data.ndim else 0
    if c < 1:
        raise ShapeError("layer_norm needs a nonempty last axis")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},), got {gamma.shape} / {beta.shape}")
    xd = x.data
    xhat = xd - xd.mean(axis=-1, keepdims=True)  # centred here, scaled below
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    gd = gamma.data
    nx, ng, nb = x.requires_grad, gamma.requires_grad, beta.requires_grad
    lead_axes = tuple(range(xd.ndim - 1))

    def vjp(g):
        grad_x = None
        if nx:
            dxhat = g * gd
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            grad_x = inv * (dxhat - m1 - xhat * m2)
        grad_gamma = (g * xhat).sum(axis=lead_axes) if ng else None
        grad_beta = g.sum(axis=lead_axes) if nb else None
        return (grad_x, grad_gamma, grad_beta)

    return _emit(xhat * gd + beta.data, (x, gamma, beta), vjp, "layer_norm")


def dropout(x: Tensor, p: float, rng: Optional[SplitMix64] = None) -> Tensor:
    """Inverted dropout: active only inside a Graph, identity with no graph.

    Each element is zeroed independently with probability p and survivors
    are scaled by 1/(1-p), so inference needs no rescaling.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if active_graph() is None or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout with p > 0 inside a Graph requires an rng")
    # rng.random(shape) >= p, decided on the raw draws: random() is
    # (raw >> 11) * 2**-53, and for an integer u, u * 2**-53 >= p exactly
    # when u >= ceil(p * 2**53), i.e. raw >= ceil(p * 2**53) << 11 (which
    # fits in 64 bits because p < 1). One draw per element, same order.
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    keep = (rng.next_raw(x.size) >= threshold).reshape(x.shape)
    dt = x.dtype.type

    def scaled_mask() -> np.ndarray:
        # The tape keeps the bool mask, a quarter of the float's bytes.
        return keep.astype(dt) / dt(1.0 - p)

    return _emit(x.data * scaled_mask(), (x,), lambda g: (g * scaled_mask(),), "dropout")


def _layout(n_rows: int, lengths, what: str) -> tuple[int, Optional[np.ndarray]]:
    """(t, valid) for `n_rows` row-stacked rows of len(lengths) sequences.

    Sequence i holds lengths[i] >= 1 rows and the padded layout has
    t = max(lengths) rows per sequence. `valid` is the [batch, t] mask of
    real rows, or None when no row is padding, in which case the padded
    layout is a plain reshape of the rows.
    """
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or lengths.size < 1 or lengths.min() < 1 or int(lengths.sum()) != n_rows:
        raise ShapeError(f"{what} lengths must be B >= 1 positive counts summing to {n_rows}: {lengths}")
    t = int(lengths.max())
    return t, None if lengths.min() == t else np.arange(t) < lengths[:, None]


def _pad(rows: np.ndarray, batch: int, t: int, valid: Optional[np.ndarray], heads: int) -> np.ndarray:
    """[N, d] row-stacked rows as [batch, heads, t, d/heads] blocks, padding with zeros."""
    split = rows.reshape(rows.shape[0], heads, -1)
    if valid is None:
        blocks = split.reshape(batch, t, *split.shape[1:])
    else:
        blocks = np.zeros((batch, t) + split.shape[1:], dtype=rows.dtype)
        blocks[valid] = split
    return blocks.transpose(0, 2, 1, 3)


def _unpad(blocks: np.ndarray, valid: Optional[np.ndarray]) -> np.ndarray:
    """Inverse of `_pad`: the real rows of [batch, heads, t, dh] blocks as [N, d]."""
    rows = blocks.transpose(0, 2, 1, 3)
    if valid is not None:
        rows = rows[valid]
    return rows.reshape(-1, rows.shape[-2] * rows.shape[-1])


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    q_lengths: np.ndarray,
    kv_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Multi-head scaled dot-product attention over row-stacked sequences.

    q is [N_q, d]: the rows of B sequences stacked row-wise, sequence i
    holding q_lengths[i] rows. k and v are [N_kv, d]: B sequences of
    N_kv / B rows each. Each row splits into `heads` column blocks of width
    dh = d / heads. Per sequence and head the op computes
    softmax(q k^T / sqrt(dh) + bias) v, heads merged back into [N_q, d].

    The key/value rows are a plain reshape into [B, heads, t, dh] blocks.
    The query rows are scattered into zero-padded blocks of the longest
    query sequence (a reshape too when no sequence is shorter), and only
    the real ones are gathered back, forward and backward.

    `kv_mask`, when given, is an [N_kv] boolean array with True marking
    attendable key/value rows. Masked rows get a -MASK_BIAS score bias,
    which underflows to exactly zero weight after the softmax's
    max-subtraction, so they also get exactly zero gradient.
    """
    _same_dtype(q, k, v)
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"attention needs 2-D operands, got {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[1]
    if k.shape != v.shape or k.shape[1] != d:
        raise ShapeError(f"attention operand widths differ: {q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or d % heads:
        raise ShapeError(f"width {d} is not divisible by heads={heads}")
    t_q, q_pad = _layout(q.shape[0], q_lengths, "query")
    batch = len(q_lengths)
    t_kv, uneven = divmod(k.shape[0], batch)
    if uneven or not t_kv:
        raise ShapeError(f"{k.shape[0]} key/value rows do not split evenly into {batch} nonempty sequences")
    kv_keep = None
    if kv_mask is not None:
        kv_mask = np.asarray(kv_mask, dtype=bool)
        if kv_mask.shape != (k.shape[0],):
            raise ShapeError(f"kv_mask must have shape ({k.shape[0]},), got {kv_mask.shape}")
        kv_keep = kv_mask.reshape(batch, t_kv)
        if not kv_keep.any(axis=1).all():
            raise DegenerateInputError("attention: every key/value row of a sequence is masked")
    dt = q.dtype.type
    scale_c = dt(1.0 / np.sqrt(d // heads))

    qh = _pad(q.data, batch, t_q, q_pad, heads)
    kh = _pad(k.data, batch, t_kv, None, heads)
    vh = _pad(v.data, batch, t_kv, None, heads)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale_c
    if kv_keep is not None:
        scores += np.where(kv_keep, dt(0.0), dt(-MASK_BIAS))[:, None, None, :]
    weights = _softmax(scores)
    nq, nk, nv = q.requires_grad, k.requires_grad, v.requires_grad

    def vjp(g):
        gh = _pad(g, batch, t_q, q_pad, heads)
        g_scores = _softmax_vjp(weights, np.matmul(gh, vh.transpose(0, 1, 3, 2)))
        g_scores *= scale_c
        return (
            _unpad(np.matmul(g_scores, kh), q_pad) if nq else None,
            _unpad(np.matmul(g_scores.transpose(0, 1, 3, 2), qh), None) if nk else None,
            _unpad(np.matmul(weights.transpose(0, 1, 3, 2), gh), None) if nv else None,
        )

    return _emit(_unpad(np.matmul(weights, vh), q_pad), (q, k, v), vjp, "attention")


def mean_pool(x: Tensor, lengths: np.ndarray) -> Tensor:
    """Per-sequence mean of [N, c] row-stacked sequences.

    x holds lengths[i] >= 1 rows of sequence i after those of sequence
    i - 1, N = sum(lengths), and output row i is the mean of sequence i's
    rows. They are summed in the padded [b, max(lengths), c] layout, zeros
    after the real rows (a plain reshape when all lengths are equal), and
    divided by the length: bit for bit the masked mean of that layout.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"mean_pool needs [N, c] rows, got {x.shape}")
    lengths = np.asarray(lengths)
    t, pad = _layout(x.shape[0], lengths, "pooled")
    blocks = _pad(x.data, lengths.shape[0], t, pad, 1)[:, 0]
    count = lengths.astype(x.dtype)[:, None]
    inv = 1.0 / count

    return _emit(
        blocks.sum(axis=1) / count, (x,), lambda g: (np.repeat(g * inv, lengths, axis=0),), "mean_pool"
    )


def concat(xs: Sequence[Tensor]) -> Tensor:
    """Order-preserving concatenation of 1-D tensors."""
    if len(xs) == 0:
        raise ValueError("concat needs a nonempty list")
    _same_dtype(*xs)
    for t in xs:
        if t.data.ndim != 1:
            raise ShapeError(f"concat needs 1-D tensors, got shape {t.shape}")
    sizes = [t.shape[0] for t in xs]
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in xs]

    def vjp(g):
        return tuple(
            g[offsets[i]:offsets[i + 1]] if needs[i] else None for i in range(len(sizes))
        )

    return _emit(np.concatenate([t.data for t in xs]), tuple(xs), vjp, "concat")


def concat_cols(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along columns. `model.forward` joins each
    video's three pooled pairing outputs and two sentiment vectors with it."""
    if len(xs) == 0:
        raise ValueError("concat_cols needs a nonempty list")
    _same_dtype(*xs)
    rows = xs[0].shape[0]
    for t in xs:
        if t.data.ndim != 2 or t.shape[0] != rows:
            raise ShapeError(f"concat_cols needs 2-D tensors with {rows} rows, got {t.shape}")
    widths = [t.shape[1] for t in xs]
    offsets = np.cumsum([0] + widths)
    needs = [t.requires_grad for t in xs]

    def vjp(g):
        return tuple(
            g[:, offsets[i]:offsets[i + 1]] if needs[i] else None for i in range(len(widths))
        )

    out = np.concatenate([t.data for t in xs], axis=1)
    return _emit(out, tuple(xs), vjp, "concat_cols")


def stack_rows(xs: Sequence[Tensor]) -> Tensor:
    """Stack equal-length 1-D tensors into a [len(xs), c] tensor."""
    if len(xs) == 0:
        raise ValueError("stack_rows needs a nonempty list")
    _same_dtype(*xs)
    width = xs[0].shape[0]
    for t in xs:
        if t.data.ndim != 1 or t.shape[0] != width:
            raise ShapeError(f"stack_rows needs 1-D tensors of length {width}, got {t.shape}")
    needs = [t.requires_grad for t in xs]

    def vjp(g):
        return tuple(g[i] if needs[i] else None for i in range(len(xs)))

    return _emit(np.stack([t.data for t in xs], axis=0), tuple(xs), vjp, "stack_rows")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-D tensor; backward scatters into zeros."""
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-D tensor, got {x.shape}")
    if not 0 <= start < stop <= x.shape[1]:
        raise ValueError(f"column range [{start}, {stop}) invalid for shape {x.shape}")
    xd = x.data

    def vjp(g):
        full = np.zeros_like(xd)
        full[:, start:stop] = g
        return (full,)

    return _emit(xd[:, start:stop].copy(), (x,), vjp, "slice_cols")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape
    # A view both ways; see "Gradient ownership" in the module docstring.
    return _emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),), "reshape")


def log(x: Tensor) -> Tensor:
    """Natural log; log(0) trips the finiteness check at the op boundary."""
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(xd)
    return _emit(out, (x,), lambda g: (g / xd,), "log")


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is zero where the floor is active."""
    xd = x.data
    passthrough = (xd > floor).astype(x.dtype)
    return _emit(np.maximum(xd, x.dtype.type(floor)), (x,), lambda g: (g * passthrough,), "clamp_min")


def take_per_row(x: Tensor, cols: Sequence[int]) -> Tensor:
    """out[i] = x[i, cols[i]] for a 2-D tensor; backward scatter-adds."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_per_row needs a 2-D tensor, got {x.shape}")
    idx = np.asarray(cols, dtype=np.int64)
    b, k = x.shape
    if idx.shape != (b,):
        raise ValueError(f"need one column index per row ({b}), got shape {idx.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= k:
        raise ValueError(f"column index out of range [0, {k})")
    rows = np.arange(b)
    xd = x.data

    def vjp(g):
        full = np.zeros_like(xd)
        np.add.at(full, (rows, idx), g)
        return (full,)

    return _emit(xd[rows, idx], (x,), vjp, "take_per_row")


def sum_all(x: Tensor) -> Tensor:
    xd = x.data

    def vjp(g):
        return (np.full(xd.shape, g, dtype=xd.dtype),)

    return _emit(np.asarray(xd.sum(), dtype=x.dtype), (x,), vjp, "sum_all")


# ---------------------------------------------------------------------------
# Gradient verification

# Loss ulps that grad_check forgives in each central difference. A
# parameter whose true gradient is exactly zero (every attention key bias:
# softmax cancels a uniform score shift) still moves the float64 loss by
# up to 2 ulps at the gradcheck CLI's default config; 8 leaves 4x headroom.
FD_NOISE_ULPS = 8


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    checked: int


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-4,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar f against central differences.

    f must be deterministic; this is enforced by running two forward passes
    inside a Graph and demanding bitwise-equal outputs (dropout fed from an
    advancing stream fails this check). The relative
    error per element is max(|g_ad - g_fd| - noise, 0) / max(|g_ad|, |g_fd|, 1e-8),
    where noise = FD_NOISE_ULPS * ulp(loss) / (hi_x - lo_x) is the central
    difference's own rounding: without it, an exactly zero gradient fails
    whenever the ±eps losses differ by one ulp.

    Two precision notes. Central differences carry O(eps^2) truncation
    error, so a 1e-4 tolerance needs eps around 1e-4 on softmax-heavy
    graphs; a failure that shrinks ~100x when eps drops 10x is oracle
    truncation, not a wrong gradient. And float32 storage quantizes the
    loss at ~1e-7 relative, swamping the tolerance entirely: verify
    float64 tensors (see the tiny-config verification suite).

    A ValueError names `eps` when it is not finite and positive or when
    some x[i] + eps == x[i] - eps in x's dtype, and `tol` when it is not
    finite and nonnegative.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    with np.errstate(over="ignore"):  # an eps past x's range moves x to +-inf
        unmoved = int(np.count_nonzero(x.data + eps == x.data - eps))
    if unmoved:
        raise ValueError(
            f"eps {eps!r} is too small for x: x[i] + eps == x[i] - eps at {unmoved} "
            f"of {x.size} entries"
        )

    def run_forward() -> Tensor:
        with Graph():
            return f(x)

    y1 = run_forward()
    y2 = run_forward()
    if y1.shape != ():
        raise ShapeError(f"grad_check needs a scalar-valued f, got shape {y1.shape}")
    if not np.array_equal(y1.data, y2.data):
        raise GraphUsageError(
            "f is not deterministic (two forward passes differ); "
            "disable dropout or fix the rng stream"
        )

    order = memory_order(x.data)
    prev_requires = x.requires_grad
    x.requires_grad = True
    try:
        with Graph() as g:
            y = f(x)
        grad = g.backward(y).get(x)
    finally:
        x.requires_grad = prev_requires
    if grad is None:
        raise GraphUsageError("f does not depend on x; nothing to check")
    # Element i of g_ad belongs to element i of `flat` below.
    g_ad = np.reshape(grad.astype(np.float64), -1, order=order)

    # A view in the data's own memory order, so each perturbation reaches
    # x itself (a copy would leave f's input unchanged).
    flat = np.reshape(x.data, -1, order=order, copy=False)
    g_fd = np.empty(flat.size, dtype=np.float64)
    noise = np.empty(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi_x, hi_y = float(flat[i]), run_forward().data
        flat[i] = orig - eps
        lo_x, lo_y = float(flat[i]), run_forward().data
        flat[i] = orig
        step = hi_x - lo_x
        g_fd[i] = (float(hi_y) - float(lo_y)) / step
        noise[i] = FD_NOISE_ULPS * float(np.spacing(max(abs(hi_y), abs(lo_y)))) / step

    denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-8)
    rel = np.maximum(np.abs(g_ad - g_fd) - noise, 0.0) / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(
        max_rel_err=max_rel,
        tol=tol,
        passed=max_rel <= tol,
        checked=int(flat.size),
    )
