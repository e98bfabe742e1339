"""Dense tensor arithmetic with reverse-mode differentiation.

Everything trainable in this package is built from the small set of
primitives below: a ``Tensor`` records the operations applied to it in a
DAG, and ``Tensor.backward`` replays the DAG in reverse topological order
to accumulate gradients.  Tensors hold float64 by default or float32
inside a ``precision`` context, and ``no_grad`` turns recording off; both
are context variables, so each thread keeps its own setting.
Computation is numpy, and each kernel runs once on its whole arrays.
One pool of threads, one per CPU, takes the chunks `_in_parts` cuts
from a block's input, as ``network.PoseLifter.forward`` decides: a
no-grad batch's groups of sequences, a single large sequence's block
chunks, or a training step's HGA-core and encoder chunks, each with its
own tape; the parts' outputs are joined into one array of the shape and
dtype they return.  The parts of such a recorded deal hold their chunk
on front axis ``ndim - 3`` of the block's arrays (``ndim`` is the rank
of the block's input), draw each dropout mask whole, and have `Tensor._accum`
hand each parameter gradient they make over unreduced, so that each is
reduced once as the serial backward reduces it; the parts meet at these
whole arrays one array at a time (`_Recorded`).  None of this changes the
arithmetic, so identical inputs reproduce bit-identical results whatever
the number of CPUs.

The differentiation contract is empirical, not structural: every
differentiable operation must pass ``grad_check`` (central finite
differences, eps 1e-5) to better than 1e-4 relative error.

Also houses the ``Module`` base that finds a model's parameters and
buffers, and the checkpoint format: ``HGFW1`` magic followed by
per-entry records (u32 name length, UTF-8 name bytes, u32 rank, u32 dims,
little-endian f32 payload).
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.special import erf as _erf_np

from .errors import (ConfigError, DataError, DivergenceError, FormatError, ShapeError,
                     TruncatedFileError)

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Per-context state: a thread, or a part that `_deal` runs, sees its own.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)
_default_dtype = contextvars.ContextVar("default_dtype", default=np.float64)
# The part of a recorded deal whose backward runs in this context (`_Part`).
_part = contextvars.ContextVar("part", default=None)


class no_grad:
    """Context manager that skips tape construction (inference only) in the
    current context; other threads keep their own setting."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


class precision:
    """Context manager selecting the dtype newly created Tensors use in the
    current context; other threads keep their own setting.

    Tests and gradient checks run in float64 (the default); training may
    switch to float32 for speed.
    """

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype).type
        if self._dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported tensor dtype {dtype!r}")

    def __enter__(self):
        self._token = _default_dtype.set(self._dtype)
        return self

    def __exit__(self, *exc):
        _default_dtype.reset(self._token)
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 or float32 ndarray plus the tape machinery for reverse mode.

    ``data`` is the value, ``grad`` (same shape) accumulates d(output)/d(self)
    after ``backward`` runs on a downstream scalar.  Tensors are treated as
    immutable by all operations; optimizers rebind ``data`` rather than
    mutating through views.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype.get())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled.get() and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accum(self, g, owned: bool = False) -> None:
        """Add `g`, summed down to this tensor's shape (`_unbroadcast`), to
        ``grad``; `owned` says the caller freshly allocated `g`, which is
        otherwise copied on first write (it may be a view into another
        node's grad).  A pair (a, b) for `g` stands for the batched product
        a @ b.  In the backward of a part of a recorded deal a Parameter's
        gradient is instead handed, unreduced, to the deal (`_Part.defer`),
        which forms such a product in its rows."""
        if not self.requires_grad:
            return
        if type(self) is Parameter:
            part = _part.get()
            if part is not None:
                part.defer(self, g)
                return
        if isinstance(g, tuple):
            g, owned = np.matmul(*g), True
        if g.shape != self.data.shape:
            g, owned = _unbroadcast(g, self.data.shape), True
        if self.grad is None:
            self.grad = g if owned else np.array(g)
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor w.r.t. every ancestor.

        ``seed`` defaults to ones (i.e. differentiate the sum of entries);
        pass an array of this tensor's shape to seed differently.  A seed
        of another shape raises ShapeError.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        seed = np.ones_like(self.data) if seed is None else np.asarray(seed, self.data.dtype)
        if seed.shape != self.data.shape:
            raise ShapeError(f"backward seed {seed.shape} vs tensor {self.data.shape}")
        # Iterative post-order over the DAG; training graphs are deeper
        # than the default recursion limit.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accum(seed)
        while order:  # popped, so that a node is freed once propagated
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    # Interior gradients and captured forward temporaries are
                    # dead once propagated; free them so buffers get reused.
                    node.grad = None
                    node._backward = None
                    node._parents = ()

    # -- conveniences --------------------------------------------------------

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic primitives ----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def bw(g):
            self._accum(g)
            other._accum(g)

        return Tensor._node(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def bw(g):
            self._accum(-g, owned=True)

        return Tensor._node(-self.data, (self,), bw)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                self._accum(g * other.data, owned=True)
            if other.requires_grad:
                other._accum(g * self.data, owned=True)

        return Tensor._node(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        out_data = a @ b

        def bw(g):
            if self.requires_grad:
                self._accum(g @ np.swapaxes(b, -1, -2), owned=True)
            if other.requires_grad:
                other._accum(np.swapaxes(a, -1, -2) @ g, owned=True)

        return Tensor._node(out_data, (self, other), bw)

    # -- reductions and shape ops ---------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        out_data = self.data.sum(axis=axis)

        def bw(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._node(np.asarray(out_data), (self,), bw)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bw(g):
            self._accum(g.reshape(self.data.shape))

        return Tensor._node(out_data, (self,), bw)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        # Materialize: downstream kernels are much faster on contiguous data.
        out_data = np.ascontiguousarray(np.swapaxes(self.data, a, b))

        def bw(g):
            self._accum(np.swapaxes(g, a, b))

        return Tensor._node(out_data, (self,), bw)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            self._accum(full, owned=True)

        return Tensor._node(out_data, (self,), bw)


class Parameter(Tensor):
    """A named trainable Tensor; names must be unique within a model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Module:
    """A model building block whose state is found by walking its attributes.

    The walk visits attributes in definition order and enters Parameters,
    Modules, and lists or tuples of them.  A Parameter keeps its own name;
    a plain ndarray attribute is a buffer (saved and loaded, not trained)
    named ``{self.prefix}.{attr}``, so a module with buffers sets `prefix`.
    """

    def named_state(self):
        """Yield (name, Parameter or buffer ndarray) in definition order."""
        for attr, value in vars(self).items():
            if isinstance(value, np.ndarray):
                yield f"{self.prefix}.{attr}", value
            else:
                yield from _named_state(value)

    def parameters(self) -> list:
        return [v for _, v in self.named_state() if isinstance(v, Parameter)]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict:
        return {name: v.data if isinstance(v, Parameter) else v
                for name, v in self.named_state()}

    def load_state_dict(self, state: dict) -> None:
        """Copy `state` into the parameters and buffers, checked strictly.

        A missing or unknown name raises ConfigError, a wrong shape
        ShapeError and a non-finite value DataError; nothing is written
        unless every entry passes.
        """
        own = dict(self.named_state())
        if own.keys() != state.keys():
            missing = sorted(own.keys() - state.keys())
            unknown = sorted(state.keys() - own.keys())
            raise ConfigError(f"checkpoint names differ from the model's: {len(missing)} "
                              f"missing {missing[:3]}, {len(unknown)} unknown {unknown[:3]}")
        values = {}
        for name, target in own.items():
            current = target.data if isinstance(target, Parameter) else target
            value = np.array(state[name], dtype=current.dtype)
            if value.shape != current.shape:
                raise ShapeError(f"{name}: checkpoint shape {value.shape} vs model {current.shape}")
            if not np.isfinite(value).all():
                raise DataError(f"{name}: non-finite values in checkpoint")
            values[name] = value
        for name, target in own.items():
            if isinstance(target, Parameter):
                target.data = values[name]
            else:
                target[...] = values[name]


def _named_state(value):
    if isinstance(value, Parameter):
        yield value.name, value
    elif isinstance(value, Module):
        yield from value.named_state()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _named_state(item)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def l2norm_last(x) -> Tensor:
    """Euclidean norm over the trailing axis, with subgradient 0 at zero."""
    x = as_tensor(x)
    out_data = np.sqrt((x.data ** 2).sum(axis=-1))

    def bw(g):
        inv = np.divide(1.0, out_data, out=np.zeros_like(out_data), where=out_data > 0)
        x._accum((g * inv)[..., None] * x.data, owned=True)

    return Tensor._node(out_data, (x,), bw)


# -- layers ---------------------------------------------------------------

# Cut-offs, each measured in the docstring of the function named.
_FLAT_GEMM_MIN_WEIGHT = 1 << 16   # weight entries from which `linear` flattens its GEMM
_ROW_SWEEP_BELOW = 32             # softmax row length below which `_row_max` sweeps
_ATTENTION_SLICE_BYTES = 1 << 21  # scores per slice in `scaled_dot_attention`


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_WORKERS = _cpu_count()
_pool = None  # (ThreadPoolExecutor, its thread count), made by the first deal


def _one_malloc_arena() -> None:
    """Have threads started from now on allocate from glibc's main malloc
    arena (``mallopt(M_ARENA_MAX, 1)``); elsewhere do nothing.  A pool
    thread with an arena of its own keeps what its parts of a training
    step free apart from the caller's heap.  perfbench train-t27, seed 29,
    10 s runs, peak RSS: 321-322 MB serially; dealt, 330-350 MB over six
    runs (two near 349 MB) with such an arena and 331-334 MB over six with
    the shared one, at the same speed.  numpy allocates with the GIL held,
    so the threads hardly contend for the arena's lock.
    """
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX
    except (AttributeError, OSError, TypeError):  # not glibc
        pass


def _deal(run, count: int) -> None:
    """Run ``run(first, last)`` over range(count) in contiguous runs, one
    part per CPU the process may use.

    The caller runs the first part and a lazily made thread pool the
    others, each in a copy of the caller's context, so numpy's error state
    (``np.errstate``), `no_grad` and `precision` hold in every part and
    what a part sets there stays in that part.  The call returns, or
    raises the first part's exception, only once every part has finished.
    Its one caller is `_in_parts`, for a forward's parts and for the
    backward of a recorded deal's parts, which ``Tensor.backward`` reaches
    on the caller's thread.  Parts never deal again: a pool thread
    that waited on its own pool would wait forever.
    """
    parts = min(_WORKERS, count)
    if parts <= 1:
        run(0, count)
        return
    global _pool
    if _pool is None or _pool[1] != _WORKERS - 1:
        _one_malloc_arena()
        _pool = (ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="poselift-part"),
                 _WORKERS - 1)
    deal = [count * i // parts for i in range(parts + 1)]
    futures = [_pool[0].submit(contextvars.copy_context().run, run, first, last)
               for first, last in zip(deal[1:-1], deal[2:])]
    try:
        contextvars.copy_context().run(run, deal[0], deal[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _empty_in_layout(a: np.ndarray, shape: tuple) -> np.ndarray:
    """An uninitialised array of `shape` and a's dtype whose axes lie in
    memory in the order a's do (by stride, largest first)."""
    order = sorted(range(a.ndim), key=lambda i: -a.strides[i])
    return np.empty([shape[i] for i in order], a.dtype).transpose(np.argsort(order))


class _Recorded:
    """What the parts of one recorded deal share (`_in_parts`).

    Such a deal runs a block on chunks of its input, each part recording
    its own tape on its own thread, and the block's own arrays hold a
    part's chunk on front axis `axis`, cut at `cuts`: axis 1 of a batch's
    (B, T, N, C) encoder arrays and (B, T, h, N, d) head-split HGA arrays
    alike.  The parts meet at whole arrays (`share`), so that dropout
    draws and gradients come out as one serial block makes them:

    - the parts' k-th dropout draw is one ``rng.random`` draw of the whole
      mask, made by whichever part reaches it first, so in the serial
      order, and each part takes its rows of it (`_Part.random`);
    - in a part's backward, each Parameter gradient is handed over
      unreduced (`_Part.defer`): its rows go into one full array, made by
      the first writer in its layout, and the last writer reduces it once
      with `_unbroadcast`, as the serial backward reduces the same array
      in the same layout.  `finish` then adds the results to the
      parameters in the order of their contributions;
    - the block's input gradient rows go into one array likewise.

    One shared array is in use at a time: a part that would make a new one
    waits while another is.  Every part reaches the same arrays in the same
    order, so a part that has not used the array in use reaches it next,
    without making one, and the deal cannot stall; a failing part releases
    every wait.  The rule has no size in it: perfbench train-t27 (seed 29,
    two workers sharing one malloc arena) holds one shared array of at
    most 7.08 MB at a time, where a budget letting 1 MiB of them wait held
    up to three; a step's traced peak, at the end of its forward, is 237.6
    MiB either way, and peak RSS read 334.6-338.5 MB against 333.9-337.7
    MB with the budget over ten alternating 30 s pairs, at the same speed.
    Each part must run on its own thread, so there are at most _WORKERS
    parts.
    """

    def __init__(self, rng, cuts: list, axis: int):
        self.rng, self.cuts, self.axis = rng, cuts, axis
        self.parts = len(cuts) - 1
        if self.parts > _WORKERS:
            raise ValueError(f"a recorded deal of {self.parts} parts on {_WORKERS} CPUs")
        self.turn = threading.Condition()
        self.failed = False
        self.arrays = {}    # key -> [shared array, parts that used it]
        self.reduced = []   # (contribution number, Parameter, reduced gradient)

    def share(self, key, make, use) -> np.ndarray | None:
        """``use(a)`` on the shared array `a` for `key`, which the first part
        to reach `key` makes with ``make()``; `a` to the part that uses it
        last, as the deal drops it, else None."""
        with self.turn:
            while key not in self.arrays and self.arrays and not self.failed:
                self.turn.wait()
            entry = self.arrays.get(key)
            if entry is None:
                entry = self.arrays[key] = [make(), 0]
        use(entry[0])
        with self.turn:
            entry[1] += 1
            if entry[1] < self.parts:
                return None
            del self.arrays[key]
            self.turn.notify_all()
        return entry[0]

    def finish(self) -> None:
        """Add every reduced parameter gradient, in contribution order."""
        for _, p, g in sorted(self.reduced, key=lambda r: r[0]):
            p._accum(g, owned=True)


class _Part:
    """Part `i` of a recorded deal (`_Recorded`): the source of its dropout
    draws, and what runs its forward and backward.  Its `rows` select its
    chunk, on the deal's front axis, of a whole array of the block's."""

    def __init__(self, shared: _Recorded, i: int):
        self.shared = shared
        self.rows = (slice(None),) * shared.axis + (slice(shared.cuts[i], shared.cuts[i + 1]),)
        self.size = shared.cuts[i + 1] - shared.cuts[i]
        self.reached = {}

    def _whole(self, shape: tuple) -> tuple:
        axis = self.shared.axis
        if len(shape) <= axis or shape[axis] != self.size:
            raise ShapeError(f"a dealt block's array {shape} does not hold its chunk "
                             f"on front axis {axis}")
        return shape[:axis] + (self.shared.cuts[-1],) + shape[axis + 1:]

    def _next(self, name) -> tuple:
        """(name, how often this part reached it before): a shared array's key."""
        k = self.reached.get(name, 0)
        self.reached[name] = k + 1
        return name, k

    def random(self, shape: tuple) -> np.ndarray:
        """This part's rows of the next draw, as ``rng.random`` of the whole."""
        whole, mine = self._whole(shape), []
        self.shared.share(self._next("draw"), lambda: self.shared.rng.random(whole),
                          lambda a: mine.append(a[self.rows]))
        return mine[0]

    def defer(self, p: Tensor, g: np.ndarray) -> None:
        """Take Parameter `p`'s unreduced gradient rows `g` (see `_Recorded`)."""
        key = self._next(id(p))
        if isinstance(g, tuple):
            whole = self._whole(np.broadcast_shapes(g[0].shape[:-2], g[1].shape[:-2])
                                + (g[0].shape[-2], g[1].shape[-1]))
            full = self.shared.share(key, lambda: np.empty(whole, np.result_type(*g)),
                                     lambda a: np.matmul(*g, out=a[self.rows]))
        else:
            whole = self._whole(g.shape)
            full = self.shared.share(key, lambda: _empty_in_layout(g, whole),
                                     lambda a: np.copyto(a[self.rows], g))
        if full is not None:
            reduced = _unbroadcast(full, p.data.shape)
            with self.shared.turn:
                self.shared.reduced.append((key[1], p, reduced))

    def run(self, fn, *args):
        """``fn(*args)`` as this part, deferring its parameter gradients;
        an exception releases the other parts' waits."""
        token = _part.set(self)
        try:
            return fn(*args)
        except BaseException:
            with self.shared.turn:
                self.shared.failed = True
                self.shared.turn.notify_all()
            raise
        finally:
            _part.reset(token)


def _in_parts(block, x: Tensor, axis: int, count: int, rng=None) -> Tensor:
    """``block(x, rng)``, computed in `count` chunks of `x` on `axis`, for a
    `block` that maps each index of `x` on `axis` alone to an output of x's
    rank.  The chunks are balanced cuts and views of `x`; `_deal` hands
    them out in contiguous runs, one part per CPU.  No part deals again.
    Once every part has finished, the chunks' outputs are joined on `axis`
    into one array, so a block that widens the dtype or changes the width
    gives the serial block's result.  The output is made only once the
    parts' temporaries are freed: made by the first part to finish a
    chunk, while other parts' temporaries were live, it raised perfbench
    lift-t243's peak RSS (seed 29, 30 s runs) to 175.6 and 179.3 MB in 2
    of 18 runs, against 169.4-171.0 MB in each of 16 runs joined after
    the deal.

    A recording deal, of at most one chunk per CPU, gives each chunk its
    own tape and, for `rng`, a `_Part` that draws its rows of each whole
    dropout mask.  The block's own arrays, and so every Parameter gradient
    a part makes (`Tensor._accum`), must hold the chunk on front axis
    ``x.ndim - 3``: the frame axis of a spatial block's arrays, head-split
    or not, and the joint axis of a temporal block's joint-major ones.  One
    that does not raises ShapeError.  The node returned runs the parts'
    backwards on the pool: each defers its parameter-gradient rows, which
    are reduced once each in the serial layout.  If `x` already holds a
    gradient (from a consumer the backward reached first), each part's
    chunk gradient starts as its view of it and the part's own terms are
    added there in place, continuing the serial sum; otherwise each part
    writes its input gradient into one array laid out as its own, which is
    how the serial backward lays it out.  The parts share one whole array
    at a time: a draw, a gradient or the input gradient
    (`_Recorded.share`).  The serial block's output, loss, every gradient
    and the generator state are thus kept bit for bit, for any number of
    parts.
    """
    if count <= 1:
        return block(x, rng)
    n = x.data.shape[axis]
    cuts = [n * i // count for i in range(count + 1)]
    lead = (slice(None),) * (axis % x.data.ndim)
    chunks = [lead + (slice(a, b),) for a, b in zip(cuts, cuts[1:])]
    shared = _Recorded(rng, cuts, x.data.ndim - 3) if _grad_enabled.get() else None
    parts = [_Part(shared, i) for i in range(count)] if shared else None
    with precision(x.data.dtype):  # the chunk views keep x's dtype
        ins = [Tensor(x.data[c], requires_grad=x.requires_grad) for c in chunks]
    outs = [None] * count

    def forward(first, last):
        for i in range(first, last):
            outs[i] = parts[i].run(block, ins[i], parts[i]) if parts else block(ins[i], rng)

    def backward(g):
        grad_in = []
        held = x.grad  # serially, the parts' terms add to this sum, chunk by chunk

        def run(first, last):
            for i in range(first, last):
                if held is not None:
                    ins[i].grad = held[chunks[i]]
                parts[i].run(outs[i].backward, g[chunks[i]])
                outs[i] = None
                if held is None and x.requires_grad:
                    g_i = ins[i].grad
                    full = shared.share("input", lambda: _empty_in_layout(g_i, x.data.shape),
                                        lambda a: np.copyto(a[chunks[i]], g_i))
                    if full is not None:
                        grad_in.append(full)
                ins[i] = None

        _deal(run, count)
        shared.finish()
        if grad_in:
            x._accum(grad_in[0], owned=True)

    _deal(forward, count)
    node = Tensor._node(np.concatenate([o.data for o in outs], axis=axis), (), None)
    for o, c in zip(outs, chunks):
        o.data = node.data[c]  # frees the part's own output array
    if outs[0].requires_grad:
        node.requires_grad, node._parents, node._backward = True, (x,), backward
    return node


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Initial weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _project(x: np.ndarray, w: Tensor, b, out: np.ndarray | None = None) -> np.ndarray:
    """x @ w (+ b) into `out` (made if None), in the form `linear` describes;
    a given `out` has rows of unit stride that merge into (-1, n) as a view."""
    k, n = w.data.shape
    if out is None:
        out = np.empty(x.shape[:-1] + (n,), np.result_type(x, w.data))
    if w.data.size >= _FLAT_GEMM_MIN_WEIGHT:
        np.matmul(x.reshape(-1, k), w.data, out=out.reshape(-1, n))
    else:
        np.matmul(x, w.data, out=out)
    if b is not None:
        out += b.data
    return out


def _joined(xs: tuple) -> np.ndarray:
    return xs[0].data if len(xs) == 1 else np.concatenate([t.data for t in xs], axis=-1)


def _linear_backward(g: np.ndarray, xs: tuple, w: Tensor, b) -> None:
    if any(t.requires_grad for t in xs):
        gx = g @ w.data.T
        if len(xs) == 1:
            xs[0]._accum(gx, owned=True)
        else:
            offsets = np.cumsum([t.data.shape[-1] for t in xs])[:-1]
            for t, piece in zip(xs, np.split(gx, offsets, axis=-1)):
                t._accum(piece)
    if w.requires_grad:
        w._accum((np.swapaxes(_joined(xs), -1, -2), g))
    if b is not None:
        b._accum(g)


def _head_view(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., N, C) -> (..., heads, N, C/heads) as a strided view; head i
    holds channels [i*C/heads, (i+1)*C/heads)."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -3, -2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., h, N, d) -> (..., N, h*d), contiguous; the inverse of _head_view."""
    a = np.ascontiguousarray(np.swapaxes(a, -3, -2))
    return a.reshape(a.shape[:-2] + (-1,))


def linear(x, w, b=None, heads: int | None = None, merge_heads: bool = False) -> Tensor:
    """y[..., j] = sum_i x[..., i] w[i, j] (+ b[j]), as one fused node.

    For weights of at least _FLAT_GEMM_MIN_WEIGHT entries the forward
    product is one 2-D GEMM over the flattened rows; smaller weights keep
    numpy's batched ``(..., M, K) @ (K, N)``, one GEMM per leading index.
    The choice follows the weight size because that is where each form
    wins: in float32 with one BLAS thread, (8,17,27,64) @ (64,64) takes
    334 us batched and 410 us flat, while (1,243,17,384) @ (384,384)
    takes 21.5 ms batched and 11.7 ms flat.  The backward is the same for
    both forms, since the output gradient has the same shape either way:
    the weight gradient is the batched ``x^T @ g`` summed over the leading
    axes, whose summation order the seeded float32 runs depend on.

    `heads` splits the (..., N, C) output into (..., heads, N, C/heads),
    head i holding channels [i*C/heads, (i+1)*C/heads).  `merge_heads`
    takes an input that holds heads on axis -3, (..., h, N, K), and
    returns the (..., h, N, n) product merged to (..., N, h*n).  Either
    way the node stores only the rearranged copy, and its backward reads
    only `x` and `w`: the product in the other layout is never kept.
    A tuple `x` of Tensors is taken as their concatenation on the last
    axis; the node keeps the parts, and its backward rebuilds it.
    """
    xs = tuple(map(as_tensor, x)) if isinstance(x, tuple) else (as_tensor(x),)
    w = as_tensor(w)
    shapes = [t.data.shape for t in xs]
    if any(len(s) < 2 or s[:-1] != shapes[0][:-1] for s in shapes):
        raise ShapeError(f"linear: input {' + '.join(map(str, shapes))} is not of rank >= 2 "
                         "in parts that concatenate on the last axis")
    x_shape = shapes[0][:-1] + (sum(s[-1] for s in shapes),)
    if x_shape[-1] != w.data.shape[0] or (merge_heads and len(x_shape) < 3):
        raise ShapeError(f"linear: input {x_shape} incompatible with weight {w.data.shape}")
    if heads is not None and (heads < 1 or w.data.shape[1] % heads):
        raise ShapeError(f"linear: {w.data.shape[1]} output channels in {heads} heads")
    b = as_tensor(b) if b is not None else None
    # The output in its own layout first, then the joined input projected
    # into it: heads split by one copy, merged heads written head by head.
    n = w.data.shape[1]
    shape = x_shape[:-1] + (n,)
    if heads is not None:
        shape = shape[:-2] + (heads, shape[-2], n // heads)
    elif merge_heads:
        h = shape[-3]
        shape = shape[:-3] + (shape[-2], h * n)
    out_data = np.empty(shape, np.result_type(*(t.data for t in xs), w.data))
    joined = _joined(xs)
    if heads is not None:
        out_data[...] = _head_view(_project(joined, w, b), heads)
    elif merge_heads:
        merged = out_data.reshape(shape[:-1] + (h, n))
        for i in range(h):
            _project(joined[..., i, :, :], w, b, out=merged[..., i, :])
    else:
        _project(joined, w, b, out=out_data)
    parents = xs + ((w,) if b is None else (w, b))

    def bw(g):
        if heads is not None:
            g = _merge_heads(g)
        elif merge_heads:
            g = _head_view(g, xs[0].data.shape[-3])
        _linear_backward(g, xs, w, b)

    return Tensor._node(out_data, parents, bw)


def _row_max(s: np.ndarray) -> np.ndarray:
    """Maximum over the trailing axis, keeping it as length 1.

    Rows shorter than _ROW_SWEEP_BELOW are reduced by one ``np.maximum``
    sweep per column, longer (and empty) rows by ``s.max``: numpy's
    reduction costs about 100 ns per row however short the row, a sweep
    one ufunc call per column over all rows.  In float32 with one BLAS
    thread the sweep was faster at every length measured below 32: by 8.9,
    7.0, 2.3 and 2.8x at lengths 8, 12, 17 and 27 on 3,672 rows (as many
    as the B=1 joint scores) and by 19.5, 10.6, 1.9 and 1.4x on 29,376
    rows (the B=8 frame scores).  At 32 it was already slower on the
    larger array (0.70x), and at 243 (the T=243 temporal scores) 3-5x
    slower.  Both forms give the same result bit for bit: a maximum is
    exact in any order, and NaN propagates through both.  At a +0/-0 tie
    they may pick different zeros, which leaves ``s - max`` and so the
    softmax unchanged.
    """
    n = s.shape[-1]
    if not 0 < n < _ROW_SWEEP_BELOW:
        return s.max(axis=-1, keepdims=True)
    m = s[..., 0].copy()
    for j in range(1, n):
        np.maximum(m, s[..., j], out=m)
    return m[..., None]


def _softmax_inplace(s: np.ndarray) -> tuple:
    """Row-stabilized softmax over the trailing axis, written into `s`;
    returns the (..., 1) row max it subtracted and row sum it divided by."""
    row_max = _row_max(s)
    s -= row_max
    np.exp(s, out=s)
    row_sum = s.sum(axis=-1, keepdims=True)
    s /= row_sum
    return row_max, row_sum


def _softmax_grad_inplace(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dS = P * (dP - rowsum(dP * P)) for softmax weights P, written into `dp`."""
    dp -= (dp * p).sum(axis=-1, keepdims=True)
    dp *= p
    return dp


def softmax_rows(x) -> Tensor:
    """Row-stabilized softmax over the trailing axis (max subtraction)."""
    x = as_tensor(x)
    out_data = x.data.copy()
    _softmax_inplace(out_data)

    def bw(g):
        x._accum(_softmax_grad_inplace(g.copy(), out_data), owned=True)

    return Tensor._node(out_data, (x,), bw)


def _attention_slices(lead: tuple, matrix_bytes: int):
    """Index tuples covering the leading shape `lead` in C order, each
    selecting a contiguous block of at most _ATTENTION_SLICE_BYTES of
    (n, m) score matrices of `matrix_bytes` each, and at least one matrix.

    The trailing leading axes that fit are taken whole; the axis before
    them is cut into runs (the last one ragged), and the axes before that
    are indexed one at a time.  A `lead` that fits gives the one index ().
    """
    per, j = matrix_bytes, len(lead)
    while j > 0 and per * lead[j - 1] <= _ATTENTION_SLICE_BYTES:
        j -= 1
        per *= lead[j]
    if j == 0:
        yield ()
        return
    step = max(1, _ATTENTION_SLICE_BYTES // per)
    for outer in np.ndindex(*lead[:j - 1]):
        for start in range(0, lead[j - 1], step):
            yield outer + (slice(start, start + step),)


def _attention_scores(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float):
    """Yield (index, scaled queries, keys, values, scores buffer) per slice of
    the broadcast leading axes of q, k and v, each operand a view of that
    slice and the buffer, reused, holding the slice's raw scores q k^T."""
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    n, m = q.shape[-2], k.shape[-2]
    q = np.broadcast_to(q, lead + q.shape[-2:])
    k = np.broadcast_to(k, lead + k.shape[-2:])
    v = np.broadcast_to(v, lead + v.shape[-2:])
    dtype = np.result_type(q, k)
    buffer = None
    for idx in _attention_slices(lead, n * m * dtype.itemsize):
        qs = q[idx] if scale == 1.0 else q[idx] * scale
        # The first slice is the largest; a ragged one takes a prefix.
        if buffer is None:
            buffer = np.empty(qs.shape[:-1] + (m,), dtype)
        s = buffer[:len(qs)]
        np.matmul(qs, np.swapaxes(k[idx], -1, -2), out=s)
        yield idx, qs, k[idx], v[idx], s


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float,
            keep: bool, record: bool) -> tuple:
    """(weights, row max, row sum, output) of softmax(scale * q k^T) v, one
    slice of the broadcast leading axes at a time.  The weights are None
    unless `keep`, the row statistics None unless `record`."""
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    n, m = q.shape[-2], k.shape[-2]
    dtype = np.result_type(q, k)
    weights = np.empty(lead + (n, m), dtype) if keep else None
    row_max = np.empty(lead + (n, 1), dtype) if record else None
    row_sum = np.empty(lead + (n, 1), dtype) if record else None
    out_data = np.empty(lead + (n, v.shape[-1]), np.result_type(dtype, v))
    for idx, _, _, vs, s in _attention_scores(q, k, v, scale):
        stats = _softmax_inplace(s)
        if record:
            row_max[idx], row_sum[idx] = stats
        if keep:
            weights[idx] = s
        np.matmul(s, vs, out=out_data[idx])
    return weights, row_max, row_sum, out_data


def _attend_backward(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     scale: float, row_max: np.ndarray, row_sum: np.ndarray,
                     needs: tuple) -> tuple:
    """Gradients (dQ, dK, dV) over the broadcast leading shape, each None
    unless `needs` asks for it, from the output gradient `g`.  Each slice's
    weights P are rebuilt from its scores and the forward's row statistics
    by the forward's own operations, then dV = P^T g, dS = P * (dP -
    rowsum(dP * P)) with dP = g v^T, dQ = scale * dS k and dK = dS^T q."""
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    dtype = np.result_type(q, k, v, g)
    grads = [np.empty(lead + a.shape[-2:], dtype) if need else None
             for a, need in zip((q, k, v), needs)]
    gq, gk, gv = grads
    dp_buffer = None
    for idx, qs, ks, vs, p in _attention_scores(q, k, v, scale):
        p -= row_max[idx]
        np.exp(p, out=p)
        p /= row_sum[idx]
        rows = g[idx]
        if gv is not None:
            np.matmul(np.swapaxes(p, -1, -2), rows, out=gv[idx])
        if gq is None and gk is None:
            continue
        if dp_buffer is None:
            dp_buffer = np.empty_like(p)
        ds = _softmax_grad_inplace(
            np.matmul(rows, np.swapaxes(vs, -1, -2), out=dp_buffer[:len(p)]), p)
        if gq is not None:
            np.matmul(ds, ks, out=gq[idx])
            if scale != 1.0:
                gq[idx] *= scale
        if gk is not None:
            np.matmul(np.swapaxes(ds, -1, -2), qs, out=gk[idx])
    return tuple(grads)


def scaled_dot_attention(q, k, v, attn_sink: list | None = None,
                         scale: float | None = None, merge_heads: bool = False) -> Tensor:
    """softmax(scale * q k^T) v over the trailing two axes, as one node.

    `scale` defaults to 1/sqrt(d).  Leading axes broadcast, so (..., n, d)
    queries against (..., m, d) keys/values work batched.  If `attn_sink`
    is a list, the softmax weight array is appended to it (diagnostics
    only, no gradient).  `merge_heads` returns the (..., h, n, d) output
    with its heads merged, (..., n, h*d), and the unmerged output is never
    kept.

    The scores, softmax and weighted sum run one slice of the broadcast
    leading axes at a time (`_attention_slices`), each slice's scores at
    most _ATTENTION_SLICE_BYTES, in one reused slice-sized buffer and into
    one preallocated output, so no call holds the whole score matrix
    unless `attn_sink` asks for it (Rabe & Staats 2021).  A recording call
    keeps only each row's softmax max and sum, two (..., n, 1) arrays, as
    FlashAttention does (Dao et al. 2022).  The backward walks the same
    slices and rebuilds each slice's weights P in one buffer by the
    forward's own operations (scaled queries @ k^T, minus the row max,
    exp, divided by the row sum), then forms dV, dS = P * (dP - rowsum(dP
    * P)) with dP = g v^T, dQ and dK for the slice.  Every result is the
    unsliced one bit for bit: numpy's batched matmul runs one GEMM per
    leading index whatever the batch, the softmax works row by row, and
    the statistics are the forward's own arrays.

    The cut-off, 2 MiB, is the L2 cache per core of the 2-core Xeon this
    was measured on.  In float32 with one BLAS thread (medians of 40
    interleaved calls), a no-grad call with (1,17,8,243,48) queries, the
    T=243 temporal attention, took 77.3 ms unsliced and 56.5 ms in 2 MiB
    slices (58.1-61.0 ms at 0.5, 1, 4 and 8 MiB), and never held its
    32 MB of scores.  A recording (8,17,8,27,8) call, the train-t27
    temporal attention, took 7.04 ms unsliced and 6.22 ms in two slices
    (100 calls).  Rebuilding P buys that memory with backward time: the
    backward of a recording (8,17,8,27,8) call took 5.9 ms against 4.3 ms
    when the node kept its weights, and of a (8,27,8,17,8) call, the
    spatial attention, 8.4 against 4.3 ms (medians of 60 interleaved
    calls).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.data.shape[-1]
    if d == 0:
        raise ShapeError("attention with zero-width features")
    if k.data.shape[-1] != d:
        raise ShapeError(f"query dim {d} != key dim {k.data.shape[-1]}")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(f"{k.data.shape[-2]} keys vs {v.data.shape[-2]} values")
    scale = float(1.0 / np.sqrt(d) if scale is None else scale)

    record = _grad_enabled.get() and (q.requires_grad or k.requires_grad or v.requires_grad)
    weights, row_max, row_sum, out_data = _attend(q.data, k.data, v.data, scale,
                                                  attn_sink is not None, record)
    if attn_sink is not None:
        attn_sink.append(weights)
    del weights
    if merge_heads:
        out_data = _merge_heads(out_data)

    def bw(g):
        if merge_heads:
            g = _head_view(g, q.data.shape[-3])
        gq, gk, gv = _attend_backward(g, q.data, k.data, v.data, scale, row_max, row_sum,
                                      (q.requires_grad, k.requires_grad, v.requires_grad))
        # V first: with K = V (hga.npsc) its gradient is dV + dK in that order.
        for t, gt in ((v, gv), (q, gq), (k, gk)):
            if gt is not None:
                t._accum(gt, owned=True)

    return Tensor._node(out_data, (q, k, v), bw)


def _add_into(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """own + other, written into `own`, an array the caller made and no one
    else reads, unless the sum takes a wider dtype."""
    if np.result_type(own, other) != own.dtype:
        return own + other
    own += other
    return own


NORM_EPS = 1e-5        # added to the variance by layer and batch norm
BN_MOMENTUM = 0.1      # weight of the batch in batch norm's running statistics


def _normalize(x: Tensor, gamma, beta, axes: tuple | None, stats: tuple | None = None) -> tuple:
    """Shared LN/BN node: y = (x - mean) / sqrt(var + NORM_EPS) * gamma + beta.

    The statistics are taken over `axes` and differentiated through, unless
    `stats` gives (mean, var) as constants (batch norm's eval mode).  With
    h = g * gamma, the input gradient is the closed form
    dx = (h - mean(h) - xhat * mean(h * xhat)) / sigma with the means over
    `axes`, or h / sigma for constant statistics.  Returns (node, mean,
    var) with the statistics as plain arrays for running-stat upkeep.
    The node keeps mean and 1/sigma; the backward rebuilds xhat from the
    input by the forward's own operations, so it is the same bit for bit.

    Batch statistics centre `x` once: the variance is the mean of the
    squares of ``x - mean``.  That is ``np.var``'s own arithmetic in numpy
    2.4, so it equals ``np.var``'s bit for bit in float32 and float64 over
    the layer- and batch-norm axes (the tests compare the two forms), and
    in float32 with one BLAS thread makes the statistics and xhat of a
    (1,27,17,64) layer norm 113 us against 169 us, and of a
    (1,243,17,384) one 3.6 ms against 4.8 ms.

    The output is allocated first, and `xhat` becomes it in place: each of
    the products by 1/sigma and gamma and the sum with beta is rounded alone.
    """
    gamma = as_tensor(gamma) if gamma is not None else None
    beta = as_tensor(beta) if beta is not None else None
    dtype = x.data.dtype
    affine = tuple(p.data for p in (gamma, beta) if p is not None)
    out_data = np.empty(x.data.shape, np.result_type(dtype, *affine))
    if stats is None:
        mu = centre = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - centre
        var = np.multiply(xhat, xhat).mean(axis=axes, keepdims=True)
    else:
        mu, var = stats
        centre = mu.astype(dtype)  # a copy: batch norm updates its running mean in place
        xhat = x.data - centre
    inv = (1.0 / np.sqrt(var + NORM_EPS)).astype(dtype, copy=False)
    xhat *= inv
    if gamma is not None:
        xhat = np.multiply(xhat, gamma.data, out=out_data)
    if beta is not None:
        np.add(xhat, beta.data, out=out_data)
    elif xhat is not out_data:
        out_data[...] = xhat
    parents = (x,) + tuple(p for p in (gamma, beta) if p is not None)

    def bw(g):
        xhat = x.data - centre
        xhat *= inv
        if beta is not None:
            beta._accum(g)
        if gamma is not None and gamma.requires_grad:
            gamma._accum(g * xhat, owned=True)
        if not x.requires_grad:
            return
        h = g if gamma is None else g * gamma.data
        if stats is not None:
            x._accum(h * inv, owned=True)
            return
        gm = h.mean(axis=axes, keepdims=True)
        gym = (h * xhat).mean(axis=axes, keepdims=True)
        gx = h - gm
        xhat *= gym
        gx -= xhat
        gx *= inv
        x._accum(gx, owned=True)

    return Tensor._node(out_data, parents, bw), mu, var


def layer_norm(x, gamma=None, beta=None) -> Tensor:
    """Normalize over the trailing feature axis to mean 0 / variance 1,
    then scale by `gamma` and shift by `beta`, all in one node."""
    return _normalize(as_tensor(x), gamma, beta, (-1,))[0]


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Normalize per trailing-axis channel over all leading axes.

    In training mode the batch statistics normalize and the running
    arrays are updated in place with weight ``BN_MOMENTUM`` (unbiased
    variance, like the usual momentum convention); in eval mode the
    running statistics normalize.  Either way the result, with `gamma`
    and `beta` applied, is one node.
    """
    x = as_tensor(x)
    if not training:
        return _normalize(x, gamma, beta, None, stats=(running_mean, running_var))[0]
    axes = tuple(range(x.data.ndim - 1))
    y, mu, var = _normalize(x, gamma, beta, axes)
    n = x.data.size // x.data.shape[-1]
    correction = n / max(n - 1, 1)
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu.reshape(-1)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var.reshape(-1) * correction
    return y


def gelu(x, w=None, b=None, residual=None) -> Tensor:
    """Exact Gaussian-CDF GELU y * Phi(y) as one node, of y = `x` or, given the
    Tensors `w` (and bias `b`), of ``linear(x, w, b)``, plus the Tensor
    `residual` if given.  A recording call keeps only the derivative
    Phi(y) + y * phi(y), made in the forward; the GELU value before the
    residual is added is never kept.  The output and the derivative are
    allocated before the projection, and the CDF is made in the output."""
    x = as_tensor(x)
    if w is None:
        shape, dtype = x.data.shape, x.data.dtype
    else:
        shape = x.data.shape[:-1] + (w.data.shape[1],)
        dtype = np.result_type(x.data, w.data)
    if residual is not None and residual.data.shape != shape:
        raise ShapeError(f"gelu: residual {residual.data.shape} vs value {shape}")
    # The residual first, as in `dropout`.
    parents = tuple(t for t in (residual, x, w, b) if t is not None)
    record = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = np.empty(shape, dtype if residual is None else np.result_type(dtype, residual.data))
    d = np.empty(shape, dtype) if record else None
    y = x.data if w is None else _project(x.data, w, b)
    # 0.5 * (1 + erf(y / sqrt(2))), the same float operations in one buffer.
    cdf = np.divide(y, _SQRT2, out=out if out.dtype == dtype else None)
    _erf_np(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if record:
        # cdf + y * exp(-0.5 * y^2) / sqrt(2 pi), in one buffer.
        np.multiply(y, y, out=d)
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= y
        d += cdf
    cdf *= y
    if residual is not None:
        # Addition commutes exactly: this is ``gelu(x) + residual``.
        np.add(cdf, residual.data, out=out)

    def bw(g):
        if residual is not None:
            residual._accum(g)
        if w is None:
            x._accum(g * d, owned=True)
        else:
            _linear_backward(g * d, (x,), w, b)

    return Tensor._node(out, parents, bw)


def dropout(x, rate: float, rng: np.random.Generator | None, training: bool,
            residual=None, w=None, b=None) -> Tensor:
    """Inverted dropout as one node: ``residual + drop(x @ w + b)``.

    Without the Tensors `w` (and bias `b`) the dropped value is `x`, and
    without the Tensor `residual` nothing is added.  Nothing is dropped
    when not training or at rate 0; with neither `w` nor `residual` that
    returns `x` itself.  The keep mask is boolean, ``rng.random(shape) >=
    rate``, and kept entries are scaled by 1 / (1 - rate).  The arithmetic
    and its order are those of ``residual + dropout(linear(x, w, b), ...)``,
    but the backward reads only `x`, `w` and the mask, and neither the
    projection nor the dropped values are stored.
    """
    x = as_tensor(x)
    drop = training and rate > 0.0
    if not drop and w is None and residual is None:
        return x
    if drop and rng is None:
        raise ValueError("dropout in training mode needs an rng")
    y = x.data if w is None else _project(x.data, w, b)
    if residual is not None and residual.data.shape != y.shape:
        raise ShapeError(f"dropout: residual {residual.data.shape} vs value {y.shape}")
    if drop:
        keep = rng.random(y.shape) >= rate
        scale = 1.0 / (1.0 - rate)
        y = y * scale
        y *= keep
    if residual is not None:
        # Addition commutes exactly; `y` is this call's own array unless it is x's value.
        y = _add_into(y, residual.data) if drop or w is not None else residual.data + y
    # The residual first: the backward then visits the nodes in the order
    # the unfused ``residual + dropout(linear(...))`` gave them.
    parents = tuple(t for t in (residual, x, w, b) if t is not None)

    def bw(g):
        if residual is not None:
            residual._accum(g)
        if drop:
            # C order whatever g's layout: the bias gradients upstream sum this
            # array over its leading axes, and their rounding follows its layout.
            g = np.multiply(g, scale, order="C")
            g *= keep
        if w is not None:
            _linear_backward(g, (x,), w, b)
        else:
            x._accum(g, owned=drop)

    return Tensor._node(y, parents, bw)


# -- gradient verification -------------------------------------------------


GRAD_CHECK_STEP = 1e-5


def grad_check(fn, inputs) -> float:
    """Max relative error between analytic and central-difference gradients
    with step ``GRAD_CHECK_STEP``.

    `fn` is called as fn(*tensors) and must return a Tensor; non-scalar
    outputs are reduced by summation.  `inputs` may be ndarrays or Tensors
    (Parameters included); they are perturbed in place coordinate by
    coordinate, so `fn` may also close over them and ignore its arguments.
    The error at each coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    tensors = []
    for t in inputs:
        if not isinstance(t, Tensor):
            t = Tensor(np.array(t, dtype=np.float64), requires_grad=True)
        t.requires_grad = True
        t.grad = None
        tensors.append(t)

    def evaluate() -> float:
        return float(fn(*tensors).data.sum())

    out = fn(*tensors)
    if out.data.size != 1:
        out = out.sum()
    if not np.isfinite(out.data):
        raise DivergenceError("grad_check: non-finite forward value")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for i, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        aflat = analytic[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + GRAD_CHECK_STEP
            f_plus = evaluate()
            flat[j] = orig - GRAD_CHECK_STEP
            f_minus = evaluate()
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise DivergenceError(f"grad_check: non-finite value perturbing input {i} coordinate {j}")
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            err = abs(aflat[j] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# -- checkpoint format -------------------------------------------------------

CHECKPOINT_MAGIC = b"HGFW1"


def save_checkpoint(state: dict, path) -> None:
    """Write a name -> array mapping (a ``Module.state_dict``)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name, value in state.items():
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(value, dtype="<f4")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as a name -> float64 ndarray mapping.

    A malformed file raises a DataError: FormatError for a bad magic or
    name, TruncatedFileError when an entry needs more bytes than remain.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a parameter checkpoint (bad magic)")
    out: dict[str, np.ndarray] = {}
    pos = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise TruncatedFileError(f"{path}: truncated at byte {pos}")
        piece = blob[pos : pos + n]
        pos += n
        return piece

    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name at byte {pos - name_len} is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = take(4 * math.prod(dims))
        if name in out:
            raise DataError(f"{path}: duplicate parameter {name!r}")
        out[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    return out
