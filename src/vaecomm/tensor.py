"""Small reverse-mode autodiff core over float32 or float64 numpy buffers.

Every operation records a node holding its parents and a gradient closure.
Calling :meth:`Tensor.backward` on a scalar walks the recorded nodes in
reverse insertion order and accumulates gradients into the ``.grad`` of the
leaves it reaches.

A tensor keeps the floating dtype it is given: float32, the dtype of the
trained system (``SYSTEM_DTYPE``), or float64, which finite-difference
checks use. Anything else becomes float64. Python scalars and arrays mixed
into an operation take the tensor's dtype, and a gradient always has the
dtype of the tensor it belongs to.
"""

from __future__ import annotations

import ctypes
import itertools
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonDeterministicFunctionError, ShapeMismatchError

log = logging.getLogger(__name__)

# glibc mallopt parameters (<malloc.h>) and the values set at import
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 1024 * 1024 * 1024


def _keep_freed_heap_pages() -> None:
    """Make glibc's malloc reuse freed buffers instead of returning them to the OS.

    A train step's float32 temporaries (640 x 256 x 4 B = 655 KB at the desk
    config) are larger than glibc's starting mmap threshold (128 KiB), so each
    one got its own mapping, zero-filled page by page by the kernel and
    unmapped again when freed: 355,000-603,000 minor page faults per desk
    epoch in a fresh process.
    Serving every request below 32 MiB from the heap (glibc's own ceiling for
    its dynamic threshold, so larger buffers still get their own mapping and
    go back to the OS when freed) and trimming the heap only past 1 GiB free
    at its top lets later steps reuse those pages. The cost: the process keeps
    its heap's high-water mark until it exits.

    Process-wide and glibc only. Elsewhere, or if glibc refuses the first
    value, nothing changes and one DEBUG line says so.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        glibc = None
    if not glibc:
        log.debug("not glibc: malloc thresholds left at their defaults")
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError) as exc:
        log.debug("mallopt unavailable (%s): malloc thresholds left at their defaults", exc)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold is set only once the mmap threshold took, so a refusal changes nothing
    if not (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)):
        log.debug("%s refused mallopt: malloc thresholds not (all) set", glibc)


_keep_freed_heap_pages()

SYSTEM_DTYPE = np.float32

# exp arguments are clipped to +-EXP_CLIP in float64 and +-EXP_CLIP_F32 in
# float32; exp(88.7) already overflows float32, and exp(-88) is subnormal
EXP_CLIP = 700.0
EXP_CLIP_F32 = 80.0
FD_STEP = 1e-5
FD_ROUNDING_TO_FLOOR = 1e6

_counter = itertools.count()
_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    prev = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def exp_clip(dtype) -> float:
    """The bound that keeps exp of a ``dtype`` argument finite and normal."""
    return EXP_CLIP_F32 if dtype == np.float32 else EXP_CLIP


class Tensor:
    """A float32 or float64 array with an optional gradient and autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grad_fn = None
        self._nid = next(_counter)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        Leaves are the tensors no recorded op produced (parameters and
        inputs); intermediate results get no ``.grad``. Repeated calls
        without clearing gradients accumulate.
        """
        if self.data.size != 1:
            raise DomainError(f"backward() needs a scalar, got shape {self.shape}")
        # propagate this call's seed through a local map, then fold into .grad,
        # so repeated calls accumulate instead of compounding stale node grads;
        # an op node's gradient is dropped once passed on, so only leaves remain
        flowing = {self: np.ones_like(self.data)}
        for node in _reverse_order(self):
            if node._grad_fn is None:
                continue
            g_out = flowing.pop(node, None)
            if g_out is None:
                continue
            grads = node._grad_fn(g_out)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                g = _reduce_grad(g, parent.data.shape, parent.data.dtype)
                prev = flowing.get(parent)
                flowing[parent] = g if prev is None else prev + g
        for t, g in flowing.items():
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g

    # -- elementwise -------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other, self)
        out_data = _broadcast_binary(a, b, np.add)
        return from_op(out_data, (a, b), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _wrap(other, self)
        out_data = _broadcast_binary(a, b, np.subtract)
        return from_op(out_data, (a, b), lambda g: (g, -g))

    def __mul__(self, other):
        a, b = self, _wrap(other, self)
        out_data = _broadcast_binary(a, b, np.multiply)
        ad, bd = a.data, b.data

        def grad(g):  # no product for a constant operand
            return (g * bd if a.requires_grad else None,
                    g * ad if b.requires_grad else None)

        return from_op(out_data, (a, b), grad)

    __rmul__ = __mul__

    def exp(self) -> "Tensor":
        # arguments clipped to +-exp_clip so the forward pass cannot overflow
        x = self.data
        bound = exp_clip(x.dtype)
        out = np.exp(np.clip(x, -bound, bound))
        mask = (x > -bound) & (x < bound)
        return from_op(out, (self,), lambda g: (g * out * mask,))

    def square(self) -> "Tensor":
        x = self.data
        return from_op(x * x, (self,), lambda g: (2.0 * x * g,))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        axis = _check_axis(axis, self.ndim)
        shape = self.data.shape
        out = self.data.sum(axis=axis)

        def grad(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        return from_op(out, (self,), grad)

    def mean(self, axis: int | None = None) -> "Tensor":
        axis = _check_axis(axis, self.ndim)
        shape = self.data.shape
        n = self.data.size if axis is None else shape[axis]
        out = self.data.mean(axis=axis)

        def grad(g):
            if axis is None:
                return (np.broadcast_to(g / n, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

        return from_op(out, (self,), grad)


def from_op(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """Build an op output tensor; the extension point for fused layer ops.

    ``grad_fn`` maps the output gradient to one gradient (or None) per parent.
    Recording is skipped when no parent needs gradients or inside no_grad().
    """
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _wrap(value, like: Tensor) -> Tensor:
    """``value`` as a tensor: a Tensor as is, anything else as a constant of
    ``like``'s dtype (a float64 0-d array would upcast a float32 product)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _broadcast_binary(a: Tensor, b: Tensor, op) -> np.ndarray:
    # only scalar-with-tensor broadcasting is allowed
    if a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1:
        return op(a.data, b.data)
    raise ShapeMismatchError(f"operand shapes differ: {a.data.shape} vs {b.data.shape}")


def _reduce_grad(g: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    g = np.asarray(g, dtype=dtype)
    if g.shape == shape:
        return g
    # gradient flowing back into a broadcast scalar collapses by summation
    return np.sum(g).reshape(shape) if int(np.prod(shape, dtype=np.int64)) == 1 else g.reshape(shape)


def _check_axis(axis: int | None, ndim: int) -> int | None:
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise DomainError(f"axis {axis} out of range for {ndim}-D tensor")
    return axis % ndim if ndim else 0


def _reverse_order(root: Tensor) -> list:
    """Reachable graph nodes, newest first (reverse insertion order)."""
    seen = {root}
    stack = [root]
    nodes = []
    while stack:
        t = stack.pop()
        nodes.append(t)
        for p in t._parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    nodes.sort(key=lambda t: t._nid, reverse=True)
    return nodes


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool


def finite_difference_check(f, x: Tensor, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare the autodiff gradient of scalar-valued ``f`` at ``x`` against
    central finite differences of step ``FD_STEP``.

    ``f`` must be deterministic; it is evaluated twice and a mismatch raises
    NonDeterministicFunctionError. Relative error uses a per-entry floor in
    the denominator: 1e-8, or ``FD_ROUNDING_TO_FLOOR`` times the central
    difference's own rounding error, eps * max|f(x +- FD_STEP)| / FD_STEP, if
    larger. A large constant part in f makes that rounding error large next
    to small gradient entries; the floor keeps it at a relative 1e-6.
    """
    leaf = Tensor(x.data.copy(), requires_grad=True)
    y = f(leaf)
    if not isinstance(y, Tensor) or y.size != 1:
        raise DomainError("finite_difference_check needs a scalar-valued function")
    y2 = f(Tensor(x.data.copy(), requires_grad=True))
    if not np.array_equal(y.data, y2.data):
        raise NonDeterministicFunctionError("function returned differing values on identical input")

    y.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    numeric = np.zeros_like(leaf.data)
    magnitude = np.zeros_like(leaf.data)  # max |f| of each central difference
    flat, mag = numeric.reshape(-1), magnitude.reshape(-1)
    base = x.data.copy().reshape(-1)
    with no_grad():
        for i in range(base.size):
            orig = base[i]
            base[i] = orig + FD_STEP
            hi = float(f(Tensor(base.reshape(x.data.shape))).data)
            base[i] = orig - FD_STEP
            lo = float(f(Tensor(base.reshape(x.data.shape))).data)
            base[i] = orig
            flat[i] = (hi - lo) / (2.0 * FD_STEP)
            mag[i] = max(abs(hi), abs(lo))

    rounding = np.finfo(leaf.data.dtype).eps * magnitude / FD_STEP
    floor = np.maximum(FD_ROUNDING_TO_FLOOR * rounding, 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if base.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel < rel_tol)
