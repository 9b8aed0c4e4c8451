"""Small reverse-mode autodiff core over float64 numpy buffers.

Every operation records a node holding its parents and a gradient closure.
Calling :meth:`Tensor.backward` on a scalar walks the recorded nodes in
reverse insertion order and accumulates gradients into ``.grad``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonDeterministicFunctionError, ShapeMismatchError

EXP_CLIP = 700.0
LOG_FLOOR = 1e-12
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


class Tensor:
    """A float64 array with an optional gradient and autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grad_fn = None
        self._nid = next(_counter)

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

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor.

        Repeated calls without clearing gradients accumulate.
        """
        if self.data.size != 1:
            raise DomainError(f"backward() needs a scalar, got shape {self.shape}")
        # propagate this call's seed through a local map, then fold into .grad,
        # so repeated calls accumulate instead of compounding stale node grads
        flowing = {self: np.ones_like(self.data)}
        for node in _reverse_order(self):
            g_out = flowing.get(node)
            if g_out is None or node._grad_fn is None:
                continue
            grads = node._grad_fn(g_out)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                g = _reduce_grad(g, parent.data.shape)
                prev = flowing.get(parent)
                flowing[parent] = g if prev is None else prev + g
        for t, g in flowing.items():
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g

    # -- elementwise -------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other)
        out_data = _broadcast_binary(a, b, np.add)
        return from_op(out_data, (a, b), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _wrap(other)
        out_data = _broadcast_binary(a, b, np.subtract)
        return from_op(out_data, (a, b), lambda g: (g, -g))

    def __rsub__(self, other):
        return _wrap(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, _wrap(other)
        out_data = _broadcast_binary(a, b, np.multiply)
        ad, bd = a.data, b.data
        return from_op(out_data, (a, b), lambda g: (g * bd, g * ad))

    __rmul__ = __mul__

    def __neg__(self):
        return from_op(-self.data, (self,), lambda g: (-g,))

    def exp(self) -> "Tensor":
        # arguments clipped to +-700 so the forward pass cannot overflow
        x = self.data
        out = np.exp(np.clip(x, -EXP_CLIP, EXP_CLIP))
        mask = (x > -EXP_CLIP) & (x < EXP_CLIP)
        return from_op(out, (self,), lambda g: (g * out * mask,))

    def log(self) -> "Tensor":
        # negative input is a hard error; [0, 1e-12) is floored for stability
        x = self.data
        if np.any(x < 0.0):
            raise DomainError("log of negative value")
        safe = np.maximum(x, LOG_FLOOR)
        mask = x >= LOG_FLOOR
        return from_op(np.log(safe), (self,), lambda g: (g / safe * mask,))

    def square(self) -> "Tensor":
        x = self.data
        return from_op(x * x, (self,), lambda g: (2.0 * x * g,))

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp to [lo, hi]; gradient passes through the unclipped region."""
        if not lo < hi:
            raise DomainError(f"clip needs lo < hi, got [{lo}, {hi}]")
        x = self.data
        mask = (x >= lo) & (x <= hi)
        return from_op(np.clip(x, lo, hi), (self,), lambda g: (g * mask,))

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


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _broadcast_binary(a: Tensor, b: Tensor, op) -> np.ndarray:
    # only scalar-with-tensor broadcasting is allowed
    if a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1:
        return op(a.data, b.data)
    raise ShapeMismatchError(f"operand shapes differ: {a.data.shape} vs {b.data.shape}")


def _reduce_grad(g: np.ndarray, shape: tuple) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
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


def finite_difference_check(f, x: Tensor, step: float = 1e-5, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare the autodiff gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    ``f`` must be deterministic; it is evaluated twice and a mismatch raises
    NonDeterministicFunctionError. Relative error uses a per-entry floor in
    the denominator: 1e-8, or ``FD_ROUNDING_TO_FLOOR`` times the central
    difference's own rounding error, eps * max|f(x +- step)| / step, if
    larger. A large constant part in f makes that rounding error large next
    to small gradient entries; the floor keeps it at a relative 1e-6.
    """
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")

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
            base[i] = orig + step
            hi = float(f(Tensor(base.reshape(x.data.shape))).data)
            base[i] = orig - step
            lo = float(f(Tensor(base.reshape(x.data.shape))).data)
            base[i] = orig
            flat[i] = (hi - lo) / (2.0 * step)
            mag[i] = max(abs(hi), abs(lo))

    rounding = np.finfo(np.float64).eps * magnitude / step
    floor = np.maximum(FD_ROUNDING_TO_FLOOR * rounding, 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if base.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel < rel_tol)
