"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the trajectory model needs: biased 1-D convolution
along the time axis, per-frame agent mixing against a constant adjacency
stack, a small elementwise suite on equal-shape operands, and the Gaussian
reparameterization trick. The computation record is define-by-run: every
forward pass builds a fresh graph, so variable agent counts are free.

Values are immutable after construction; gradients never mutate nodes.
`backward` walks the part of the record that reaches a `leaf` in reverse
topological order and returns a GradientMap of the leaves, so repeated
calls on the same record are idempotent. A Value built from an array alone
is a constant: no gradient is formed for it. Inside a `no_record()` block
nothing is recorded, for forward passes that are never differentiated.
"""

from __future__ import annotations

import contextlib
import itertools
import threading

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

_ids = itertools.count()


class _Mode(threading.local):
    record = True


_mode = _Mode()


@contextlib.contextmanager
def no_record():
    """Build Values without parents or vjp inside the block (this thread
    only), so each intermediate is freed as soon as the forward pass stops
    using it. `backward` raises ContractError inside the block."""
    saved, _mode.record = _mode.record, False
    try:
        yield
    finally:
        _mode.record = saved


class Value:
    """A node in the computation record: a float64 array plus its history.

    `parents` holds the operand Values and `vjp` maps the incoming output
    gradient to one gradient array per parent (vector-Jacobian product), or
    None for a parent that does not need one. Leaves, constants and every
    Value built inside `no_record()` have no parents. `needs_grad` is set
    on leaves and on the Values that depend on one.
    """

    __slots__ = ("data", "nid", "parents", "vjp", "needs_grad")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.nid = next(_ids)
        if _mode.record:
            self.parents = tuple(parents)
            self.vjp = vjp
            self.needs_grad = any(p.needs_grad for p in self.parents)
        else:
            self.parents, self.vjp, self.needs_grad = (), None, False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={self.data.shape}, nid={self.nid})"


def leaf(data) -> Value:
    """Wrap an array as a gradient-carrying leaf of a new record (an input
    whose gradient nobody reads is better a constant, `Value(data)`)."""
    v = Value(data)
    v.needs_grad = _mode.record
    return v


def _check_elementwise(a: Value, b: Value, opname: str):
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not match")


# ---------------------------------------------------------------------------
# elementwise suite


def add(a: Value, b: Value) -> Value:
    _check_elementwise(a, b, "add")
    return Value(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Value, b: Value) -> Value:
    _check_elementwise(a, b, "sub")
    return Value(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Value, b: Value) -> Value:
    _check_elementwise(a, b, "mul")
    return Value(a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data))


def scale(x: Value, c: float) -> Value:
    c = float(c)
    return Value(x.data * c, (x,), lambda g: (g * c,))


def neg(x: Value) -> Value:
    return scale(x, -1.0)


def exp(x: Value) -> Value:
    out = np.exp(x.data)
    return Value(out, (x,), lambda g: (g * out,))


def log(x: Value) -> Value:
    return Value(np.log(x.data), (x,), lambda g: (g / x.data,))


def tanh(x: Value) -> Value:
    out = np.tanh(x.data)
    return Value(out, (x,), lambda g: (g * (1.0 - out * out),))


def reciprocal(x: Value) -> Value:
    out = 1.0 / x.data
    return Value(out, (x,), lambda g: (-g * out * out,))


def clamp(x: Value, lo=None, hi=None) -> Value:
    """Clip to [lo, hi]; gradient passes through only inside the bounds."""
    def vjp(g):
        # the mask comes from x, which the record keeps anyway, so a pass
        # without a record does not build it
        inside = np.ones_like(x.data, dtype=bool)
        if lo is not None:
            inside &= x.data >= lo
        if hi is not None:
            inside &= x.data <= hi
        return (g * inside,)

    return Value(np.clip(x.data, lo, hi), (x,), vjp)


# Segments: windows stacked along the agent axis of (C, T, N) tensors share
# one record, and `segments`, the bounds (0, n_1, ..., N) of their agent
# columns, keeps them apart. mix_agents takes one adjacency block per
# segment. conv_time and prelu give their parameters' gradients per segment
# along a new leading axis, reducing each segment as the whole array is
# reduced for segments=None: the single segment (0, N), with the
# parameter's own shape and the same bits.


def _columns(segments, n: int) -> list[slice]:
    """The agent-column slice of each segment of n columns."""
    bounds = segments or (0, n)
    cols = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    if bounds[0] != 0 or bounds[-1] != n or len(cols) != len(bounds) - 1:
        raise DimensionError(
            f"segments {segments} do not split {n} agent columns")
    return cols


def _segment_grads(segments, n: int, shape: tuple):
    """Each segment's agent-column slice paired with an empty gradient of
    `shape` to fill with `out=`, and all the gradients as returned:
    (S, *shape), or `shape` for segments=None."""
    cols = _columns(segments, n)
    grads = np.empty((len(cols),) + shape)
    return zip(cols, grads), grads if segments else grads[0]


def prelu(x: Value, slope: Value, segments=None) -> Value:
    """Parametric ReLU of a (C, T, N) tensor with a per-channel slope
    vector; the slope's gradient is per segment."""
    if x.data.ndim != 3 or slope.data.shape != (x.data.shape[0],):
        raise DimensionError(
            f"prelu: slope {slope.data.shape} does not match the channels "
            f"of a (C, T, N) input, got {x.data.shape}")
    # + 0.0 turns a -0 slope into +0, as s * 1 + 0 does in the factor
    # s * ~(x > 0) + (x > 0). min(0, x) * s + max(x, -0) is then x where
    # x > 0, else x * s, with the bits of x times that factor, signed zeros
    # included: np.minimum and np.maximum return their second operand on a
    # tie, so min(0, -0) is -0, and adding -0 changes nothing.
    s = slope.data.reshape(-1, 1, 1) + 0.0
    out = np.minimum(0.0, x.data)
    out *= s
    out += np.maximum(x.data, -0.0)

    def vjp(g):
        # multiplies by 1 or s instead of np.where, which costs ten times
        # more, with masks of 1.0 and 0.0: numpy casts a bool operand
        # element by element. The record keeps x, so it keeps no mask.
        pos = (x.data > 0).astype(np.float64)
        neg = 1.0 - pos
        gs_full = g * x.data
        gs_full *= neg
        parts, gs = _segment_grads(segments, g.shape[2], slope.data.shape)
        for c, gs_seg in parts:
            gs_full[:, :, c].sum(axis=(1, 2), out=gs_seg)
        del gs_full
        neg *= s
        neg += pos
        return g * neg, gs

    return Value(out, (x, slope), vjp)


def dropout_factor(shape, rate: float, rng: np.random.Generator
                   ) -> np.ndarray:
    """Inverted-dropout factors for `dropout`: an entry is kept with
    probability 1 - rate (rng.random(shape) >= rate) and scaled by
    1/(1-rate), or zeroed."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(x: Value, factor: np.ndarray) -> Value:
    """Inverted dropout with factors drawn beforehand by dropout_factor.

    The caller decides train/eval; this op always applies its factors.
    """
    if factor.shape != x.data.shape:
        raise DimensionError(
            f"dropout: factors {factor.shape} vs input {x.data.shape}")
    return Value(x.data * factor, (x,), lambda g: (g * factor,))


# ---------------------------------------------------------------------------
# convolution and agent mixing


def _padded_windows(x: np.ndarray, padding: int, k: int):
    """A (C_in, T + 2*padding, N) zero-padded x and its read-only
    (C_in, T', N, K) view of every length-K window along time.

    An unpadded C- or F-contiguous x is used as it is: a copy would have
    x's own layout. Any other x is copied in np.pad's memory order (Fortran
    only for an F- and not C-contiguous x). At K = 1 the column matrix is a
    view of the result, and a view of another layout rounds differently,
    so a strided x is copied even when unpadded."""
    c_in, t, n = x.shape
    if padding or not (x.flags.c_contiguous or x.flags.f_contiguous):
        xp = np.zeros((c_in, t + 2 * padding, n),
                      order="F" if x.flags.fnc else "C")
        xp[:, padding:padding + t, :] = x
    else:
        xp = x
    s_c, s_t, s_n = xp.strides
    # the ndarray constructor builds the same view as as_strided, 6x faster
    win = np.ndarray((c_in, t + 2 * padding - k + 1, n, k), xp.dtype, xp, 0,
                     (s_c, s_t, s_n, s_t))
    win.flags.writeable = False
    return xp, win


def _tap_columns(x: np.ndarray, padding: int, k: int) -> np.ndarray:
    """The C-contiguous (T' * N, C_in * K) column matrix of a K > 1
    convolution, row (frame, agent), column (input channel, tap), filled
    with one slab copy per tap from a (T + 2*padding, N, C_in) zero-padded
    copy of x (x itself, transposed, when unpadded). A gather through
    _padded_windows' view gives the same array, K elements at a time."""
    c_in, t, n = x.shape
    t_out = t + 2 * padding - k + 1
    xt = x.transpose(1, 2, 0)
    if padding:
        xt = np.zeros((t + 2 * padding, n, c_in))
        xt[padding:padding + t] = x.transpose(1, 2, 0)
    cols = np.empty((t_out, n, c_in, k))
    for j in range(k):
        cols[..., j] = xt[j:j + t_out]
    return cols.reshape(t_out * n, c_in * k)


def conv_time(x: Value, kernel: Value, bias: Value, padding: int = 0,
              segments=None) -> Value:
    """1-D convolution along the time axis, independent per agent column,
    plus a per-channel bias.

    x: (C_in, T, N), kernel: (C_out, C_in, K), bias: (C_out,)
    -> (C_out, T + 2*padding - K + 1, N) with zero padding. The kernel's
    and the bias's gradients are per segment.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise DimensionError(
            f"conv_time: expected 3-D operands, got {x.data.shape} and "
            f"{kernel.data.shape}")
    c_in, t, n = x.data.shape
    c_out, kc_in, k = kernel.data.shape
    if kc_in != c_in:
        raise DimensionError(
            f"conv_time: kernel input channels {kc_in} != input channels {c_in}")
    if bias.data.shape != (c_out,):
        raise DimensionError(
            f"conv_time: bias {bias.data.shape} does not match the kernel's "
            f"{c_out} output channels")
    if k > t + 2 * padding:
        raise DimensionError(
            f"conv_time: kernel length {k} exceeds padded input length "
            f"{t + 2 * padding}")
    # Each contraction is one matmul with the operand order and reshapes
    # that numpy 2.4's optimizing Einstein-summation planner picks for it,
    # so it makes the same BLAS call, with the same bits.
    t_out = t + 2 * padding - k + 1
    if k == 1:  # a view of the padded input, whose layout sets the bits
        xp = _padded_windows(x.data, padding, k)[0]
        cols = xp.transpose(1, 2, 0).reshape(t_out * n, c_in)
    else:
        cols = _tap_columns(x.data, padding, k)
    taps = kernel.data.transpose(1, 2, 0).reshape(c_in * k, c_out)
    out = cols @ taps
    out += bias.data
    out = out.reshape(t_out, n, c_out).transpose(2, 0, 1)

    def vjp(g):
        # rebuilt from x, which the record keeps anyway, so the record does
        # not hold a padded copy of every convolution input; the gather
        # copies runs of agents here, which beat one copy per tap
        win = _padded_windows(x.data, padding, k)[1]
        # per segment, kernel columns ordered (frame, agent)
        parts, gk = _segment_grads(segments, n, (c_in * k, c_out))
        for c, gk_seg in parts:
            np.matmul(win[:, :, c].transpose(0, 3, 1, 2).reshape(c_in * k, -1),
                      g[:, :, c].transpose(1, 2, 0).reshape(-1, c_out),
                      out=gk_seg)
        del win  # frees the padded copy before the input gradient's buffers
        parts, gb = _segment_grads(segments, n, (c_out,))
        for c, gb_seg in parts:
            g[:, :, c].sum(axis=(1, 2), out=gb_seg)
        # (..., C_in * K, C_out) -> (..., C_out, C_in, K)
        gk = gk.reshape(gk.shape[:-2] + (c_in, k, c_out))
        gk = gk.swapaxes(-1, -2).swapaxes(-2, -3)
        if not x.needs_grad:  # a constant input: the first layers
            return None, gk, gb
        g_cols = g.reshape(c_out, t_out * n)
        gxp = np.zeros((c_in, t + 2 * padding, n))
        # one product per tap: a single transposed-convolution GEMM would
        # sum in another order
        for j in range(k):
            gxp[:, j:j + t_out, :] += (kernel.data[:, :, j].T @ g_cols
                                       ).reshape(c_in, t_out, n)
        return (gxp[:, padding:padding + t, :] if padding else gxp), gk, gb

    return Value(out, (x, kernel, bias), vjp)


def mix_agents(x: Value, adj, segments=None) -> Value:
    """Per-frame mixing of a (C, T, N) tensor against constant adjacency:
    a list of one (T, n, n) block per segment of n columns, or for
    segments=None one (T, N, N) array. In the segment at column a,
    out[c,t,a+j] = sum_i x[c,t,a+i] * block[t,i,j]; segments do not mix.
    Adjacency is data-derived, not learned, so it carries no gradient.
    """
    blocks = adj if segments else [adj]
    cols = _columns(segments, x.data.shape[-1])
    if x.data.ndim != 3 or [a.shape for a in blocks] != [
            (x.data.shape[1], c.stop - c.start, c.stop - c.start)
            for c in cols]:
        raise DimensionError(
            f"mix_agents: input {x.data.shape}, segments {segments} vs "
            f"adjacency {[a.shape for a in blocks]}")
    # one (n, n) @ (n, C) product per frame and block, laid out as the
    # planner lays it out (see conv_time)
    out = np.empty(x.data.shape[1:] + x.data.shape[:1])
    for a, c in zip(blocks, cols):
        np.matmul(a.transpose(0, 2, 1), x.data[:, :, c].transpose(1, 2, 0),
                  out=out[:, c])

    def vjp(g):
        gx = np.empty_like(out)
        for a, c in zip(blocks, cols):
            np.matmul(a, g[:, :, c].transpose(1, 2, 0), out=gx[:, c])
        return (gx.transpose(2, 0, 1),)

    return Value(out.transpose(2, 0, 1), (x,), vjp)


def transpose_ct(x: Value) -> Value:
    """Swap the channel and time axes of a (C, T, N) tensor."""
    return Value(np.swapaxes(x.data, 0, 1), (x,),
                 lambda g: (np.swapaxes(g, 0, 1),))


def concat_channels(a: Value, b: Value) -> Value:
    if a.data.shape[1:] != b.data.shape[1:]:
        raise DimensionError(
            f"concat_channels: trailing dims differ, {a.data.shape} vs "
            f"{b.data.shape}")
    ca = a.data.shape[0]
    return Value(np.concatenate([a.data, b.data], axis=0), (a, b),
                 lambda g: (g[:ca], g[ca:]))


def concat_agents(a: Value, b: Value) -> Value:
    if a.data.shape[:2] != b.data.shape[:2]:
        raise DimensionError(
            f"concat_agents: leading dims differ, {a.data.shape} vs "
            f"{b.data.shape}")
    na = a.data.shape[2]
    return Value(np.concatenate([a.data, b.data], axis=2), (a, b),
                 lambda g: (g[:, :, :na], g[:, :, na:]))


def take_agents(x: Value, index) -> Value:
    """Gather agent columns of a (C, T, N) tensor: out[:, :, j] =
    x[:, :, index[j]]. Indices may repeat; their gradients add up."""
    index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), slice(None), index), g)
        return (gx,)

    return Value(x.data[:, :, index], (x,), vjp)


def sum_all(x: Value) -> Value:
    shape = x.data.shape
    return Value(np.sum(x.data), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_all(x: Value) -> Value:
    return scale(sum_all(x), 1.0 / x.data.size)


LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0


def reparameterize(mu: Value, logvar: Value, eps: np.ndarray) -> Value:
    """Pathwise Gaussian sample mu + exp(logvar/2) * eps, eps ~ N(0, I).

    eps holds standard-normal draws of mu's shape. logvar is clamped to
    [-10, 10] before exponentiation. Gradients flow to mu and logvar only;
    eps is a constant of the record.
    """
    if mu.data.shape != logvar.data.shape:
        raise DimensionError(
            f"reparameterize: mu {mu.data.shape} vs logvar {logvar.data.shape}")
    if eps.shape != mu.data.shape:
        raise DimensionError(
            f"reparameterize: eps {eps.shape} vs mu {mu.data.shape}")
    sigma = exp(scale(clamp(logvar, LOGVAR_MIN, LOGVAR_MAX), 0.5))
    return add(mu, mul(sigma, Value(eps)))


# ---------------------------------------------------------------------------
# backward


class GradientMap:
    """Gradients of the leaves that the loss depends on, keyed by node id;
    other nodes read as zero. `backward` drops each interior node's
    gradient once its vjp has run, so only the leaves' are kept.

    Every stored gradient is C-contiguous, which the next VJP's BLAS calls
    rely on for their bits. A returned array may be shared with other nodes'
    gradients or with a VJP's input, so treat it as read-only.
    """

    def __init__(self, grads: dict):
        self._grads = grads

    def get(self, v: Value) -> np.ndarray:
        g = self._grads.get(v.nid)
        if g is None:
            return np.zeros_like(v.data)
        return g

    def __contains__(self, v: Value):
        return v.nid in self._grads

    def __len__(self):
        return len(self._grads)


def backward(loss: Value) -> GradientMap:
    """Reverse-mode sweep from a scalar loss over the nodes of its record
    that need a gradient (see Value.needs_grad); constants and the nodes
    built from them alone are never visited."""
    if not _mode.record:
        raise ContractError("backward: called inside a no_record() block")
    if loss.data.size != 1:
        raise ContractError(
            f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.needs_grad:
        return GradientMap({})

    # iterative topological order (records can be thousands of nodes deep);
    # skipping the constant parts leaves the order of the rest as it was
    order = []
    seen = {loss.nid}
    stack = [(loss, iter(loss.parents))]
    while stack:
        node, it = stack[-1]
        child = next(it, None)
        if child is None:
            order.append(node)
            stack.pop()
        elif child.needs_grad and child.nid not in seen:
            seen.add(child.nid)
            stack.append((child, iter(child.parents)))

    grads = {loss.nid: np.ones_like(loss.data)}
    for node in reversed(order):
        if node.vjp is None:
            continue
        g = grads.pop(node.nid)
        for parent, pg in zip(node.parents, node.vjp(g)):
            if not parent.needs_grad:
                continue
            acc = grads.get(parent.nid)
            # C order without a copy where pg has it; accumulation builds
            # a new array, so sharing pg is safe
            grads[parent.nid] = np.asarray(pg, order="C") if acc is None \
                else acc + pg
    return GradientMap(grads)
