"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the trajectory model needs: biased 1-D convolution
along the time axis, per-frame agent mixing against a constant adjacency
stack, the Gaussian reparameterization trick (of a logvar the model has
bounded), and the few elementwise ops (add, mul, scale, exp, clamp, prelu,
dropout) on equal-shape operands that the network, the sampling and the
loss weighting use. The two loss terms are ops of their own in `losses`
(Value(out, parents, vjp) works for any op). The computation record is
define-by-run: every forward pass builds a fresh graph, so variable agent
counts are free.

A Value is a float64 array plus its Node in the record (nid, parents, vjp,
needs_grad). A recorded op links its operands' nodes, and its VJP closes
over only the arrays or shapes it reads, never over an operand Value, so
an activation that no VJP reads is freed once the forward drops its Value.
A Value built from an array alone is a constant without a node, and an
op's result gets one only when an operand needs a gradient, so a pass over
constants alone builds none. Gradients never mutate a Value or a node.
`backward` walks the record that reaches a `leaf` in reverse topological
order and returns a GradientMap of the leaves, so repeated calls on the
same record are idempotent.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

_ids = itertools.count()


class Node:
    """A Value's place in the record, without its data. `parents` holds one
    node per operand, and `vjp` maps the output gradient to one gradient
    per parent (vector-Jacobian product), or None where a parent needs
    none. `needs_grad` is set on leaves and on the nodes recorded from one.
    A constant operand gets a node without parents, kept on its Value.
    """

    __slots__ = ("nid", "parents", "vjp", "needs_grad")

    def __init__(self, parents=(), vjp=None, needs_grad=False):
        self.nid = next(_ids)
        self.parents, self.vjp, self.needs_grad = parents, vjp, needs_grad


def _link(v: "Value") -> Node:
    """v's node, made (and kept on v) for a constant operand."""
    if v.node is None:
        v.node = Node()
    return v.node


class Value:
    """A float64 array and its `node` (see Node), None outside every
    record. `Value(data, parents, vjp)` records any op over the operand
    Values `parents`. `nid`, `parents`, `vjp` and `needs_grad` read the
    node's, and `vjp` can be replaced on a recorded Value.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = None
        # runs for every op: stop at the first parent that needs a gradient
        for p in parents:
            if p.node is not None and p.node.needs_grad:
                self.node = Node(tuple(map(_link, parents)), vjp, True)
                break

    @property
    def nid(self):
        return None if self.node is None else self.node.nid

    @property
    def parents(self) -> tuple:
        return () if self.node is None else self.node.parents

    @property
    def vjp(self):
        return None if self.node is None else self.node.vjp

    @vjp.setter
    def vjp(self, fn):
        self.node.vjp = fn

    @property
    def needs_grad(self) -> bool:
        return self.node is not None and self.node.needs_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={self.data.shape}, nid={self.nid})"


def leaf(data) -> Value:
    """Wrap an array as a gradient-carrying leaf of a new record (an input
    whose gradient nobody reads is better a constant, `Value(data)`)."""
    v = Value(data)
    v.node = Node(needs_grad=True)
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


def mul(a: Value, b: Value) -> Value:
    """Elementwise product; the VJP keeps each operand's array only where
    the other operand needs a gradient."""
    _check_elementwise(a, b, "mul")
    ka = a.data if b.needs_grad else None
    kb = b.data if a.needs_grad else None
    return Value(a.data * b.data, (a, b), lambda g: (
        None if kb is None else g * kb, None if ka is None else g * ka))


def scale(x: Value, c: float) -> Value:
    c = float(c)
    return Value(x.data * c, (x,), lambda g: (g * c,))


def exp(x: Value) -> Value:
    out = np.exp(x.data)
    return Value(out, (x,), lambda g: (g * out,))


def clamp(x: Value, lo=None, hi=None) -> Value:
    """Clip to [lo, hi]; gradient passes through only inside the bounds."""
    xd = x.data

    def vjp(g):
        # the mask comes from x's array, so a pass without a record does
        # not build it
        inside = np.ones_like(xd, dtype=bool)
        if lo is not None:
            inside &= xd >= lo
        if hi is not None:
            inside &= xd <= hi
        return (g * inside,)

    return Value(np.clip(xd, lo, hi), (x,), vjp)


def prelu(x: Value, slope: Value) -> Value:
    """Parametric ReLU of a (C, T, N) tensor with a per-channel slope
    vector."""
    if x.data.ndim != 3 or slope.data.shape != (x.data.shape[0],):
        raise DimensionError(
            f"prelu: slope {slope.data.shape} does not match the channels "
            f"of a (C, T, N) input, got {x.data.shape}")
    # + 0.0 turns a -0 slope into +0, as s * 1 + 0 does in the factor
    # s * ~(x > 0) + (x > 0). min(0, x) * s + max(x, -0) is then x where
    # x > 0, else x * s, with the bits of x times that factor, signed zeros
    # included: np.minimum and np.maximum return their second operand on a
    # tie, so min(0, -0) is -0, and adding -0 changes nothing.
    xd, s = x.data, slope.data.reshape(-1, 1, 1) + 0.0
    out = np.minimum(0.0, xd)
    out *= s
    out += np.maximum(xd, -0.0)

    def vjp(g):
        # multiplies by 1 or s instead of np.where, which costs ten times
        # more, with masks of 1.0 and 0.0: numpy casts a bool operand
        # element by element. The VJP keeps x's array, so it keeps no mask.
        pos = (xd > 0).astype(np.float64)
        neg = 1.0 - pos
        gs = g * xd
        gs *= neg
        gs = gs.sum(axis=(1, 2))
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


def _padded(x: np.ndarray, padding: int) -> np.ndarray:
    """A (C_in, T + 2*padding, N) zero-padded x.

    An unpadded C- or F-contiguous x is used as it is: a copy would have
    x's own layout. Any other x is copied in np.pad's memory order (Fortran
    only for an F- and not C-contiguous x). At K = 1 the column matrix is a
    view of the result, and a view of another layout rounds differently,
    so a strided x is copied even when unpadded."""
    if not padding and (x.flags.c_contiguous or x.flags.f_contiguous):
        return x
    c_in, t, n = x.shape
    xp = np.zeros((c_in, t + 2 * padding, n),
                  order="F" if x.flags.fnc else "C")
    xp[:, padding:padding + t, :] = x
    return xp


def _padded_windows(x: np.ndarray, padding: int, k: int) -> np.ndarray:
    """The read-only (C_in, T', N, K) view of every length-K window along
    time of the zero-padded x (see _padded)."""
    xp = _padded(x, padding)
    c_in, t_padded, n = xp.shape
    s_c, s_t, s_n = xp.strides
    # the ndarray constructor builds the same view as as_strided, 6x faster
    win = np.ndarray((c_in, t_padded - k + 1, n, k), xp.dtype, xp, 0,
                     (s_c, s_t, s_n, s_t))
    win.flags.writeable = False
    return win


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


def conv_time(x: Value, kernel: Value, bias: Value, padding: int = 0
              ) -> Value:
    """1-D convolution along the time axis, independent per agent column,
    plus a per-channel bias.

    x: (C_in, T, N), kernel: (C_out, C_in, K), bias: (C_out,)
    -> (C_out, T + 2*padding - K + 1, N) with zero padding.
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
        cols = _padded(x.data, padding).transpose(1, 2, 0).reshape(
            t_out * n, c_in)
    else:
        cols = _tap_columns(x.data, padding, k)
    xd, kd, x_grad = x.data, kernel.data, x.needs_grad
    taps = kd.transpose(1, 2, 0).reshape(c_in * k, c_out)
    out = cols @ taps
    out += bias.data
    out = out.reshape(t_out, n, c_out).transpose(2, 0, 1)

    def vjp(g):
        # rebuilt from x's array, which the VJP keeps anyway, so the record
        # does not hold a padded copy of every convolution input; the gather
        # copies runs of agents here, which beat one copy per tap
        win = _padded_windows(xd, padding, k)
        # kernel columns ordered (frame, agent)
        gk = win.transpose(0, 3, 1, 2).reshape(c_in * k, -1) \
            @ g.transpose(1, 2, 0).reshape(-1, c_out)
        del win  # frees the padded copy before the input gradient's buffers
        gb = g.sum(axis=(1, 2))
        # (C_in * K, C_out) -> (C_out, C_in, K)
        gk = gk.reshape(c_in, k, c_out).transpose(2, 0, 1)
        if not x_grad:  # a constant input: the first layers
            return None, gk, gb
        g_cols = g.reshape(c_out, t_out * n)
        gxp = np.zeros((c_in, t + 2 * padding, n))
        # one product per tap: a single transposed-convolution GEMM would
        # sum in another order
        for j in range(k):
            gxp[:, j:j + t_out, :] += (kd[:, :, j].T @ g_cols
                                       ).reshape(c_in, t_out, n)
        return (gxp[:, padding:padding + t, :] if padding else gxp), gk, gb

    return Value(out, (x, kernel, bias), vjp)


def mix_agents(x: Value, adj) -> Value:
    """Per-frame mixing of a (C, T, N) tensor against constant adjacency:
    one (T, N, N) array, or for windows stacked along the agent axis a list
    of one (T, n, n) block per window, in column order. In the window at
    column a, out[c,t,a+j] = sum_i x[c,t,a+i] * block[t,i,j]; windows do
    not mix. Adjacency is data-derived, not learned, so it carries no
    gradient.
    """
    blocks = [adj] if isinstance(adj, np.ndarray) else adj
    bounds = np.cumsum([0] + [a.shape[-1] for a in blocks]).tolist()
    cols = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    if x.data.ndim != 3 or bounds[-1] != x.data.shape[2] or any(
            a.shape != (x.data.shape[1], c.stop - c.start, c.stop - c.start)
            for a, c in zip(blocks, cols)):
        raise DimensionError(
            f"mix_agents: input {x.data.shape} vs adjacency "
            f"{[a.shape for a in blocks]}")
    # one (n, n) @ (n, C) product per frame and block, laid out as the
    # planner lays it out (see conv_time)
    out = np.empty(x.data.shape[1:] + x.data.shape[:1])
    for a, c in zip(blocks, cols):
        np.matmul(a.transpose(0, 2, 1), x.data[:, :, c].transpose(1, 2, 0),
                  out=out[:, c])

    shape = out.shape

    def vjp(g):
        gx = np.empty(shape)
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
    shape = x.data.shape

    def vjp(g):
        gx = np.zeros(shape)
        np.add.at(gx, (slice(None), slice(None), index), g)
        return (gx,)

    return Value(x.data[:, :, index], (x,), vjp)


def sum_all(x: Value) -> Value:
    shape = x.data.shape
    return Value(np.sum(x.data), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def reparameterize(mu: Value, logvar: Value, eps: np.ndarray) -> Value:
    """Pathwise Gaussian sample mu + exp(logvar/2) * eps, eps ~ N(0, I).

    eps holds standard-normal draws of mu's shape. logvar must already be
    bounded, as the model's latent heads clamp it (model.LOGVAR_MIN and
    LOGVAR_MAX); it is exponentiated as given. Gradients flow to mu and
    logvar only; eps is a constant of the record.
    """
    if mu.data.shape != logvar.data.shape:
        raise DimensionError(
            f"reparameterize: mu {mu.data.shape} vs logvar {logvar.data.shape}")
    if eps.shape != mu.data.shape:
        raise DimensionError(
            f"reparameterize: eps {eps.shape} vs mu {mu.data.shape}")
    sigma = exp(scale(logvar, 0.5))
    return add(mu, mul(sigma, Value(eps)))


# ---------------------------------------------------------------------------
# backward


class GradientMap:
    """Gradients of the leaves that the loss depends on, keyed by node id;
    other nodes read as zero. `backward` drops each interior node's
    gradient once its vjp has run, so only the leaves' are kept. The map
    keeps no node: a record whose caller keeps no reference to it is freed
    node by node during the sweep, and a kept loss keeps its record (see
    backward).

    Every stored gradient is C-contiguous, which the next VJP's BLAS calls
    rely on for their bits. A returned array may be shared with other nodes'
    gradients or with a VJP's input, so treat it as read-only.
    """

    def __init__(self, grads: dict):
        self._grads = grads

    def get(self, v: Value) -> np.ndarray:
        g = self._grads.get(v.nid)  # None for a Value outside every record
        if g is None:
            return np.zeros_like(v.data)
        return g

    def __contains__(self, v: Value):
        return v.nid in self._grads

    def __len__(self):
        return len(self._grads)


def backward(loss: Value) -> GradientMap:
    """Reverse-mode sweep from a scalar loss over the nodes of its record
    that need a gradient (see Node.needs_grad); constants are never
    visited (an empty map for a constant loss).

    The sweep pops each node off its walk order and keeps no other
    reference to it, nor to the loss. So a record whose caller keeps no
    reference to it, as in `backward(box.pop())` from a one-item list
    (training.chunk_gradients), is freed node by node: each node right
    after its vjp has run, and with it the arrays only that vjp read.
    A caller that keeps the loss keeps the whole record, and a second call
    gives the same bits. Freeing early needs the callee to hold the only
    reference to its argument, as it does on CPython 3.11; on 3.10
    (unverified) at worst nothing is freed before backward returns, with
    the same bits.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.needs_grad:
        return GradientMap({})

    grads = {loss.nid: np.ones_like(loss.data)}
    order = _walk_order(loss.node)
    del loss
    while order:
        node = order.pop()
        if node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(grads.pop(node.nid))):
            if not parent.needs_grad:
                continue
            acc = grads.get(parent.nid)
            # C order without a copy where pg has it; accumulation builds
            # a new array, so sharing pg is safe
            grads[parent.nid] = np.asarray(pg, order="C") if acc is None \
                else acc + pg
    return GradientMap(grads)


def _walk_order(loss: Node) -> list[Node]:
    """The nodes of loss's record that need a gradient, each after all of
    its parents (so backward walks the list from its end); iterative, as
    records can be thousands of nodes deep. Skipping the constant parts
    leaves the order of the rest as it was."""
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
    return order
