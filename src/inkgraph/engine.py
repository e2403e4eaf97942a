"""Dense tensors with reverse-mode autodiff, plus optimizer, scheduler, checkpoints
and the base of the config dataclasses.

Everything is numpy underneath. A Tape records ops in execution order during a
forward pass; backward() replays the records in reverse, visiting each op once.
Ops are plain functions so the gradient-check suite can enumerate them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, fields

import numpy as np

from . import container

CHECKPOINT_MAGIC = b"INKGRPH1"


class EngineError(Exception):
    pass


class ShapeError(EngineError):
    pass


class NonFiniteError(EngineError):
    pass


_ACTIVE_TAPE = None


class Tensor:
    """Dense float array with an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


class Tape:
    """Execution-ordered op record for one forward pass. Single-threaded by design."""

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise EngineError("a tape is already active; one training step = one tape")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._nodes)


def tape_active():
    """Whether ops are being recorded on a Tape right now."""
    return _ACTIVE_TAPE is not None


def _as_tensor(x, like_dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like_dtype))


def _check_finite(op, arr):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: produced non-finite values")


def _record(op, out_data, inputs, backfn, check=True):
    # check=False for ops that only copy elements: they can pass on a
    # non-finite value only from an input, and the first op that computes on
    # it raises
    if check:
        _check_finite(op, out_data)
    return _record_outputs((out_data,), inputs, backfn)[0]


def _record_outputs(outs_data, inputs, backfn):
    # one tape node with a tuple of outputs; backfn gets one gradient per
    # output, None for an output that received none
    outs = tuple(Tensor(d) for d in outs_data)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        for out in outs:
            out.requires_grad = True
        tape._nodes.append((outs, inputs, backfn))
    return outs


def _accum(t, g):
    # The first gradient is taken, not copied, and later ones add out of place:
    # one array may reach several tensors (add hands its g to both inputs,
    # reshape and concat hand on views), so no gradient is ever written into.
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g).astype(t.data.dtype, copy=False)
    else:
        t.grad = (t.grad + g).astype(t.data.dtype, copy=False)


def _unbroadcast(g, shape):
    # reduce a gradient back to the pre-broadcast shape
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like_dtype=a.dtype)
    out = a.data + b.data

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _record("add", out, (a, b), back)


def sub(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like_dtype=a.dtype)
    out = a.data - b.data

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _record("sub", out, (a, b), back)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like_dtype=a.dtype)
    out = a.data * b.data

    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record("mul", out, (a, b), back)


def neg(a):
    a = _as_tensor(a)

    def back(g):
        _accum(a, -g)

    return _record("neg", -a.data, (a,), back)


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def back(g):
        _accum(a, g * c)

    return _record("scale", a.data * c, (a,), back)


def add_const(a, c):
    a = _as_tensor(a)
    c = float(c)

    def back(g):
        _accum(a, g)

    return _record("add_const", a.data + c, (a,), back)


def matmul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like_dtype=a.dtype)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def back(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _record("matmul", out, (a, b), back)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def back(g):
        _accum(a, g.reshape(a.data.shape))

    return _record("reshape", out, (a,), back, check=False)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def back(g):
        _accum(a, g.transpose(inv))

    return _record("transpose", a.data.transpose(axes), (a,), back)


def broadcast_to(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape).copy()

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _record("broadcast_to", out, (a,), back)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _record("concat", out, tuple(tensors), back, check=False)


def gather_rows(a, indices):
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    out = a.data[idx]

    def back(g):
        _accum(a, _segment_sum(g, idx, a.data.shape[0]))

    return _record("gather_rows", out, (a,), back, check=False)


def scatter_rows(a, indices, num_rows):
    """Rows of `a` placed at `indices` of a zero tensor with num_rows rows (add on collision)."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(f"scatter_rows: need one index per row, got {idx.shape} for {a.shape}")
    out = _segment_sum(a.data, idx, num_rows)

    def back(g):
        _accum(a, g[idx])

    return _record("scatter_rows", out, (a,), back)


def _run_starts(ids):
    """First position of each run of equal values in a non-empty 1-D array."""
    return np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])


def _segment_sum(x, ids, num_rows):
    """Rows of x summed into row ids[k] of a (num_rows, ...) zero array."""
    return _segment_summer(ids, num_rows)(x)


def _segment_summer(ids, num_rows):
    """The function x -> _segment_sum(x, ids, num_rows), with the ids sorted
    once for any number of x. Repeated ids are summed by one reduceat over
    id-sorted rows instead of np.add.at's per-element loop; distinct ids are
    placed, which gives the same bytes as a reduceat over runs of one row."""
    order = None
    if ids.size and np.any(ids[1:] < ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
    starts = None if np.all(ids[1:] > ids[:-1]) else _run_starts(ids)

    def segment_sum(x):
        out = np.zeros((num_rows,) + x.shape[1:], dtype=x.dtype)
        if order is not None:
            x = x[order]
        if starts is None:
            out[ids] = x
        else:
            out[ids[starts]] = np.add.reduceat(x, starts, axis=0)
        return out

    return segment_sum


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis)

    def back(g):
        if axis is None:
            _accum(a, np.full_like(a.data, g))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _record("sum", out, (a,), back)


def tmean(a, axis=None):
    a = _as_tensor(a)
    cnt = a.data.size if axis is None else a.data.shape[axis]
    if axis is not None and 1 <= cnt <= 3:
        out = _short_mean(a.data, axis)
    else:
        out = a.data.mean(axis=axis)

    def back(g):
        if axis is None:
            _accum(a, np.full_like(a.data, g / cnt))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape) / cnt)

    return _record("mean", out, (a,), back)


def _short_mean(a, axis):
    """np.mean over an axis of length 1 to 3, which np.mean reduces slowly.
    Its sum starts from +0.0 and adds the entries in index order, and so does
    this one, bit for bit."""
    rows = np.moveaxis(a, axis, 0)
    out = 0.0 + rows[0]
    for x in rows[1:]:
        out += x
    out /= len(rows)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a):
    a = _as_tensor(a)
    out = np.maximum(a.data, 0)

    def back(g):
        _accum(a, g * (a.data > 0))

    return _record("relu", out, (a,), back)


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    slope = float(slope)
    out = np.where(a.data > 0, a.data, a.data * slope)

    def back(g):
        _accum(a, g * np.where(a.data > 0, 1.0, slope))

    return _record("leaky_relu", out, (a,), back)


def texp(a):
    a = _as_tensor(a)
    out = np.exp(a.data)

    def back(g):
        _accum(a, g * out)

    return _record("exp", out, (a,), back)


def tlog(a):
    a = _as_tensor(a)
    out = np.log(a.data)

    def back(g):
        _accum(a, g / a.data)

    return _record("log", out, (a,), back)


def pow_scalar(a, p):
    """a ** p for a >= 0 and p >= 0 (focal-weight use); subgradient 0 at a == 0."""
    a = _as_tensor(a)
    p = float(p)
    if p < 0:
        raise EngineError("pow_scalar: exponent must be >= 0")
    out = np.power(a.data, p)

    def back(g):
        if p == 0.0:
            grad = np.zeros_like(a.data)
        elif p == 1.0:
            grad = np.ones_like(a.data)
        else:
            base = np.where(a.data > 0, a.data, 1.0)
            grad = np.where(a.data > 0, p * np.power(base, p - 1.0), 0.0)
        _accum(a, g * grad)

    return _record("pow_scalar", out, (a,), back)


# ---------------------------------------------------------------------------
# convolution family


def conv1d(x, w, stride=1, padding=0, groups=1):
    """x: (B, Cin, L), w: (Cout, Cin/groups, K) -> (B, Cout, Lout)."""
    x = _as_tensor(x)
    w = _as_tensor(w, like_dtype=x.dtype)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d: expects (B,C,L) and (O,C/g,K), got {x.shape}, {w.shape}")
    _, cin, length = x.shape
    cout, cper, k = w.shape
    if cin % groups or cout % groups or cper != cin // groups:
        raise ShapeError(f"conv1d: group mismatch, x={x.shape} w={w.shape} groups={groups}")
    lout = (length + 2 * padding - k) // stride + 1
    if lout <= 0:
        raise ShapeError(f"conv1d: kernel {k} too large for length {length} (pad {padding})")

    if stride == 1 and groups == cin == cout and padding < k:
        kernel = _conv1d_depthwise
    else:
        kernel = _conv1d_grouped
    out, grads = kernel(x.data, w.data, stride, padding, groups)

    def back(g):
        gx, gw = grads(g, x.requires_grad, w.requires_grad)
        if gx is not None:
            _accum(x, gx)
        if gw is not None:
            _accum(w, gw)

    return _record("conv1d", out.astype(x.dtype, copy=False), (x, w), back)


# Each conv1d kernel maps (x, w, stride, padding, groups) arrays to the output
# and a function grads(g, need_x, need_w) of the output gradient that returns
# (grad x or None, grad w or None), computing only the ones asked for.


def _conv1d_depthwise(x, w, stride, padding, groups):
    """Stride 1, one weight per channel, padding < K: the banded kernel on the
    channel-major view of x."""
    out, band_grads = _depthwise_banded(x.transpose(1, 0, 2), w[:, 0], padding)

    def grads(g, need_x, need_w):
        gx, gw = band_grads(g.transpose(1, 0, 2), need_x, need_w)
        return (None if gx is None else gx.transpose(1, 0, 2),
                None if gw is None else gw[:, None])

    return out.transpose(1, 0, 2), grads


_BAND_TILE = 32  # outputs per tile of the depthwise Toeplitz band


def _tile_windows(a, lead, length, tile, width):
    """Windows of `width` positions every `tile` positions along the last axis
    of `a` (C, B, L) with `lead` zeros in front and zeros past its end, enough
    to cover `length` outputs of `tile` each, copied out as (C, B*tiles, width)."""
    c, bsz, n = a.shape
    tiles = -(-length // tile)
    ap = np.zeros((c, bsz, (tiles - 1) * tile + width), dtype=a.dtype)
    ap[:, :, lead:lead + n] = a
    win = np.lib.stride_tricks.sliding_window_view(ap, width, axis=2)[:, :, ::tile]
    return np.ascontiguousarray(win).reshape(c, bsz * tiles, width)


def _band(w, tile):
    """(C, K) taps -> each channel's (T + K - 1, T) tile of its Toeplitz band,
    whose column j holds the taps in rows j..j+K-1."""
    c, k = w.shape
    band = np.zeros((c, tile + k - 1, tile), dtype=w.dtype)
    band[:, _band_rows(tile, k), np.arange(tile)] = w[:, :, None]
    return band


def _band_rows(tile, k):
    """(K, T): the band row of tap k in column j, j + k."""
    return np.arange(tile) + np.arange(k)[:, None]


def _depthwise_banded(xc, w, padding):
    """Depthwise stride-1 conv of channel-major xc (C, B, L) with taps w (C, K)
    and 0 <= padding < K: one GEMM per channel of its input windows against a
    fixed tile of its Toeplitz band (Chellapilla, Puri & Simard 2006). Returns
    the output as a (C, B, Lout) view and grads(gc, need_x, need_w) of its
    gradient (C, B, Lout), which returns (grad xc or None, grad w or None)."""
    c, bsz, length = xc.shape
    k = w.shape[1]
    lout = length + 2 * padding - k + 1
    tile = max(_BAND_TILE, k - 1)
    width = tile + k - 1
    win = _tile_windows(xc, padding, lout, tile, width)
    out = np.matmul(win, _band(w, tile)).reshape(c, bsz, -1)[:, :, :lout]

    def grads(gc, need_x, need_w):
        # The band's transpose is the band of the reversed taps: grad x is the
        # gradient correlated with w[:, ::-1] behind K - 1 - padding zeros.
        gwin = _tile_windows(gc, k - 1 - padding, length, tile, width)
        gx = gw = None
        if need_x:
            gx = np.matmul(gwin, _band(w[:, ::-1], tile)).reshape(c, bsz, -1)[:, :, :length]
        if need_w:
            # input tile position j meets tap k at gradient window row j + K-1-k
            prod = np.matmul(gwin.transpose(0, 2, 1), _tile_windows(xc, 0, length, tile, tile))
            gw = prod[:, _band_rows(tile, k), np.arange(tile)].sum(axis=2)[:, ::-1]
        return gx, gw

    return out, grads


_GROUP_BLOCK = 16  # groups per einsum call in the _conv1d_grouped forward


def _conv1d_grouped(x, w, stride, padding, groups):
    """Any stride, padding and grouping. The forward runs one einsum over the
    window view per block of groups, which bounds the copy einsum makes of
    that view. The backward loops over the taps' strided slices of the padded
    input and never copies the view, which would be K times the input."""
    bsz, cin, length = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    lout = win.shape[2]
    cg, og = cin // groups, cout // groups
    wing = win.reshape(bsz, groups, cg, lout, k)
    wg = w.reshape(groups, og, cg, k)
    out = np.empty((bsz, groups, og, lout), dtype=np.result_type(x, w))
    for lo in range(0, groups, _GROUP_BLOCK):
        hi = lo + _GROUP_BLOCK
        out[:, lo:hi] = np.einsum("bgclk,gock->bgol", wing[:, lo:hi], wg[lo:hi], optimize=True)

    def grads(g, need_x, need_w):
        gg = g.reshape(bsz, groups, og, lout)
        xg = xp.reshape(bsz, groups, cg, xp.shape[2])
        gxp = np.zeros_like(xp)
        gxg = gxp.reshape(xg.shape)
        gw = np.empty_like(wg)
        for kk in range(k):
            taps = slice(kk, kk + stride * lout, stride)
            if need_x:
                gxg[:, :, :, taps] += np.einsum("bgol,goc->bgcl", gg, wg[:, :, :, kk])
            if need_w:
                gw[:, :, :, kk] = np.einsum("bgol,bgcl->goc", gg, xg[:, :, :, taps])
        return (gxp[:, :, padding:padding + length] if need_x else None,
                gw.reshape(w.shape) if need_w else None)

    return out.reshape(bsz, cout, lout), grads


def sepconv_block(x, dw_w, dw_b, pw_w, pw_b, proj_w, proj_b, padding, pool=False):
    """One residual separable conv block as one op:
    relu(pointwise(depthwise(x) + dw_b) + pw_b) + proj(x) + proj_b.

    x: (B, Cin, L); dw_w: (Cin, 1, K) with 2 * padding == K - 1, so the length
    is kept; pw_w and proj_w: (Cout, Cin, 1); biases 1-D. The depthwise conv
    runs on the banded kernel, and each 1x1 conv as one GEMM over all B*L
    positions, channel-major. Bias, relu and skip are written in place, the
    output is checked once and one tape node is recorded, which keeps the
    relu's mask as bool rather than the activation. The output is a
    (B, Cout, L) view of a (Cout, B, L) array, which the next block reads
    without a copy.

    With pool, the output is its mean over the length axis, (B, Cout). The
    mean commutes with the skip's 1x1 conv, so the skip runs on the mean of
    x: one (Cout, Cin) x (Cin, B) product instead of one over all B*L
    positions, in the forward and in both of its gradients."""
    x = _as_tensor(x)
    dw_w, dw_b, pw_w, pw_b, proj_w, proj_b = (
        _as_tensor(t, like_dtype=x.dtype) for t in (dw_w, dw_b, pw_w, pw_b, proj_w, proj_b))
    if x.ndim != 3:
        raise ShapeError(f"sepconv_block: expects (B,C,L), got {x.shape}")
    bsz, cin, length = x.shape
    cout, k = pw_w.shape[0], dw_w.shape[-1]
    if (dw_w.shape != (cin, 1, k) or 2 * padding != k - 1 or dw_b.shape != (cin,)
            or pw_w.shape != (cout, cin, 1) or proj_w.shape != (cout, cin, 1)
            or pw_b.shape != (cout,) or proj_b.shape != (cout,)):
        raise ShapeError(
            f"sepconv_block: shapes disagree, x={x.shape} dw={dw_w.shape}/{dw_b.shape} "
            f"pw={pw_w.shape}/{pw_b.shape} proj={proj_w.shape}/{proj_b.shape} pad={padding}")
    xc = x.data.transpose(1, 0, 2)
    d, dw_grads = _depthwise_banded(xc, dw_w.data[:, 0], padding)
    h = np.add(d, dw_b.data[:, None, None]).reshape(cin, -1)
    pw2, proj2 = pw_w.data[:, :, 0], proj_w.data[:, :, 0]
    act = pw2 @ h
    act += pw_b.data[:, None]
    np.maximum(act, 0, out=act)
    # the backward needs only where the relu passed, not the activation
    mask = act > 0 if tape_active() else None
    # the skip's input: x over all positions, or its mean per stroke
    x2 = xc.mean(axis=2) if pool else np.ascontiguousarray(xc).reshape(cin, -1)
    out = proj2 @ x2
    out += proj_b.data[:, None]
    out += act.reshape(cout, bsz, length).mean(axis=2) if pool else act

    def back(g):
        # gs: the gradient at the skip's output, (Cout, B) or (Cout, B*L)
        gs = np.ascontiguousarray(g.T if pool else g.transpose(1, 0, 2)).reshape(cout, -1)
        if proj_b.requires_grad:
            _accum(proj_b, gs.sum(axis=1))
        if proj_w.requires_grad:
            _accum(proj_w, (gs @ x2.T)[:, :, None])
        if pool:  # the mean's gradient, spread over the length axis
            gpw = ((gs / length)[:, :, None] * mask.reshape(cout, bsz, length)).reshape(cout, -1)
        else:
            gpw = gs * mask
        if pw_b.requires_grad:
            _accum(pw_b, gpw.sum(axis=1))
        if pw_w.requires_grad:
            _accum(pw_w, (gpw @ h.T)[:, :, None])
        if not (x.requires_grad or dw_w.requires_grad or dw_b.requires_grad):
            return
        gh = pw2.T @ gpw
        if dw_b.requires_grad:
            _accum(dw_b, gh.sum(axis=1))
        gd, gdw = dw_grads(gh.reshape(cin, bsz, length), x.requires_grad, dw_w.requires_grad)
        if gdw is not None:
            _accum(dw_w, gdw[:, None])
        if gd is not None:
            gskip = proj2.T @ gs
            gx = gd + (gskip / length)[:, :, None] if pool else gd + gskip.reshape(gd.shape)
            _accum(x, gx.transpose(1, 0, 2))

    out = out.T if pool else out.reshape(cout, bsz, length).transpose(1, 0, 2)
    return _record("sepconv_block", out, (x, dw_w, dw_b, pw_w, pw_b, proj_w, proj_b), back)


def avg_pool1d(x, kernel, stride):
    """x: (B, C, L) -> (B, C, Lout) with mean over non-padded windows."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"avg_pool1d: expects (B,C,L), got {x.shape}")
    length = x.shape[2]
    lout = (length - kernel) // stride + 1
    if lout <= 0:
        raise ShapeError(f"avg_pool1d: kernel {kernel} too large for length {length}")
    win = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride]
    out = win.mean(axis=3)

    def back(g):
        gx = np.zeros_like(x.data)
        for kk in range(kernel):
            gx[:, :, kk:kk + stride * lout:stride] += g / kernel
        _accum(x, gx)

    return _record("avg_pool1d", out, (x,), back)


# ---------------------------------------------------------------------------
# stochastic / masked ops


def dropout(x, rate, rng):
    """Inverted-scaling dropout; rng may be a seed or a numpy Generator."""
    x = _as_tensor(x)
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise EngineError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        def back0(g):
            _accum(x, g)
        return _record("dropout", x.data.copy(), (x,), back0)
    gen = np.random.default_rng(rng)
    keep = (gen.random(x.data.shape) >= rate).astype(x.dtype)
    factor = 1.0 / (1.0 - rate)
    out = x.data * keep * factor

    def back(g):
        _accum(x, g * keep * factor)

    return _record("dropout", out, (x,), back)


def masked_softmax(logits, mask, axis):
    """Softmax over entries where mask != 0; masked entries 0; fully-masked slices all 0."""
    logits = _as_tensor(logits)
    m = np.broadcast_to(np.asarray(mask) != 0, logits.data.shape)
    shifted_max = np.where(m, logits.data, -np.inf).max(axis=axis, keepdims=True)
    shifted_max = np.where(np.isfinite(shifted_max), shifted_max, 0.0)
    # mask before exp so discarded entries cannot overflow
    e = np.exp(np.where(m, logits.data - shifted_max, -np.inf))
    denom = e.sum(axis=axis, keepdims=True)
    out = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(logits, out * (g - dot))

    return _record("masked_softmax", out, (logits,), back)


def segment_softmax(logits, segment_ids):
    """Softmax over the rows of each segment, separately per column.

    Rows with equal ids form a segment; ids must be sorted, so that each
    segment is one contiguous run of rows.
    """
    logits = _as_tensor(logits)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape != logits.data.shape[:1]:
        raise ShapeError(f"segment_softmax: need one id per row, got {ids.shape} "
                         f"for {logits.shape}")
    if np.any(ids[1:] < ids[:-1]):
        raise ShapeError("segment_softmax: segment ids must be sorted")
    out, grad = _softmax_runs(logits.data, ids)
    return _record("segment_softmax", out, (logits,), lambda g: _accum(logits, grad(g)))


def _softmax_runs(x, ids):
    """Softmax of x over each run of equal sorted ids: the output and the
    function that maps its gradient to the gradient of x."""
    if ids.size == 0:
        return x.copy(), lambda g: g
    starts = _run_starts(ids)
    seg = np.cumsum(np.r_[0, ids[1:] != ids[:-1]])  # run number of every row
    e = np.exp(x - np.maximum.reduceat(x, starts, axis=0)[seg])
    out = e / np.add.reduceat(e, starts, axis=0)[seg]

    def grad(g):
        dot = np.add.reduceat(g * out, starts, axis=0)[seg]
        return out * (g - dot)

    return out, grad


def log_softmax(logits, axis):
    logits = _as_tensor(logits)
    mx = logits.data.max(axis=axis, keepdims=True)
    shifted = logits.data - mx
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def back(g):
        _accum(logits, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return _record("log_softmax", out, (logits,), back)


# ---------------------------------------------------------------------------
# attention layer


def edge_attention(h, b, wh, wb, att, edges, leaky_slope=0.2, message_concat=True,
                   residual=True, dropout_rate=0.0, rng=None):
    """One edge-featured attention layer as one op with two outputs.

    h: (V, H) node state, b: (E, H) state of the directed edges
    edges = (src, dst), sorted by source; wh, wb: (H, H); att: (3H, 1).
    Returns (h', b', attention), the last a plain (E,) array. The logits
    score [h_src W_h ++ b W_b ++ h_dst W_h], through a leaky relu of slope
    leaky_slope (1.0 keeps them linear), and are normalized over each
    source's out-edges.
    Messages alpha * h_dst W_h are summed into the source; alpha * b W_b is
    the edge message. message_concat re-widens both with the aggregated edge
    context and averages adjacent feature pairs (nodes) or triples (edges)
    back to H; residual adds h and b; dropout_rate > 0 draws h's mask, then
    b's, each through np.random.default_rng(rng).

    With message_concat the op forms no concatenation and no E x H x H
    product: it averages W_b's columns before the product (see
    _pooled_messages) and equals the chain of single engine ops to
    rounding. Without it the NumPy operations are those of the chain
    (matmul, gather_rows, concat, leaky_relu, segment_softmax, mul,
    scatter_rows, add, dropout), in its order, so outputs and gradients are
    the chain's bytes. Besides the outputs and the dropout masks as bool,
    the tape node keeps no (E, H) float array with message_concat, and only
    b W_b without it. Outside a tape nothing is built that only the
    backward reads.
    """
    op = "edge_attention"
    h = _as_tensor(h)
    b, wh, wb, att = (_as_tensor(t, like_dtype=h.dtype) for t in (b, wh, wb, att))
    src, dst = (np.asarray(i, dtype=np.int64) for i in edges)
    num_nodes, hidden = h.shape if h.ndim == 2 else (0, 0)
    num_edges = b.shape[0]
    if (h.ndim != 2 or b.shape != (num_edges, hidden) or wh.shape != (hidden, hidden)
            or wb.shape != (hidden, hidden) or att.shape != (3 * hidden, 1)
            or src.shape != (num_edges,) or dst.shape != (num_edges,)):
        raise ShapeError(f"{op}: shapes disagree, h={h.shape} b={b.shape} wh={wh.shape} "
                         f"wb={wb.shape} att={att.shape} edges={src.shape}/{dst.shape}")
    if len({t.dtype for t in (h, b, wh, wb, att)}) != 1:
        raise EngineError(f"{op}: inputs must share one dtype")
    if np.any(src[1:] < src[:-1]):
        raise ShapeError(f"{op}: edges must be sorted by source")
    if not 0.0 <= dropout_rate < 1.0:
        raise EngineError(f"{op}: dropout rate must be in [0, 1), got {dropout_rate}")

    messages = _pooled_messages if message_concat else _plain_messages
    h_out, b_out, alpha, back_messages = messages(h, b, wh, wb, att, src, dst,
                                                  float(leaky_slope))
    # h_out and b_out are the op's own arrays: updating them in place runs
    # the chain's operations without its copies
    if residual:
        h_out += h.data
        b_out += b.data
    keep_h = keep_b = None
    if dropout_rate > 0:
        factor = 1.0 / (1.0 - dropout_rate)
        keep_h = np.random.default_rng(rng).random(h_out.shape) >= dropout_rate
        h_out *= keep_h
        h_out *= factor
        keep_b = np.random.default_rng(rng).random(b_out.shape) >= dropout_rate
        b_out *= keep_b
        b_out *= factor
    _check_finite(op, h_out)
    _check_finite(op, b_out)
    dtype = h.dtype

    def back(g_hout, g_bout):
        # The chain's backward, node by node in reverse; a branch whose
        # output got no gradient is skipped, not fed zeros.
        if keep_h is not None:
            if g_bout is not None:
                g_bout = _acc(None, g_bout * keep_b * factor, dtype)
            if g_hout is not None:
                g_hout = _acc(None, g_hout * keep_h * factor, dtype)
        if residual:
            if g_bout is not None:
                _accum(b, g_bout)
            if g_hout is not None:
                _accum(h, g_hout)
        back_messages(g_hout, g_bout)

    h_next, b_next = _record_outputs((h_out, b_out), (h, b, wh, wb, att), back)
    return h_next, b_next, alpha[:, 0].copy()


def _acc(prev, g, dtype):
    # _accum's arithmetic for a gradient that stays inside an op
    return g.astype(dtype, copy=False) if prev is None else (prev + g).astype(dtype, copy=False)


def _plain_messages(h, b, wh, wb, att, src, dst, slope):
    """edge_attention's messages without message_concat, in the chain's
    operations: (h_msg, b_msg, alpha (E, 1), backward of the two)."""
    op = "edge_attention"
    num_nodes, hidden = h.shape
    dtype = h.dtype
    sum_src = _segment_summer(src, num_nodes)
    hw = h.data @ wh.data
    bw = b.data @ wb.data
    _check_finite(op, hw)
    _check_finite(op, bw)
    hw_dst = hw[dst]
    logits = np.concatenate([hw[src], bw, hw_dst], axis=1) @ att.data
    alpha, softmax_grad = _softmax_runs(np.where(logits > 0, logits, logits * slope), src)
    _check_finite(op, alpha)

    def back(g_hmsg, g_bmsg):
        need_hw = h.requires_grad or wh.requires_grad
        need_bw = b.requires_grad or wb.requires_grad
        g_alpha = g_bw = g_hw_dst = None
        hw_at_dst = hw[dst]
        if g_bmsg is not None:
            g_alpha = _acc(None, (g_bmsg * bw).sum(axis=1, keepdims=True), dtype)
            if need_bw:
                g_bw = _acc(None, g_bmsg * alpha, dtype)
        if g_hmsg is not None:
            g_m = g_hmsg[src]
            g_alpha = _acc(g_alpha, (g_m * hw_at_dst).sum(axis=1, keepdims=True), dtype)
            if need_hw:
                g_hw_dst = _acc(None, g_m * alpha, dtype)
        g_logits = _acc(None, softmax_grad(g_alpha), dtype)
        g_logits = _acc(None, g_logits * np.where(logits > 0, 1.0, slope), dtype)

        if att.requires_grad:
            trip = np.concatenate([hw[src], bw, hw_at_dst], axis=1)
            _accum(att, trip.T @ g_logits)
        if not (need_hw or need_bw):
            return
        # g_logits @ att.T as a broadcast product: the same bytes, without the
        # slow K = 1 GEMM
        g_trip = g_logits * att.data.T
        if need_bw:
            g_bw = _acc(g_bw, g_trip[:, hidden:2 * hidden], dtype)
            if b.requires_grad:
                _accum(b, g_bw @ wb.data.T)
            if wb.requires_grad:
                _accum(wb, b.data.T @ g_bw)
        if need_hw:
            sum_dst = _segment_summer(dst, num_nodes)
            g_hw_dst = _acc(g_hw_dst, g_trip[:, 2 * hidden:], dtype)
            g_hw = _acc(sum_src(g_trip[:, :hidden]), sum_dst(g_hw_dst), dtype)
            if h.requires_grad:
                _accum(h, g_hw @ wh.data.T)
            if wh.requires_grad:
                _accum(wh, h.data.T @ g_hw)

    return sum_src(alpha * hw_dst), alpha * bw, alpha, back


_ATTENTION_ROWS = 32  # source nodes per block of the attention matrix


def _attention_blocks(src, dst, num_nodes):
    """Diagonal blocks that hold every edge of the (V, V) matrix of alpha:
    per run of up to _ATTENTION_ROWS source nodes, (rows, columns, edge
    slice, the edges' row and column in the block). A block spans only the
    targets of its edges, so a disjoint union of small graphs never builds a
    matrix that grows with the square of the batch."""
    blocks = []
    for lo in range(0, num_nodes, _ATTENTION_ROWS):
        hi = min(lo + _ATTENTION_ROWS, num_nodes)
        first, last = np.searchsorted(src, (lo, hi))
        if first < last:
            ends = dst[first:last]
            left, right = int(ends.min()), int(ends.max()) + 1
            blocks.append((slice(lo, hi), slice(left, right), slice(first, last),
                           src[first:last] - lo, ends - left))
    return blocks


def _block_matrix(alpha, block):
    """The block's (rows, columns) part of the matrix of alpha; a repeated
    edge adds."""
    rows, cols, edge, at_row, at_col = block
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    flat = np.bincount(at_row * shape[1] + at_col, weights=alpha[edge, 0],
                       minlength=shape[0] * shape[1])
    return flat.reshape(shape).astype(alpha.dtype, copy=False)


def _block_sums(blocks, x, num_nodes, at_target=False, weights=None):
    """Rows of x, one per edge and times its weight if given, summed into
    each edge's source node (or its target), by one product with the
    weighted incidence of each block's edges: at the widths here that is
    several times faster than np.add.reduceat."""
    out = np.zeros((num_nodes, x.shape[1]), x.dtype)
    for rows, cols, edge, at_row, at_col in blocks:
        nodes, at = (cols, at_col) if at_target else (rows, at_row)
        incidence = np.zeros((nodes.stop - nodes.start, len(at)), x.dtype)
        incidence[at, np.arange(len(at))] = 1 if weights is None else weights[edge]
        out[nodes] += incidence @ x[edge]
    return out


def _pool(x, offset, k):
    """The columns of x, placed from column `offset` of a wider row, averaged
    in that row's adjacent groups of k: (first group, (rows, groups) part of
    the average, one column per group that x reaches)."""
    width = x.shape[1]
    lead = min(-offset % k, width)  # x's columns in a group begun before x
    whole = (width - lead) // k
    tail = width - lead - k * whole  # x's columns in a group that ends after x
    # a product with a length-k vector sums the whole groups at memory speed;
    # a strided sum or an axis-2 reduction is several times slower
    body = x[:, lead:lead + k * whole].reshape(len(x), whole, k) @ np.full(k, 1 / k, x.dtype)
    if not (lead or tail):
        return offset // k, body
    parts = [x[:, :lead].sum(axis=1, keepdims=True) / k] if lead else []
    parts.append(body)
    if tail:
        parts.append(x[:, width - tail:].sum(axis=1, keepdims=True) / k)
    return offset // k, np.concatenate(parts, axis=1)


def _unpool(g, offset, width, k):
    """The transpose of _pool(x, offset, k) for x of `width` columns: every
    column of x gets the gradient of its group, over k. g's columns are x's
    groups, from the first on."""
    return (g / k)[:, (offset + np.arange(width)) // k - offset // k]


def _pooled_messages(h, b, wh, wb, att, src, dst, slope):
    """edge_attention's messages with message_concat, as the pooled
    projection: (h_out, b_out, alpha (E, 1), backward of the two).

    Averaging adjacent columns is linear, so it is applied to W_b before
    the product. With a = [a_src; a_mid; a_dst], the logits are
    (hW_h a_src)[src] + b (W_b a_mid) + (hW_h a_dst)[dst]. Node messages
    are A (hW_h), with A the matrix of alpha, built in diagonal blocks. The
    node output averages [A hW_h | c W_b] in pairs, with c the sum of
    alpha * b over each node's out-edges, so c is projected through W_b's
    pair-averaged columns (H x H/2). The edge output averages
    [h_msg[src] | alpha b W_b | h_msg[dst]] in triples: the triple-averaged
    columns of h_msg gathered at src and dst, plus alpha (b W_b P3), where
    W_b P3 is W_b's triple-averaged column block (H x about H/3). No
    (E, 3H) concatenation and no E x H x H product is formed.

    The tape node keeps hW_h, c and b W_b P3: (V, H), (V, H) and
    (E, about H/3) floats, plus the logits and alpha.
    """
    op = "edge_attention"
    num_nodes, hidden = h.shape
    num_edges = b.shape[0]
    dtype = h.dtype
    a = att.data
    ends = np.concatenate([a[:hidden], a[2 * hidden:]], axis=1)  # (H, 2): a_src, a_dst
    a_mid = a[hidden:2 * hidden]

    def pooled_wb():
        return _pool(wb.data, hidden, 2), _pool(wb.data, hidden, 3)

    (g2, wb2), (g3, wb3) = pooled_wb()
    hw = h.data @ wh.data
    _check_finite(op, hw)
    bp = b.data @ wb3
    _check_finite(op, bp)
    ends_w = hw @ ends
    u = wb.data @ a_mid
    logits = ends_w[src, :1] + b.data @ u + ends_w[dst, 1:]
    alpha, softmax_grad = _softmax_runs(np.where(logits > 0, logits, logits * slope), src)
    _check_finite(op, alpha)

    blocks = _attention_blocks(src, dst, num_nodes)
    h_msg = np.zeros((num_nodes, hidden), dtype)
    for block in blocks:
        h_msg[block[0]] = _block_matrix(alpha, block) @ hw[block[1]]
    c = _block_sums(blocks, b.data, num_nodes, weights=alpha[:, 0])

    h_out = np.zeros((num_nodes, hidden), dtype)
    _, node_part = _pool(h_msg, 0, 2)
    h_out[:, :node_part.shape[1]] += node_part
    h_out[:, g2:g2 + wb2.shape[1]] += c @ wb2
    b_out = np.zeros((num_edges, hidden), dtype)
    _, src_part = _pool(h_msg, 0, 3)
    n_src = src_part.shape[1]
    b_out[:, :n_src] += src_part[src]
    b_out[:, g3:g3 + wb3.shape[1]] += alpha * bp
    g_dst, dst_part = _pool(h_msg, 2 * hidden, 3)
    b_out[:, g_dst:] += dst_part[dst]

    def back(g_hout, g_bout):
        (g2, wb2), (g3, wb3) = pooled_wb()
        g_alpha = np.zeros(num_edges, dtype)
        g_hmsg = np.zeros((num_nodes, hidden), dtype)
        g_b = g_cw = g_wb_edges = None
        if g_hout is not None:
            g_hmsg += _unpool(g_hout, 0, hidden, 2)
            g_c = g_hout[:, g2:g2 + wb2.shape[1]]
            # c W_b's gradient has V rows, few enough to unpool before the
            # product that gives W_b's gradient
            g_cw = _unpool(g_c, hidden, hidden, 2)
            g_c = (g_c @ wb2.T)[src]
            g_alpha += np.einsum("ij,ij->i", g_c, b.data)
            if b.requires_grad:
                g_b = alpha * g_c
        if g_bout is not None:
            g_hmsg += _unpool(_block_sums(blocks, g_bout[:, :n_src], num_nodes), 0, hidden, 3)
            g_hmsg += _unpool(_block_sums(blocks, g_bout[:, g_dst:], num_nodes, at_target=True),
                              2 * hidden, hidden, 3)
            g_bp = g_bout[:, g3:g3 + wb3.shape[1]]
            g_alpha += np.einsum("ij,ij->i", g_bp, bp)
            g_bp = alpha * g_bp
            if wb.requires_grad:
                g_wb_edges = _unpool(b.data.T @ g_bp, hidden, hidden, 3)
            if b.requires_grad:
                g_proj = g_bp @ wb3.T
                g_b = g_proj if g_b is None else g_b + g_proj

        need_hw = h.requires_grad or wh.requires_grad
        g_hw = np.zeros((num_nodes, hidden), dtype)
        for block in blocks:
            rows, cols, edge, at_row, at_col = block
            g_alpha[edge] += (g_hmsg[rows] @ hw[cols].T)[at_row, at_col]
            if need_hw:
                g_hw[cols] += _block_matrix(alpha, block).T @ g_hmsg[rows]

        g_logits = _acc(None, softmax_grad(g_alpha[:, None])
                        * np.where(logits > 0, 1.0, slope), dtype)
        g_ends = np.concatenate([_block_sums(blocks, g_logits, num_nodes),
                                 _block_sums(blocks, g_logits, num_nodes, at_target=True)],
                                axis=1)  # (V, 2)
        g_u = b.data.T @ g_logits
        if att.requires_grad:
            g_ends_w = hw.T @ g_ends
            _accum(att, np.concatenate([g_ends_w[:, :1], wb.data.T @ g_u, g_ends_w[:, 1:]]))
        if b.requires_grad:
            g_b += g_logits * u.T
            _accum(b, g_b)
        if wb.requires_grad:
            if g_cw is None:
                g_wb = g_u * a_mid.T
            else:  # the logits' term and c W_b's as one product
                g_wb = np.concatenate([c, g_u.T]).T @ np.concatenate([g_cw, a_mid.T])
            if g_wb_edges is not None:
                g_wb += g_wb_edges
            _accum(wb, g_wb)
        if need_hw:
            g_hw += g_ends @ ends.T
            if h.requires_grad:
                _accum(h, g_hw @ wh.data.T)
            if wh.requires_grad:
                _accum(wh, h.data.T @ g_hw)

    return h_out, b_out, alpha, back


# ---------------------------------------------------------------------------
# backward


def backward(tape, loss, params=None):
    """Accumulate gradients for one recorded forward pass.

    Visits ops in reverse execution order exactly once (a node runs once,
    with one gradient per output), and consumes the tape:
    each op's record, and the gradient of its output, is dropped as soon as
    the op has passed that gradient on, so intermediate arrays are freed
    during the pass. Returns a dict of gradient arrays when `params`
    (name -> Tensor) is given; parameters the loss never touched get zeros.

    Gradients are passed on without copies, so the returned arrays (and each
    tensor's .grad) may share memory with each other, e.g. both inputs of an
    `add` get the same array, or be read-only views. Treat them as read-only.
    """
    if not isinstance(tape, Tape):
        raise EngineError("backward: first argument must be a Tape")
    if loss.data.size != 1:
        raise EngineError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if params is not None:
        for p in params.values():
            p.grad = None
    for outs, inputs, _ in tape._nodes:
        for t in (*outs, *inputs):
            t.grad = None
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        outs, _, backfn = nodes.pop()
        grads = [t.grad for t in outs]
        if any(g is not None for g in grads):
            backfn(*grads)
        for t in outs:
            t.grad = None
    if params is not None:
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
    return None


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction. Zero gradient from a fresh state is a fixed point."""

    BLOCK = 65536  # elements per block of a parameter's flat view in step()

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise EngineError(f"Adam: parameter {name!r} must be C-contiguous")
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._blocks = {}

    def _scratch(self, dtype, slot):
        """Scratch block `slot` (0 or 1) of BLOCK elements of `dtype`, made once."""
        key = (np.dtype(dtype), slot)
        if key not in self._blocks:
            self._blocks[key] = np.empty(self.BLOCK, dtype)
        return self._blocks[key]

    def step(self, grads):
        """One update of every parameter from `grads` (name -> array; a missing
        name counts as a zero gradient). The gradient arrays are only read.

        Parameters, m and v are updated in place, BLOCK elements of their flat
        views at a time, through two scratch blocks. Each element sees the
        whole-array expression's operations in the same order,
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
        p -= lr*((m/b1t) / (sqrt(v/b2t) + eps)), so blocking changes no bits.
        """
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads.get(name)
            g = np.zeros_like(p.data) if g is None else np.asarray(g)
            if g.shape != p.data.shape:
                raise ShapeError(f"Adam: gradient {name!r} has shape {g.shape}, "
                                 f"parameter {p.data.shape}")
            pf, gf = p.data.reshape(-1), g.reshape(-1)
            mf, vf = self.m[name].reshape(-1), self.v[name].reshape(-1)
            # scratch 0 holds the gradient terms (in the dtype the expression
            # gives them), then m/b1t; scratch 1 holds the denominator
            tg = self._scratch(np.result_type(g.dtype, 1.0), 0)
            tm, td = self._scratch(pf.dtype, 0), self._scratch(pf.dtype, 1)
            for lo in range(0, pf.size, self.BLOCK):
                blk = slice(lo, lo + self.BLOCK)
                gb, mb, vb, pb = gf[blk], mf[blk], vf[blk], pf[blk]
                t, u, d = tg[:gb.size], tm[:gb.size], td[:gb.size]
                mb *= b1
                mb += np.multiply(1.0 - b1, gb, out=t)
                vb *= b2
                vb += np.multiply(np.multiply(1.0 - b2, gb, out=t), gb, out=t)
                np.divide(vb, b2t, out=d)
                np.sqrt(d, out=d)
                d += eps
                np.divide(mb, b1t, out=u)
                u /= d
                u *= lr
                pb -= u


class PlateauScheduler:
    """Cut the learning rate by `factor` after `patience` epochs without improvement."""

    def __init__(self, lr, factor=0.1, patience=20):
        self.lr = float(lr)
        self.factor = float(factor)
        self.patience = int(patience)
        self.best = np.inf
        self.stale = 0

    def update(self, loss):
        loss = float(loss)
        if loss < self.best:
            self.best = loss
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr *= self.factor
                self.stale = 0
        return self.lr


# ---------------------------------------------------------------------------
# checkpoint container


class Config:
    """Base of the config dataclasses. A field's type is its default's: a bool
    field takes only a bool, an int field an int but not a bool (NumPy ints are
    stored as int), a float field a finite int or float. A refused value raises
    the subclass's ``error``, its message starting with the field name;
    from_dict refuses a key that names no field the same way. Subclasses run
    this __post_init__ before their range checks."""

    @classmethod
    def field_types(cls, exclude=()):
        return {f.name: type(f.default) for f in fields(cls) if f.name not in exclude}

    def __post_init__(self):
        for name, want in self.field_types().items():
            value = getattr(self, name)
            if isinstance(value, bool) != (want is bool) or (
                    want is float and not isinstance(value, (int, float))):
                raise self.error(f"{name} is {value!r}, not {want.__name__}")
            if want is int:
                try:
                    setattr(self, name, operator.index(value))
                except TypeError:
                    raise self.error(f"{name} is {value!r}, not int") from None
            elif want is float and not math.isfinite(value):
                raise self.error(f"{name} is {value!r}, not finite")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        unknown = sorted(set(d) - cls.field_types().keys())
        if unknown:
            raise cls.error(f"{unknown[0]} is not a {cls.__name__} field")
        return cls(**d)


def save_checkpoint(path, params, vocabulary=None, model_config=None,
                    train_config=None, graph_config=None):
    """Write configs and tensors to a checkpoint (framing: container.py); round-trips bit-exactly.

    Tensors are streamed little-endian, C order, back to back in header entry order."""
    arrays = {}
    for name, p in params.items():
        a = p.data if isinstance(p, Tensor) else np.asarray(p)
        arrays[name] = np.asarray(a, a.dtype.newbyteorder("<"), order="C")
    container.write(path, CHECKPOINT_MAGIC, {
        "vocabulary": vocabulary,
        "model_config": model_config,
        "train_config": train_config,
        "graph_config": graph_config,
        "tensors": [{"name": name, "shape": list(a.shape), "dtype": str(a.dtype)}
                    for name, a in arrays.items()],
    }, arrays.values())


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns the header dict plus 'params' (name -> ndarray).

    The arrays are views into one payload buffer. A truncated, corrupt or
    version-1 file raises EngineError naming the file.
    """
    header, payload = container.read(path, CHECKPOINT_MAGIC, EngineError, "checkpoint")
    if not isinstance(header.get("tensors"), list):
        raise EngineError(f"{path}: checkpoint header has no tensor list")
    entries = [_tensor_entry(path, ent) for ent in header["tensors"]]
    total = sum(math.prod(shape) * dt.itemsize for _, dt, shape in entries)
    if total != len(payload):
        raise EngineError(f"{path}: tensors cover {total} of {len(payload)} payload bytes")
    params = {}
    offset = 0
    for name, dt, shape in entries:
        arr = np.frombuffer(payload, dt.newbyteorder("<"), math.prod(shape), offset)
        params[name] = arr.reshape(shape).astype(dt, copy=False)
        offset += arr.nbytes
    header["params"] = params
    return header


def _tensor_entry(path, ent):
    """(name, dtype, shape) of one header tensor entry, validated."""
    bad = f"{path}: bad tensor entry {ent!r}"
    try:
        name, dt, shape = ent["name"], np.dtype(str(ent["dtype"])), tuple(ent["shape"])
    except (KeyError, TypeError, ValueError):
        raise EngineError(bad) from None
    if (not isinstance(name, str) or dt.kind not in "biuf"
            or not all(isinstance(d, int) and d >= 0 for d in shape)):
        raise EngineError(bad)
    return name, dt, shape
