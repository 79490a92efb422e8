"""Minimal deterministic neural primitives with exact manual backprop.

Dense stacks, an autoencoder, a single-cell LSTM classifier, the two losses
used by the lab (summed squared reconstruction error and binary
cross-entropy), plain SGD, and a central-difference gradient checker.
Everything runs in float64 and is deterministic for a fixed seed, which is
what makes the finite-difference verification and the checkpoint round-trip
guarantees meaningful.

Dense stacks (the autoencoder, the Q-network, bare stacks) have one
forward loop and one backward loop, both writing in place.  Inference
(stack_forward) runs the forward into arrays of its own; training and
the gradient oracle run forward and backward in a DenseWork, which holds
each layer's output and, from the first backward on, the
back-propagation buffers and dw/db.  The DQN update builds one
DenseWork and reuses it for every step, and the warm-up autoencoder one
per minibatch size.  A DenseWork's [rows, width] arrays are
column-major, because its layers are only 8 to 32 wide and its batches
hundreds of rows long: the bias adds, activations, masks and db sums
then run down contiguous columns.  That changes the order of dense
training's sums, not what they add, so its results differ from a
row-major run's only in low-order bits.

The LSTM classifier has one forward, which runs a window, or a
minibatch of windows side by side, from the zero state into the
[T, ...] arrays of an LstmWork; classify, hidden (a copy of h_T), the
loss and the backward pass all read it.  Each classifier builds the one
LstmWork its [window_len, input_dim] windows need and runs every pass on
one window in it, so neither a call nor an SGD step allocates much
beyond the gradients it returns.  Pre-training builds a work with a rows
axis for its minibatches, and classifier_gradient sums the windows'
weighted gradients in one backward pass through it; for one window it
gives the per-window gradient to the bit.
"""

from __future__ import annotations

import copy
import mmap
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu", "sigmoid", "tanh")

BCE_CLAMP = 1e-7  # probability clamp guarding log(0)


class CheckpointError(Exception):
    """Raised for version, corruption, or shape problems in checkpoint files."""


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _activate(name, y):
    """Applies the activation to the array y in place; returns y."""
    if name == "relu":
        np.maximum(y, 0.0, out=y)
    elif name == "sigmoid":
        # 1 / (1 + exp(-y))
        np.negative(y, out=y)
        np.exp(y, out=y)
        y += 1.0
        np.divide(1.0, y, out=y)
    elif name == "tanh":
        np.tanh(y, out=y)
    return y


# ---------------------------------------------------------------------------
# dense layers
# ---------------------------------------------------------------------------

@dataclass
class DenseParams:
    """One fully connected layer: activation(w @ x + b), w is [out, in]."""

    w: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.w.ndim != 2 or self.b.ndim != 1:
            raise ValueError("w must be 2-D and b 1-D")
        if self.w.shape[0] != self.b.shape[0]:
            raise ValueError("w rows must match b length")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("non-finite layer parameters")

    @property
    def n_in(self):
        return self.w.shape[1]

    @property
    def n_out(self):
        return self.w.shape[0]


def dense_init(n_in, n_out, activation, rng):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init from a seeded generator."""
    bound = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-bound, bound, size=(n_out, n_in))
    b = rng.uniform(-bound, bound, size=n_out)
    return DenseParams(w, b, activation)


def _forward(layers, x, ys):
    """Runs a [rows, n_in] batch through the stack, layer k writing its
    output into ys[k]; returns the last output."""
    for layer, y in zip(layers, ys):
        np.matmul(x, layer.w.T, out=y)
        y += layer.b
        x = _activate(layer.activation, y)
    return x


def stack_forward(layers, x):
    """Output of a dense stack for a batch [rows, n_in] or a single vector,
    in arrays of its own."""
    x = np.asarray(x, dtype=float)
    batch = x[None, :] if x.ndim == 1 else x
    if batch.shape[1] != layers[0].n_in:
        raise ValueError(
            f"stack input width {batch.shape[1]} != layer input {layers[0].n_in}")
    out = _forward(layers, batch, [np.empty((len(batch), layer.n_out))
                                   for layer in layers])
    return out[0] if x.ndim == 1 else out


def mapped_zeros(shape, dtype=float):
    """A zeroed array in its own anonymous memory map.  Its pages cost RSS
    only once written, and freeing it skips malloc: a freed multi-MB malloc
    block raises glibc's mmap threshold, and with it later peak RSS."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


class DenseWork:
    """The arrays a dense stack needs to train on [rows, n_in] batches,
    allocated once so that a training loop's steps reuse them.

    y[k] holds layer k's output, and the forward keeps nothing else: a
    ReLU's gradient mask is y > 0, which is where its pre-activation is
    > 0.  The backward's arrays are allocated on the first backward pass
    through the work: two buffers as wide as the widest layer, between
    which back-propagation alternates, the ReLU mask, and dw/db.

    Every [rows, width] array, y[k], the buffers and the mask, is
    column-major (Fortran order).  A layer is a few columns of many rows,
    so the elementwise passes and the db column sums walk contiguous
    memory, and BLAS takes each product transposed.  The results differ
    from row-major buffers' only in low-order bits: db is numpy's
    pairwise column sum, and dw comes from another BLAS kernel."""

    def __init__(self, layers, rows):
        self.shape = (rows, layers[0].n_in)
        self.widths = [layer.n_out for layer in layers]
        self.y = [np.empty((rows, n), order="F") for n in self.widths]
        self.dw = self.db = None

    def back(self, k, width):
        """Back-propagation buffer k % 2 as [rows, width].  The backward
        reads d loss / d output from buffer 0; until it runs, buffer 1 is
        free scratch."""
        rows, n_in = self.shape
        if self.dw is None:
            dims = [n_in, *self.widths]
            self._back = np.empty((2, rows * max(dims)))
            self._mask = np.empty(rows * max(dims), dtype=bool)
            self.dw = [np.empty((n_out, n)) for n, n_out in zip(dims, self.widths)]
            self.db = [np.empty(n_out) for n_out in self.widths]
        return self._back[k % 2, :rows * width].reshape(width, rows).T

    def forward(self, layers, x):
        """Runs the [rows, n_in] batch x through the stack into y;
        returns the output, y[-1]."""
        widths = [layer.n_out for layer in layers]
        if x.shape != self.shape or widths != self.widths:
            raise ValueError(f"workspace for a {self.shape} batch and widths "
                             f"{self.widths}, given a {x.shape} batch and {widths}")
        return _forward(layers, x, self.y)

    def backward(self, layers, x):
        """Back-propagates d loss / d output, written into back(0, n_out),
        through the forward the work last ran on x into dw and db."""
        dy = self.back(0, self.widths[-1])
        for k in range(len(layers) - 1, -1, -1):
            layer, y = layers[k], self.y[k]
            # an identity layer's da is dy itself
            if layer.activation == "relu":
                mask = self._mask[:y.size].reshape(y.shape[::-1]).T
                np.greater(y, 0.0, out=mask)
                np.multiply(dy, mask, out=dy)
            elif layer.activation == "sigmoid":
                dy *= y * (1.0 - y)
            elif layer.activation == "tanh":
                dy *= 1.0 - y * y
            np.matmul(dy.T, self.y[k - 1] if k else x, out=self.dw[k])
            dy.sum(axis=0, out=self.db[k])
            if k:
                dy = np.matmul(dy, layer.w, out=self.back(len(layers) - k, layer.n_in))

    def reconstruction_gradient(self, layers, x):
        """The gradient of sum_i |x_hat_i - x_i|^2 / n over the n rows of
        the batch x, with x_hat the stack's output, into dw and db; returns
        the sum of the rows' squared errors, not yet divided by n."""
        n = len(x)
        x_hat = self.forward(layers, x)
        dy = self.back(0, x.shape[1])
        np.subtract(x_hat, x, out=dy)
        sq = self.back(1, x.shape[1])
        np.multiply(dy, dy, out=sq)
        total = float(sq.sum(axis=1).sum())
        dy *= 2.0
        dy /= n
        self.backward(layers, x)
        return total

    def sgd(self, layers, lr):
        """Plain SGD on the last backward's gradients: p <- p - lr * grad."""
        for layer, dw, db in zip(layers, self.dw, self.db):
            dw *= lr
            layer.w -= dw
            db *= lr
            layer.b -= db


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mse_loss(x, x_hat):
    """Summed squared reconstruction error  sum_i (x_i - x_hat_i)^2.

    This is the anomaly score used on traffic features: zero iff the
    reconstruction is exact.
    """
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError("mse_loss inputs must share a shape")
    d = x - x_hat
    return float(d @ d) if d.ndim == 1 else float((d * d).sum())


def bce_loss(y_hat, y):
    """Binary cross-entropy with the probability clamped to [1e-7, 1-1e-7]."""
    if not 0.0 <= y_hat <= 1.0:
        raise ValueError(f"probability {y_hat} outside [0, 1]")
    if y not in (0, 1):
        raise ValueError("target must be 0 or 1")
    p = min(max(y_hat, BCE_CLAMP), 1.0 - BCE_CLAMP)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


# ---------------------------------------------------------------------------
# autoencoder
# ---------------------------------------------------------------------------

@dataclass
class AutoencoderModel:
    """Encoder/decoder dense stacks; decoder output dim equals input dim."""

    encoder: list
    decoder: list
    input_dim: int = 8
    latent_dim: int = 8

    def __post_init__(self):
        if self.encoder[0].n_in != self.input_dim:
            raise ValueError("encoder input dim mismatch")
        if self.encoder[-1].n_out != self.latent_dim:
            raise ValueError("encoder output dim != latent_dim")
        if self.decoder[-1].n_out != self.input_dim:
            raise ValueError("decoder must reconstruct the input dimension")

    @property
    def layers(self):
        """The encoder then the decoder, as one dense stack."""
        return self.encoder + self.decoder

    def encode(self, x):
        return stack_forward(self.encoder, x)

    def reconstruct(self, x):
        """Returns (latent, reconstruction) for a vector or a batch."""
        h = stack_forward(self.encoder, x)
        return h, stack_forward(self.decoder, h)

    def anomaly_score(self, x):
        _, x_hat = self.reconstruct(x)
        return mse_loss(x, x_hat)


def autoencoder_init(rng, input_dim=8, hidden_dim=16, latent_dim=8):
    """Default lab architecture: in -> hidden(relu) -> latent -> hidden(relu) -> in."""
    encoder = [
        dense_init(input_dim, hidden_dim, "relu", rng),
        dense_init(hidden_dim, latent_dim, "identity", rng),
    ]
    decoder = [
        dense_init(latent_dim, hidden_dim, "relu", rng),
        dense_init(hidden_dim, input_dim, "identity", rng),
    ]
    return AutoencoderModel(encoder, decoder, input_dim, latent_dim)


def autoencoder_train_step(model, batch, lr, work):
    """One batch-mean SGD step on the reconstruction error; returns the loss.

    `work`, a DenseWork, is built over model.layers for this batch's rows,
    once, and passed to every step of a training loop."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    layers = model.layers
    loss = work.reconstruction_gradient(layers, batch) / batch.shape[0]
    work.sgd(layers, lr)
    return loss


# ---------------------------------------------------------------------------
# LSTM cell and classifier
# ---------------------------------------------------------------------------

LSTM_GATES = ("i", "f", "o", "g")


@dataclass
class LstmParams:
    """One LSTM cell, gates stacked in LSTM_GATES order (the cuDNN layout):
    w is [4*hidden, input+hidden], b is [4*hidden], and row block k belongs
    to gate k.  Checkpoints write each row block as a w_<gate>/b_<gate> line."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2 or self.w.shape[0] % 4:
            raise ValueError("w must be 2-D with a multiple of 4 rows")
        if self.b.shape != (self.w.shape[0],):
            raise ValueError("b needs one entry per row of w")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("non-finite LSTM parameters")

    @property
    def hidden_dim(self):
        return self.w.shape[0] // 4

    @property
    def input_dim(self):
        return self.w.shape[1] - self.hidden_dim


def lstm_init(input_dim, hidden_dim, rng):
    bound = 1.0 / np.sqrt(input_dim + hidden_dim)
    w = rng.uniform(-bound, bound, size=(4 * hidden_dim, input_dim + hidden_dim))
    b = rng.uniform(-bound, bound, size=4 * hidden_dim)
    return LstmParams(w, b)


class LstmWork:
    """The arrays a cell needs to run [steps, input_dim] windows from the
    zero state, allocated once, with the views of every time step built
    once, so that every forward and backward pass reuses them.

    A work runs one [steps, input_dim] window, the classifier's own case,
    or, given rows, a minibatch of [rows, steps, input_dim] windows side
    by side.  Every array has the rows axis, if any, after its time axis,
    so that one product per time step, [rows, input+hidden] @ w.T taken
    as its four gate blocks, runs every window.  The forward fills z[t] =
    [x_t, h_{t-1}], a[t] = the gate activations (i, f, o, g) as
    [4, hidden], c[t] = c_{t-1} with c[T] = c_T, tanh[t] = tanh(c_t) and
    h = h_T.  No forward writes the zero initial state, z[0, ...,
    input_dim:] and c[0], so it is written once, here.  The backward's
    arrays are allocated on the first backward pass through the work, so
    a classifier that only classifies does not pay for them."""

    def __init__(self, cell, steps, rows=None):
        n_in, n_h = cell.input_dim, cell.hidden_dim
        lead = () if rows is None else (rows,)
        self.rows = 1 if rows is None else rows
        self.shape = (*lead, steps, n_in)
        self.hidden_dim = n_h
        self.z = np.empty((steps, *lead, n_in + n_h))
        self.z[0, ..., n_in:] = 0.0
        self.a = np.empty((steps, *lead, 4, n_h))
        self.c = np.empty((steps + 1, *lead, n_h))
        self.c[0] = 0.0
        self.tanh = np.empty((steps, *lead, n_h))
        self.h = np.empty((*lead, n_h))
        self._ig = np.empty((*lead, n_h))
        # z's input columns as the windows' [..., steps, input_dim]
        self._x = np.moveaxis(self.z[..., :n_in], 0, -2)
        a = self.a
        h_out = [self.z[t, ..., n_in:] for t in range(1, steps)] + [self.h]
        # a[t] with its gate axis first is the product's [4, ..., H] output
        self.forward_steps = [
            (self.z[t], a[t], np.moveaxis(a[t], -2, 0), a[t, ..., :3, :],
             a[t, ..., 0, :], a[t, ..., 1, :], a[t, ..., 2, :], a[t, ..., 3, :],
             self.c[t], self.c[t + 1], self.tanh[t], h_out[t])
            for t in range(steps)]
        self.back_steps = None

    def build_backward(self):
        """Allocates the backward pass's arrays and per-time-step views,
        the steps in the order the pass runs them, t = T-1 down to 0."""
        steps, lead, n_in = self.z.shape[0], self.h.shape[:-1], self.shape[-1]
        n_h = self.hidden_dim
        # first[t] = (g, c_{t-1}, 0, i); the backward writes row 2 of da_t
        # as dh * tanh(c_t) instead, so first's row 2 stays 0
        self.first = np.zeros((steps, *lead, 4, n_h))
        self.second = np.empty((steps, *lead, 4, n_h))
        self.one_minus_ifo = np.empty((steps, *lead, 3, n_h))
        self.d_tanh_c = np.empty((steps, *lead, n_h))
        self.da = np.empty((steps, *lead, 4 * n_h))
        self.outer = np.empty((steps, 4 * n_h, n_in + n_h))
        self.dz = np.empty((*lead, n_in + n_h))
        self.dh = self.dz[..., n_in:]
        self.dh_head = np.empty((*lead, n_h))
        self.dc = np.empty((*lead, n_h))
        self._dc_gates = self.dc[..., None, :]   # dc against [..., 4, H]
        self._dc_step = np.empty((*lead, n_h))
        # the weight gradient's per-time-step [4H, rows] and [rows, I+H]
        # operands, and the bias gradient's rows from t = T-1 down to 0
        by_step = self.da.reshape(steps, self.rows, 4 * n_h)
        self._da_t = by_step.transpose(0, 2, 1)
        self._z_rows = self.z.reshape(steps, self.rows, n_in + n_h)
        self._da_reversed = self.da.reshape(-1, 4 * n_h)[::-1]
        da = self.da.reshape(steps, *lead, 4, n_h)
        self.back_steps = [
            (da[t], da[t, ..., 2, :], da[t, ..., :3, :], self.da[t], self.first[t],
             self.second[t], self.one_minus_ifo[t], self.a[t, ..., 1, :],
             self.a[t, ..., 2, :], self.tanh[t], self.d_tanh_c[t])
            for t in range(steps - 1, -1, -1)]

    def forward(self, cell, windows):
        """Runs the cell over the work's window or minibatch of windows
        from the zero state; returns h_T, which is the work's own array h."""
        windows = np.asarray(windows, dtype=float)
        if windows.shape != self.shape:
            raise ValueError(f"classifier for {self.shape} windows, "
                             f"given a {windows.shape} window")
        self._x[...] = windows
        n_h = self.hidden_dim
        # one product per [H, I+H] gate block: BLAS then sums each gate row
        # in the same order as a separate per-gate product would
        w4_t = cell.w.reshape(4, n_h, -1).transpose(0, 2, 1)
        b4 = cell.b.reshape(4, -1)
        ig = self._ig
        for z, a, a_gates, ifo, i, f, o, g, c_prev, c, tanh_c, h in self.forward_steps:
            np.matmul(z, w4_t, out=a_gates)
            a += b4
            _activate("sigmoid", ifo)
            np.tanh(g, out=g)
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=ig)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        return self.h


@dataclass
class LstmClassifier:
    """LSTM over a feature window followed by a sigmoid read-out head.

    The classifier owns the one LstmWork that classify, hidden and
    backward run a window in: a classifier only ever runs windows of its
    own [window_len, input_dim] shape, and any other shape is a
    ValueError naming both.  A minibatch of windows runs in a work of its
    caller's, LstmWork(cell, window_len, rows), through
    classifier_gradient."""

    cell: LstmParams
    head_w: np.ndarray
    head_b: np.ndarray  # 0-d array so the gradient checker can perturb it
    window_len: int = 8
    work: LstmWork = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        self.head_b = np.asarray(self.head_b, dtype=float)
        if not (np.isfinite(self.head_w).all() and np.isfinite(self.head_b).all()):
            raise ValueError("non-finite classifier head")
        self.work = LstmWork(self.cell, self.window_len)

    def __deepcopy__(self, memo):
        # a copied work's per-step views would not alias its copied
        # arrays, so the copy builds a work of its own
        return LstmClassifier(copy.deepcopy(self.cell, memo), self.head_w.copy(),
                              self.head_b.copy(), self.window_len)

    def _forward(self, windows, work):
        """(y_hat, h_T) for the work's window (y_hat a scalar) or windows
        (one y_hat per window); h_T is the work's array.  In a saturated
        classifier exp overflows to inf, which gives each sigmoid its
        limit, exactly 0, so the overflow is not warned about."""
        with np.errstate(over="ignore"):
            h = work.forward(self.cell, windows)
            logit = h @ self.head_w + self.head_b
            return 1.0 / (1.0 + np.exp(-logit)), h

    def classify(self, window):
        """Attack probability in (0, 1) for a [window_len, input_dim] window."""
        return float(self._forward(window, self.work)[0])

    def hidden(self, window):
        """A copy of the final hidden state h_T for the window (used as DRL
        state input)."""
        with np.errstate(over="ignore"):  # as in _forward
            return self.work.forward(self.cell, window).copy()


def lstm_classifier_init(input_dim, hidden_dim, window_len, rng):
    cell = lstm_init(input_dim, hidden_dim, rng)
    bound = 1.0 / np.sqrt(hidden_dim)
    head_w = rng.uniform(-bound, bound, size=hidden_dim)
    head_b = np.asarray(rng.uniform(-bound, bound))
    return LstmClassifier(cell, head_w, head_b, window_len)


# ---------------------------------------------------------------------------
# unified parameter access, backward, SGD, gradient check
# ---------------------------------------------------------------------------

def iter_params(model):
    """Yields (name, array) for every trainable parameter of a model.

    Arrays are the live views, so in-place edits (SGD, finite-difference
    probes) hit the model directly.  Supports AutoencoderModel,
    LstmClassifier, and bare dense stacks (lists of DenseParams).
    """
    if isinstance(model, AutoencoderModel):
        for part, layers in (("encoder", model.encoder), ("decoder", model.decoder)):
            for idx, layer in enumerate(layers):
                yield f"{part}.{idx}.w", layer.w
                yield f"{part}.{idx}.b", layer.b
    elif isinstance(model, LstmClassifier):
        yield "cell.w", model.cell.w
        yield "cell.b", model.cell.b
        yield "head_w", model.head_w
        yield "head_b", model.head_b
    elif isinstance(model, (list, tuple)):
        for idx, layer in enumerate(model):
            yield f"{idx}.w", layer.w
            yield f"{idx}.b", layer.b
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")


def _loss_of(model, x, target):
    if isinstance(model, AutoencoderModel):
        ref = np.asarray(x if target is None else target, dtype=float)
        _, x_hat = model.reconstruct(x)
        return mse_loss(ref, x_hat)
    if isinstance(model, LstmClassifier):
        if target is None:
            raise ValueError("classifier loss needs a 0/1 target")
        return bce_loss(model.classify(x), target)
    if isinstance(model, (list, tuple)):
        if target is None:
            raise ValueError("dense stack loss needs a target vector")
        return mse_loss(np.asarray(target, dtype=float), stack_forward(model, x))
    raise TypeError(f"unsupported model type {type(model).__name__}")


def backward(model, x, target=None):
    """Exact analytic gradients of the model's loss on one input.

    Autoencoder: summed squared reconstruction error against `target`
    (defaults to the input itself).  LstmClassifier: binary cross-entropy
    against a 0/1 target, run in the classifier's own LstmWork.  Dense
    stack: summed squared error against a target vector.  The two dense
    models run in a DenseWork of their own.  Returns
    (loss, {param_name: gradient}); no gradient shares memory with a work.
    """
    if isinstance(model, LstmClassifier):
        return _classifier_backward(model, x, target)
    if isinstance(model, AutoencoderModel):
        layers, target = model.layers, x if target is None else target
    elif isinstance(model, (list, tuple)):
        layers = model
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    x, target = np.asarray(x, dtype=float), np.asarray(target, dtype=float)
    batch = np.atleast_2d(x)
    work = DenseWork(layers, len(batch))
    out = work.forward(layers, batch)
    loss = mse_loss(target, out[0] if x.ndim == 1 else out)
    dy = work.back(0, out.shape[1])
    np.subtract(out, target, out=dy)
    dy *= 2.0
    work.backward(layers, batch)
    grads = [g for dw_db in zip(work.dw, work.db) for g in dw_db]
    return loss, {name: g for (name, _), g in zip(iter_params(model), grads)}


def _classifier_backward(model, window, y):
    y_hat, grads = classifier_gradient(model, window, y, 1.0)
    return bce_loss(float(y_hat), y), grads


def classifier_gradient(model, windows, targets, weights, work=None):
    """The gradients of sum_i weights_i * BCE(classify(window_i), target_i).

    Without a work, windows is one [window_len, input_dim] window and
    targets and weights are scalars, run in the classifier's own work.  A
    work built as LstmWork(model.cell, model.window_len, rows) takes
    [rows, window_len, input_dim] windows and [rows] targets and weights.
    Each window's weight scales its d loss / d logit, so the backward
    sums the weighted per-window gradients in one pass.  Returns (y_hat,
    {param_name: gradient}); no gradient shares memory with the work."""
    work = model.work if work is None else work
    targets = np.asarray(targets)
    if not ((targets == 0) | (targets == 1)).all():
        raise ValueError("classifier target must be 0 or 1")
    y_hat, h = model._forward(windows, work)

    cell = model.cell
    # d(loss)/d(logit) for sigmoid + BCE; the clamp is inactive in (eps, 1-eps)
    d_logit = weights * (y_hat - targets)
    grads = {"head_w": np.dot(d_logit, h), "head_b": np.asarray(d_logit.sum())}

    # gate row k of da_t is d[k] * first[t, k] * second[t, k], with
    # d = (dc, dc, dh, dc), times 1 - ifo for the sigmoid gates; every
    # product keeps the left-to-right order of the per-step equations
    if work.back_steps is None:
        work.build_backward()
    a, first, second = work.a, work.first, work.second
    first[..., 0, :] = a[..., 3, :]
    first[..., 1, :] = work.c[:-1]
    first[..., 3, :] = a[..., 0, :]
    second[...] = a
    np.multiply(a[..., 3, :], a[..., 3, :], out=second[..., 3, :])
    np.subtract(1.0, second[..., 3, :], out=second[..., 3, :])
    np.subtract(1.0, a[..., :3, :], out=work.one_minus_ifo)
    np.multiply(work.tanh, work.tanh, out=work.d_tanh_c)
    np.subtract(1.0, work.d_tanh_c, out=work.d_tanh_c)

    dh = np.multiply(d_logit[..., None], model.head_w, out=work.dh_head)
    dc = work.dc
    dc.fill(0.0)
    dc_gates, dc_step, dz, w = work._dc_gates, work._dc_step, work.dz, cell.w
    for (da, da_o, da_ifo, da_flat, first_t, second_t, one_minus_ifo, f, o,
         tanh_c, d_tanh_c) in work.back_steps:
        np.multiply(dh, o, out=dc_step)
        dc_step *= d_tanh_c
        dc += dc_step
        np.multiply(dc_gates, first_t, out=da)
        np.multiply(dh, tanh_c, out=da_o)
        da *= second_t
        da_ifo *= one_minus_ifo
        np.matmul(da_flat, w, out=dz)
        dh = work.dh
        dc *= f
    # one [4H, rows] @ [rows, I+H] product per time step, then summed from
    # t = T-1 down to 0, in the order the per-step updates ran; for one
    # window each product is the exact outer product
    np.matmul(work._da_t, work._z_rows, out=work.outer)
    grads["cell.w"] = work.outer[::-1].sum(axis=0)
    grads["cell.b"] = work._da_reversed.sum(axis=0)
    return y_hat, grads


def apply_gradients(model, grads, lr):
    """Plain SGD: every parameter p <- p - lr * grad."""
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    for name, param in iter_params(model):
        g = grads[name]
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for {name}")
        param -= lr * np.asarray(g)
    return model


@dataclass
class GradCheckReport:
    max_rel_error: float
    param_count: int
    epsilon_used: float
    worst_param: str = ""


def grad_check(model, x, target=None, epsilon=1e-5):
    """Compare analytic gradients against central finite differences.

    Relative error per entry is |a - n| / max(|a|, |n|, 1e-3); the guard in
    the denominator keeps finite-difference noise on near-zero gradients
    from registering as error while still catching a corrupted entry.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    _, grads = backward(model, x, target)
    max_rel = 0.0
    worst = ""
    count = 0
    for name, param in iter_params(model):
        analytic = np.atleast_1d(np.asarray(grads[name], dtype=float)).ravel()
        flat = param.reshape(-1)
        for j in range(flat.shape[0]):
            orig = flat[j]
            flat[j] = orig + epsilon
            up = _loss_of(model, x, target)
            flat[j] = orig - epsilon
            down = _loss_of(model, x, target)
            flat[j] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(analytic[j]), abs(numeric), 1e-3)
            rel = abs(analytic[j] - numeric) / denom
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{j}]"
            count += 1
    return GradCheckReport(max_rel, count, epsilon, worst)


# ---------------------------------------------------------------------------
# checkpoint text format
# ---------------------------------------------------------------------------
#
# Versioned, self-describing, line-oriented text:
#
#   edgeids-checkpoint 1
#   model <name> <kind>          kind in {autoencoder, lstm_classifier, dense_stack}
#   meta <key> <value>           integer metadata (dims, window length)
#   section <name> <n_layers>    dense stacks only
#   dense <out> <in> <activation>
#   w <row-major floats>
#   b <floats>
#   lstm <hidden> <input>        then w_i..b_g (row blocks of w, b), head_w, head_b
#   end
#
# Floats are written with repr(), which round-trips exactly in Python, so
# the documented < 1e-12 round-trip error holds with margin.

CHECKPOINT_TAG = "edgeids-checkpoint"
CHECKPOINT_VERSION = 1


def _write_array(out, label, arr):
    flat = np.asarray(arr, dtype=float).reshape(-1)
    out.write(label + " " + " ".join(repr(float(v)) for v in flat) + "\n")


def _write_dense_stack(out, section, layers):
    out.write(f"section {section} {len(layers)}\n")
    for layer in layers:
        out.write(f"dense {layer.n_out} {layer.n_in} {layer.activation}\n")
        _write_array(out, "w", layer.w)
        _write_array(out, "b", layer.b)


def save_checkpoint(models, path):
    """Write a named set of models to the versioned text format."""
    with open(path, "w", encoding="ascii") as out:
        out.write(f"{CHECKPOINT_TAG} {CHECKPOINT_VERSION}\n")
        for name, model in models.items():
            if isinstance(model, AutoencoderModel):
                out.write(f"model {name} autoencoder\n")
                out.write(f"meta input_dim {model.input_dim}\n")
                out.write(f"meta latent_dim {model.latent_dim}\n")
                _write_dense_stack(out, "encoder", model.encoder)
                _write_dense_stack(out, "decoder", model.decoder)
            elif isinstance(model, LstmClassifier):
                out.write(f"model {name} lstm_classifier\n")
                out.write(f"meta window_len {model.window_len}\n")
                cell = model.cell
                out.write(f"lstm {cell.hidden_dim} {cell.input_dim}\n")
                for arr, prefix in ((cell.w, "w"), (cell.b, "b")):
                    for gate, block in zip(LSTM_GATES, np.split(arr, 4)):
                        _write_array(out, f"{prefix}_{gate}", block)
                _write_array(out, "head_w", model.head_w)
                _write_array(out, "head_b", model.head_b)
            elif isinstance(model, (list, tuple)):
                out.write(f"model {name} dense_stack\n")
                _write_dense_stack(out, "layers", list(model))
            else:
                raise TypeError(f"cannot checkpoint {type(model).__name__}")
        out.write("end\n")


class _LineReader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self):
        if self.pos >= len(self.lines):
            raise CheckpointError("truncated checkpoint file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None


def _read_array(reader, label, shape):
    line = reader.next()
    parts = line.split()
    if not parts or parts[0] != label:
        raise CheckpointError(f"expected {label!r} line, got {line[:40]!r}")
    try:
        values = np.array([float(v) for v in parts[1:]])
    except ValueError as exc:
        raise CheckpointError(f"{label} line: {exc}") from None
    n = int(np.prod(shape))
    if values.shape[0] != n:
        raise CheckpointError(
            f"{label} expects {n} values, found {values.shape[0]}"
        )
    return values.reshape(shape)


def _read_dense_stack(reader, section):
    header = reader.next().split()
    if len(header) != 3 or header[0] != "section" or header[1] != section:
        raise CheckpointError(f"expected section {section!r}")
    layers = []
    for _ in range(int(header[2])):
        spec = reader.next().split()
        if len(spec) != 4 or spec[0] != "dense":
            raise CheckpointError("malformed dense layer header")
        n_out, n_in, activation = int(spec[1]), int(spec[2]), spec[3]
        w = _read_array(reader, "w", (n_out, n_in))
        b = _read_array(reader, "b", (n_out,))
        layers.append(DenseParams(w, b, activation))
    return layers


def _read_model(reader, kind):
    meta = {}
    while reader.peek() is not None and reader.peek().startswith("meta "):
        _, key, value = reader.next().split()
        meta[key] = int(value)
    if kind == "autoencoder":
        encoder = _read_dense_stack(reader, "encoder")
        decoder = _read_dense_stack(reader, "decoder")
        return AutoencoderModel(encoder, decoder, meta["input_dim"], meta["latent_dim"])
    if kind == "lstm_classifier":
        spec = reader.next().split()
        if len(spec) != 3 or spec[0] != "lstm":
            raise CheckpointError("malformed lstm header")
        hidden, inp = int(spec[1]), int(spec[2])
        w = np.concatenate([_read_array(reader, f"w_{g}", (hidden, inp + hidden))
                            for g in LSTM_GATES])
        b = np.concatenate([_read_array(reader, f"b_{g}", (hidden,))
                            for g in LSTM_GATES])
        head_w = _read_array(reader, "head_w", (hidden,))
        head_b = _read_array(reader, "head_b", ())
        return LstmClassifier(LstmParams(w, b), head_w, head_b, meta["window_len"])
    if kind == "dense_stack":
        return _read_dense_stack(reader, "layers")
    raise CheckpointError(f"unknown model kind {kind!r}")


def load_checkpoint(path):
    """Read a checkpoint file; raises CheckpointError on any defect, naming
    the model it was reading."""
    # a non-ASCII byte reads as U+FFFD, which no number or keyword matches
    with open(path, "r", encoding="ascii", errors="replace") as f:
        text = f.read()
    if not (text.startswith(CHECKPOINT_TAG + " ") or CHECKPOINT_TAG.startswith(text)):
        raise CheckpointError("not a checkpoint file")
    # a file cut anywhere, mid-number included, lacks the end marker
    if text.rstrip().rpartition("\n")[2].strip() != "end":
        raise CheckpointError("truncated checkpoint file (missing end marker)")
    reader = _LineReader(text)
    head = reader.next().split()
    if len(head) != 2:
        raise CheckpointError("not a checkpoint file")
    if head[1] != str(CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {head[1]}")
    models = {}
    while (line := reader.peek()) is not None and line.strip() != "end":
        fields = reader.next().split()
        if len(fields) != 3 or fields[0] != "model":
            raise CheckpointError(f"malformed model header {line[:40]!r}")
        name, kind = fields[1], fields[2]
        try:
            models[name] = _read_model(reader, kind)
        except KeyError as exc:
            raise CheckpointError(f"model {name!r}: missing meta {exc.args[0]}") from exc
        except (CheckpointError, IndexError, ValueError) as exc:
            raise CheckpointError(f"model {name!r}: {exc}") from exc
    return models
