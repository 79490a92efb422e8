import contextlib
import copy
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeids import agent as ag
from edgeids import neural
from edgeids import pipeline as pl
from edgeids.neural import (
    AutoencoderModel,
    CheckpointError,
    DenseParams,
    LstmClassifier,
    LstmParams,
    apply_gradients,
    autoencoder_init,
    backward,
    bce_loss,
    grad_check,
    iter_params,
    load_checkpoint,
    lstm_classifier_init,
    mse_loss,
    save_checkpoint,
    stack_forward,
)


# ---------------------------------------------------------------------------
# the bit-for-bit references: per-layer caches and fresh temporaries
# ---------------------------------------------------------------------------

def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _reference_activate(name, a):
    if name == "identity":
        return a
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "sigmoid":
        return _sigmoid(a)
    return np.tanh(a)


def _reference_activate_grad(name, a, y):
    # derivative w.r.t. pre-activation a, given post-activation y
    if name == "identity":
        return np.ones_like(a)
    if name == "relu":
        return (a > 0.0).astype(float)
    if name == "sigmoid":
        return y * (1.0 - y)
    return 1.0 - y * y


def _as_layout(a, column_major):
    # DenseWork holds its batch-shaped arrays column-major; the row-major
    # reference's are numpy's default
    return np.asarray(a, order="F" if column_major else "C")


def _reference_stack_forward(layers, x, column_major=False):
    """(output, caches) for a batch [B, d_in] or a single vector; caches
    hold per-layer inputs, pre- and post-activations.

    column_major is the twin of DenseWork's order: each product runs
    transposed, (w @ x.T).T, as numpy hands BLAS a product into a
    Fortran-order array, and every [B, d] array is column-major."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    caches = []
    for layer in layers:
        if column_major:
            a = (layer.w @ x.T).T + layer.b
        else:
            a = x @ layer.w.T + layer.b
        y = _as_layout(_reference_activate(layer.activation, a), column_major)
        caches.append((x, a, y))
        x = y
    return (x[0] if squeeze else x), caches


def _reference_stack_backward(layers, caches, d_out, column_major=False):
    """(a (dw, db) per layer, d_input) for d_out [B, d_last]; column_major
    as in _reference_stack_forward."""
    d_out = np.asarray(d_out, dtype=float)
    if d_out.ndim == 1:
        d_out = d_out[None, :]
    grads = [None] * len(layers)
    dy = d_out
    for i in range(len(layers) - 1, -1, -1):
        x_in, a, y = caches[i]
        da = _as_layout(dy * _reference_activate_grad(layers[i].activation, a, y),
                        column_major)
        grads[i] = (da.T @ x_in, da.sum(axis=0))
        dy = (layers[i].w.T @ da.T).T if column_major else da @ layers[i].w
    return grads, dy


def _abs_stack(layers):
    """The stack whose reference forward and backward bound, entry by
    entry, the sum of the absolute terms that the given stack's forward
    and backward add up: |w|, |b| and no activation.  relu and tanh never
    grow a value, and no activation's derivative exceeds 1; a sigmoid's
    output is at most 1, which its bias adds."""
    return [DenseParams(np.abs(layer.w),
                        np.abs(layer.b) + (layer.activation == "sigmoid"), "identity")
            for layer in layers]


def _assert_close(actual, expected, bound, name):
    """actual matches expected within 1e-12 times bound, the sum of the
    absolute terms behind each entry.  An entry whose bound overflows has
    no tolerance to check, so it is not compared."""
    actual, expected, bound = (np.asarray(v, dtype=float)
                               for v in (actual, expected, bound))
    assert actual.shape == expected.shape == bound.shape, name
    ok = (np.abs(actual - expected) <= 1e-12 * bound) | ~np.isfinite(bound)
    assert ok.all(), name


def _bits(arr):
    # tobytes also tells 0.0 from -0.0, which array_equal does not
    return np.asarray(arr, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# dense forward
# ---------------------------------------------------------------------------

def test_dense_identity_case():
    layer = DenseParams(np.eye(2), np.zeros(2), "identity")
    assert np.array_equal(stack_forward([layer], [3.0, -1.0]), [3.0, -1.0])


def test_dense_zero_weights_returns_bias():
    layer = DenseParams(np.zeros((2, 3)), np.array([0.5, 0.5]), "identity")
    assert np.array_equal(stack_forward([layer], [7.0, -2.0, 9.0]), [0.5, 0.5])


def test_dense_hand_matrix_multiply():
    layer = DenseParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), "identity")
    assert np.array_equal(stack_forward([layer], [1.0, 1.0]), [3.0, 7.0])


def test_dense_dimension_mismatch():
    layer = DenseParams(np.eye(2), np.zeros(2), "relu")
    with pytest.raises(ValueError):
        stack_forward([layer], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def _zero_cell(input_dim=1, hidden_dim=1):
    return LstmParams(np.zeros((4 * hidden_dim, input_dim + hidden_dim)),
                      np.zeros(4 * hidden_dim))


def _classifier(cell, window_len):
    """A classifier over the cell with a zero head."""
    return LstmClassifier(cell, np.zeros(cell.hidden_dim), 0.0, window_len)


def test_lstm_params_reject_bad_shapes():
    with pytest.raises(ValueError):
        LstmParams(np.zeros((6, 5)), np.zeros(6))  # rows not a multiple of 4
    with pytest.raises(ValueError):
        LstmParams(np.zeros((8, 5)), np.zeros(7))  # one bias per row
    with pytest.raises(ValueError):
        LstmParams(np.zeros(8), np.zeros(8))  # w must be 2-D


def test_lstm_all_zero_is_zero():
    # the candidate is tanh(0) = 0 at every step, so from the zero state
    # the cell state and h stay 0 whatever the input
    model = _classifier(_zero_cell(), 3)
    for window in ([[0.0], [0.0], [0.0]], [[1.0], [-2.0], [5.0]]):
        assert np.array_equal(model.hidden(window), [0.0])
        assert model.classify(window) == 0.5


def test_lstm_zero_params_carry_cell_state():
    # every gate parameter is 0 but the candidate's input weight: i, f, o
    # sit at sigmoid(0) = 0.5, so c_1 = 0.5 * tanh(x_1), and with x_2 = 0
    # c_2 = 0.5 * c_1 and h = 0.5 * tanh(c_2)
    cell = _zero_cell()
    cell.w[3, 0] = 1.0
    model = _classifier(cell, 2)
    h = model.hidden([[2.0], [0.0]])
    c_2 = 0.5 * 0.5 * np.tanh(2.0)
    assert np.allclose(model.work.c[2], [c_2])
    assert np.allclose(h, [0.5 * np.tanh(c_2)])


def test_lstm_matches_scalar_reference():
    # independent scalar re-evaluation of the gate equations, unit by unit,
    # over three steps, so the f * c_{t-1} and h_{t-1} terms are non-zero
    rng = np.random.default_rng(7)
    model = _classifier(neural.lstm_init(3, 2, rng), 3)
    cell = model.cell
    window = rng.normal(size=(3, 3))
    h = model.hidden(window)
    c = model.work.c[-1]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    # gate rows are stacked i, f, o, g
    w_i, w_f, w_o, w_g = np.split(cell.w, 4)
    b_i, b_f, b_o, b_g = np.split(cell.b, 4)
    h_ref, c_ref = [0.0, 0.0], [0.0, 0.0]
    for x in window:
        z = list(x) + h_ref
        h_next, c_next = [], []
        for u in range(2):
            i = sig(sum(w_i[u][k] * z[k] for k in range(5)) + b_i[u])
            f = sig(sum(w_f[u][k] * z[k] for k in range(5)) + b_f[u])
            o = sig(sum(w_o[u][k] * z[k] for k in range(5)) + b_o[u])
            g = np.tanh(sum(w_g[u][k] * z[k] for k in range(5)) + b_g[u])
            c_next.append(f * c_ref[u] + i * g)
            h_next.append(o * np.tanh(c_next[u]))
        h_ref, c_ref = h_next, c_next
    assert all(c_ref) and all(h_ref)
    for u in range(2):
        assert c[u] == pytest.approx(c_ref[u], abs=1e-14)
        assert h[u] == pytest.approx(h_ref[u], abs=1e-14)


def _gate_blocks(cell):
    """The stacked cell as four separate weight and four bias arrays."""
    return ([w.copy() for w in np.split(cell.w, 4)],
            [b.copy() for b in np.split(cell.b, 4)])


def _per_gate_step(blocks, x, h_prev, c_prev):
    # the gate equations over four separate [H, I+H] blocks
    (w_i, w_f, w_o, w_g), (b_i, b_f, b_o, b_g) = blocks
    z = np.concatenate([x, h_prev])
    i = _sigmoid(w_i @ z + b_i)
    f = _sigmoid(w_f @ z + b_f)
    o = _sigmoid(w_o @ z + b_o)
    g = np.tanh(w_g @ z + b_g)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (z, i, f, o, g, c_prev, tanh_c)


def _per_gate_classifier(model, window, y):
    """(h_T, y_hat, gradients) of an LSTM classifier, with separate gate
    blocks and per-gate backpropagation."""
    cell = _gate_blocks(model.cell)
    hdim = model.cell.hidden_dim
    h, c, caches = np.zeros(hdim), np.zeros(hdim), []
    for x in window:
        h, c, cache = _per_gate_step(cell, x, h, c)
        caches.append(cache)
    logit = float(model.head_w @ h + model.head_b)
    y_hat = float(_sigmoid(np.asarray(logit)))

    gw = [np.zeros_like(w) for w in cell[0]]
    gb = [np.zeros_like(b) for b in cell[1]]
    dh = (y_hat - y) * model.head_w
    dc = np.zeros(hdim)
    for z, i, f, o, g, c_prev, tanh_c in reversed(caches):
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da = [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
              do * o * (1.0 - o), dc * i * (1.0 - g * g)]
        for k in range(4):
            gw[k] += np.outer(da[k], z)
            gb[k] += da[k]
        dz = sum(w.T @ d for w, d in zip(cell[0], da))
        dh = dz[model.cell.input_dim:]
        dc = dc * f
    grads = {"cell.w": np.concatenate(gw), "cell.b": np.concatenate(gb),
             "head_w": (y_hat - y) * h, "head_b": y_hat - y}
    return h, y_hat, grads


@pytest.mark.parametrize("input_dim, hidden_dim, window_len",
                         [(8, 8, 8), (4, 2, 3), (3, 5, 6)])
def test_stacked_cell_matches_per_gate_reference(input_dim, hidden_dim, window_len):
    rng = np.random.default_rng(input_dim * 100 + hidden_dim * 10 + window_len)
    model = lstm_classifier_init(input_dim, hidden_dim, window_len, rng)
    blocks = _gate_blocks(model.cell)
    window = rng.normal(size=(window_len, input_dim))
    ref_h, ref_c = np.zeros(hidden_dim), np.zeros(hidden_dim)
    for x in window:
        ref_h, ref_c, _ = _per_gate_step(blocks, x, ref_h, ref_c)
    h = model.hidden(window)
    assert np.array_equal(h, ref_h) and np.array_equal(model.work.c[-1], ref_c)

    for y in (0, 1):
        window = rng.normal(scale=2.0, size=(window_len, input_dim))
        ref_hidden, ref_y_hat, ref_grads = _per_gate_classifier(model, window, y)
        assert model.classify(window) == ref_y_hat
        assert np.array_equal(model.hidden(window), ref_hidden)
        _, grads = backward(model, window, y)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert np.max(np.abs(grads[name] - ref)) <= 1e-15, name


def test_lstm_hidden_state_bounded():
    rng = np.random.default_rng(3)
    model = _classifier(neural.lstm_init(4, 6, rng), 200)
    h = model.hidden(rng.normal(scale=5.0, size=(200, 4)))
    # h_1 .. h_199 stay in the work, as the inputs of steps 2 .. 200
    assert np.all(np.abs(model.work.z[1:, 4:]) < 1.0)
    assert np.all(np.abs(h) < 1.0)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_mse_zero_iff_equal():
    x = np.array([0.3, -1.2, 4.0])
    assert mse_loss(x, x.copy()) == 0.0
    assert mse_loss([1.0, 0.0], [0.0, 0.0]) == 1.0
    assert mse_loss(x, x + 1e-9) > 0.0


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=8)
        x_hat = rng.normal(size=8)
        ref = sum((a - b) ** 2 for a, b in zip(x, x_hat))
        assert mse_loss(x, x_hat) == pytest.approx(ref, rel=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss([1.0, 2.0], [1.0])


def test_bce_values():
    assert bce_loss(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-12)
    assert bce_loss(1.0, 1) == pytest.approx(0.0, abs=1e-6)  # clamped
    assert bce_loss(0.9, 0) == pytest.approx(-np.log(0.1), abs=1e-12)
    with pytest.raises(ValueError):
        bce_loss(1.5, 1)


# ---------------------------------------------------------------------------
# backward / apply_gradients
# ---------------------------------------------------------------------------

def test_backward_quadratic_toy():
    # loss (w*x - t)^2 at w=1, x=2, t=0  ->  d/dw = 2*(2)*2 = 8
    stack = [DenseParams(np.array([[1.0]]), np.zeros(1), "identity")]
    _, grads = backward(stack, [2.0], target=[0.0])
    assert grads["0.w"][0, 0] == pytest.approx(8.0)


def test_backward_zero_loss_zero_output_bias_grad():
    ident = [DenseParams(np.eye(2), np.zeros(2), "identity")]
    model = AutoencoderModel(ident,
                             [DenseParams(np.eye(2), np.zeros(2), "identity")],
                             input_dim=2, latent_dim=2)
    loss, grads = backward(model, [0.4, -0.7])
    assert loss == 0.0
    assert np.array_equal(grads["decoder.0.b"], np.zeros(2))


def test_apply_gradients_endpoints():
    stack = [DenseParams(np.array([[1.0]]), np.zeros(1), "identity")]
    apply_gradients(stack, {"0.w": np.array([[2.0]]), "0.b": np.zeros(1)}, lr=0.0)
    assert stack[0].w[0, 0] == 1.0
    apply_gradients(stack, {"0.w": np.array([[2.0]]), "0.b": np.zeros(1)}, lr=0.1)
    assert stack[0].w[0, 0] == pytest.approx(0.8)


def test_apply_gradients_rejects_non_finite():
    stack = [DenseParams(np.array([[1.0]]), np.zeros(1), "identity")]
    with pytest.raises(ValueError):
        apply_gradients(stack, {"0.w": np.array([[np.nan]]), "0.b": np.zeros(1)}, 0.1)


def test_sgd_converges_to_quadratic_minimizer():
    # loss (w*x - t)^2 has closed-form minimizer w* = t/x
    stack = [DenseParams(np.array([[5.0]]), np.zeros(1), "identity")]
    for _ in range(400):
        _, grads = backward(stack, [2.0], target=[3.0])
        grads["0.b"][:] = 0.0  # pin the bias so the minimizer is unique
        apply_gradients(stack, grads, lr=0.05)
    assert stack[0].w[0, 0] == pytest.approx(1.5, abs=1e-8)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def test_grad_check_linear_model_is_exact():
    rng = np.random.default_rng(0)
    stack = [neural.dense_init(3, 2, "identity", rng)]
    report = grad_check(stack, rng.normal(size=3), target=rng.normal(size=2))
    assert report.max_rel_error < 1e-8


def test_grad_check_autoencoder():
    rng = np.random.default_rng(1)
    model = autoencoder_init(rng, input_dim=4, hidden_dim=6, latent_dim=3)
    report = grad_check(model, rng.uniform(size=4))
    assert report.max_rel_error < 1e-4
    assert report.param_count == sum(p.size for _, p in iter_params(model))


def test_grad_check_lstm_classifier():
    rng = np.random.default_rng(2)
    model = lstm_classifier_init(3, 2, window_len=4, rng=rng)
    window = rng.normal(size=(4, 3))
    report = grad_check(model, window, target=1)
    assert report.max_rel_error < 1e-4


def test_grad_check_detects_corruption():
    rng = np.random.default_rng(3)
    model = autoencoder_init(rng, input_dim=4, hidden_dim=6, latent_dim=3)
    x = rng.uniform(size=4)
    _, grads = backward(model, x)
    grads["encoder.0.w"][0, 0] += 1.0

    # same comparison loop as grad_check, against the corrupted gradients
    max_rel = 0.0
    for name, param in iter_params(model):
        analytic = np.atleast_1d(grads[name]).ravel()
        flat = param.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + 1e-5
            up = model.anomaly_score(x)
            flat[j] = orig - 1e-5
            down = model.anomaly_score(x)
            flat[j] = orig
            numeric = (up - down) / 2e-5
            rel = abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-3)
            max_rel = max(max_rel, rel)
    assert max_rel > 0.1


def test_grad_check_epsilon_bounds():
    rng = np.random.default_rng(4)
    model = autoencoder_init(rng, input_dim=2, hidden_dim=3, latent_dim=2)
    with pytest.raises(ValueError):
        grad_check(model, [0.1, 0.2], epsilon=1e-2)


def test_gradient_correctness_over_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ae = autoencoder_init(rng, input_dim=3, hidden_dim=4, latent_dim=2)
        assert grad_check(ae, rng.uniform(size=3)).max_rel_error < 1e-4
        clf = lstm_classifier_init(2, 2, window_len=3, rng=rng)
        window = rng.normal(size=(3, 2))
        assert grad_check(clf, window, target=seed % 2).max_rel_error < 1e-4


# ---------------------------------------------------------------------------
# training steps against their per-layer and per-time-step references
# ---------------------------------------------------------------------------

def _reference_autoencoder_train_step(model, batch, lr, column_major=False):
    """The train step over the cached reference, with fresh temporaries in
    every call; column_major as in _reference_stack_forward."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    h, enc_caches = _reference_stack_forward(model.encoder, batch, column_major)
    x_hat, dec_caches = _reference_stack_forward(model.decoder, h, column_major)
    diff = _as_layout(x_hat - batch, column_major)
    loss = float((diff * diff).sum(axis=1).mean())
    d_xhat = 2.0 * diff / batch.shape[0]
    dec_grads, d_h = _reference_stack_backward(model.decoder, dec_caches, d_xhat,
                                               column_major)
    enc_grads, _ = _reference_stack_backward(model.encoder, enc_caches, d_h,
                                             column_major)
    for layer, (dw, db) in zip(model.decoder, dec_grads):
        layer.w -= lr * dw
        layer.b -= lr * db
    for layer, (dw, db) in zip(model.encoder, enc_grads):
        layer.w -= lr * dw
        layer.b -= lr * db
    return loss


def _squared_error_bounds(layers, x, target):
    """Term bounds for the summed squared error of a stack's output against
    target: (the loss's, [each parameter's gradient's] in iter_params order)."""
    stack = _abs_stack(layers)
    out, caches = _reference_stack_forward(stack, np.abs(x))
    diff = out + np.abs(target)
    grads, _ = _reference_stack_backward(stack, caches, 2.0 * diff)
    return float((diff * diff).sum()), [g for dw_db in grads for g in dw_db]


def _reference_dense_backward(model, x, target=None, column_major=False):
    """backward()'s loss and gradients for an autoencoder or a bare stack,
    over the cached reference; column_major as in _reference_stack_forward."""
    if isinstance(model, AutoencoderModel):
        ref = np.asarray(x if target is None else target, dtype=float)
        h, enc_caches = _reference_stack_forward(model.encoder, x, column_major)
        x_hat, dec_caches = _reference_stack_forward(model.decoder, h, column_major)
        loss = mse_loss(ref, x_hat)
        dec_grads, d_h = _reference_stack_backward(
            model.decoder, dec_caches, 2.0 * (x_hat - ref), column_major)
        enc_grads, _ = _reference_stack_backward(model.encoder, enc_caches, d_h,
                                                 column_major)
        grads = enc_grads + dec_grads
    else:
        tgt = np.asarray(target, dtype=float)
        out, caches = _reference_stack_forward(model, x, column_major)
        loss = mse_loss(tgt, out)
        grads, _ = _reference_stack_backward(model, caches, 2.0 * (out - tgt),
                                             column_major)
    flat = [g for dw_db in grads for g in dw_db]
    return loss, {name: g for (name, _), g in zip(iter_params(model), flat)}


def _assert_same_backward(model, x, target=None):
    """backward() matches its column-major twin bit for bit and the
    row-major reference within the summed terms' tolerance."""
    loss, grads = backward(model, x, target)
    ref_loss, ref_grads = _reference_dense_backward(model, x, target, column_major=True)
    assert _bits(loss) == _bits(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert _bits(grads[name]) == _bits(ref), name
    row_loss, row_grads = _reference_dense_backward(model, x, target)
    layers = model.layers if isinstance(model, AutoencoderModel) else model
    loss_bound, grad_bounds = _squared_error_bounds(
        layers, x, x if target is None else target)
    _assert_close(loss, row_loss, loss_bound, "loss")
    for (name, row), bound in zip(row_grads.items(), grad_bounds):
        _assert_close(grads[name], row, bound, name)


def _assert_autoencoder_step_close(model, before, batch, lr, loss):
    """The step that took `before` to `model`, returning loss, against the
    row-major reference's step from the same parameters, within the summed
    terms' tolerance."""
    row = copy.deepcopy(before)
    row_loss = _reference_autoencoder_train_step(row, batch, lr)
    loss_bound, grad_bounds = _squared_error_bounds(before.layers, batch, batch)
    _assert_close(loss, row_loss, loss_bound / len(batch), "loss")
    for (name, p), (_, q), (_, old), bound in zip(
            iter_params(model), iter_params(row), iter_params(before), grad_bounds):
        _assert_close(p, q, np.abs(old) + lr * bound / len(batch), name)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       dead=st.integers(0, 16), scale=st.sampled_from([0.1, 1.0, 30.0]),
       lr=st.sampled_from([0.05, 0.5]),
       activations=st.sampled_from([("relu", "identity")] * 3
                                   + [("sigmoid", "tanh"), ("tanh", "sigmoid")]))
def test_autoencoder_train_step_matches_reference(rows, seed, dead, scale, lr,
                                                  activations):
    rng = np.random.default_rng(seed)
    model = autoencoder_init(rng, input_dim=8, hidden_dim=16, latent_dim=8)
    # the two 16-wide hidden layers take the first, latent and output the second
    for layer in model.layers:
        layer.activation = activations[layer.n_out != 16]
    # a bias far below zero keeps a ReLU unit off for every row
    model.encoder[0].b[:dead] -= 100.0
    model.decoder[0].b[: dead // 2] -= 100.0
    ref = copy.deepcopy(model)
    batch = rng.uniform(-1.0, 1.0, size=(rows, 8)) * scale
    stack_x = rng.uniform(-1.0, 1.0, size=(rows, 8)) * scale
    stack_target = rng.normal(size=(rows, 8))
    work = neural.DenseWork(model.layers, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        # the gradient oracle, on one row and on the batch: the autoencoder,
        # and its decoder as a bare stack with a target of its own
        for k in (0, slice(None)):
            _assert_same_backward(model, batch[k])
            _assert_same_backward(model.decoder, stack_x[k], stack_target[k])
        for _ in range(4):
            before = copy.deepcopy(model)
            loss = neural.autoencoder_train_step(model, batch, lr, work)
            ref_loss = _reference_autoencoder_train_step(ref, batch, lr,
                                                         column_major=True)
            assert _bits(loss) == _bits(ref_loss)
            _assert_autoencoder_step_close(model, before, batch, lr, loss)
        # a fresh workspace takes the same step
        fresh = neural.DenseWork(model.layers, rows)
        assert (_bits(neural.autoencoder_train_step(model, batch, lr, fresh))
                == _bits(_reference_autoencoder_train_step(ref, batch, lr,
                                                           column_major=True)))
    for (name, p), (_, q) in zip(iter_params(model), iter_params(ref)):
        assert _bits(p) == _bits(q), name


def test_autoencoder_workspace_must_fit_batch_and_model():
    rng = np.random.default_rng(0)
    model = autoencoder_init(rng)
    batch = rng.uniform(size=(10, 8))
    before = [p.copy() for _, p in iter_params(model)]
    for work in (neural.DenseWork(model.layers, 9),
                 neural.DenseWork(model.layers, 1),
                 neural.DenseWork(autoencoder_init(rng, hidden_dim=12).layers, 10)):
        with pytest.raises(ValueError, match="workspace"):
            neural.autoencoder_train_step(model, batch, 0.05, work)
    for (_, p), old in zip(iter_params(model), before):
        assert np.array_equal(p, old)


def _reference_halves_train_step(model, batch, lr):
    """The two-half train step over the column-major reference: the
    gradients over the halves of np.array_split(batch, 2), each over the
    whole batch's row count, the second's added to the first's, and one
    SGD step on the sum."""
    n = len(batch)
    total, grads = 0.0, None
    for half in np.array_split(batch, 2):
        h, enc_caches = _reference_stack_forward(model.encoder, half, True)
        x_hat, dec_caches = _reference_stack_forward(model.decoder, h, True)
        diff = _as_layout(x_hat - half, True)
        total += float((diff * diff).sum(axis=1).sum())
        dec_grads, d_h = _reference_stack_backward(model.decoder, dec_caches,
                                                   2.0 * diff / n, True)
        enc_grads, _ = _reference_stack_backward(model.encoder, enc_caches, d_h, True)
        half_grads = [g for dw_db in enc_grads + dec_grads for g in dw_db]
        grads = half_grads if grads is None else [
            first + second for first, second in zip(grads, half_grads)]
    for (_, p), g in zip(iter_params(model), grads):
        p -= lr * g
    return total / n


def _work_grads(work):
    return [g for dw_db in zip(work.dw, work.db) for g in dw_db]


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       dead=st.integers(0, 16), scale=st.sampled_from([0.1, 1.0, 30.0]),
       lr=st.sampled_from([0.05, 0.5]))
def test_two_half_step_matches_full_batch_and_forked_worker(rows, seed, dead, scale,
                                                           lr):
    rng = np.random.default_rng(seed)
    model = autoencoder_init(rng, input_dim=8, hidden_dim=16, latent_dim=8)
    # a bias far below zero keeps a ReLU unit off for every row
    model.encoder[0].b[:dead] -= 100.0
    model.decoder[0].b[: dead // 2] -= 100.0
    batch = rng.uniform(-1.0, 1.0, size=(rows, 8)) * scale
    layers = model.layers
    halves = neural.HalvesWork(layers, rows)
    full = neural.DenseWork(layers, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        # the two halves' summed gradient against the full batch's
        total = halves.reconstruction_gradient(layers, batch, rows)
        full_total = full.reconstruction_gradient(layers, batch, rows)
        loss_bound, grad_bounds = _squared_error_bounds(layers, batch, batch)
        _assert_close(total / rows, full_total / rows, loss_bound / rows, "loss")
        for (name, _), g, r, bound in zip(iter_params(model), _work_grads(halves.first),
                                          _work_grads(full), grad_bounds):
            _assert_close(g, r, bound / rows, name)

        # steps in this process, in a forked worker and in the reference,
        # several through one work each, so a stale value would show
        ref, forked = copy.deepcopy(model), copy.deepcopy(model)
        worker = (pl.HalfWorker(forked.layers, batch)
                  if "fork" in multiprocessing.get_all_start_methods() else None)
        forked_work = neural.HalvesWork(forked.layers, rows, worker)
        with worker if worker is not None else contextlib.nullcontext():
            for _ in range(4):
                loss = neural.autoencoder_train_step(model, batch, lr, halves)
                assert _bits(loss) == _bits(_reference_halves_train_step(ref, batch, lr))
                assert _bits(neural.autoencoder_train_step(
                    forked, batch, lr, forked_work)) == _bits(loss)
                for (name, p), (_, q), (_, r) in zip(
                        iter_params(model), iter_params(forked), iter_params(ref)):
                    assert _bits(p) == _bits(q) == _bits(r), name
    assert multiprocessing.active_children() == []


def _reference_td_targets(batch, q_target, gamma, carbon_weight):
    targets = batch.rewards
    if carbon_weight > 0.0:
        targets = targets - carbon_weight * batch.carbon_g
    q_next, _ = _reference_stack_forward(q_target.layers, batch.s_next)
    return np.where(batch.terminal, targets, targets + gamma * np.max(q_next, axis=1))


def _reference_q_update(q, batch, q_target, gamma, lr, carbon_weight,
                        column_major=False):
    """q_update_network over the cached reference, the target-network
    forward included; column_major as in _reference_stack_forward, except
    that the target network's inference forward stays row-major."""
    rows = np.arange(len(batch.rewards))
    targets = _reference_td_targets(batch, q_target, gamma, carbon_weight)
    out, caches = _reference_stack_forward(q.layers, batch.states, column_major)
    td_errors = out[rows, batch.actions] - targets
    loss = float(np.mean(td_errors ** 2))
    if not np.isfinite(loss):
        raise ag.Diverged("non-finite TD loss")
    d_out = np.zeros_like(out)
    d_out[rows, batch.actions] = 2.0 * td_errors / len(rows)
    grads, _ = _reference_stack_backward(q.layers, caches, d_out, column_major)
    for layer, (dw, db) in zip(q.layers, grads):
        layer.w -= lr * dw
        layer.b -= lr * db
    return loss, td_errors


def _assert_q_update_close(q, before, batch, q_target, gamma, lr, carbon_weight,
                           loss, td):
    """The update that took `before` to `q`, returning (loss, td), against
    the row-major reference's update from the same parameters, within the
    summed terms' tolerance."""
    row = before.copy()
    row_loss, row_td = _reference_q_update(row, batch, q_target, gamma, lr,
                                           carbon_weight)
    rows = np.arange(len(batch.rewards))
    stack = _abs_stack(before.layers)
    out, caches = _reference_stack_forward(stack, np.abs(batch.states))
    # both sides take their targets from one row-major inference forward
    td_bound = out[rows, batch.actions] + np.abs(
        _reference_td_targets(batch, q_target, gamma, carbon_weight))
    d_out = np.zeros_like(out)
    d_out[rows, batch.actions] = 2.0 * td_bound / len(rows)
    grads, _ = _reference_stack_backward(stack, caches, d_out)
    _assert_close(loss, row_loss, np.mean(td_bound ** 2), "loss")
    _assert_close(td, row_td, td_bound, "td")
    bounds = [g for dw_db in grads for g in dw_db]
    for (name, p), (_, r), (_, old), bound in zip(
            iter_params(q.layers), iter_params(row.layers),
            iter_params(before.layers), bounds):
        _assert_close(p, r, np.abs(old) + lr * bound, name)


@settings(max_examples=60, deadline=None)
@given(state_dim=st.integers(1, 12),
       hidden=st.lists(st.integers(1, 24), max_size=3),
       rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.5, 5.0, 1e100, 1e160]),
       lr=st.sampled_from([0.01, 0.5, 20.0]),
       carbon_weight=st.sampled_from([0.0, 0.7]))
def test_q_update_network_matches_reference(state_dim, hidden, rows, seed, scale,
                                            lr, carbon_weight):
    rng = np.random.default_rng(seed)
    q = ag.qnetwork_init(state_dim, rng, hidden=tuple(hidden))
    q_target = ag.qnetwork_init(state_dim, rng, hidden=tuple(hidden))
    ref = q.copy()
    # one work over every update, so a value left over from the last
    # update would show
    work = neural.DenseWork(q.layers, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            batch = ag.Minibatch(
                rng.normal(scale=scale, size=(rows, state_dim)),
                rng.integers(0, ag.N_ACTIONS, size=rows), rng.normal(size=rows),
                rng.uniform(size=rows), rng.uniform(size=rows) < 0.3,
                rng.normal(scale=scale, size=(rows, state_dim)))
            state = batch.states[0]
            assert (_bits(q.q_values(state))
                    == _bits(_reference_stack_forward(ref.layers, state)[0]))
            try:
                ref_loss, ref_td = _reference_q_update(ref, batch, q_target, 0.9, lr,
                                                       carbon_weight,
                                                       column_major=True)
            except ag.Diverged:
                # a diverging network fails at the same update
                with pytest.raises(ag.Diverged):
                    ag.q_update_network(q, work, batch, q_target, 0.9, lr,
                                        carbon_weight)
                break
            before = q.copy()
            loss, td = ag.q_update_network(q, work, batch, q_target, 0.9, lr,
                                           carbon_weight)
            assert _bits(loss) == _bits(ref_loss)
            assert _bits(td) == _bits(ref_td)
            _assert_q_update_close(q, before, batch, q_target, 0.9, lr,
                                   carbon_weight, loss, td)
    for (name, p), (_, r) in zip(iter_params(q.layers), iter_params(ref.layers)):
        assert _bits(p) == _bits(r), name


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(129, 300), seed=st.integers(0, 2**32 - 1),
       dead=st.integers(1, 16), ae_scale=st.sampled_from([0.1, 1.0, 30.0]),
       ae_lr=st.sampled_from([0.05, 0.5]),
       q_scale=st.sampled_from([0.5, 5.0, 1e100, 1e160]),
       q_lr=st.sampled_from([0.01, 0.5, 20.0]))
def test_dense_training_past_the_pairwise_block_matches_row_major_reference(
        rows, seed, dead, ae_scale, ae_lr, q_scale, q_lr):
    # numpy sums a contiguous column of more than 128 entries pairwise, in
    # blocks, so db strays further from the row-major order than on the
    # small batches above; every step, several through one work, is checked
    # against the row-major reference's step from the same parameters
    rng = np.random.default_rng(seed)
    model = autoencoder_init(rng, input_dim=8, hidden_dim=16, latent_dim=8)
    model.encoder[0].b[:dead] -= 100.0
    model.decoder[0].b[: dead // 2] -= 100.0
    batch = rng.uniform(-1.0, 1.0, size=(rows, 8)) * ae_scale
    work = neural.DenseWork(model.layers, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            before = copy.deepcopy(model)
            loss = neural.autoencoder_train_step(model, batch, ae_lr, work)
            _assert_autoencoder_step_close(model, before, batch, ae_lr, loss)

    state_dim = 6
    q = ag.qnetwork_init(state_dim, rng, hidden=(16, 12))
    q_target = ag.qnetwork_init(state_dim, rng, hidden=(16, 12))
    # zero weights and a negative bias keep a ReLU unit off at any scale
    for layer, n in zip(q.layers[:2], (dead, dead // 2)):
        layer.w[:n] = 0.0
        layer.b[:n] = -1.0
    work = neural.DenseWork(q.layers, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            batch = ag.Minibatch(
                rng.normal(scale=q_scale, size=(rows, state_dim)),
                rng.integers(0, ag.N_ACTIONS, size=rows), rng.normal(size=rows),
                rng.uniform(size=rows), rng.uniform(size=rows) < 0.3,
                rng.normal(scale=q_scale, size=(rows, state_dim)))
            before = q.copy()
            try:
                loss, td = ag.q_update_network(q, work, batch, q_target, 0.9, q_lr,
                                               0.7)
            except ag.Diverged:
                with pytest.raises(ag.Diverged):
                    _reference_q_update(before, batch, q_target, 0.9, q_lr, 0.7)
                break
            _assert_q_update_close(q, before, batch, q_target, 0.9, q_lr, 0.7,
                                   loss, td)


def _reference_cell_forward(params, x, h_prev, c_prev):
    z = np.concatenate([x, h_prev])
    a = params.w.reshape(4, params.hidden_dim, -1) @ z + params.b.reshape(4, -1)
    ifo, g = _sigmoid(a[:3]), np.tanh(a[3])
    i, f, o = ifo
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (z, ifo, g, c_prev, tanh_c)


def _reference_classifier_backward(model, window, y):
    """Loss and gradients with per-time-step caches, a stack and a
    concatenation per step, and an outer product summed into the weight
    gradient at each step from t = T-1 down to 0."""
    window = np.atleast_2d(np.asarray(window, dtype=float))
    cell = model.cell
    h, c, caches = np.zeros(cell.hidden_dim), np.zeros(cell.hidden_dim), []
    for x in window:
        h, c, cache = _reference_cell_forward(cell, x, h, c)
        caches.append(cache)
    y_hat = float(_sigmoid(np.asarray(float(model.head_w @ h + model.head_b))))
    loss = bce_loss(y_hat, y)
    grads = {"cell.w": np.zeros_like(cell.w), "cell.b": np.zeros_like(cell.b)}
    d_logit = y_hat - y
    grads["head_w"] = d_logit * h
    grads["head_b"] = np.asarray(d_logit)
    dh = d_logit * model.head_w
    dc = np.zeros(cell.hidden_dim)
    for t in range(len(window) - 1, -1, -1):
        z, ifo, g, c_prev, tanh_c = caches[t]
        i, f, o = ifo
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_ifo = np.stack([dc * g, dc * c_prev, dh * tanh_c])
        da = np.concatenate([(d_ifo * ifo * (1.0 - ifo)).ravel(), dc * i * (1.0 - g * g)])
        grads["cell.w"] += np.outer(da, z)
        grads["cell.b"] += da
        dh = (cell.w.T @ da)[cell.input_dim:]
        dc = dc * f
    return y_hat, h, loss, grads


@settings(max_examples=100, deadline=None)
@given(steps=st.integers(1, 12), input_dim=st.integers(1, 8),
       hidden_dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.5, 3.0, 40.0]), y=st.sampled_from([0, 1]))
def test_classifier_backward_matches_reference(steps, input_dim, hidden_dim, seed,
                                               scale, y):
    rng = np.random.default_rng(seed)
    model = lstm_classifier_init(input_dim, hidden_dim, steps, rng)
    # large inputs saturate the gates: sigmoids reach 0 or 1, tanh +-1
    window = rng.normal(scale=scale, size=(steps, input_dim))
    window[rng.uniform(size=window.shape) < 0.2] = 0.0
    other = rng.normal(scale=scale, size=(steps, input_dim))
    refs = {id(win): _reference_classifier_backward(model, win, target)
            for win, target in ((window, y), (other, 1 - y))}
    targets = {id(window): y, id(other): 1 - y}
    # classify, hidden and backward take turns in the classifier's one work
    # on two windows, so a value left over from an earlier call would show;
    # every result is checked after the last call ran, so an aliased
    # hidden state or gradient would too
    calls = [(kind, win, fn(win)) for kind, win, fn in [
        ("classify", window, model.classify),
        ("hidden", window, model.hidden),
        ("backward", window, lambda w: backward(model, w, targets[id(w)])),
        ("hidden", other, model.hidden),
        ("classify", other, model.classify),
        ("backward", other, lambda w: backward(model, w, targets[id(w)])),
        ("classify", window, model.classify),
        ("backward", window, lambda w: backward(model, w, targets[id(w)])),
        ("hidden", window, model.hidden),
    ]]
    buffers = [buf for buf in vars(model.work).values() if isinstance(buf, np.ndarray)]
    for kind, win, out in calls:
        ref_y_hat, ref_h, ref_loss, ref_grads = refs[id(win)]
        if kind == "classify":
            assert _bits(out) == _bits(ref_y_hat)
        elif kind == "hidden":
            assert _bits(out) == _bits(ref_h)
            assert not any(np.shares_memory(out, buf) for buf in buffers)
        else:
            loss, grads = out
            assert _bits(loss) == _bits(ref_loss)
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                assert _bits(grads[name]) == _bits(ref), name
                assert not any(np.shares_memory(grads[name], buf)
                               for buf in buffers), name


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), steps=st.integers(1, 8), input_dim=st.integers(1, 8),
       hidden_dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.5, 3.0, 40.0]))
def test_minibatch_gradient_is_the_weighted_sum_of_per_window_ones(
        rows, steps, input_dim, hidden_dim, seed, scale):
    rng = np.random.default_rng(seed)
    model = lstm_classifier_init(input_dim, hidden_dim, steps, rng)
    work = neural.LstmWork(model.cell, steps, rows)
    # a first minibatch through the work, so that a value it left would show
    neural.classifier_gradient(model, rng.normal(size=(rows, steps, input_dim)),
                               rng.integers(0, 2, rows), rng.uniform(size=rows), work)
    windows = rng.normal(scale=scale, size=(rows, steps, input_dim))
    windows[rng.uniform(size=windows.shape) < 0.2] = 0.0
    targets = rng.integers(0, 2, rows)
    weights = rng.uniform(0.0, 2.0, rows)
    weights[rng.uniform(size=rows) < 0.1] = 0.0
    y_hat, grads = neural.classifier_gradient(model, windows, targets, weights, work)
    refs = [_reference_classifier_backward(model, window, int(y))
            for window, y in zip(windows, targets)]
    assert np.abs(y_hat - [ref[0] for ref in refs]).max() <= 1e-12
    assert grads.keys() == refs[0][3].keys()
    buffers = [buf for buf in vars(work).values() if isinstance(buf, np.ndarray)]
    for name, grad in grads.items():
        terms = np.array([w * ref[3][name] for w, ref in zip(weights, refs)])
        # within 1e-12 of the largest summed magnitude
        bound = 1e-12 * np.abs(terms).sum(axis=0).max()
        assert np.abs(grad - terms.sum(axis=0)).max() <= bound, name
        assert not any(np.shares_memory(grad, buf) for buf in buffers), name


def test_classifier_rejects_window_of_another_shape():
    rng = np.random.default_rng(0)
    model = lstm_classifier_init(4, 3, 5, rng)
    before = [p.copy() for _, p in iter_params(model)]
    for shape in ((4, 4), (6, 4), (5, 3), (5,), (1, 5, 4)):
        window = rng.normal(size=shape)
        for call in (model.classify, model.hidden,
                     lambda w: backward(model, w, 1),
                     # an SGD step fails before it touches a parameter
                     lambda w: apply_gradients(model, backward(model, w, 1)[1], 0.1)):
            with pytest.raises(ValueError) as exc:
                call(window)
            message = str(exc.value)
            assert "\n" not in message
            assert str((5, 4)) in message and str(shape) in message, message
    for (_, p), old in zip(iter_params(model), before):
        assert np.array_equal(p, old)


def test_classifier_copy_runs_in_a_work_of_its_own():
    rng = np.random.default_rng(1)
    model = lstm_classifier_init(4, 3, 5, rng)
    clone = copy.deepcopy(model)
    assert clone.work is not model.work
    for _ in range(2):
        window = rng.normal(size=(5, 4))
        assert _bits(clone.hidden(window)) == _bits(model.hidden(window))
        assert _bits(clone.classify(window)) == _bits(model.classify(window))


# ---------------------------------------------------------------------------
# determinism and checkpoints
# ---------------------------------------------------------------------------

def test_forward_determinism():
    rng = np.random.default_rng(5)
    model = autoencoder_init(rng)
    x = rng.uniform(size=8)
    a = model.reconstruct(x)[1]
    b = model.reconstruct(x)[1]
    assert np.array_equal(a, b)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    ae = autoencoder_init(rng)
    clf = lstm_classifier_init(8, 4, window_len=5, rng=rng)
    qnet = [neural.dense_init(12, 16, "relu", rng),
            neural.dense_init(16, 4, "identity", rng)]
    path = tmp_path / "ckpt.txt"
    save_checkpoint({"ae": ae, "clf": clf, "qnet": qnet}, path)
    loaded = load_checkpoint(path)

    for (name_a, a), (name_b, b) in zip(iter_params(ae), iter_params(loaded["ae"])):
        assert name_a == name_b
        assert np.max(np.abs(a - b)) < 1e-12
    for (_, a), (_, b) in zip(iter_params(clf), iter_params(loaded["clf"])):
        assert np.max(np.abs(a - b)) < 1e-12
    assert loaded["clf"].window_len == 5
    for (_, a), (_, b) in zip(iter_params(qnet), iter_params(loaded["qnet"])):
        assert np.max(np.abs(a - b)) < 1e-12


def test_checkpoint_save_load_save_idempotent(tmp_path):
    rng = np.random.default_rng(8)
    ae = autoencoder_init(rng, input_dim=3, hidden_dim=4, latent_dim=2)
    clf = lstm_classifier_init(3, 2, window_len=4, rng=rng)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_checkpoint({"ae": ae, "clf": clf}, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_checkpoint_lstm_gate_lines_are_row_blocks(tmp_path):
    # a version-1 LSTM block: hidden 2, input 1, one line per gate
    lines = ["edgeids-checkpoint 1", "model clf lstm_classifier",
             "meta window_len 3", "lstm 2 1"]
    for k, gate in enumerate("ifog"):
        lines.append(f"w_{gate} " + " ".join(str(10.0 * k + j) for j in range(6)))
    for k, gate in enumerate("ifog"):
        lines.append(f"b_{gate} {k + 0.5} {k + 0.25}")
    lines += ["head_w 1.0 -1.0", "head_b 0.5", "end"]
    path = tmp_path / "ckpt.txt"
    path.write_text("\n".join(lines) + "\n")
    cell = load_checkpoint(path)["clf"].cell
    assert cell.w.shape == (8, 3) and cell.b.shape == (8,)
    for k in range(4):
        assert np.array_equal(cell.w[2 * k:2 * k + 2],
                              (10.0 * k + np.arange(6.0)).reshape(2, 3))
        assert np.array_equal(cell.b[2 * k:2 * k + 2], [k + 0.5, k + 0.25])
    save_checkpoint(load_checkpoint(path), tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == path.read_text()


def test_checkpoint_truncated_file(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "ckpt.txt"
    save_checkpoint({"ae": autoencoder_init(rng)}, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_lstm_rejects_non_finite_parameters():
    w, b = np.zeros((8, 5)), np.zeros(8)
    for bad in (np.nan, np.inf):
        w_bad = w.copy()
        w_bad[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LstmParams(w_bad, b)
        with pytest.raises(ValueError, match="non-finite"):
            LstmParams(w, np.full(8, bad))
        with pytest.raises(ValueError, match="non-finite"):
            LstmClassifier(LstmParams(w, b), np.array([0.0, bad]), np.asarray(0.0))
        with pytest.raises(ValueError, match="non-finite"):
            LstmClassifier(LstmParams(w, b), np.zeros(2), np.asarray(bad))


def small_checkpoint_text(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "base.txt"
    save_checkpoint({"ae": autoencoder_init(rng, input_dim=3, hidden_dim=4,
                                            latent_dim=2),
                     "clf": lstm_classifier_init(3, 2, window_len=4, rng=rng),
                     "q": [neural.dense_init(5, 3, "relu", rng),
                           neural.dense_init(3, 4, "identity", rng)]}, path)
    return path.read_text()


odd_tokens = st.sampled_from(["nan", "inf", "-inf", "x", "", "0", "-3", "1.5",
                              "1e400", "relu", "end", "meta"])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoint_loads_finite_models_or_fails_cleanly(tmp_path, data):
    lines = [line.split(" ") for line in small_checkpoint_text(tmp_path).splitlines()]
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if edit == "replace":
            j = data.draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = data.draw(odd_tokens)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    path = tmp_path / "mutated.txt"
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    try:
        models = load_checkpoint(path)
    except CheckpointError:
        return
    for model in models.values():
        assert isinstance(model, (AutoencoderModel, LstmClassifier, list))
        for _, param in iter_params(model):
            assert np.isfinite(param).all()


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("edgeids-checkpoint 99\nend\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("something else\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
