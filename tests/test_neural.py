import numpy as np
import pytest

from edgeids import neural
from edgeids.neural import (
    AutoencoderModel,
    CheckpointError,
    DenseParams,
    LstmParams,
    apply_gradients,
    autoencoder_init,
    backward,
    bce_loss,
    grad_check,
    iter_params,
    load_checkpoint,
    lstm_cell_step,
    lstm_classifier_init,
    mse_loss,
    save_checkpoint,
    stack_forward,
)


# ---------------------------------------------------------------------------
# dense forward
# ---------------------------------------------------------------------------

def test_dense_identity_case():
    layer = DenseParams(np.eye(2), np.zeros(2), "identity")
    assert np.array_equal(stack_forward([layer], [3.0, -1.0])[0], [3.0, -1.0])


def test_dense_zero_weights_returns_bias():
    layer = DenseParams(np.zeros((2, 3)), np.array([0.5, 0.5]), "identity")
    assert np.array_equal(stack_forward([layer], [7.0, -2.0, 9.0])[0], [0.5, 0.5])


def test_dense_hand_matrix_multiply():
    layer = DenseParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), "identity")
    assert np.array_equal(stack_forward([layer], [1.0, 1.0])[0], [3.0, 7.0])


def test_dense_dimension_mismatch():
    layer = DenseParams(np.eye(2), np.zeros(2), "relu")
    with pytest.raises(ValueError):
        stack_forward([layer], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def _zero_cell(input_dim=1, hidden_dim=1):
    shape = (hidden_dim, input_dim + hidden_dim)
    z = np.zeros
    return LstmParams(z(shape), z(shape), z(shape), z(shape),
                      z(hidden_dim), z(hidden_dim), z(hidden_dim), z(hidden_dim))


def test_lstm_all_zero_is_zero():
    h, c = lstm_cell_step(_zero_cell(), [0.0], [0.0], [0.0])
    assert np.array_equal(h, [0.0]) and np.array_equal(c, [0.0])


def test_lstm_zero_params_carry_cell_state():
    # gates sigmoid(0)=0.5, candidate tanh(0)=0: c = 0.5*1, h = 0.5*tanh(0.5)
    h, c = lstm_cell_step(_zero_cell(), [0.0], [0.0], [1.0])
    assert np.allclose(c, [0.5])
    assert np.allclose(h, [0.5 * np.tanh(0.5)])


def test_lstm_matches_scalar_reference():
    # independent scalar re-evaluation of the gate equations, unit by unit
    rng = np.random.default_rng(7)
    cell = neural.lstm_init(3, 2, rng)
    x = rng.normal(size=3)
    h_prev = rng.normal(size=2)
    c_prev = rng.normal(size=2)
    h, c = lstm_cell_step(cell, x, h_prev, c_prev)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = list(x) + list(h_prev)
    for u in range(2):
        i = sig(sum(cell.w_i[u][k] * z[k] for k in range(5)) + cell.b_i[u])
        f = sig(sum(cell.w_f[u][k] * z[k] for k in range(5)) + cell.b_f[u])
        o = sig(sum(cell.w_o[u][k] * z[k] for k in range(5)) + cell.b_o[u])
        g = np.tanh(sum(cell.w_g[u][k] * z[k] for k in range(5)) + cell.b_g[u])
        c_ref = f * c_prev[u] + i * g
        assert c[u] == pytest.approx(c_ref, abs=1e-14)
        assert h[u] == pytest.approx(o * np.tanh(c_ref), abs=1e-14)


def test_lstm_hidden_state_bounded():
    rng = np.random.default_rng(3)
    cell = neural.lstm_init(4, 6, rng)
    h = np.zeros(6)
    c = np.zeros(6)
    for _ in range(200):
        h, c = lstm_cell_step(cell, rng.normal(scale=5.0, size=4), h, c)
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
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_checkpoint({"ae": ae}, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_checkpoint_truncated_file(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "ckpt.txt"
    save_checkpoint({"ae": autoencoder_init(rng)}, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("edgeids-checkpoint 99\nend\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("something else\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
