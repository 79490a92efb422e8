"""Neural primitives: forward passes, losses, and gradient verification.

Every gradient in the package is hand-derived, so this demo leans on the
one tool that keeps hand-derived gradients honest: central finite
differences over every parameter.
"""

import numpy as np

from edgeids import neural

rng = np.random.default_rng(0)

print("== dense layer ==")
layer = neural.DenseParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2),
                           "identity")
print("W @ [1, 1] =", neural.stack_forward([layer], [1.0, 1.0]), "(expect [3, 7])")

print("\n== LSTM classifier with zero parameters ==")
# one hidden unit: the four gate rows i, f, o, g stacked over [x, h]
cell = neural.LstmParams(np.zeros((4, 2)), np.zeros(4))
clf = neural.LstmClassifier(cell, np.zeros(1), 0.0, window_len=2)
h = clf.hidden([[0.0], [0.0]])
# every gate sits at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0, so
# the cell state stays 0 from the zero start and so does h
print(f"from the zero state, h stays 0 (got {h[0]:.4f}); "
      f"the head reads sigmoid(0) = 0.5 (got {clf.classify([[0.0], [0.0]]):.4f})")

print("\n== losses ==")
print("reconstruction error of an exact match:", neural.mse_loss([1, 2], [1, 2]))
print("bce(0.5, 1) = ln 2 =", round(neural.bce_loss(0.5, 1), 6))

print("\n== gradient check: autoencoder 8-16-8-16-8 ==")
model = neural.autoencoder_init(rng)
x = rng.uniform(size=8)
report = neural.grad_check(model, x, epsilon=1e-5)
print(f"checked {report.param_count} parameters, "
      f"max relative error {report.max_rel_error:.2e}")

print("\n== gradient check: LSTM classifier ==")
clf = neural.lstm_classifier_init(input_dim=8, hidden_dim=4, window_len=6,
                                  rng=rng)
window = rng.normal(size=(6, 8))
report = neural.grad_check(clf, window, target=1, epsilon=1e-5)
print(f"checked {report.param_count} parameters, "
      f"max relative error {report.max_rel_error:.2e}")

print("\n== gradient check: LSTM classifier on a minibatch of 4 windows ==")
# pre-training steps on the sum of a minibatch's losses, each window's
# weighted by its own step size; one backward runs the 4 windows side by
# side in a work with a rows axis
windows = rng.normal(size=(4, 6, 8))
labels = np.array([0, 1, 1, 0])
weights = np.array([0.5, 0.25, 1.0, 0.125])
work = neural.LstmWork(clf.cell, 6, rows=4)
_, grads = neural.classifier_gradient(clf, windows, labels, weights, work)


def minibatch_loss():
    return sum(w * neural.bce_loss(clf.classify(x), y)
               for x, y, w in zip(windows, labels, weights))


worst, count = 0.0, 0
for name, param in neural.iter_params(clf):
    flat, analytic = param.reshape(-1), np.asarray(grads[name]).reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + 1e-5
        up = minibatch_loss()
        flat[j] = orig - 1e-5
        down = minibatch_loss()
        flat[j] = orig
        numeric = (up - down) / 2e-5
        worst = max(worst, abs(analytic[j] - numeric)
                    / max(abs(analytic[j]), abs(numeric), 1e-3))
        count += 1
print(f"checked {count} parameters, max relative error {worst:.2e}")

print("\n== fault injection: corrupt one gradient entry by +1 ==")
loss, grads = neural.backward(model, x)
grads["encoder.0.w"][0, 0] += 1.0
numeric = neural.backward(model, x)[1]["encoder.0.w"][0, 0]
corrupted = grads["encoder.0.w"][0, 0]
rel = abs(corrupted - numeric) / max(abs(corrupted), abs(numeric), 1e-3)
print(f"relative error on the corrupted entry: {rel:.3f} "
      "(a healthy check stays below 1e-4)")

print("\n== SGD on a convex quadratic ==")
stack = [neural.DenseParams(np.array([[5.0]]), np.zeros(1), "identity")]
for _ in range(300):
    _, grads = neural.backward(stack, [2.0], target=[3.0])
    grads["0.b"][:] = 0.0
    neural.apply_gradients(stack, grads, lr=0.05)
print(f"w converged to {stack[0].w[0, 0]:.6f} (closed-form minimizer 1.5)")
