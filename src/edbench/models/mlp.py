"""Single-hidden-layer neural network for binary outcomes.

Architecture is fixed: standardized inputs, one ReLU layer of
``hidden`` units, and a sigmoid output trained with the numerically
stable form of binary cross-entropy, ``softplus(z) - y z``. Training
runs Adam over shuffled mini-batches (the short remainder batch is kept,
not dropped) for a fixed number of epochs. All randomness flows from the
model seed, so repeated fits are bit-identical.

``mlp_loss_and_grads`` exposes the exact loss/gradient computation on
caller-supplied parameters so tests can verify the analytic gradients
against central finite differences.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import DataError, NonFiniteLoss
from .linear import matvec, sigmoid, _softplus, standardize_fit

logger = logging.getLogger(__name__)

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def mlp_loss_and_grads(W1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                       b2: float, X: np.ndarray, y: np.ndarray):
    """Mean BCE loss and gradients for the fixed two-layer architecture."""
    m = X.shape[0]
    Z1 = X @ W1 + b1
    A1 = np.maximum(Z1, 0.0)
    z2 = A1 @ w2 + b2
    loss = float(np.mean(_softplus(z2) - y * z2))

    dz2 = (sigmoid(z2) - y) / m
    dw2 = A1.T @ dz2
    db2 = float(dz2.sum())
    dZ1 = np.outer(dz2, w2) * (Z1 > 0.0)
    dW1 = X.T @ dZ1
    db1 = dZ1.sum(axis=0)
    return loss, dW1, db1, dw2, db2


class _Adam:
    def __init__(self, shape, lr):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.lr = lr

    def update(self, param, grad, t):
        self.m = BETA1 * self.m + (1 - BETA1) * grad
        self.v = BETA2 * self.v + (1 - BETA2) * grad * grad
        m_hat = self.m / (1 - BETA1 ** t)
        v_hat = self.v / (1 - BETA2 ** t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def fit_mlp(X: np.ndarray, y: np.ndarray, *, hidden: int = 64,
            epochs: int = 20, batch_size: int = 200,
            learning_rate: float = 0.001, seed: int = 0) -> dict:
    if not np.isfinite(X).all():
        raise DataError("mlp: non-finite feature values")
    y = y.astype(np.float64)
    n, d = X.shape
    mean, std = standardize_fit(X)
    Xs = (X - mean) / std

    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(d)
    lim2 = 1.0 / np.sqrt(hidden)
    W1 = rng.uniform(-lim1, lim1, size=(d, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.uniform(-lim2, lim2, size=hidden)
    b2 = 0.0

    opt_W1 = _Adam((d, hidden), learning_rate)
    opt_b1 = _Adam(hidden, learning_rate)
    opt_w2 = _Adam(hidden, learning_rate)
    opt_b2 = _Adam((), learning_rate)

    step = 0
    epoch_loss = []
    for epoch in range(epochs):
        perm = rng.permutation(n)
        running = 0.0
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            loss, dW1, db1, dw2, db2 = mlp_loss_and_grads(
                W1, b1, w2, b2, Xs[batch], y[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"mlp: non-finite loss in epoch {epoch}")
            step += 1
            W1 = opt_W1.update(W1, dW1, step)
            b1 = opt_b1.update(b1, db1, step)
            w2 = opt_w2.update(w2, dw2, step)
            b2 = float(opt_b2.update(b2, db2, step))
            running += loss * len(batch)
        epoch_loss.append(running / n)
    logger.info("mlp: %d epochs, loss %.6f -> %.6f",
                epochs, epoch_loss[0], epoch_loss[-1])
    return {
        "W1": W1.tolist(),
        "b1": b1.tolist(),
        "w2": w2.tolist(),
        "b2": b2,
        "mean": mean.tolist(),
        "std": std.tolist(),
        "epoch_loss": epoch_loss,
    }


def predict_mlp(params: dict, X: np.ndarray) -> np.ndarray:
    mean = np.asarray(params["mean"])
    std = np.asarray(params["std"])
    W1 = np.asarray(params["W1"])
    b1 = np.asarray(params["b1"])
    w2 = np.asarray(params["w2"])
    b2 = float(params["b2"])
    A1 = np.maximum((X - mean) / std @ W1 + b1, 0.0)
    return sigmoid(matvec(A1, w2) + b2)
