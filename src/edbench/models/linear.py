"""L2-regularized logistic regression on standardized features.

The objective is the mean negative log-likelihood plus an L2 penalty on
the weights (never the intercept) with strength 1/C scaled by the sample
count, matching the usual C-parameterized convention at the optimum:

    J(w, b) = mean_i [softplus(z_i) - y_i z_i] + ||w||^2 / (2 C n)

Optimization is full-batch gradient descent with a backtracking
(step-halving) line search from a zero start, capped at ``MAX_ITER``
iterations or an infinity-norm gradient tolerance ``TOL``. The line
search only ever accepts descent steps, so the final loss cannot exceed
the zero-parameter loss (a convexity witness checked by tests). Params
are numbers and float64 arrays.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import NonFiniteLoss

logger = logging.getLogger(__name__)

MAX_ITER = 100
TOL = 1e-6


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``A @ v`` summed in an order fixed by the shapes alone. BLAS splits
    a matrix-vector product across its threads and rounds some rows
    differently for each thread count, so model bytes would change with
    the thread count."""
    return np.einsum("ij,j->i", A, v, optimize=False)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
                       lam: float):
    """Loss, weight gradient, and bias gradient at (w, b).

    ``lam`` is the ridge coefficient on ||w||^2 / 2. Exposed so tests can
    check the analytic gradient against finite differences.
    """
    n = X.shape[0]
    z = matvec(X, w) + b
    loss = float(np.mean(_softplus(z) - y * z) + 0.5 * lam * np.dot(w, w))
    p = sigmoid(z)
    resid = p - y
    grad_w = X.T @ resid / n + lam * w
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and stds on training data; zero stds become 1."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def fit_logistic(X: np.ndarray, y: np.ndarray, *, C: float = 1.0) -> dict:
    """Train on finite X (``train_model`` checks it); return kind-specific
    parameters (standardized scale)."""
    n, d = X.shape
    y = y.astype(np.float64)
    mean, std = standardize_fit(X)
    Xs = (X - mean) / std
    lam = 1.0 / (C * n)

    w = np.zeros(d)
    b = 0.0
    loss, grad_w, grad_b = logistic_objective(w, b, Xs, y, lam)
    step = 1.0
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        gnorm = max(np.abs(grad_w).max() if d else 0.0, abs(grad_b))
        if gnorm < TOL:
            n_iter -= 1
            break
        gsq = float(np.dot(grad_w, grad_w) + grad_b * grad_b)
        # backtracking: halve until simple Armijo decrease holds
        accepted = False
        while step >= 1e-12:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = logistic_objective(w_new, b_new, Xs, y, lam)
            if not np.isfinite(loss_new):
                raise NonFiniteLoss("logistic regression: non-finite loss during search")
            if loss_new <= loss - 1e-4 * step * gsq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
        step = min(step * 2.0, 1e6)
    if not np.isfinite(loss):
        raise NonFiniteLoss("logistic regression: non-finite final loss")
    logger.info("logistic: %d iterations, loss %.6f", n_iter, loss)
    return {"weights": w, "bias": b, "mean": mean, "std": std,
            "final_loss": loss, "n_iter": n_iter}


def predict_logistic(params: dict, X: np.ndarray) -> np.ndarray:
    Xs = (X - params["mean"]) / params["std"]
    return sigmoid(matvec(Xs, params["weights"]) + params["bias"])
