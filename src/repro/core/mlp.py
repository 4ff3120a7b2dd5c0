"""A three-layer ReLU MLP for input-aware prediction, in NumPy.

Section VI-E2: "The model we use is lightweight, has three fully connected
(linear) layers and ReLU activations, and takes the features of all the
inputs of the function ... trained online using live traffic."

The regressor standardises inputs with running statistics, optionally
predicts in log space (execution times are positive and multiplicative),
and trains online with Adam. Prediction cost is a couple of small matrix
multiplies — tens of microseconds, as the paper reports.

The six weight tensors live as views in one contiguous parameter vector,
and the gradients as views in one contiguous gradient vector. The Adam
moments ``m`` and ``v`` are flat vectors of the same length, so an Adam
step is a dozen in-place whole-vector NumPy calls. Each element sees the
same IEEE operations, in the same order, as the textbook per-tensor
update, so training is bit-identical to it.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Sequence, Tuple

import numpy as np


def _views(flat: np.ndarray, shapes) -> List[np.ndarray]:
    """Consecutive slices of ``flat``, reshaped (as views) to ``shapes``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class _RunningStandardizer:
    """Welford-style running mean/variance per feature.

    ``std``, the spread ``transform`` divides by, is refreshed by each
    ``update`` rather than recomputed on every ``transform``.
    """

    def __init__(self, n_features: int):
        self.count = 0
        self.mean = np.zeros(n_features)
        self.m2 = np.zeros(n_features)
        # Dividing by one is exact, so with fewer than two rows
        # ``transform`` only centres.
        self.std = np.ones(n_features)

    def update(self, rows: np.ndarray) -> None:
        # Python floats: per feature, the same IEEE operations in the same
        # order as row-at-a-time array arithmetic, without NumPy calls.
        count, mean, m2 = self.count, self.mean.tolist(), self.m2.tolist()
        for row in rows.tolist():
            count += 1
            for j, value in enumerate(row):
                delta = value - mean[j]
                mean[j] += delta / count
                m2[j] += delta * (value - mean[j])
        self.count, self.mean, self.m2 = count, np.array(mean), np.array(m2)
        if count >= 2:
            std = np.sqrt(self.m2 / (count - 1))
            std[std < 1e-9] = 1.0
            self.std = std

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.mean) / self.std


class MLPRegressor:
    """input → hidden → hidden → scalar, ReLU activations, Adam updates."""

    def __init__(self, n_inputs: int, hidden: Tuple[int, int] = (32, 16),
                 learning_rate: float = 1e-2, log_target: bool = True,
                 seed: int = 0):
        if not isinstance(n_inputs, numbers.Integral) or n_inputs < 1:
            raise ValueError(f"need at least one input, got {n_inputs}")
        if len(hidden) != 2 or not all(
                isinstance(h, numbers.Integral) and h >= 1 for h in hidden):
            raise ValueError(
                f"hidden must be two positive integer sizes: {hidden}")
        if not (learning_rate > 0 and math.isfinite(learning_rate)):
            raise ValueError(
                f"learning rate must be positive and finite: {learning_rate}")
        self.n_inputs = n_inputs
        self.log_target = log_target
        self.learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        h1, h2 = hidden
        shapes = [(n_inputs, h1), (h1,), (h1, h2), (h2,), (h2, 1), (1,)]
        size = sum(math.prod(shape) for shape in shapes)
        self._param_vec = np.zeros(size)
        self._params = _views(self._param_vec, shapes)
        # He initialisation for the ReLU layers; the biases stay zero.
        for weight, fan_in in zip(self._params[::2], (n_inputs, h1, h2)):
            weight[...] = rng.normal(0, np.sqrt(2.0 / fan_in),
                                     size=weight.shape)
        self._grad_vec = np.zeros(size)
        self._grads = _views(self._grad_vec, shapes)
        self._adam_m = np.zeros(size)
        self._adam_v = np.zeros(size)
        self._adam_t = 0
        self._standardizer = _RunningStandardizer(n_inputs)
        self._target_mean = 0.0
        self._target_m2 = 0.0
        self._target_count = 0
        self.samples_seen = 0

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray):
        w1, b1, w2, b2, w3, b3 = self._params
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2 + b2
        a2 = np.maximum(z2, 0.0)
        out = a2 @ w3 + b3
        return out, (x, z1, a1, z2, a2)

    def _backward(self, cache, grad_out: np.ndarray) -> None:
        """Write the loss gradient into the flat gradient vector."""
        x, z1, a1, z2, a2 = cache
        _, _, w2, _, w3, _ = self._params
        g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = self._grads
        np.matmul(a2.T, grad_out, out=g_w3)
        grad_out.sum(axis=0, out=g_b3)
        dz2 = (grad_out @ w3.T) * (z2 > 0)
        np.matmul(a1.T, dz2, out=g_w2)
        dz2.sum(axis=0, out=g_b2)
        dz1 = (dz2 @ w2.T) * (z1 > 0)
        np.matmul(x.T, dz1, out=g_w1)
        dz1.sum(axis=0, out=g_b1)

    def _adam_step(self) -> None:
        """One Adam update of every parameter from the gradient vector.

        Per element: ``m = beta1*m + (1-beta1)*g``,
        ``v = beta2*v + (1-beta2)*(g*g)`` and
        ``p -= (lr*(m/(1-beta1**t))) / (sqrt(v/(1-beta2**t)) + eps)``.
        The gradient vector is spent once ``v`` is updated, so it doubles
        as scratch space; the one temporary vector lives only for the step.
        """
        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m, v, g = self._adam_m, self._adam_v, self._grad_vec
        s = g * (1 - beta1)
        m *= beta1
        m += s
        np.multiply(g, g, out=g)
        g *= 1 - beta2
        v *= beta2
        v += g
        np.divide(m, 1 - beta1 ** self._adam_t, out=s)
        s *= self.learning_rate
        np.divide(v, 1 - beta2 ** self._adam_t, out=g)
        np.sqrt(g, out=g)
        g += eps
        s /= g
        self._param_vec -= s

    # ------------------------------------------------------------------
    # Target normalisation
    # ------------------------------------------------------------------
    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        if self.log_target:
            y = np.log(y)
        for value in y.tolist():
            self._target_count += 1
            delta = value - self._target_mean
            self._target_mean += delta / self._target_count
            self._target_m2 += delta * (value - self._target_mean)
        return (y - self._target_mean) / self._target_std()

    def _target_std(self) -> float:
        if self._target_count < 2:
            return 1.0
        std = math.sqrt(self._target_m2 / (self._target_count - 1))
        return std if std > 1e-9 else 1.0

    def _decode(self, out: np.ndarray) -> np.ndarray:
        decoded = out * self._target_std() + self._target_mean
        if self.log_target:
            # Clamp the log-space output: extreme extrapolations must not
            # overflow exp (callers clamp to a sane band anyway).
            decoded = np.exp(np.clip(decoded, -50.0, 50.0))
        return decoded

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def partial_fit(self, x: Sequence[Sequence[float]],
                    y: Sequence[float], epochs: int = 1) -> float:
        """One (or a few) online gradient steps on a mini-batch.

        Returns the final mean-squared error in normalised target space.
        A rejected batch raises ``ValueError`` and leaves the model as it
        was.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] == 0:
            raise ValueError("empty batch: no rows to train on")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"batch mismatch: {x.shape[0]} inputs, {y.shape[0]} targets")
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} features, got {x.shape[1]}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("batch has a non-finite feature or target")
        if self.log_target and np.any(y <= 0):
            raise ValueError("log-target model needs positive targets")
        self._standardizer.update(x)
        x_std = self._standardizer.transform(x)
        y_norm = self._encode_targets(y).reshape(-1, 1)
        self.samples_seen += len(y)
        for _ in range(max(1, epochs)):
            out, cache = self._forward(x_std)
            residual = out - y_norm
            self._backward(cache, 2.0 * residual / len(y_norm))
            self._adam_step()
        return float(np.mean(residual ** 2))

    def predict(self, x: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict targets for a batch of feature rows."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} features, got {x.shape[1]}")
        x_std = self._standardizer.transform(x)
        out, _ = self._forward(x_std)
        return self._decode(out).reshape(-1)

    def predict_one(self, features: Sequence[float]) -> float:
        return float(self.predict([list(features)])[0])
