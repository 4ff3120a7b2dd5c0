"""Tests for the NumPy MLP regressor (the input-aware predictor core)."""

import numpy as np
import pytest

from repro.core.mlp import MLPRegressor, _RunningStandardizer


def make_polynomial_data(n, rng, irrelevant=2):
    """y = 0.05 * x0 (+ noise); extra features are pure noise."""
    x_rel = rng.lognormal(mean=1.0, sigma=0.5, size=(n, 1))
    x_noise = rng.uniform(0, 10, size=(n, irrelevant))
    x = np.hstack([x_rel, x_noise])
    y = 0.05 * x_rel[:, 0] * np.exp(rng.normal(0, 0.02, size=n))
    return x, y


class TestMLPRegressor:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor(0)
        with pytest.raises(ValueError):
            MLPRegressor(3, hidden=(0, 4))
        with pytest.raises(ValueError):
            MLPRegressor(3, learning_rate=0.0)
        with pytest.raises(ValueError, match="learning rate"):
            MLPRegressor(3, learning_rate=float("nan"))
        with pytest.raises(ValueError, match="learning rate"):
            MLPRegressor(3, learning_rate=float("inf"))
        with pytest.raises(ValueError, match="hidden"):
            MLPRegressor(3, hidden=(2.5, 3))

    def test_shape_validation(self):
        model = MLPRegressor(3)
        with pytest.raises(ValueError):
            model.partial_fit([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            model.partial_fit([[1.0, 2.0, 3.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            model.predict([[1.0]])

    def test_log_target_rejects_nonpositive(self):
        model = MLPRegressor(2, log_target=True)
        with pytest.raises(ValueError):
            model.partial_fit([[1.0, 2.0]], [0.0])

    def test_predictions_positive_with_log_target(self):
        model = MLPRegressor(2, log_target=True, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 5, size=(50, 2))
        y = x[:, 0] * 0.1
        model.partial_fit(x, y, epochs=20)
        assert np.all(model.predict(x) > 0)

    def test_learns_linear_relation_under_4_percent_error(self):
        """The paper's claim: execution time from input features predicted
        with <4% mean error for polynomially input-dependent functions."""
        rng = np.random.default_rng(42)
        model = MLPRegressor(3, seed=1)
        x_train, y_train = make_polynomial_data(600, rng)
        for _ in range(60):
            idx = rng.choice(len(x_train), size=32, replace=False)
            model.partial_fit(x_train[idx], y_train[idx])
        x_test, y_test = make_polynomial_data(200, rng)
        pred = model.predict(x_test)
        error = np.mean(np.abs(pred - y_test) / y_test)
        assert error < 0.08  # generous bound; typical runs land near 3-5%

    def test_irrelevant_features_do_not_prevent_learning(self):
        """Fig. 4: training on *all* features costs almost nothing."""
        rng = np.random.default_rng(7)

        def error_with_irrelevant(k):
            model = MLPRegressor(1 + k, seed=2)
            x, y = make_polynomial_data(600, np.random.default_rng(3),
                                        irrelevant=k)
            for _ in range(60):
                idx = rng.choice(len(x), size=32, replace=False)
                model.partial_fit(x[idx], y[idx])
            x_t, y_t = make_polynomial_data(200, np.random.default_rng(4),
                                            irrelevant=k)
            return float(np.mean(np.abs(model.predict(x_t) - y_t) / y_t))

        selected = error_with_irrelevant(0)
        all_features = error_with_irrelevant(4)
        assert all_features < max(2.5 * selected, 0.10)

    def test_online_training_adapts_to_drift(self):
        model = MLPRegressor(1, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 3, size=(400, 1))
        model.partial_fit(x, 0.1 * x[:, 0], epochs=40)
        # The relation doubles; online updates must follow.
        for _ in range(80):
            xb = rng.uniform(1, 3, size=(32, 1))
            model.partial_fit(xb, 0.2 * xb[:, 0])
        test = np.array([[2.0]])
        assert model.predict(test)[0] == pytest.approx(0.4, rel=0.25)

    def test_deterministic_given_seed(self):
        x = [[1.0, 2.0]] * 8
        y = [0.5] * 8
        a = MLPRegressor(2, seed=5)
        b = MLPRegressor(2, seed=5)
        a.partial_fit(x, y, epochs=3)
        b.partial_fit(x, y, epochs=3)
        assert a.predict([[1.0, 2.0]])[0] == b.predict([[1.0, 2.0]])[0]

    def test_samples_seen_counts(self):
        model = MLPRegressor(1)
        model.partial_fit([[1.0], [2.0]], [1.0, 2.0])
        assert model.samples_seen == 2

    def test_predict_one(self):
        model = MLPRegressor(2, seed=0)
        model.partial_fit([[1.0, 1.0]] * 4, [2.0] * 4, epochs=10)
        value = model.predict_one([1.0, 1.0])
        assert isinstance(value, float)
        assert value > 0

    def test_prediction_latency_is_microseconds(self):
        """Section VIII-D: prediction takes 10-30 µs. Allow generous slack
        for interpreter overhead but require well under a millisecond."""
        import time
        model = MLPRegressor(6, seed=0)
        model.partial_fit([[1.0] * 6] * 8, [1.0] * 8)
        row = [1.0] * 6
        model.predict_one(row)  # warm up
        start = time.perf_counter()
        for _ in range(100):
            model.predict_one(row)
        per_call = (time.perf_counter() - start) / 100
        assert per_call < 1e-3


def model_state(model):
    """Every piece of training state, copied, keyed by name."""
    standardizer = model._standardizer
    return {
        "params": np.concatenate([p.ravel() for p in model._params]),
        "adam_m": model._adam_m.copy(),
        "adam_v": model._adam_v.copy(),
        "adam_t": model._adam_t,
        "std_count": standardizer.count,
        "std_mean": standardizer.mean.copy(),
        "std_m2": standardizer.m2.copy(),
        "std_std": standardizer.std.copy(),
        "target": (model._target_count, model._target_mean,
                   model._target_m2),
        "samples_seen": model.samples_seen,
    }


class TestRejectedBatchLeavesStateAlone:
    nan, inf = float("nan"), float("inf")

    @pytest.mark.parametrize("log_target, x, y", [
        (True, np.zeros((0, 3)), []),
        (False, np.zeros((0, 3)), []),
        (True, [[1.0, 2.0, 3.0]], [nan]),
        (False, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]], [1.0, inf]),
        (True, [[1.0, inf, 3.0]], [1.0]),
        (False, [[1.0, 2.0, 3.0], [nan, 2.0, 3.0]], [1.0, 2.0]),
        (True, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 0.0]),
        (True, [[1.0, 2.0, 3.0]], [-2.0]),
        (True, [[1.0, 2.0]], [1.0]),
        (True, [[1.0, 2.0, 3.0]], [1.0, 2.0]),
    ], ids=["empty-log", "empty-linear", "nan-target", "inf-target",
            "inf-feature", "nan-feature", "zero-target", "negative-target",
            "feature-count", "row-count"])
    def test_rejected_batch_changes_nothing(self, log_target, x, y):
        rng = np.random.default_rng(1)
        model = MLPRegressor(3, log_target=log_target, seed=1)
        for _ in range(5):
            model.partial_fit(rng.uniform(1, 5, size=(4, 3)),
                              rng.uniform(0.5, 2.0, size=4), epochs=2)
        before = model_state(model)
        with pytest.raises(ValueError) as err:
            model.partial_fit(x, y, epochs=2)
        assert "\n" not in str(err.value)
        after = model_state(model)
        for key, value in before.items():
            assert np.array_equal(after[key], value), key
        assert np.all(np.isfinite(model.predict([[1.0, 2.0, 3.0]])))


class TestRunningStandardizer:
    def test_cached_transform_matches_formula_after_every_update(self):
        rng = np.random.default_rng(3)
        standardizer = _RunningStandardizer(3)
        probe = rng.normal(2.0, 3.0, size=(5, 3))

        def from_scratch(rows):
            if standardizer.count < 2:
                return rows - standardizer.mean
            std = np.sqrt(standardizer.m2 / (standardizer.count - 1))
            std[std < 1e-9] = 1.0
            return (rows - standardizer.mean) / std

        assert np.array_equal(standardizer.transform(probe),
                              from_scratch(probe))
        for size in (1, 1, 3, 1, 7, 2, 1):
            rows = rng.normal(2.0, 3.0, size=(size, 3))
            rows[:, 2] = 4.0  # a zero-variance feature
            standardizer.update(rows)
            assert np.array_equal(standardizer.transform(probe),
                                  from_scratch(probe))
        assert standardizer.std[2] == 1.0


class _PerTensorMLP:
    """The MLP as it was before the flat-vector layout, kept as an oracle.

    Per-tensor parameter, gradient and Adam-moment arrays, a standardizer
    that recomputes its spread on every transform, and a Welford loop
    over ``np.float64`` scalars. ``MLPRegressor`` must train bit for bit
    like it.
    """

    def __init__(self, n_inputs, hidden=(32, 16), learning_rate=1e-2,
                 log_target=True, seed=0):
        self.learning_rate = learning_rate
        self.log_target = log_target
        rng = np.random.default_rng(seed)
        h1, h2 = hidden
        self.params = [
            rng.normal(0, np.sqrt(2.0 / n_inputs), size=(n_inputs, h1)),
            np.zeros(h1),
            rng.normal(0, np.sqrt(2.0 / h1), size=(h1, h2)),
            np.zeros(h2),
            rng.normal(0, np.sqrt(2.0 / h2), size=(h2, 1)),
            np.zeros(1),
        ]
        self.adam_m = [np.zeros_like(p) for p in self.params]
        self.adam_v = [np.zeros_like(p) for p in self.params]
        self.adam_t = 0
        self.count, self.mean = 0, np.zeros(n_inputs)
        self.m2 = np.zeros(n_inputs)
        self.target_mean, self.target_m2, self.target_count = 0.0, 0.0, 0

    def _standardize(self, rows):
        if self.count < 2:
            return rows - self.mean
        std = np.sqrt(self.m2 / (self.count - 1))
        std[std < 1e-9] = 1.0
        return (rows - self.mean) / std

    def _target_std(self):
        if self.target_count < 2:
            return 1.0
        std = float(np.sqrt(self.target_m2 / (self.target_count - 1)))
        return std if std > 1e-9 else 1.0

    def _forward(self, x):
        w1, b1, w2, b2, w3, b3 = self.params
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2 + b2
        a2 = np.maximum(z2, 0.0)
        return a2 @ w3 + b3, (x, z1, a1, z2, a2)

    def _backward(self, cache, grad_out):
        x, z1, a1, z2, a2 = cache
        w1, b1, w2, b2, w3, b3 = self.params
        grads = [None] * 6
        grads[4] = a2.T @ grad_out
        grads[5] = grad_out.sum(axis=0)
        da2 = grad_out @ w3.T
        dz2 = da2 * (z2 > 0)
        grads[2] = a1.T @ dz2
        grads[3] = dz2.sum(axis=0)
        da1 = dz2 @ w2.T
        dz1 = da1 * (z1 > 0)
        grads[0] = x.T @ dz1
        grads[1] = dz1.sum(axis=0)
        return grads

    def _adam_step(self, grads):
        self.adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.learning_rate
        for i, grad in enumerate(grads):
            self.adam_m[i] = beta1 * self.adam_m[i] + (1 - beta1) * grad
            self.adam_v[i] = beta2 * self.adam_v[i] + (1 - beta2) * grad ** 2
            m_hat = self.adam_m[i] / (1 - beta1 ** self.adam_t)
            v_hat = self.adam_v[i] / (1 - beta2 ** self.adam_t)
            self.params[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def partial_fit(self, x, y, epochs=1):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        for row in x:
            self.count += 1
            delta = row - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (row - self.mean)
        x_std = self._standardize(x)
        if self.log_target:
            y = np.log(y)
        for value in y:
            self.target_count += 1
            delta = value - self.target_mean
            self.target_mean += delta / self.target_count
            self.target_m2 += delta * (value - self.target_mean)
        y_norm = ((y - self.target_mean) / self._target_std()).reshape(-1, 1)
        mse = 0.0
        for _ in range(max(1, epochs)):
            out, cache = self._forward(x_std)
            residual = out - y_norm
            mse = float(np.mean(residual ** 2))
            self._adam_step(self._backward(cache, 2.0 * residual / len(y_norm)))
        return mse

    def predict(self, x):
        out, _ = self._forward(self._standardize(np.atleast_2d(x)))
        decoded = out * self._target_std() + self.target_mean
        if self.log_target:
            decoded = np.exp(np.clip(decoded, -50.0, 50.0))
        return decoded.reshape(-1)


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatStepMatchesPerTensorOracle:
    @pytest.mark.parametrize("n_inputs, log_target", [
        (1, True), (5, False), (6, True)])
    def test_bit_identical_over_2000_mixed_batches(self, n_inputs,
                                                   log_target):
        rng = np.random.default_rng(100 + n_inputs)
        model = MLPRegressor(n_inputs, log_target=log_target, seed=n_inputs)
        oracle = _PerTensorMLP(n_inputs, log_target=log_target,
                               seed=n_inputs)
        losses, oracle_losses = [], []
        for _ in range(2000):
            rows = 1 if rng.random() < 0.5 else int(rng.integers(2, 33))
            x = rng.lognormal(0.0, 1.0, size=(rows, n_inputs))
            if n_inputs == 5:
                x[:, 4] = 3.0  # a zero-variance feature
            if log_target:
                y = 0.05 * x[:, 0] * rng.lognormal(0.0, 0.3, size=rows)
            else:
                y = rng.normal(x[:, 0], 1.0)
            epochs = int(rng.integers(1, 4))
            losses.append(model.partial_fit(x, y, epochs=epochs))
            oracle_losses.append(oracle.partial_fit(x, y, epochs=epochs))
        assert np.array_equal(losses, oracle_losses)
        assert np.array_equal(_flat(model._params), _flat(oracle.params))
        assert np.array_equal(model._adam_m, _flat(oracle.adam_m))
        assert np.array_equal(model._adam_v, _flat(oracle.adam_v))
        probe = rng.lognormal(0.0, 1.0, size=(64, n_inputs))
        assert np.array_equal(model.predict(probe), oracle.predict(probe))

    def test_tensors_are_views_of_the_flat_vectors(self):
        model = MLPRegressor(4, seed=0)
        model.partial_fit([[1.0, 2.0, 3.0, 4.0]] * 3, [1.0, 2.0, 3.0],
                          epochs=2)
        assert len(model._params) == len(model._grads) == 6
        for param, grad in zip(model._params, model._grads):
            assert np.shares_memory(param, model._param_vec)
            assert np.shares_memory(grad, model._grad_vec)
        assert sum(p.size for p in model._params) == model._param_vec.size
        assert np.array_equal(_flat(model._params), model._param_vec)
