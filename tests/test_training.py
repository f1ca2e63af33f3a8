"""SGD trainer: gradient correctness, convergence on easy targets,
determinism, and sweep bookkeeping."""

import numpy as np
import pytest

from maxnet import (
    DistributionSpec,
    TrainConfig,
    TrainingDivergedError,
    best_cells,
    mc_l2_error,
    row_max,
    train,
    width_sweep,
)
from maxnet.training import init_params, loss_and_grad


def flatten(params):
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in params])


def unflatten(theta, params):
    out, pos = [], 0
    for W, b in params:
        w = theta[pos : pos + W.size].reshape(W.shape)
        pos += W.size
        bb = theta[pos : pos + b.size]
        pos += b.size
        out.append((w, bb))
    return out


def away_from_kinks(params, x, margin=1e-3) -> bool:
    h = x[None, :]
    for W, b in params[:-1]:
        z = h @ W.T + b
        if np.abs(z).min() < margin:
            return False
        h = np.maximum(z, 0.0)
    return True


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(
            d=5, arch=(7, 5), dist=DistributionSpec.uniform_box(5, seed=0), seed=0
        )
        checked = 0
        worst = 0.0
        while checked < 1000:
            params = init_params(cfg, rng)
            x = rng.random(5)
            if not away_from_kinks(params, x):
                continue
            checked += 1
            X, y = x[None, :], np.array([x.max()])
            _, grads = loss_and_grad(params, X, y)
            theta = flatten(params)
            g_ana = flatten(grads)
            i = int(rng.integers(theta.size))
            h = 1e-5
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = loss_and_grad(unflatten(tp, params), X, y)
            lm, _ = loss_and_grad(unflatten(tm, params), X, y)
            num = (lp - lm) / (2 * h)
            if abs(num) > 1e-8:
                worst = max(worst, abs(num - g_ana[i]) / max(abs(num), abs(g_ana[i])))
        assert worst <= 1e-5


class TestTrain:
    def test_d1_identity_target_converges(self):
        dist = DistributionSpec.uniform_box(1, seed=3)
        cfg = TrainConfig(d=1, arch=(2,), dist=dist, lr=0.1, steps=2000, seed=0)
        result = train(cfg)
        final = mc_l2_error(result.net, row_max, dist, 50_000, seed=99)
        assert final.mean_sq_error <= 1e-6

    def test_d2_pairwise_max_is_depth2_learnable(self):
        dist = DistributionSpec.uniform_box(2, seed=3)
        cfg = TrainConfig(d=2, arch=(4,), dist=dist, lr=0.1, steps=6000, seed=1)
        result = train(cfg)
        final = mc_l2_error(result.net, row_max, dist, 50_000, seed=99)
        assert final.mean_sq_error <= 1e-4

    def test_history_shape_and_finite_loss(self):
        dist = DistributionSpec.uniform_box(3, seed=0)
        for seed in range(10):
            cfg = TrainConfig(d=3, arch=(6,), dist=dist, steps=100, seed=seed)
            result = train(cfg)
            losses = [loss for _, loss in result.history]
            assert len(losses) == 100
            assert all(np.isfinite(l) and l >= 0 for l in losses)

    def test_deterministic(self):
        dist = DistributionSpec.uniform_box(3, seed=0)
        cfg = TrainConfig(d=3, arch=(5,), dist=dist, steps=200, seed=4)
        a, b = train(cfg), train(cfg)
        assert a.history == b.history
        for la, lb in zip(a.net.layers, b.net.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_divergence_raises_with_step(self):
        import warnings

        dist = DistributionSpec.uniform_box(4, seed=0)
        cfg = TrainConfig(d=4, arch=(8,), dist=dist, lr=1e9, steps=500, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError) as exc:
                train(cfg)
        assert 0 <= exc.value.step < 500

    def test_metadata_records_hyperparameters(self):
        dist = DistributionSpec.uniform_box(2, seed=0)
        cfg = TrainConfig(d=2, arch=(3,), dist=dist, steps=10, seed=0)
        net = train(cfg).net
        assert '"trained": "sgd"' in net.metadata
        assert '"lr"' in net.metadata

    def test_invalid_config(self):
        dist = DistributionSpec.uniform_box(2, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(d=2, arch=(), dist=dist)
        with pytest.raises(ValueError):
            TrainConfig(d=2, arch=(0,), dist=dist)
        with pytest.raises(ValueError):
            TrainConfig(d=3, arch=(2,), dist=dist)  # dim mismatch

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_lr_must_be_positive_and_finite(self, lr):
        dist = DistributionSpec.uniform_box(2, seed=0)
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(d=2, arch=(2,), dist=dist, lr=lr)


class TestWidthSweep:
    def test_rows_and_determinism(self):
        dist = DistributionSpec.uniform_box(2, seed=0)
        kwargs = dict(seeds=(0, 1), steps=60, heldout_n=2000)
        a = width_sweep(2, [2, 4], 2, dist, **kwargs)
        b = width_sweep(2, [2, 4], 2, dist, **kwargs)
        assert a == b
        assert len(a) == 4
        assert {c.width for c in a} == {2, 4}

    def test_zero_width_rejected(self):
        dist = DistributionSpec.uniform_box(2, seed=0)
        with pytest.raises(ValueError):
            width_sweep(2, [0], 2, dist)

    def test_sweep_survives_divergent_cell(self):
        import warnings

        dist = DistributionSpec.uniform_box(2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cells = width_sweep(2, [2], 2, dist, seeds=(0,), steps=100, lr=1e9,
                                heldout_n=1000)
        assert len(cells) == 1 and cells[0].status != "ok"

    def test_best_cells_picks_minimum(self):
        dist = DistributionSpec.uniform_box(2, seed=0)
        cells = width_sweep(2, [3], 2, dist, seeds=(0, 1, 2), steps=80,
                            heldout_n=2000)
        best = best_cells(cells)
        assert best[3].test_mse == min(c.test_mse for c in cells)
