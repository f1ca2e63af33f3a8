"""Minibatch SGD trainer for fixed-architecture ReLU networks.

Probes the depth/width tradeoffs empirically: plain SGD, constant learning
rate, ReLU subgradient 0 at 0, mean squared error against the exact
maximum. Everything is deterministic given the config seed. All
hyperparameters are artifact decisions and are recorded in the metadata of
the returned network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .network import AffineLayer, FeedForwardNet
from .sampling import DistributionSpec, ErrorEstimate, mc_l2_error, row_max

Params = list[tuple[np.ndarray, np.ndarray]]


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; ``step`` is the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    d: int
    arch: tuple[int, ...]
    dist: DistributionSpec
    lr: float = 0.05
    batch: int = 64
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "arch", tuple(self.arch))
        if self.d < 1 or not self.arch or any(w < 1 for w in self.arch):
            raise ValueError("d and every hidden width must be positive")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")
        if self.batch < 1 or self.steps < 1:
            raise ValueError("batch and steps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.dist.d != self.d:
            raise ValueError("distribution dimension must match d")


@dataclass(frozen=True)
class TrainResult:
    net: FeedForwardNet
    history: tuple[float, ...]  # the minibatch loss of each step, in order


def init_params(cfg: TrainConfig, rng: np.random.Generator) -> Params:
    widths = [cfg.d, *cfg.arch, 1]
    params: Params = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        # a product with 1/sqrt(fan_in): dividing by sqrt(fan_in) rounds differently
        W = rng.standard_normal((fan_out, fan_in)) * (1.0 / np.sqrt(fan_in))
        params.append((W, np.zeros(fan_out)))
    return params


def loss_and_grad(params: Params, X: np.ndarray, y: np.ndarray):
    """Minibatch MSE and its gradient for a ReLU MLP.

    Forward caches post-activations; backward uses the subgradient
    1[z > 0], i.e. 0 at the kink.
    """
    acts = [X]
    h = X
    for W, b in params[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
        acts.append(h)
    W_out, b_out = params[-1]
    pred = (h @ W_out.T + b_out)[:, 0]
    resid = pred - y
    n = X.shape[0]
    loss = float(resid @ resid) / n
    grads: Params = [None] * len(params)  # type: ignore[list-item]
    delta = (2.0 / n) * resid[:, None]
    grads[-1] = (delta.T @ acts[-1], delta.sum(axis=0))
    upstream = delta @ W_out
    for layer in range(len(params) - 2, -1, -1):
        upstream = upstream * (acts[layer + 1] > 0.0)
        grads[layer] = (upstream.T @ acts[layer], upstream.sum(axis=0))
        if layer:  # the first layer's inputs take no gradient
            upstream = upstream @ params[layer][0]
    return loss, grads


def params_to_net(cfg: TrainConfig, params: Params) -> FeedForwardNet:
    layers = [AffineLayer(W, b) for W, b in params[:-1]]
    W_out, b_out = params[-1]
    layers.append(AffineLayer(W_out, b_out, apply_activation=False))
    meta = {"trained": "sgd", **asdict(cfg)}
    return FeedForwardNet(
        input_dim=cfg.d,
        layers=tuple(layers),
        metadata=json.dumps(meta, default=str, sort_keys=True),
    )


def train(cfg: TrainConfig) -> TrainResult:
    """Run SGD against the exact maximum; returns the net and loss curve."""
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    history = []
    for step in range(cfg.steps):
        X = cfg.dist.sample(cfg.batch, rng)
        loss, grads = loss_and_grad(params, X, row_max(X))
        if not np.isfinite(loss):
            raise TrainingDivergedError(step)
        history.append(loss)
        params = [
            (W - cfg.lr * gW, b - cfg.lr * gb)
            for (W, b), (gW, gb) in zip(params, grads)
        ]
    return TrainResult(net=params_to_net(cfg, params), history=tuple(history))


@dataclass(frozen=True)
class SweepCell:
    depth: int
    width: int
    d: int
    seed: int
    final_train_mse: float
    test_mse: float
    ci_low: float
    ci_high: float
    status: str = "ok"


def width_sweep(
    depth: int,
    widths: list[int],
    dist: DistributionSpec,
    seeds: tuple[int, ...] = (0, 1, 2),
    lr: float = 0.05,
    batch: int = 64,
    steps: int = 2000,
    heldout_n: int = 10**5,
    heldout_seed: int = 10**9,
) -> list[SweepCell]:
    """Train every (width, seed) cell on inputs of dimension ``dist.d`` and
    score it on held-out Monte Carlo, whose stream ``heldout_seed`` roots.

    Training failures are recorded in the cell status; the sweep continues.
    final_train_mse is the mean minibatch loss over the last 100 steps.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2 (at least one hidden layer)")
    if any(w < 1 for w in widths):
        raise ValueError("widths must be positive")
    cells = []
    for width in widths:
        for seed in seeds:
            cfg = TrainConfig(
                d=dist.d,
                arch=(width,) * (depth - 1),
                dist=dist,
                lr=lr,
                batch=batch,
                steps=steps,
                seed=seed,
            )
            try:
                result = train(cfg)
            except TrainingDivergedError as exc:
                cells.append(
                    SweepCell(depth, width, dist.d, seed, float("nan"), float("nan"),
                              float("nan"), float("nan"), status=str(exc))
                )
                continue
            tail = result.history[-100:]
            est: ErrorEstimate = mc_l2_error(result.net, dist, heldout_n, seed=heldout_seed)
            cells.append(
                SweepCell(
                    depth=depth,
                    width=width,
                    d=dist.d,
                    seed=seed,
                    final_train_mse=float(np.mean(tail)),
                    test_mse=est.mean_sq_error,
                    ci_low=est.ci95[0],
                    ci_high=est.ci95[1],
                )
            )
    return cells


def best_cells(cells: list[SweepCell]) -> dict[int, SweepCell]:
    """Best (lowest held-out error) cell per width, ignoring failed cells."""
    best: dict[int, SweepCell] = {}
    for cell in cells:
        if cell.status != "ok":
            continue
        if cell.width not in best or cell.test_mse < best[cell.width].test_mse:
            best[cell.width] = cell
    return best
