"""Fully connected ReLU classifier with from-scratch forward and backward passes.

Parameters live in a ParamVector with layers W0, b0, W1, b1, ... where Wi has
shape (fan_out, fan_in) and bi has shape (fan_out,). The final affine layer
produces logits scored by a max-shifted softmax negative log-likelihood.
Batches are Datasets: the network reads the feature matrix X and labels y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import LossModel
from .params import ParamVector, _split_layers


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        for dim in (self.input_dim, self.num_classes, *self.hidden_dims):
            if dim < 1:
                raise ValueError(f"all dimensions must be >= 1, got {dim}")

    def layer_sizes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) for each affine layer, hidden layers then output."""
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Layer shapes W0, b0, W1, b1, ... in parameter order."""
        return tuple(s for out, inp in self.layer_sizes() for s in ((out, inp), (out,)))

    def param_template(self) -> ParamVector:
        names = (f"{kind}{i}" for i in range(len(self.layer_sizes())) for kind in "Wb")
        return ParamVector((n, np.zeros(s)) for n, s in zip(names, self.param_shapes()))


def init_params(spec: MlpSpec, rng: np.random.Generator | None = None) -> ParamVector:
    """Weights ~ normal(0, 2/fan_in) (He scaling), biases exactly zero."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    layers = []
    for i, (out, inp) in enumerate(spec.layer_sizes()):
        std = np.sqrt(2.0 / inp)
        layers.append((f"W{i}", rng.standard_normal((out, inp)) * std))
        layers.append((f"b{i}", np.zeros(out)))
    return ParamVector(layers)


def _affine_params(spec: MlpSpec, w: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
    if w.shapes != spec.param_shapes():
        raise ValueError("parameter shapes do not match the network spec")
    arrays = w.arrays
    return list(zip(arrays[0::2], arrays[1::2]))


def forward_batch(spec: MlpSpec, w: ParamVector, X: np.ndarray) -> np.ndarray:
    """Logits for a (k, input_dim) batch, one row per sample."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"expected (k, {spec.input_dim}) inputs, got {X.shape}")
    A = X
    params = _affine_params(spec, w)
    for W, b in params[:-1]:
        A = np.maximum(A @ W.T + b, 0.0)
    W, b = params[-1]
    return A @ W.T + b


def nll_softmax(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], computed with the max-shift stable form."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} classes")
    shift = float(np.max(logits))
    lse = shift + float(np.log(np.sum(np.exp(logits - shift))))
    return lse - float(logits[label])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def _check_batch(spec: MlpSpec, batch: Dataset) -> None:
    if len(batch) == 0:
        raise ValueError("empty batch")
    if batch.X.shape[1] != spec.input_dim:
        raise ValueError(f"expected input dimension {spec.input_dim}, got {batch.X.shape[1]}")


def loss_and_grad(spec: MlpSpec, w: ParamVector, batch: Dataset) -> tuple[float, ParamVector]:
    """Mean NLL over the batch and its exact reverse-mode gradient.

    Per-row contributions are accumulated in ascending row order into one
    flat gradient buffer, so repeated runs produce bit-identical results.
    """
    _check_batch(spec, batch)
    params = _affine_params(spec, w)
    n_layers = len(params)
    acc = np.zeros(w.size)
    acc_layers = _split_layers(acc, w.shapes)
    acc_W, acc_b = acc_layers[0::2], acc_layers[1::2]
    total = 0.0

    for x, label in zip(batch.X, batch.y):
        label = int(label)
        # Forward, caching activations and pre-activations.
        activations = [x]
        pre = []
        a = x
        for W, b in params[:-1]:
            s = W @ a + b
            pre.append(s)
            a = np.maximum(s, 0.0)
            activations.append(a)
        W, b = params[-1]
        logits = W @ a + b
        total += nll_softmax(logits, label)

        # Backward.
        dlogits = _softmax(logits)
        dlogits[label] -= 1.0
        delta = dlogits
        for i in range(n_layers - 1, -1, -1):
            acc_W[i] += np.outer(delta, activations[i])
            acc_b[i] += delta
            if i > 0:
                # ReLU derivative at 0 is taken as 0 (strict inequality).
                delta = (params[i][0].T @ delta) * (pre[i - 1] > 0.0)

    k = len(batch)
    return total / k, ParamVector.from_flat(w, acc / k)


def batch_nll(spec: MlpSpec, w: ParamVector, batch: Dataset) -> float:
    """Mean NLL over the batch via a vectorized forward pass."""
    _check_batch(spec, batch)
    logits = forward_batch(spec, w, batch.X)
    shift = logits.max(axis=1)
    lse = shift + np.log(np.sum(np.exp(logits - shift[:, None]), axis=1))
    per_sample = lse - logits[np.arange(len(batch)), batch.y]
    return float(np.mean(per_sample))


def predict(spec: MlpSpec, w: ParamVector, X: np.ndarray) -> np.ndarray:
    """Predicted class per row: argmax logit, ties to the lowest class index."""
    return np.argmax(forward_batch(spec, w, X), axis=1)


def accuracy_on(spec: MlpSpec, w: ParamVector, data: Dataset) -> float:
    """Fraction of rows whose predicted class matches the label."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(predict(spec, w, data.X) == data.y))


class MlpLossModel(LossModel):
    """LossModel adapter: mean NLL of the network over a Dataset."""

    true_risk = None
    label_sufficient = False

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        self.param_template = spec.param_template()

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        return batch_nll(self.spec, w, S)

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        return loss_and_grad(self.spec, w, S)

    def init_params(self, rng: np.random.Generator) -> ParamVector:
        return init_params(self.spec, rng)

    def accuracy(self, w: ParamVector, S: Dataset) -> float:
        return accuracy_on(self.spec, w, S)
