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
from .params import ParamVector


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int

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


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParamVector:
    """Weights ~ normal(0, 2/fan_in) (He scaling), biases exactly zero."""
    return ParamVector(
        (name, rng.standard_normal(a.shape) * np.sqrt(2.0 / a.shape[1]) if a.ndim == 2 else a)
        for name, a in spec.param_template()
    )


def _forward(spec: MlpSpec, w: ParamVector, X) -> tuple[list[np.ndarray], np.ndarray]:
    """Inputs of each affine layer (X, then each hidden ReLU output) and the
    logits, for a (k, input_dim) batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"expected (k, {spec.input_dim}) inputs, got {X.shape}")
    if w.shapes != spec.param_shapes():
        raise ValueError("parameter shapes do not match the network spec")
    Ws, bs = w.arrays[0::2], w.arrays[1::2]
    inputs, h = [], X
    for i, (W, b) in enumerate(zip(Ws, bs)):
        if i:  # ReLU of the previous layer's fresh product, in place
            np.maximum(h, 0.0, out=h)
        inputs.append(h)
        h = h @ W.T
        h += b
    return inputs, h


def forward_batch(spec: MlpSpec, w: ParamVector, X: np.ndarray) -> np.ndarray:
    """Logits for a (k, input_dim) batch, one row per sample."""
    return _forward(spec, w, X)[1]


def _nll_rows(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(logits)[y] in the max-shifted log-sum-exp form,
    and the softmax itself."""
    if len(y) == 0:
        raise ValueError("empty batch")
    shift = logits.max(axis=1)
    e = np.exp(logits - shift[:, None])
    total = np.sum(e, axis=1)
    lse = shift + np.log(total)
    return lse - logits[np.arange(len(y)), y], e / total[:, None]


def nll_softmax(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label] for one row of logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} classes")
    return float(_nll_rows(logits.reshape(1, -1), np.array([label]))[0][0])


def loss_and_grad(spec: MlpSpec, w: ParamVector, batch: Dataset) -> tuple[float, ParamVector]:
    """Mean NLL over the batch (equal to batch_nll) and its exact
    reverse-mode gradient, one matrix product per layer.

    The ReLU derivative at 0 is taken as 0. Results are deterministic for a
    given batch; reordering its rows changes only the last bits.
    """
    inputs, logits = _forward(spec, w, batch.X)
    nll, delta = _nll_rows(logits, batch.y)
    delta[np.arange(len(batch)), batch.y] -= 1.0
    parts = []  # dW_i, db_i for the layers seen so far, in parameter order
    for i in reversed(range(len(inputs))):
        parts[:0] = [(delta.T @ inputs[i]).ravel(), delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ w.arrays[2 * i]) * (inputs[i] > 0.0)
    return float(np.mean(nll)), ParamVector.from_flat(w, np.concatenate(parts) / len(batch))


def batch_nll(spec: MlpSpec, w: ParamVector, batch: Dataset) -> float:
    """Mean NLL over the batch via a vectorized forward pass."""
    _, logits = _forward(spec, w, batch.X)
    return float(np.mean(_nll_rows(logits, batch.y)[0]))


def accuracy_on(spec: MlpSpec, w: ParamVector, data: Dataset) -> float:
    """Fraction of rows whose predicted class (argmax logit, ties to the
    lowest class index) matches the label."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(np.argmax(forward_batch(spec, w, data.X), axis=1) == data.y))


class MlpLossModel(LossModel):
    """LossModel adapter: mean NLL of the network over a Dataset."""

    def __init__(self, spec: MlpSpec):
        self.spec = spec

    def batch_risk(self, w: ParamVector, S: Dataset) -> float:
        return batch_nll(self.spec, w, S)

    def batch_grad(self, w: ParamVector, S: Dataset) -> tuple[float, ParamVector]:
        return loss_and_grad(self.spec, w, S)

    def accuracy(self, w: ParamVector, S: Dataset) -> float:
        return accuracy_on(self.spec, w, S)
