import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diamrisk
from diamrisk.data import Dataset
from diamrisk.mlp import (
    MlpLossModel,
    MlpSpec,
    _forward,
    _nll_rows,
    accuracy_on,
    batch_nll,
    forward_batch,
    init_params,
    loss_and_grad,
)
from diamrisk.params import ParamVector, _split_layers
from oracles import gradient_check, nll_softmax

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SRC = str(Path(diamrisk.__file__).resolve().parents[1])


def random_rows(rng, m, d, num_classes):
    """m rows of standard-normal features, each drawn before its label."""
    rows = [(rng.standard_normal(d), int(rng.integers(0, num_classes))) for _ in range(m)]
    return Dataset(X=[x for x, _ in rows], y=[y for _, y in rows], num_classes=num_classes)


# Reference oracle: the per-row reverse-mode pass, one sample at a time with
# explicit activation caches. The matrix backward in loss_and_grad must agree
# with it to rounding.


def oracle_nll_softmax(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], computed with the max-shift stable form."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} classes")
    shift = float(np.max(logits))
    lse = shift + float(np.log(np.sum(np.exp(logits - shift))))
    return lse - float(logits[label])


def oracle_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def per_row_loss_and_grad(spec: MlpSpec, w: ParamVector, batch: Dataset) -> tuple[float, ParamVector]:
    """Mean NLL over the batch and its exact reverse-mode gradient.

    Per-row contributions are accumulated in ascending row order into one
    flat gradient buffer, so repeated runs produce bit-identical results.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    params = list(zip(w.arrays[0::2], w.arrays[1::2]))
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
        total += oracle_nll_softmax(logits, label)

        # Backward.
        dlogits = oracle_softmax(logits)
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


def test_init_params_deterministic():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    assert init_params(spec, np.random.default_rng(9)) == init_params(spec, np.random.default_rng(9))


def test_init_params_biases_zero_and_shapes():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    w = init_params(spec, np.random.default_rng(0))
    assert w.shapes == ((4, 3), (4,), (2, 4), (2,))
    assert np.all(w["b0"] == 0.0)
    assert np.all(w["b1"] == 0.0)


def test_init_params_he_scaling():
    spec = MlpSpec(input_dim=50, hidden_dims=(400,), num_classes=2)
    w = init_params(spec, np.random.default_rng(1))
    observed_var = float(np.var(w["W0"]))
    assert observed_var == pytest.approx(2.0 / 50, rel=0.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(input_dim=0, hidden_dims=(4,), num_classes=2)
    with pytest.raises(ValueError):
        MlpSpec(input_dim=3, hidden_dims=(0,), num_classes=2)


def test_forward_zero_weights_gives_zero_logits():
    spec = MlpSpec(input_dim=3, hidden_dims=(4, 5), num_classes=3)
    w = spec.param_template()
    assert np.array_equal(forward_batch(spec, w, np.array([[1.0, -2.0, 0.5]])), np.zeros((1, 3)))


def test_forward_single_affine_layer():
    # No hidden layers: logits are W x + b, so x = e_1 selects the first column.
    spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=2)
    W = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = np.array([0.5, -0.5])
    w = ParamVector([("W0", W), ("b0", b)])
    x = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(forward_batch(spec, w, x), W[:, 0] + b)


def naive_forward(spec, w, x):
    # Triple-loop oracle, no matrix ops.
    params = [(w[f"W{i}"], w[f"b{i}"]) for i in range(len(spec.layer_sizes()))]
    a = list(map(float, x))
    for li, (W, b) in enumerate(params):
        out = []
        for r in range(W.shape[0]):
            s = float(b[r])
            for c in range(W.shape[1]):
                s += float(W[r, c]) * a[c]
            out.append(s)
        if li < len(params) - 1:
            out = [v if v > 0 else 0.0 for v in out]
        a = out
    return np.array(a)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(2)
    spec = MlpSpec(input_dim=4, hidden_dims=(5, 3), num_classes=3)
    for _ in range(5):
        w = init_params(spec, rng)
        x = rng.standard_normal(4)
        logits = forward_batch(spec, w, x[None, :])[0]
        assert np.allclose(logits, naive_forward(spec, w, x), atol=1e-12)


# Reference oracle for the in-place forward pass: the out-of-place version,
# which builds x @ W.T + b and its ReLU as new arrays.


def oracle_forward(spec: MlpSpec, w: ParamVector, X) -> tuple[list[np.ndarray], np.ndarray]:
    """Inputs of each affine layer (X, then each hidden ReLU output) and the
    logits, for a (k, input_dim) batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"expected (k, {spec.input_dim}) inputs, got {X.shape}")
    if w.shapes != spec.param_shapes():
        raise ValueError("parameter shapes do not match the network spec")
    Ws, bs = w.arrays[0::2], w.arrays[1::2]
    inputs = [X]
    for W, b in zip(Ws[:-1], bs[:-1]):
        inputs.append(np.maximum(inputs[-1] @ W.T + b, 0.0))
    return inputs, inputs[-1] @ Ws[-1].T + bs[-1]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    input_dim=st.integers(1, 5),
    hidden_dims=st.lists(st.integers(1, 8), max_size=3).map(tuple),
    num_classes=st.integers(2, 4),
    k=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e4]),
)
@example(seed=0, input_dim=20, hidden_dims=(96, 96, 48), num_classes=3, k=30, scale=1.0)
def test_in_place_forward_matches_oracle_bitwise(seed, input_dim, hidden_dims, num_classes, k, scale):
    spec = MlpSpec(input_dim=input_dim, hidden_dims=hidden_dims, num_classes=num_classes)
    rng = np.random.default_rng(seed)
    # Nonzero biases, so the in-place bias add is exercised.
    w = ParamVector.from_flat(spec.param_template(), rng.standard_normal(spec.param_template().size))
    X = rng.standard_normal((k, input_dim)) * scale
    X_before = X.copy()
    inputs, logits = _forward(spec, w, X)
    ref_inputs, ref_logits = oracle_forward(spec, w, X)
    assert len(inputs) == len(ref_inputs) == len(hidden_dims) + 1
    for got, want in zip(inputs, ref_inputs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert logits.shape == ref_logits.shape and logits.tobytes() == ref_logits.tobytes()
    assert X.tobytes() == X_before.tobytes()  # the caller's inputs are not written
    # Into a scratch that holds stale values past the products' end, bit for bit the same.
    scratch = np.full(k * sum(out for out, _ in spec.layer_sizes()) + 7, np.nan)
    inputs, logits = _forward(spec, w, X, scratch)
    for got, want in zip(inputs, ref_inputs):
        assert got.tobytes() == want.tobytes()
    assert logits.tobytes() == ref_logits.tobytes()


def test_forward_only_passes_reuse_their_scratch_and_return_what_fresh_arrays_give():
    spec = MlpSpec(input_dim=4, hidden_dims=(6, 5), num_classes=3)
    rng = np.random.default_rng(3)
    w = ParamVector.from_flat(spec.param_template(), rng.standard_normal(spec.param_template().size))
    sets = [random_rows(rng, k, 4, 3) for k in (7, 30, 2, 30)]  # growing, shrinking and regrowing the scratch
    for S in sets + sets[::-1]:
        logits = _forward(spec, w, S.X)[1]  # fresh arrays
        assert batch_nll(spec, w, S) == float(np.mean(_nll_rows(logits, S.y)[0]))
        assert accuracy_on(spec, w, S) == float(np.mean(np.argmax(logits, axis=1) == S.y))
        held = forward_batch(spec, w, S.X)
        batch_nll(spec, w, sets[1])
        assert held.tobytes() == logits.tobytes()  # forward_batch's array is its own


MINOR_FAULTS_OF_FORWARD_ONLY_PASSES = """
import resource
import numpy as np
from diamrisk.data import gen_gaussian_blobs
from diamrisk.harness import default_experiment_dict, experiment_config_from_dict
from diamrisk.mlp import MlpLossModel, init_params
spec = experiment_config_from_dict(default_experiment_dict(0)).mlp_spec()
model, w = MlpLossModel(spec), init_params(spec, np.random.default_rng(0))
train = gen_gaussian_blobs(2, 300, spec.input_dim, 4.0, seed=0)
test = gen_gaussian_blobs(2, 600, spec.input_dim, 4.0, seed=1)
model.batch_risk(w, train), model.accuracy(w, test)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    model.batch_risk(w, train), model.accuracy(w, test)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="counts minor page faults through resource.getrusage")
def test_forward_only_passes_at_the_default_sizes_do_not_fault_their_products_back_in():
    # Fresh (300-600, width) products on every pass cost ~25,000 minor faults
    # here in a fresh interpreter, as glibc trims them and faults them back in.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", MINOR_FAULTS_OF_FORWARD_ONLY_PASSES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1000


def test_forward_shape_mismatch_errors():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    w = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward_batch(spec, w, np.zeros((1, 5)))
    with pytest.raises(ValueError):
        forward_batch(spec, w, np.zeros(3))  # a single row must still be a (1, d) batch
    other = MlpSpec(input_dim=5, hidden_dims=(4,), num_classes=2)
    with pytest.raises(ValueError):
        forward_batch(other, w, np.zeros((1, 5)))


def test_nll_softmax_uniform_logits():
    assert nll_softmax(np.zeros(3), 0) == pytest.approx(math.log(3), abs=1e-12)
    assert nll_softmax(np.full(5, 2.7), 4) == pytest.approx(math.log(5), abs=1e-12)


def test_nll_softmax_saturated_correct_class():
    assert nll_softmax(np.array([100.0, 0.0, 0.0]), 0) <= 1e-10


def test_nll_softmax_reference_value():
    # 60-digit Decimal evaluation of log(exp(1) + exp(2) + exp(3)) - 3.
    assert nll_softmax(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(
        0.40760596444438030448291990454507045147, abs=1e-13
    )


def test_nll_softmax_nonnegative_and_stable():
    rng = np.random.default_rng(3)
    for _ in range(100):
        logits = rng.standard_normal(4) * 500
        v = nll_softmax(logits, int(rng.integers(0, 4)))
        assert np.isfinite(v) and v >= 0.0


def test_nll_softmax_label_range():
    with pytest.raises(ValueError):
        nll_softmax(np.zeros(3), 3)


def test_loss_and_grad_zero_weights():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    w = spec.param_template()
    batch = Dataset(X=[[1.0, 2.0, 3.0]], y=[1], num_classes=3)
    loss, _ = loss_and_grad(spec, w, batch)
    assert loss == pytest.approx(math.log(3), abs=1e-12)


def test_loss_and_grad_duplication_invariance():
    spec = MlpSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    w = init_params(spec, np.random.default_rng(4))
    z = Dataset(X=[[0.4, -1.2]], y=[1])
    loss1, grad1 = loss_and_grad(spec, w, z)
    loss4, grad4 = loss_and_grad(spec, w, z[[0] * 4])
    assert loss4 == loss1
    assert grad4 == grad1
    loss3, grad3 = loss_and_grad(spec, w, z[[0] * 3])
    assert loss3 == pytest.approx(loss1, abs=1e-15)
    assert grad3.shapes == grad1.shapes
    assert np.allclose(grad3.flat(), grad1.flat(), rtol=1e-13, atol=1e-15)


def test_loss_and_grad_empty_batch_errors():
    spec = MlpSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    with pytest.raises(ValueError):
        loss_and_grad(spec, spec.param_template(), Dataset(X=np.empty((0, 2)), y=[]))


def test_gradient_matches_finite_differences():
    # Central differences with step 1e-5 on a 3-3-2 network, 5 random draws.
    spec = MlpSpec(input_dim=3, hidden_dims=(3,), num_classes=2)
    model = MlpLossModel(spec)
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(5):
        w = init_params(spec, rng)
        pairs.append((w, random_rows(rng, 1, 3, 2)))
    assert gradient_check(model, pairs, step=1e-5) <= 1e-5


def test_gradient_check_on_deeper_net():
    spec = MlpSpec(input_dim=4, hidden_dims=(6, 5), num_classes=3)
    model = MlpLossModel(spec)
    rng = np.random.default_rng(6)
    pairs = [(init_params(spec, rng), random_rows(rng, 1, 4, 3)) for _ in range(5)]
    assert gradient_check(model, pairs, step=1e-5) <= 1e-5


def test_batch_risk_matches_pointwise_mean():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    rng = np.random.default_rng(7)
    w = init_params(spec, rng)
    batch = random_rows(rng, 17, 3, 3)
    vectorized = model.batch_risk(w, batch)
    pointwise = sum(model.batch_risk(w, batch[i]) for i in range(len(batch))) / len(batch)
    assert vectorized == pytest.approx(pointwise, abs=1e-12)
    loss, _ = loss_and_grad(spec, w, batch)
    assert loss == pytest.approx(vectorized, abs=1e-12)


def test_batch_permutation_invariance():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    rng = np.random.default_rng(8)
    w = init_params(spec, rng)
    batch = random_rows(rng, 11, 3, 3)
    shuffled = batch[rng.permutation(len(batch))]
    a, _ = loss_and_grad(spec, w, batch)
    b, _ = loss_and_grad(spec, w, shuffled)
    assert a == pytest.approx(b, abs=1e-12)
    assert batch_nll(spec, w, batch) == pytest.approx(batch_nll(spec, w, shuffled), abs=1e-12)


def test_accuracy_ties_go_to_lowest_class():
    spec = MlpSpec(input_dim=2, hidden_dims=(), num_classes=3)
    w = spec.param_template()  # zero weights: all logits equal
    rows = Dataset(X=[[1.0, 1.0]] * 3, y=[0, 1, 2], num_classes=3)
    assert accuracy_on(spec, w, rows) == pytest.approx(1.0 / 3.0)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    input_dim=st.integers(1, 5),
    hidden_dims=st.lists(st.integers(1, 8), max_size=3).map(tuple),
    num_classes=st.integers(2, 4),
    k=st.integers(1, 40),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
)
@example(seed=0, input_dim=20, hidden_dims=(96, 96, 48), num_classes=3, k=30, scale=1.0)
def test_matrix_gradient_matches_per_row_oracle(seed, input_dim, hidden_dims, num_classes, k, scale):
    spec = MlpSpec(input_dim=input_dim, hidden_dims=hidden_dims, num_classes=num_classes)
    rng = np.random.default_rng(seed)
    w = init_params(spec, rng)
    batch = Dataset(
        X=rng.standard_normal((k, input_dim)) * scale,
        y=rng.integers(0, num_classes, k),
        num_classes=num_classes,
    )
    loss, grad = loss_and_grad(spec, w, batch)
    ref_loss, ref_grad = per_row_loss_and_grad(spec, w, batch)
    assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    assert loss == batch_nll(spec, w, batch)
    ref = ref_grad.flat()
    assert np.max(np.abs(grad.flat() - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    num_classes=st.integers(2, 5),
    scale=st.sampled_from([1e-3, 1.0, 100.0, 1e4]),
)
def test_nll_softmax_equals_one_row_batch_nll_bitwise(seed, num_classes, scale):
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=num_classes)
    rng = np.random.default_rng(seed)
    w = init_params(spec, rng)
    row = Dataset(
        X=rng.standard_normal((1, 3)) * scale,
        y=[int(rng.integers(0, num_classes))],
        num_classes=num_classes,
    )
    logits = forward_batch(spec, w, row.X)[0]
    assert nll_softmax(logits, int(row.y[0])) == batch_nll(spec, w, row)
