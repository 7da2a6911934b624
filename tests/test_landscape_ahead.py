"""The landscape histogram fills its directions on one worker thread while
the calling thread rescales and scores them (risk.digested_chunks). These
tests pin that this changes nothing a caller sees: the values and reference
equal a one-vector-per-direction oracle bit for bit and the digest is that
of the draw's recipe, every error surfaces with the type and message the
one-thread order gives, and the worker never outlives the call."""

import sys
import threading

import numpy as np
import pytest

from diamrisk import risk
from diamrisk.analysis import landscape_histogram
from diamrisk.data import Dataset, gen_gaussian_blobs
from diamrisk.losses import LossModel
from diamrisk.mlp import MlpLossModel, MlpSpec, init_params
from diamrisk.params import NonFiniteError, NormKind, ParamVector, axpy, sample_sphere
import oracles
from oracles import directions_digest

ONE_ROW = Dataset.from_labels([0])


def _mlp_problem(seed=0):
    spec = MlpSpec(input_dim=3, hidden_dims=(5, 4), num_classes=3)
    rng = np.random.default_rng(seed)
    centers = [init_params(spec, rng) for _ in range(2)]
    return MlpLossModel(spec), centers, gen_gaussian_blobs(3, 7, 3, 4.0, seed=seed)


def _oracle(model, centers, gamma, kind, n, S, rng):
    """One sample_sphere vector per direction, each scored at axpy(w, 1, u)."""
    digest = directions_digest(rng, n, gamma, kind, centers[0])
    dirs = [sample_sphere(centers[0], gamma, kind, rng) for _ in range(n)]
    values = [np.array([model.batch_risk(axpy(w, 1.0, u), S) for u in dirs]) for w in centers]
    return values, [model.batch_risk(w, S) for w in centers], digest


@pytest.mark.parametrize("kind", list(NormKind))
@pytest.mark.parametrize("n_centers", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 33])
def test_histogram_equals_the_one_vector_per_direction_oracle(n, n_centers, kind):
    model, centers, S = _mlp_problem()
    centers = centers[:n_centers]
    rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
    hists = landscape_histogram(model, centers, 0.8, kind, n, S, rng)
    values, references, digest = _oracle(model, centers, 0.8, kind, n, S, oracle_rng)
    for hist, expected, reference in zip(hists, values, references):
        assert hist.values.tobytes() == expected.tobytes()
        assert hist.reference == reference
        assert hist.direction_digest == digest
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class CountingLoss(LossModel):
    """Risk = sum of the parameters; raises RuntimeError on call raise_at
    (1-based), and records the live thread count and the caller's thread at
    every call."""

    def __init__(self, template, raise_at=None):
        self.param_template = template
        self.raise_at = raise_at
        self.calls = 0
        self.seen = []  # (threading.active_count(), called on the main thread)

    def batch_risk(self, w, S):
        self.calls += 1
        self.seen.append((threading.active_count(), threading.current_thread() is threading.main_thread()))
        if self.calls == self.raise_at:
            raise RuntimeError(f"scoring failed at call {self.calls}")
        return float(w.flat().sum())


def on_main():
    return threading.current_thread() is threading.main_thread()


def _error(call):
    with pytest.raises(BaseException) as info:
        call()
    return type(info.value), str(info.value)


def _serial_error(model, centers, gamma, kind, n, S, seed):
    """The error of drawing and scoring one chunk after the other, on the
    calling thread (oracles.direction_chunks, risk.score_chunks)."""

    def run():
        out = np.empty((len(centers), n))
        with np.errstate(over="ignore", invalid="ignore"):
            chunks = oracles.direction_chunks(centers[0], gamma, kind, n, np.random.default_rng(seed))
            for _ in risk.score_chunks(model, centers, chunks, S, out):
                pass

    return _error(run)


OVERFLOW_TEMPLATE = ParamVector([("l0", np.zeros(1)), ("l1", np.zeros(3))])


def test_a_draw_that_overflows_in_the_first_chunk_raises_before_any_score():
    # A one-value layer drawn below 1 in magnitude scales by 1e308 / |z| and overflows.
    baseline = threading.active_count()
    args = (1e308, NormKind.LAYERWISE_FROBENIUS, 9, ONE_ROW, 0)
    serial_model, model = CountingLoss(OVERFLOW_TEMPLATE), CountingLoss(OVERFLOW_TEMPLATE)
    expected = _serial_error(serial_model, [OVERFLOW_TEMPLATE], *args)
    got = _error(lambda: landscape_histogram(model, OVERFLOW_TEMPLATE, *args))
    assert got == expected == (NonFiniteError, "non-finite values in layer 'l0'")
    assert model.calls == serial_model.calls == 0
    assert threading.active_count() == baseline


def test_a_draw_error_in_a_later_chunk_surfaces_after_the_chunks_before_it(monkeypatch):
    model, centers, S = _mlp_problem()
    draws = []  # (rows, on the main thread) of every spied draw

    def third_call_fails(real):
        # sphere_rows(template, gamma, kind, k, ...) draws serially, scale_rows(template, gamma, kind, rows) pipelined.
        def spy(*args, **kwargs):
            draws.append((args[3] if isinstance(args[3], int) else len(args[3]), on_main()))
            if len(draws) == 3:
                raise NonFiniteError("non-finite values in layer 'b2'")
            return real(*args, **kwargs)

        return spy

    fills = []
    real_fill = risk.normal_rows
    monkeypatch.setattr(oracles, "sphere_rows", third_call_fails(oracles.sphere_rows))
    monkeypatch.setattr(risk, "scale_rows", third_call_fails(risk.scale_rows))
    monkeypatch.setattr(risk, "normal_rows", lambda *args, **kwargs: fills.append(on_main()) or real_fill(*args, **kwargs))
    baseline = threading.active_count()
    scored = []
    original = model.batch_risk
    monkeypatch.setattr(model, "batch_risk", lambda w, S: scored.append(1) or original(w, S))
    expected = _serial_error(model, centers, 0.8, NormKind.EUCLIDEAN, 33, S, 3)
    assert len(scored) == sum(rows for rows, _ in draws[:2]) * len(centers)
    scored[:], draws[:], fills[:] = [], [], []
    got = _error(lambda: landscape_histogram(model, centers, 0.8, NormKind.EUCLIDEAN, 33, S, 3))
    assert got == expected == (NonFiniteError, "non-finite values in layer 'b2'")
    # The first two chunks were scored around both centers, and nothing after them.
    assert len(scored) == sum(rows for rows, _ in draws[:2]) * len(centers) > 0
    assert [on_main for _, on_main in draws] == [True, True, True]  # every rescale ran on the caller
    assert fills and not any(fills)  # every fill ran on the worker
    assert threading.active_count() == baseline


@pytest.mark.parametrize("raise_at", [1, 4, 5, 17, 33])
@pytest.mark.parametrize("n_centers", [1, 2])
def test_a_scoring_error_keeps_its_type_and_message_and_stops_the_worker(raise_at, n_centers):
    template = ParamVector([("w", np.zeros(6))])
    centers = [template, ParamVector.from_flat(template, np.ones(6))][:n_centers]
    baseline = threading.active_count()
    args = (0.5, NormKind.EUCLIDEAN, 33, ONE_ROW, 1)
    expected = _serial_error(CountingLoss(template, raise_at), centers, *args)
    model = CountingLoss(template, raise_at)
    got = _error(lambda: landscape_histogram(model, centers, *args))
    assert got == expected == (RuntimeError, f"scoring failed at call {raise_at}")
    assert threading.active_count() == baseline


def test_scores_run_on_the_calling_thread_beside_at_most_one_worker():
    template = ParamVector([("a", np.zeros((3, 4))), ("b", np.zeros(5))])
    model = CountingLoss(template)
    baseline = threading.active_count()
    landscape_histogram(model, [template, template], 1.0, NormKind.SUP, 33, ONE_ROW, 2)
    assert model.calls == 2 * 33 + 2  # every direction around both centers, then both references
    assert all(on_main for _, on_main in model.seen)
    assert max(count for count, _ in model.seen) == baseline + 1  # the worker, and nothing more
    assert threading.active_count() == baseline


def _rows(chunks):
    """The rows of chunks stacked in order, checking that each starts where the last ended."""
    rows = []
    for start, U in chunks:
        assert start == len(rows)
        rows += list(U.copy())
    return np.array(rows)


@pytest.mark.parametrize("r", [1, 3, 8, 9, 16, 33])
@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_digested_chunks_are_direction_chunks_and_their_digest(r, gamma):
    model, centers, _ = _mlp_problem()
    kind = NormKind.LAYERWISE_FROBENIUS
    rng, serial_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = _rows(risk.digested_chunks(centers[0], gamma, kind, r, rng))
    expected = _rows(oracles.direction_chunks(centers[0], gamma, kind, r, serial_rng))
    assert got.shape == (r, centers[0].size) and got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == serial_rng.bit_generator.state


def test_digested_chunks_hold_under_frequent_thread_switches():
    model, centers, _ = _mlp_problem()
    kind = NormKind.LAYERWISE_FROBENIUS
    expected = _rows(oracles.direction_chunks(centers[0], 0.8, kind, 65, np.random.default_rng(9)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = _rows(risk.digested_chunks(centers[0], 0.8, kind, 65, np.random.default_rng(9)))
            assert got.tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("taken", [0, 1, 3])
def test_digested_chunks_join_their_worker_when_closed_early_or_dropped(taken):
    model, centers, _ = _mlp_problem()
    baseline = threading.active_count()
    for finish in ("close", "drop"):
        chunks = risk.digested_chunks(centers[0], 0.8, NormKind.EUCLIDEAN, 33, np.random.default_rng(0))
        for _ in range(taken):
            next(chunks)
        if finish == "close":
            chunks.close()
        else:
            del chunks  # collected at once: its finally joins the worker
        assert threading.active_count() == baseline


def test_digested_chunks_stop_when_the_callers_loop_raises():
    model, centers, _ = _mlp_problem()
    baseline = threading.active_count()
    with pytest.raises(KeyError):
        for start, _ in risk.digested_chunks(centers[0], 0.8, NormKind.SUP, 33, np.random.default_rng(0)):
            if start == 8:
                raise KeyError(start)
    assert threading.active_count() == baseline
