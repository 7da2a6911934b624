"""A DRM run fills its sampling events' rows on one worker thread that lives
for the whole run (risk.RowRing), ahead of each event, while the calling
thread rescales and scores them. These tests pin that this changes nothing
a caller sees: the final weights and trace equal those of the serial draws
bit for bit, however often the threads switch, and the worker is joined on
every way the run can end, while an ERM run starts no thread at all."""

import sys
import threading

import numpy as np
import pytest

from diamrisk import optimizer
from diamrisk.data import gen_gaussian_blobs
from diamrisk.mlp import MlpLossModel, MlpSpec, init_params
from diamrisk.optimizer import DivergenceError, DrmConfig, sgd_drm_run, sgd_erm_run
from oracles import SerialRows

SPEC = MlpSpec(input_dim=3, hidden_dims=(5, 4), num_classes=3)
DATA = gen_gaussian_blobs(3, 8, 3, 4.0, seed=1)


def _config(**overrides):
    base = dict(gamma=0.5, T=24, batch_size=4, lr_schedule=((24, 0.1),), r=4, q=1, sample_every=5, seed=2)
    return DrmConfig(**{**base, **overrides})


def _run(cfg):
    w, trace = sgd_drm_run(MlpLossModel(SPEC), DATA, DATA, cfg, init_params(SPEC, np.random.default_rng(0)))
    return w.flat().tobytes(), trace.rows, trace.batch_digest


CASES = [{"r": r, "sample_every": k} for r in (1, 3, 4, 7, 20) for k in (1, 5)]
CASES += [{"gamma": 0.0, "r": 7}, {"q": 3, "p": 0.4, "r": 7}]


@pytest.mark.parametrize("overrides", CASES, ids=lambda o: "-".join(f"{k}{v}" for k, v in o.items()))
def test_a_drm_run_equals_its_serial_draws_under_frequent_thread_switches(overrides, monkeypatch):
    cfg = _config(**overrides)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "RowRing", SerialRows)
        expected = _run(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert _run(cfg) == expected
    finally:
        sys.setswitchinterval(interval)


def _raise(exc):
    raise exc


def _ends_on_the_baseline(run, cfg, method="batch_grad", k=0, fail=None, expected=None):
    """Run with model.<method> replaced on its call k (1-based) by fail();
    expected is the error the run must end with, if any. Checks that a DRM
    run had its worker, and nothing more, beside the caller at every call,
    that an ERM run had none, and that the thread count ends at the baseline."""
    model = MlpLossModel(SPEC)
    real, seen = getattr(model, method), []

    def spy(*args):
        seen.append(threading.active_count())
        return fail() if len(seen) == k else real(*args)

    setattr(model, method, spy)
    baseline = threading.active_count()
    w0 = init_params(SPEC, np.random.default_rng(0))
    if expected is None:
        run(model, DATA, DATA, cfg, w0)
    else:
        with pytest.raises(expected):
            run(model, DATA, DATA, cfg, w0)
    assert set(seen) == {baseline + (run is sgd_drm_run)}
    assert threading.active_count() == baseline


@pytest.mark.parametrize("run", [sgd_drm_run, sgd_erm_run])
def test_the_worker_is_joined_when_the_run_ends_and_erm_starts_none(run):
    _ends_on_the_baseline(run, _config())


@pytest.mark.parametrize("k", [1, 2, 7, 24])
def test_the_worker_is_joined_when_the_run_diverges(k):
    _ends_on_the_baseline(sgd_drm_run, _config(), "batch_grad", k, lambda: (float("nan"), None), DivergenceError)


@pytest.mark.parametrize("k", [1, 2, 7, 24])
def test_the_worker_is_joined_on_a_keyboard_interrupt_in_a_gradient(k):
    _ends_on_the_baseline(sgd_drm_run, _config(), "batch_grad", k, lambda: _raise(KeyboardInterrupt()),
                          KeyboardInterrupt)


@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_the_worker_is_joined_on_an_error_in_a_risk(k):
    _ends_on_the_baseline(sgd_drm_run, _config(), "batch_risk", k, lambda: _raise(ValueError("risk")), ValueError)
