import dataclasses
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamrisk import mlp, optimizer, risk
from diamrisk.data import Dataset, flip_labels, gen_gaussian_blobs
from diamrisk.harness import build_datasets, default_experiment_dict, experiment_config_from_dict
from diamrisk.losses import LossModel, TentLoss
from diamrisk.mlp import MlpLossModel, MlpSpec, init_params
from diamrisk.optimizer import (
    DivergenceError,
    DrmConfig,
    TraceRow,
    constant_then_drop_schedule,
    draw_worst,
    make_batch_indices,
    select_worst,
    sgd_drm_run,
    sgd_erm_run,
    simple_sgd_drm_run,
    simple_sgd_drm_step,
)
from diamrisk.params import Box, NonFiniteError, NormKind, ParamVector, sample_sphere, sphere_rows
from diamrisk.risk import neighborhood_risks
from oracles import QuadraticLoss, quadratic_data, zeros_like


class ConstantLoss(LossModel):
    def __init__(self):
        self.param_template = ParamVector([("w", np.zeros(2))])

    def batch_risk(self, w, S):
        return 1.5

    def batch_grad(self, w, S):
        return 1.5, zeros_like(self.param_template)


def quad_config(**overrides):
    base = dict(
        gamma=0.5,
        T=20,
        batch_size=4,
        lr_schedule=((20, 0.05),),
        r=4,
        q=1,
        sample_every=1,
        norm_kind=NormKind.EUCLIDEAN,
        seed=3,
    )
    base.update(overrides)
    return DrmConfig(**base)


def quad_data(rng, m=12):
    rows = [(rng.uniform(0.5, 1.5), float(rng.standard_normal())) for _ in range(m)]
    return quadratic_data([[a] for a, _ in rows], [b for _, b in rows], num_classes=1)


def test_config_validation():
    # A config checks itself when it is built.
    with pytest.raises(ValueError):
        quad_config(gamma=-1.0)
    with pytest.raises(ValueError):
        quad_config(r=0)
    with pytest.raises(ValueError):
        quad_config(q=0)
    with pytest.raises(ValueError):
        quad_config(sample_every=0)
    with pytest.raises(ValueError):
        quad_config(p=1.5)
    with pytest.raises(ValueError):
        quad_config(lr_schedule=((10, 0.1),))  # does not cover T=20
    with pytest.raises(ValueError):
        quad_config(lr_schedule=((20, -0.1),))
    with pytest.raises(ValueError):
        dataclasses.replace(quad_config(), T=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        quad_config().T = 40


def test_config_feasible_set_defaults_to_the_whole_space():
    assert quad_config().feasible == Box()


def test_lr_schedule_lookup():
    cfg = quad_config(T=10, lr_schedule=((4, 0.1), (10, 0.01)))
    assert [cfg.lr_at(t) for t in range(10)] == [0.1] * 4 + [0.01] * 6


def test_constant_then_drop_schedule_covers_T():
    sched = constant_then_drop_schedule(600, 0.01, 0.001, 1.0 / 3.0)
    cfg = quad_config(T=600, lr_schedule=sched)
    assert cfg.lr_at(0) == 0.01
    assert cfg.lr_at(599) == 0.001


def test_make_batch_indices_partition_and_determinism():
    batches = make_batch_indices(11, 4, epoch_seed=[7, 1, 0])
    assert [len(b) for b in batches] == [4, 4, 3]  # last short batch kept
    assert sorted(np.concatenate(batches).tolist()) == list(range(11))  # disjoint union
    again = make_batch_indices(11, 4, epoch_seed=[7, 1, 0])
    assert [b.tolist() for b in batches] == [b.tolist() for b in again]
    other = make_batch_indices(11, 4, epoch_seed=[7, 1, 1])
    assert [b.tolist() for b in batches] != [b.tolist() for b in other]


def test_make_batch_indices_large_batch_is_single_shuffled_batch():
    batches = make_batch_indices(5, 100, epoch_seed=0)
    assert len(batches) == 1 and sorted(batches[0].tolist()) == list(range(5))


def test_select_worst_singleton_and_ties():
    model = ConstantLoss()
    w = ParamVector([("w", np.zeros(2))])
    batch = Dataset.from_labels([0])
    u = np.array([1.0, 0.0])
    idx, chosen, _ = select_worst(model, w, batch, [u])
    assert idx == 0 and chosen is u
    candidates = [np.array([float(i), 0.0]) for i in range(5)]
    idx, _, _ = select_worst(model, w, batch, candidates)
    assert idx == 0  # constant loss: tie broken by lowest index
    with pytest.raises(ValueError):
        select_worst(model, w, batch, [])


def test_select_worst_quadratic_hand_values():
    quad = QuadraticLoss(dim=1)
    batch = quadratic_data([[1.0]], [0.0])
    w = quad.wrap(0.0)
    minus_one = quad.wrap(-1.0)
    plus_half = quad.wrap(0.5)
    idx, _, value = select_worst(quad, w, batch, [minus_one.flat(), plus_half.flat()])
    assert idx == 0
    assert value == pytest.approx(0.5)  # 0.5 * (-1)^2 beats 0.5 * 0.5^2 = 0.125


def test_simple_step_gamma_zero_matches_plain_sgd():
    quad = QuadraticLoss(dim=1)
    batch = quadratic_data([[1.0]], [0.0])
    cfg = quad_config(gamma=0.0, T=1, lr_schedule=((1, 0.1),))
    w = quad.wrap(1.0)
    stepped = simple_sgd_drm_step(quad, w, batch, cfg, np.random.default_rng(0), t=0)
    # Plain SGD: w - lr * grad = 1 - 0.1 * 1 = 0.9.
    assert float(stepped.flat()[0]) == pytest.approx(0.9, abs=1e-15)


def test_simple_step_constant_loss_keeps_w():
    model = ConstantLoss()
    cfg = quad_config(gamma=0.3, T=1, lr_schedule=((1, 0.1),))
    w = ParamVector([("w", np.array([0.7, -0.2]))])
    stepped = simple_sgd_drm_step(model, w, Dataset.from_labels([0]), cfg, np.random.default_rng(0))
    assert stepped == w


def test_simple_step_one_step_hand_computation():
    # w = 1, lr = 0.1, gamma = 0.5, single sample a = 1, b = 0. The worst
    # perturbation is +gamma (risk 1.125 vs 0.125), so the gradient is taken
    # at 1.5 and w' = 1 - 0.1 * 1.5 = 0.85.
    quad = QuadraticLoss(dim=1)
    batch = quadratic_data([[1.0]], [0.0])
    cfg = quad_config(gamma=0.5, T=1, lr_schedule=((1, 0.1),), r=16)
    w = quad.wrap(1.0)
    stepped = simple_sgd_drm_step(quad, w, batch, cfg, np.random.default_rng(5))
    assert float(stepped.flat()[0]) == pytest.approx(0.85, rel=1e-9)


def test_iterates_stay_feasible():
    rng = np.random.default_rng(2)
    quad = QuadraticLoss(dim=1)
    data = quad_data(rng)
    box = Box(-0.05, 0.05)
    cfg = quad_config(feasible=box, T=25, lr_schedule=((25, 0.05),))
    w = quad.wrap(0.04)
    loop_rng = np.random.default_rng(9)
    for t in range(25):
        w = simple_sgd_drm_step(quad, w, data, cfg, loop_rng, t=t)
        assert box.contains(w)
    final, _ = sgd_drm_run(quad, data, None, cfg, w0=quad.wrap(0.0))
    assert box.contains(final)
    final, _ = sgd_erm_run(quad, data, None, cfg, w0=quad.wrap(0.0))
    assert box.contains(final)


def test_erm_zero_gradient_keeps_w_constant():
    model = ConstantLoss()
    data = Dataset.from_labels([0] * 6, num_classes=1)
    cfg = quad_config(T=10, batch_size=3)
    w0 = ParamVector([("w", np.array([0.3, 0.4]))])
    final, trace = sgd_erm_run(model, data, None, cfg, w0=w0)
    assert final == w0
    assert len([row for row in trace.rows if row.event != "epoch"]) == 10


def test_erm_full_batch_contraction_matches_recursion():
    rng = np.random.default_rng(3)
    quad = QuadraticLoss(dim=1)
    data = quad_data(rng, m=8)
    lr = 0.05
    T = 40
    cfg = quad_config(gamma=0.0, T=T, batch_size=8, lr_schedule=((T, lr),), seed=1)
    w0 = quad.wrap(2.0)
    final, _ = sgd_erm_run(quad, data, None, cfg, w0=w0)
    a, b = data.X[:, 0], data.X[:, -1]
    w = 2.0
    for _ in range(T):
        w = w - lr * (np.mean(a * a) * w - np.mean(a * b))
    assert float(final.flat()[0]) == pytest.approx(w, rel=1e-10)


def test_gamma_zero_reduces_drm_to_erm_bitwise():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    train = gen_gaussian_blobs(3, 18, 3, 4.0, seed=4)
    test = gen_gaussian_blobs(3, 12, 3, 4.0, seed=5)
    cfg = DrmConfig(
        gamma=0.0,
        T=12,
        batch_size=5,
        lr_schedule=((12, 0.05),),
        r=3,
        q=2,
        sample_every=5,
        norm_kind=NormKind.LAYERWISE_FROBENIUS,
        seed=11,
    )
    w0 = init_params(spec, np.random.default_rng(0))
    final_erm, trace_erm = sgd_erm_run(model, train, test, cfg, w0=w0)
    final_drm, trace_drm = sgd_drm_run(model, train, test, cfg, w0=w0)
    assert trace_erm.to_csv_text() == trace_drm.to_csv_text()
    assert final_erm == final_drm
    # Also under a probabilistic sampling schedule (shared coin stream).
    cfg_p = DrmConfig(**{**cfg.__dict__, "p": 0.4})
    _, trace_erm_p = sgd_erm_run(model, train, test, cfg_p, w0=w0)
    _, trace_drm_p = sgd_drm_run(model, train, test, cfg_p, w0=w0)
    assert trace_erm_p.to_csv_text() == trace_drm_p.to_csv_text()


def test_queue_one_sampling_every_iteration_reduces_to_simple_bitwise():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    model = MlpLossModel(spec)
    train = gen_gaussian_blobs(2, 15, 3, 4.0, seed=6)
    test = gen_gaussian_blobs(2, 10, 3, 4.0, seed=7)
    cfg = DrmConfig(
        gamma=1.0,
        T=14,
        batch_size=4,
        lr_schedule=((14, 0.05),),
        r=5,
        q=1,
        sample_every=1,
        norm_kind=NormKind.LAYERWISE_FROBENIUS,
        seed=13,
    )
    w0 = init_params(spec, np.random.default_rng(1))
    # The simple loop ignores the queue capacity and sampling schedule.
    other_schedule = DrmConfig(**{**cfg.__dict__, "q": 3, "p": 0.4})
    final_simple, trace_simple = simple_sgd_drm_run(model, train, test, other_schedule, w0=w0)
    final_drm, trace_drm = sgd_drm_run(model, train, test, cfg, w0=w0)
    assert trace_simple.to_csv_text() == trace_drm.to_csv_text()
    assert final_simple == final_drm


def test_queue_law_capacity_and_fifo_during_run(monkeypatch):
    rng = np.random.default_rng(5)
    quad = QuadraticLoss(dim=1)
    data = quad_data(rng, m=16)
    cfg = quad_config(T=200, q=3, sample_every=2, batch_size=8, lr_schedule=((200, 0.01),))
    queues = []  # the queue after each row joins it
    selections = []  # the candidates of each select_worst call

    class RecordingDeque(deque):
        def append(self, row):
            super().append(row)
            queues.append([u.tobytes() for u in self])

    def recording_select_worst(model, w, batch, candidates):
        selections.append([u.tobytes() for u in candidates])
        return select_worst(model, w, batch, candidates)

    monkeypatch.setattr(optimizer, "deque", RecordingDeque)
    monkeypatch.setattr(optimizer, "select_worst", recording_select_worst)
    sgd_drm_run(quad, data, None, cfg, w0=quad.wrap(0.0))
    assert len(queues) == 100  # one row per sampling event, at every even t
    assert max(len(entries) for entries in queues) == 3
    evictions = 0
    for prev, cur in zip(queues, queues[1:]):
        if len(cur) > len(prev):  # grew: old entries keep their positions
            assert cur[:-1] == prev
        else:  # evicted: oldest dropped, newcomer appended
            assert cur[:-1] == prev[1:]
            evictions += 1
    assert evictions > 0
    # Iteration t steps from the queue as event t - t % 2 left it; a one-row
    # queue leaves nothing to choose, and any longer one is selected from whole.
    expected = [queues[t // 2] for t in range(200) if len(queues[t // 2]) > 1]
    assert len(expected) == 198
    assert selections == expected


def test_sampling_events_follow_every_k_schedule():
    rng = np.random.default_rng(6)
    quad = QuadraticLoss(dim=1)
    data = quad_data(rng, m=8)
    cfg = quad_config(T=23, sample_every=5, batch_size=4, lr_schedule=((23, 0.01),))
    _, trace = sgd_drm_run(quad, data, None, cfg, w0=quad.wrap(0.1))
    events = [row.iter for row in trace.rows if row.event == "sample"]
    assert events == [0, 5, 10, 15, 20]


def test_trace_shape_and_monotonicity(monkeypatch):
    monkeypatch.setattr(optimizer, "_EVAL_EVERY", 1)  # every epoch row carries an estimate
    rng = np.random.default_rng(7)
    quad = QuadraticLoss(dim=1)
    data = quad_data(rng, m=10)
    cfg = quad_config(T=17, batch_size=4, sample_every=3, lr_schedule=((17, 0.01),))
    _, trace = sgd_drm_run(quad, data, None, cfg, w0=quad.wrap(0.0))
    iters = [row.iter for row in trace.rows if row.event != "epoch"]
    assert iters == list(range(17))
    assert [e.epoch for e in trace.epochs] == list(range(len(trace.epochs)))
    header, *lines = trace.to_csv_text().splitlines()
    assert header == ",".join(TraceRow._fields) == (
        "iter,epoch,event,lr,batch_risk,perturbed_batch_risk,train_risk,test_acc,diam_risk_est"
    )
    # 17 iteration rows plus one epoch row per pass (3 batches/epoch); the
    # last pass stops mid-epoch at T.
    rows = [line.split(",") for line in lines]
    assert len(rows) == 17 + 6
    assert {row[2] for row in rows} == {"sample", "", "epoch"}
    assert [row[0] for row in rows if row[2] == "epoch"] == ["2", "5", "8", "11", "14", "16"]
    for prev, row in zip(rows, rows[1:]):
        if row[2] == "epoch":  # right after its epoch's last iteration row
            assert prev[2] != "epoch" and prev[:2] == row[:2]
    for row in rows:
        if row[2] == "epoch":  # no test set: test_acc is blank too
            assert row[3:6] == ["", "", ""] and row[6] and row[7] == "" and row[8]
        else:
            assert all(row[3:6]) and row[6:] == ["", "", ""]


def test_descent_sanity_on_convex_fixture():
    # Full-batch steps with a small rate: the grid-exact neighborhood sup of
    # the 1-D quadratic never increases along the trajectory (1e-9 slack).
    from diamrisk.risk import diametrical_risk_grid_1d

    rng = np.random.default_rng(30)
    quad = QuadraticLoss(dim=1)
    data = quad_data(rng, m=6)
    gamma = 0.4
    cfg = quad_config(
        gamma=gamma, T=1, batch_size=6, lr_schedule=((1, 0.01),), r=8
    )
    w = quad.wrap(2.0)
    step_rng = np.random.default_rng(31)
    values = []
    for t in range(60):
        values.append(
            diametrical_risk_grid_1d(quad, float(w.flat()[0]), gamma, data, grid_points=257)
        )
        w = simple_sgd_drm_step(quad, w, data, cfg, step_rng, t=0)
    for before, after in zip(values, values[1:]):
        assert after <= before + 1e-9


def test_invalid_config_raises_before_running():
    quad = QuadraticLoss(dim=1)
    data = quad_data(np.random.default_rng(8), m=4)
    # The schedule does not cover T: building the config raises, so no loop starts.
    with pytest.raises(ValueError, match="covers"):
        sgd_drm_run(quad, data, None, quad_config(T=10, lr_schedule=((5, 0.1),)), w0=quad.wrap(0.0))


def test_deterministic_traces_given_seed():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    model = MlpLossModel(spec)
    train = gen_gaussian_blobs(2, 12, 3, 4.0, seed=9)
    cfg = DrmConfig(
        gamma=0.5, T=9, batch_size=4, lr_schedule=((9, 0.05),), r=3, seed=21
    )
    w0 = init_params(spec, np.random.default_rng(21))
    _, t1 = sgd_drm_run(model, train, None, cfg, w0=w0)
    _, t2 = sgd_drm_run(model, train, None, cfg, w0=w0)
    assert t1.to_csv_text() == t2.to_csv_text()
    assert t1.batch_digest == t2.batch_digest


@pytest.mark.parametrize(
    "run, overrides",
    [(sgd_erm_run, {}), (sgd_drm_run, {"q": 3, "p": 0.3}), (simple_sgd_drm_run, {})],
    ids=["erm", "drm_queued", "drm_simple"],
)
def test_epoch_estimate_is_max_over_one_direction_set_per_run(run, overrides, monkeypatch):
    # Oracle: r directions drawn once from stream [seed, 4] on the template;
    # epoch e's estimate is the max risk over them at that epoch's iterate,
    # which a rerun with T cut to the epoch's end returns as its final w.
    # Every loop is checked against the one set, so ERM and DRM share it.
    # Every epoch is scored (_EVAL_EVERY = 1), and r = 6 spans two chunks.
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    train = gen_gaussian_blobs(3, 18, 3, 4.0, seed=14)
    test = gen_gaussian_blobs(3, 12, 3, 4.0, seed=15)
    cfg = DrmConfig(
        gamma=0.7,
        T=15,
        batch_size=5,
        lr_schedule=((15, 0.05),),
        r=6,
        norm_kind=NormKind.LAYERWISE_FROBENIUS,
        seed=17,
        **overrides,
    )
    w0 = init_params(spec, np.random.default_rng(2))
    rng = np.random.default_rng([cfg.seed, 4])
    directions = np.array([sample_sphere(w0, cfg.gamma, cfg.norm_kind, rng).flat() for _ in range(cfg.r)])

    evaluated = []  # chunks of directions scored on the full train set, in order

    def spy(model_, w, dirs, S):
        if S is train:
            evaluated.append(np.array(dirs))
        return neighborhood_risks(model_, w, dirs, S)

    monkeypatch.setattr(optimizer, "_EVAL_EVERY", 1)
    monkeypatch.setattr("diamrisk.risk.neighborhood_risks", spy)
    _, trace = run(model, train, test, cfg, w0=w0)
    assert [e.iter for e in trace.epochs] == [3, 7, 11, 14]
    assert max(len(U) for U in evaluated) == risk._CHUNK < cfg.r
    assert np.concatenate(evaluated).tobytes() == np.tile(directions, (len(trace.epochs), 1)).tobytes()
    monkeypatch.undo()
    for e in trace.epochs:
        w_e, _ = run(model, train, test, DrmConfig(**{**cfg.__dict__, "T": e.iter + 1}), w0=w0)
        assert e.diam_risk_est == float(neighborhood_risks(model, w_e, directions, train).max())


@pytest.mark.parametrize("run, overrides", [(sgd_erm_run, {}), (sgd_drm_run, {"q": 3, "p": 0.3})],
                         ids=["erm", "drm_queued"])
def test_estimate_is_scored_at_epoch_0_on_the_cadence_and_at_the_last_epoch(run, overrides, monkeypatch):
    # 12 rows in batches of 4: 3 iterations an epoch, and T = 23 ends in a
    # short epoch 7. A cadence of 3 scores epochs 0, 2, 5 and 7 (the last).
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    train = gen_gaussian_blobs(3, 12, 3, 4.0, seed=14)
    test = gen_gaussian_blobs(3, 9, 3, 4.0, seed=15)
    cfg = DrmConfig(gamma=0.7, T=23, batch_size=4, lr_schedule=((23, 0.05),), r=6, seed=17, **overrides)
    w0 = init_params(spec, np.random.default_rng(2))
    monkeypatch.setattr(optimizer, "_EVAL_EVERY", 1)
    final_1, every = run(model, train, test, cfg, w0=w0)
    monkeypatch.setattr(optimizer, "_EVAL_EVERY", 3)
    final_3, cadenced = run(model, train, test, cfg, w0=w0)
    scored = [e.epoch for e in cadenced.epochs if e.diam_risk_est is not None]
    assert [e.epoch for e in cadenced.epochs] == list(range(8)) and scored == [0, 2, 5, 7]
    assert all(e.diam_risk_est is not None for e in every.epochs)
    blanked = [row._replace(diam_risk_est=None) if row.event == "epoch" and row.epoch not in scored else row
               for row in every.rows]
    assert cadenced.rows == blanked
    assert final_1 == final_3 and cadenced.batch_digest == every.batch_digest


def test_one_epoch_at_r_1000_holds_no_direction_set():
    # The default net at r = 1000: the whole set of directions would take
    # 1000 x 129 KB = 123 MiB; streamed, a run holds one 4-row chunk at a time.
    cfg = experiment_config_from_dict(default_experiment_dict(0))
    train, test = build_datasets(cfg)
    model = MlpLossModel(cfg.mlp_spec())
    w0 = init_params(cfg.mlp_spec(), np.random.default_rng(0))
    drm = dataclasses.replace(cfg.drm, r=1000, T=len(train) // cfg.drm.batch_size)
    tracemalloc.start()
    try:
        _, trace = sgd_drm_run(model, train, test, drm, w0=w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.epochs) == 1 and trace.epochs[0].diam_risk_est is not None
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("run", [sgd_erm_run, sgd_drm_run])
def test_non_finite_train_risk_at_epoch_end_raises_divergence(run):
    # Iteration 2 is the last step of epoch 0 and the only one at lr 1e200:
    # the step is finite, and the first risk after it is the epoch-end train risk.
    data = quad_data(np.random.default_rng(11))
    cfg = quad_config(T=6, lr_schedule=((2, 0.05), (3, 1e200), (6, 0.05)))
    with pytest.raises(DivergenceError, match="non-finite train risk") as info:
        run(QuadraticLoss(dim=1), data, None, cfg, w0=ParamVector([("w", np.ones(1))]))
    err = info.value
    assert (err.iteration, err.epoch, err.lr) == (2, 0, 1e200)
    assert np.isfinite(err.batch_risk)


def test_non_finite_perturbed_risk_raises_divergence():
    # Radius 1e200: the risk at w is finite, at every w + u it overflows.
    data = quad_data(np.random.default_rng(11))
    with pytest.raises(DivergenceError, match="non-finite perturbed batch risk") as info:
        sgd_drm_run(QuadraticLoss(dim=1), data, None, quad_config(gamma=1e200), w0=ParamVector([("w", np.ones(1))]))
    assert (info.value.iteration, info.value.epoch) == (0, 0)
    assert np.isfinite(info.value.batch_risk)


def test_non_finite_epoch_estimate_raises_divergence_in_the_first_epoch():
    # ERM steps at w alone, so radius 1e200 first shows in the epoch-end
    # sampled estimate; the run stops there, not after its last epoch.
    data = quad_data(np.random.default_rng(11))
    with pytest.raises(DivergenceError, match="non-finite diametrical risk estimate") as info:
        sgd_erm_run(QuadraticLoss(dim=1), data, None, quad_config(gamma=1e200), w0=ParamVector([("w", np.ones(1))]))
    assert (info.value.iteration, info.value.epoch) == (2, 0)
    assert np.isfinite(info.value.batch_risk)


@pytest.mark.parametrize("run", [sgd_erm_run, sgd_drm_run])
def test_divergence_raises_typed_error_naming_the_iteration(run):
    # lr 1e200: the first step is finite, the batch risk after it overflows.
    data = quad_data(np.random.default_rng(11))
    cfg = quad_config(lr_schedule=((20, 1e200),))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        run(QuadraticLoss(dim=1), data, None, cfg, w0=ParamVector([("w", np.ones(1))]))
    err = info.value
    assert (err.iteration, err.epoch, err.lr, err.batch_risk) == (1, 0, 1e200, float("inf"))
    assert "iteration 1 (epoch 0" in str(err)
    assert isinstance(err.__cause__, NonFiniteError)


def test_mlp_non_finite_batch_risk_is_named_before_its_gradient():
    # lr 1e200: at iteration 1 the logits overflow, so the risk at w is nan
    # and its gradient is not finite either; the risk is reported first.
    spec = MlpSpec(3, (4,), 3)
    train = gen_gaussian_blobs(3, 12, 3, 4.0, seed=0)
    cfg = DrmConfig(gamma=0.5, T=12, batch_size=4, lr_schedule=((12, 1e200),), r=3, seed=0)
    with pytest.raises(DivergenceError) as info:
        sgd_erm_run(MlpLossModel(spec), train, None, cfg, w0=init_params(spec, np.random.default_rng(0)))
    err = info.value
    assert (err.iteration, err.epoch, err.lr) == (1, 0, 1e200) and np.isnan(err.batch_risk)
    assert str(err).endswith("batch risk nan): non-finite batch risk")
    assert isinstance(err.__cause__, NonFiniteError)


def test_mlp_finite_risk_with_a_non_finite_gradient_names_the_risk_and_the_layer():
    spec = MlpSpec(3, (4, 5), 3)
    train = gen_gaussian_blobs(3, 12, 3, 4.0, seed=2)
    cfg = DrmConfig(gamma=0.5, T=12, batch_size=4, lr_schedule=((12, 1e56),), r=3, seed=2)
    with pytest.raises(DivergenceError) as info:
        sgd_erm_run(MlpLossModel(spec), train, None, cfg, w0=init_params(spec, np.random.default_rng(2)))
    err = info.value
    assert (err.iteration, err.epoch, err.lr, err.batch_risk) == (3, 1, 1e56, 3.38279959952297e275)
    assert str(err).endswith("batch risk 3.38279959952297e+275): non-finite values in layer 'W0'")
    assert isinstance(err.__cause__, NonFiniteError)


@pytest.mark.parametrize("run", [sgd_erm_run, sgd_drm_run])
def test_each_training_point_takes_one_forward_pass(run, monkeypatch):
    # The gradient call supplies the risk at its point, and a one-row queue
    # (q = 1) is never scored again. Per iteration: ERM 1 pass, at w; DRM 2,
    # at w and at w + v, plus r per sampling event. Per epoch end: 2 + r, the
    # train risk, the test accuracy and the r-direction estimate (every
    # epoch is scored: _EVAL_EVERY = 1).
    spec = MlpSpec(3, (4,), 2)
    train = gen_gaussian_blobs(2, 12, 3, 4.0, seed=0)
    test = gen_gaussian_blobs(2, 8, 3, 4.0, seed=1)
    cfg = DrmConfig(gamma=0.5, T=7, batch_size=4, lr_schedule=((7, 0.05),), r=5, q=1, sample_every=3, seed=0)
    monkeypatch.setattr(optimizer, "_EVAL_EVERY", 1)
    w0 = init_params(spec, np.random.default_rng(0))
    passes = []
    forward = mlp._forward

    def counting_forward(*args):
        passes.append(1)
        return forward(*args)

    monkeypatch.setattr(mlp, "_forward", counting_forward)
    _, trace = run(MlpLossModel(spec), train, test, cfg, w0=w0)
    events = sum(row.event == "sample" for row in trace.rows)
    assert (len(trace.epochs), events) == (3, 3)  # epochs of 3, 3 and 1 iterations; t = 0, 3, 6
    epoch_ends = 3 * (2 + cfg.r)
    expected = 7 + epoch_ends if run is sgd_erm_run else 2 * 7 + events * cfg.r + epoch_ends
    assert len(passes) == expected == (28 if run is sgd_erm_run else 50)


ONE_ROW = Dataset.from_labels([0])
NAN = float("nan")


class TableLoss(LossModel):
    """Risk of the i-th evaluation is table[i]: any pattern of values, ties
    and NaNs, whatever the directions are."""

    def __init__(self, table):
        self.param_template = ParamVector([("w", np.zeros(3)), ("b", np.zeros(2))])
        self.table = list(table)
        self.calls = 0

    def batch_risk(self, w, S):
        self.calls += 1
        return self.table[self.calls - 1]


def assert_draw_worst_is_argmax(table, seed=0):
    model = TableLoss(table)
    w = ParamVector.from_flat(model.param_template, np.arange(5.0))
    r = len(table)
    idx, row, value = draw_worst(model, w, ONE_ROW, 0.5, NormKind.LAYERWISE_FROBENIUS, r, np.random.default_rng(seed))
    best = int(np.argmax(np.array(table)))
    all_rows = sphere_rows(w, 0.5, NormKind.LAYERWISE_FROBENIUS, r, np.random.default_rng(seed))
    assert model.calls == r
    assert idx == best
    assert row.tobytes() == all_rows[best].tobytes()
    assert np.array_equal(value, table[best], equal_nan=True)


def test_draw_worst_tie_across_a_chunk_boundary_goes_to_the_earlier_row():
    assert 16 % risk._CHUNK == 0  # row 16 starts a chunk
    table = [0.0] * 40
    table[15] = table[16] = table[39] = 2.0  # rows 15 and 16 sit in chunks 3 and 4 (rows 12-15, 16-19)
    assert_draw_worst_is_argmax(table)


def test_draw_worst_nan_in_a_later_chunk_beats_an_earlier_finite_max():
    table = [0.0] * 40
    table[3] = 9.0
    table[33] = NAN
    table[35] = NAN
    assert_draw_worst_is_argmax(table)


def test_draw_worst_first_nan_is_kept_over_later_larger_values():
    table = [1.0] * 17
    table[2] = NAN
    table[16] = 5.0
    assert_draw_worst_is_argmax(table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    table=st.lists(st.sampled_from([0.0, 1.0, 2.0, NAN]), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_worst_matches_argmax_over_the_whole_set(table, seed):
    assert_draw_worst_is_argmax(table, seed)


def test_simple_run_matches_simple_steps_across_chunks():
    # r = 40 spans ten draw chunks; the oracle scores all 40 vectors at
    # once (criterion 5's reduction law, with chunked selection).
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
    model = MlpLossModel(spec)
    train = gen_gaussian_blobs(3, 10, 3, 4.0, seed=40)
    cfg = DrmConfig(gamma=1.5, T=7, batch_size=6, lr_schedule=((7, 0.05),), r=40, seed=41)
    w0 = init_params(spec, np.random.default_rng(42))
    final, _ = simple_sgd_drm_run(model, train, None, cfg, w0=w0)
    w = w0
    rng_perturb = np.random.default_rng([cfg.seed, 2])
    t = epoch = 0
    while t < cfg.T:
        for idx in make_batch_indices(len(train), cfg.batch_size, [cfg.seed, 1, epoch]):
            if t == cfg.T:
                break
            w = simple_sgd_drm_step(model, w, train[idx], cfg, rng_perturb, t=t)
            t += 1
        epoch += 1
    assert w == final


@pytest.mark.parametrize("run", [sgd_erm_run, sgd_drm_run])
def test_overflowing_radius_in_the_evaluation_draw_raises_divergence(run):
    # gamma / |z| overflows for a bias segment drawn below 1 in norm, so
    # the evaluation directions are not finite; the run stops before
    # iteration 0 with the typed error, not a bare NonFiniteError.
    spec = MlpSpec(input_dim=2, hidden_dims=(4,), num_classes=2)
    train = gen_gaussian_blobs(2, 15, 2, 4.0, seed=0)
    cfg = DrmConfig(gamma=1e308, T=3, batch_size=30, lr_schedule=((3, 0.1),), r=20, seed=0)
    with pytest.raises(DivergenceError, match="evaluation directions: non-finite values in layer") as info:
        run(MlpLossModel(spec), train, None, cfg, w0=init_params(spec, np.random.default_rng(0)))
    err = info.value
    assert (err.iteration, err.epoch, err.lr, err.batch_risk) == (0, 0, 0.1, None)
    assert "batch risk" not in str(err)
    assert isinstance(err.__cause__, NonFiniteError)
