"""Outer training loop, convergence rule, sample stream, evaluation, log CSV."""

import csv
import math
import time

import numpy as np
import pytest

from betree import (
    Dataset,
    IterRecord,
    MlpArchitecture,
    Sample,
    TrainConfig,
    TrainingDivergedError,
    TrainLog,
    build_tree,
    converged,
    evaluate,
    gen_half_moons,
    init_params,
    make_embedder,
    predict_hard,
    shuffle_split,
    train,
    write_train_log,
)
from betree import soft_path, trainer, transform
from betree.trainer import _SampleStream, hard_error
from oracles import ref_loss_head

ARCH = MlpArchitecture((2, 6, 2))


def tiny_config(**kw):
    base = dict(arch=ARCH, tree_build_samples=8, grad_steps_per_iter=4,
                max_outer_iters=3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def const_dataset(n, label=0, dim=2):
    rng = np.random.default_rng(5)
    return Dataset([Sample(rng.normal(size=dim), label) for _ in range(n)],
                   dim, label + 1, "csv")


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(tree_build_samples=0)
    with pytest.raises(ValueError):
        tiny_config(grad_steps_per_iter=-1)
    with pytest.raises(ValueError):
        tiny_config(convergence_rel_threshold=0.0)
    with pytest.raises(ValueError):
        tiny_config(max_outer_iters=0)
    for bad in (0, -1, np.int64(0), 2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="max_children"):
            tiny_config(max_children=bad)
    for good in (None, 1, 3, np.int64(2), np.uint8(1)):
        assert tiny_config(max_children=good).max_children == good


@pytest.mark.parametrize("bad", [
    dict(lr=0.0), dict(lr=-1.0), dict(lr=math.nan), dict(lr=math.inf),
    dict(beta1=-0.1), dict(beta1=1.0), dict(beta1=math.nan),
    dict(beta2=-1e-9), dict(beta2=1.0), dict(beta2=math.inf),
    dict(eps=0.0), dict(eps=-1e-8), dict(eps=math.nan), dict(eps=math.inf),
])
def test_config_rejects_bad_optimizer_settings(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        tiny_config(**bad)


def test_config_accepts_optimizer_edges():
    # the closed end of [0, 1) and the smallest positive lr and eps are legal
    config = tiny_config(lr=1e-300, beta1=0.0, beta2=0.0, eps=5e-324)
    assert (config.beta1, config.beta2) == (0.0, 0.0)


def _log_with_losses(losses):
    log = TrainLog()
    for i, loss in enumerate(losses):
        log.records.append(IterRecord(i, loss, 3, None, 0, 0.0))
    return log


def test_converged_rule():
    assert not converged(_log_with_losses([1.0]), 0.5)  # needs two records
    assert converged(_log_with_losses([0.7, 0.7]), 1e-12)  # identical losses
    assert not converged(_log_with_losses([1.0, 0.5]), 0.1)  # 50% change
    assert converged(_log_with_losses([0.5000, 0.5004]), 1e-3)
    assert not converged(_log_with_losses([0.5, math.inf]), 1e9)
    # zero previous loss: the 1e-12 floor keeps the ratio finite
    assert converged(_log_with_losses([0.0, 0.0]), 1e-3)


def test_zero_grad_steps_leaves_params_unchanged():
    data = gen_half_moons(60, 0.1, seed=1)
    config = tiny_config(grad_steps_per_iter=0, max_outer_iters=4)
    params, log = train(data, None, config)
    init = init_params(ARCH, config.seed)
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, init.weights))
    assert all(np.array_equal(a, b) for a, b in zip(params.biases, init.biases))
    assert all(r.mean_loss == 0.0 for r in log.records)
    assert log.converged and len(log.records) == 2  # flat loss converges at once


def test_one_batched_step_per_iteration(monkeypatch):
    # each iteration makes one loss_and_grad over its whole query batch and
    # one Adam step; a zero batch makes neither
    data = gen_half_moons(80, 0.1, seed=14)
    batches, steps = [], []
    real_loss, real_adam = trainer.loss_and_grad, trainer.adam_step

    def loss_spy(tree, params, samples, tape):
        batches.append(len(samples))
        return real_loss(tree, params, samples, tape)

    def adam_spy(*args):
        steps.append(args)
        return real_adam(*args)

    monkeypatch.setattr(trainer, "loss_and_grad", loss_spy)
    monkeypatch.setattr(trainer, "adam_step", adam_spy)
    _, log = train(data, None, tiny_config(max_outer_iters=3, convergence_rel_threshold=1e-15))
    assert len(log.records) == 3
    assert batches == [4, 4, 4] and len(steps) == 3
    batches.clear()
    steps.clear()
    train(data, None, tiny_config(grad_steps_per_iter=0, max_outer_iters=3))
    assert batches == [] and steps == []


def test_each_iteration_embeds_by_one_forward(monkeypatch):
    # one recorded forward per iteration over [build samples; query batch]
    # feeds the build, the walks and the backward: no plain embed call, and
    # the build stores the record's rows
    data = gen_half_moons(80, 0.1, seed=15)
    forwards, embeds, builds = [], [], []
    real_forward, real_embed, real_build = trainer.forward, transform.embed, trainer.build_tree

    def forward_spy(tape, params, x):
        forwards.append(len(x))
        return real_forward(tape, params, x)

    def embed_spy(params, x):
        embeds.append(np.shape(x))
        return real_embed(params, x)

    def build_spy(samples, embed, max_children, class_count, rows):
        tree = real_build(samples, embed, max_children, class_count, rows=rows)
        builds.append((len(samples), len(rows)))
        assert all(tree.emb[n.id].tobytes() == rows[n.row].tobytes() for n in tree.nodes)
        return tree

    monkeypatch.setattr(trainer, "forward", forward_spy)
    monkeypatch.setattr(transform, "embed", embed_spy)
    monkeypatch.setattr(trainer, "build_tree", build_spy)
    _, log = train(data, None, tiny_config(max_outer_iters=3, convergence_rel_threshold=1e-15))
    assert len(log.records) == 3
    assert forwards == [8 + 4] * 3 and embeds == [] and builds == [(8, 8)] * 3
    forwards.clear()
    builds.clear()
    train(data, None, tiny_config(grad_steps_per_iter=0, max_outer_iters=3))
    assert forwards == [8] * 2 and embeds == [] and builds == [(8, 8)] * 2


def test_single_class_dataset_converges_immediately():
    data = const_dataset(40, label=0)
    params, log = train(data, data, tiny_config(max_outer_iters=10))
    assert log.converged and len(log.records) <= 2
    assert all(r.nodes == 1 for r in log.records)
    assert all(r.mean_loss == 0.0 for r in log.records)
    assert all(r.test_error == 0.0 for r in log.records)


def test_train_rejects_bad_inputs():
    config = tiny_config()
    empty = Dataset([], 2, 2, "csv")
    with pytest.raises(ValueError):
        train(empty, None, config)
    wrong_dim = const_dataset(30, label=0, dim=3)
    with pytest.raises(ValueError):
        train(wrong_dim, None, config)
    small = gen_half_moons(10, 0.1, seed=2)  # < 8 + 4 per iteration
    with pytest.raises(ValueError):
        train(small, None, config)


def test_stream_blocks_do_not_overlap():
    samples = [Sample([float(i)], 0) for i in range(10)]
    stream = _SampleStream(samples, seed=3)
    stream.ensure(9)
    a = stream.take(5)
    b = stream.take(4)
    ids_a = {s.features[0] for s in a}
    ids_b = {s.features[0] for s in b}
    assert not ids_a & ids_b and len(ids_a) == 5 and len(ids_b) == 4


def test_stream_reshuffles_instead_of_wrapping():
    samples = [Sample([float(i)], 0) for i in range(6)]
    stream = _SampleStream(samples, seed=4)
    stream.ensure(4)
    stream.take(4)
    stream.ensure(4)  # only 2 left: must reshuffle, not wrap
    assert stream.pos == 0
    block = stream.take(4)
    assert len({s.features[0] for s in block}) == 4


def test_stream_rejects_oversized_request():
    stream = _SampleStream([Sample([0.0], 0)] * 3, seed=0)
    with pytest.raises(ValueError):
        stream.ensure(4)


def test_training_log_is_reproducible():
    data = gen_half_moons(80, 0.1, seed=6)
    test = gen_half_moons(40, 0.1, seed=7)
    config = tiny_config(max_outer_iters=4, convergence_rel_threshold=1e-12)
    runs = []
    for _ in range(2):
        params, log = train(data, test, config)
        runs.append((params, log))
    (p1, l1), (p2, l2) = runs
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert len(l1.records) == len(l2.records)
    for a, b in zip(l1.records, l2.records):
        assert (a.iteration, a.nodes, a.clamps) == (b.iteration, b.nodes, b.clamps)
        assert a.mean_loss == b.mean_loss and a.test_error == b.test_error


def test_divergence_reports_last_good_state():
    data = gen_half_moons(80, 0.1, seed=8)
    # a step of this size overflows the embeddings on the next forward pass
    config = tiny_config(lr=1e155, max_outer_iters=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train(data, None, config)
    assert err.value.params.all_finite()
    assert isinstance(err.value.log, TrainLog)


def test_full_tree_eval_column():
    data = gen_half_moons(60, 0.1, seed=9)
    test = gen_half_moons(30, 0.1, seed=10)
    _, log = train(data, test, tiny_config(max_outer_iters=2,
                                           convergence_rel_threshold=1e-15),
                   full_tree_eval=True)
    assert all(r.full_test_error is not None for r in log.records)
    assert all(0.0 <= r.full_test_error <= 1.0 for r in log.records)


def test_first_record_counts_the_set_up(monkeypatch):
    # every second of train() lands in some record, the set-up before the
    # first iteration included
    real = trainer.init_params

    def slow_init(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(trainer, "init_params", slow_init)
    data = gen_half_moons(60, 0.1, seed=11)
    t0 = time.perf_counter()
    _, log = train(data, None, tiny_config(max_outer_iters=2, convergence_rel_threshold=1e-15))
    elapsed = time.perf_counter() - t0
    assert log.records[0].seconds >= 0.05
    assert sum(r.seconds for r in log.records) <= elapsed


def test_hard_error_equals_per_query_predict_hard():
    data, test = shuffle_split(gen_half_moons(200, 0.2, seed=12), 13, (0.6, 0.4))
    embedder = make_embedder(init_params(ARCH, 15))
    tree = build_tree(data.samples, embedder, 2, data.class_count)
    preds = [predict_hard(tree, embedder, s.features) for s in test.samples]
    hits = [p == s.label for p, s in zip(preds, test.samples)]
    assert len(set(preds)) == 2 and 0 < sum(hits) < len(hits)
    for n in range(1, len(hits) + 1):
        assert hard_error(tree, embedder, test.samples[:n]) == (n - sum(hits[:n])) / n
    assert hard_error(tree, embedder, []) == 0.0


def test_evaluate_root_only_identity():
    one = Dataset([Sample([1.0, 2.0], 0)], 2, 1, "csv")
    err, nodes = evaluate(None, one, one)
    assert err == 0.0 and nodes == 1


def test_evaluate_with_learned_params():
    data = gen_half_moons(60, 0.1, seed=13)
    params, _ = train(data, None, tiny_config(max_outer_iters=2))
    err, nodes = evaluate(params, data, data)
    assert 0.0 <= err <= 1.0 and 1 <= nodes <= len(data.samples)


def _sample_log():
    log = TrainLog()
    log.records.append(IterRecord(0, 0.75, 5, 0.25, 1, 0.125, 0.5))
    log.records.append(IterRecord(1, 0.5, 3, None, 0, 0.25, None))
    return log


def test_write_train_log_layout(tmp_path):
    path = tmp_path / "log.csv"
    write_train_log(_sample_log(), path, comment="run x")
    lines = path.read_text().splitlines()
    assert lines[0] == "# run x"
    assert lines[1] == "iter,mean_loss,nodes,test_error,clamps,seconds"
    assert lines[2] == "0,0.75,5,0.25,1,0.125"
    assert lines[3] == "1,0.5,3,,0,0.25"  # missing test error: empty field


def test_write_train_log_timing_off_and_full_column(tmp_path):
    path = tmp_path / "log.csv"
    write_train_log(_sample_log(), path, timing=False, full_tree_column=True)
    rows = list(csv.reader(path.open()))
    assert rows[0][-1] == "full_test_error"
    assert [r[5] for r in rows[1:]] == ["", ""]  # seconds blank in timing-off mode
    assert rows[1][6] == "0.5" and rows[2][6] == ""
    # byte-identical across rewrites
    path2 = tmp_path / "log2.csv"
    write_train_log(_sample_log(), path2, timing=False, full_tree_column=True)
    assert path.read_bytes() == path2.read_bytes()


def test_write_train_log_round_trips_float_repr(tmp_path):
    log = TrainLog()
    loss = 1.0 / 3.0
    log.records.append(IterRecord(0, loss, 2, 2.0 / 7.0, 0, 0.0))
    path = tmp_path / "log.csv"
    write_train_log(log, path)
    row = list(csv.reader(path.open()))[1]
    assert float(row[1]) == loss and float(row[3]) == 2.0 / 7.0


def _blobs(n, dim, seed):
    """Gaussian blobs of 10 classes at the shape of MNIST: centers uniform
    on [0, 1], noise sd 0.9."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (10, dim))
    points = rng.normal(0.0, 0.9, (n, dim)) + centers[np.arange(n) % 10]
    return Dataset([Sample(p, i % 10) for i, p in enumerate(points)], dim, 10, "csv")


@pytest.mark.parametrize("case", ["moons", "784-d"])
def test_training_with_the_per_query_head_is_byte_identical(case, tmp_path, monkeypatch):
    # the grouped loss head, swapped for the per-query oracle, leaves a
    # whole training run unchanged: its parameters and its timing-free log
    if case == "moons":
        train_set, test_set = shuffle_split(gen_half_moons(300, 0.1, 3), 4, (0.8, 0.2))
        config = TrainConfig(arch=MlpArchitecture((2, 16, 16, 2)), tree_build_samples=20,
                             grad_steps_per_iter=10, max_outer_iters=12, seed=5)
    else:
        train_set, test_set = shuffle_split(_blobs(300, 784, 6), 7, (0.8, 0.2))
        config = TrainConfig(arch=MlpArchitecture((784, 24, 8)), tree_build_samples=60,
                             grad_steps_per_iter=40, max_outer_iters=3, seed=8)
    runs = []
    for head in (soft_path.loss_head, ref_loss_head):
        monkeypatch.setattr(soft_path, "loss_head", head)
        params, log = train(train_set, test_set, config)
        path = tmp_path / f"{head.__name__}.csv"
        write_train_log(log, path, timing=False)
        runs.append((params.flat.tobytes(), path.read_bytes(), sum(r.clamps for r in log.records)))
    assert runs[0] == runs[1]
