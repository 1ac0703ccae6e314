"""The benchmark's tracing hooks still fit the package.

bench/tracing.py patches named betree functions from outside the package and
reads counters off their results. A renamed function, or a result that no
longer fits its counter, silently drops per-layer metrics from a traced run
(they land in the run's `absent` list). This test reads bench/ without
changing it: it traces a tiny training run with a test set plus a
raw-feature evaluate, and requires every hook to be installed, every hooked
span to fire and every counter to be read. It also pins the call counts of
one batched step per iteration, and requires bench/run.py's per-layer
metrics of that trace to be finite, so the result line is strict JSON.
"""

import importlib.util
import json
import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import betree
from betree import MlpArchitecture, TrainConfig, gen_half_moons, shuffle_split

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("bench_tracing", "tracing.py")


@pytest.fixture(scope="module")
def bench_run():
    # run.py sets BLAS thread variables on import; keep them out of the
    # environment of later tests
    saved = dict(os.environ)
    try:
        return _load("bench_run", "run.py")
    finally:
        os.environ.clear()
        os.environ.update(saved)


def test_every_hook_installs_fires_and_counts(tracing, bench_run):
    data = gen_half_moons(120, 0.1, seed=3)
    train_set, test_set = shuffle_split(data, 4, (0.7, 0.3))
    config = TrainConfig(arch=MlpArchitecture((2, 8, 2)), tree_build_samples=10,
                         grad_steps_per_iter=5, max_outer_iters=2,
                         convergence_rel_threshold=1e-15, seed=5)

    def run():
        # through the package, as the benchmark calls them, so the patched
        # functions are the ones called
        t0 = time.perf_counter()
        _, log = betree.train(train_set, test_set, config)
        betree.evaluate(None, train_set, test_set)
        return log, time.perf_counter() - t0

    _, untraced_wall = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        log, traced_wall = run()
    finally:
        tracer.uninstall()
    assert len(log.records) == 2

    summary = tracer.summary()
    assert summary.missing == set()
    hooked = [f"{module.removeprefix('betree.')}.{attr}" for module, attr, _ in tracing.HOOKS]
    hooked += [f"transform.{attr}" for attr in tracing.EMBEDDER_FACTORIES]
    silent = [name for name in hooked if summary.calls(name) == 0]
    assert silent == []
    counters = {"build_tree.samples", "build_tree.nodes", "traverse.steps", "traverse.dists",
                "greedy_path.decisions", "greedy_path.candidates", "loss_and_grad.clamps",
                "tape.nodes"}
    assert counters <= set(summary.counters)
    assert summary.counters["tape.nodes"] > 0 and summary.counters["traverse.steps"] > 0

    # one batched step per iteration: a walk per query, one loss_and_grad
    # and one on-tape forward per step
    assert summary.calls("soft_path.greedy_path") == 2 * 5
    assert summary.calls("soft_path.loss_and_grad") == 2
    assert summary.calls("transform.forward") == 2
    assert summary.calls("transform.adam_step") == 2

    metrics, absent = bench_run.per_layer_metrics(
        summary, [SimpleNamespace(iterations=len(log.records))], [(0.0, 0.0)],
        [untraced_wall], [traced_wall])
    assert absent == []
    assert [name for name, m in metrics.items() if not math.isfinite(m["value"])] == []
    json.dumps({"metrics": metrics}, allow_nan=False)
