"""betree benchmark: one closed-loop workload per run, one caller issuing
operations back to back.

    python3 bench/run.py --workload moons-train --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; betree is imported from ./src. A
workload seed stands for a family of member seeds (see workloads.py). A
pass sets up and runs one operation per member; passes repeat until
--seconds are used, and every repeat must reproduce its member's first
outputs. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics from the spans of the traced ones, plus the tracing overhead. The
last stdout line is the result object; the line before it holds the run's
context (versions, seeds, behaviour fingerprints). Both, per-operation
timings, and the spans of a traced run are also written under bench/out/.
"""

from __future__ import annotations

import os

# A single caller, so a single BLAS thread; set before numpy is imported so
# OpenBLAS reads it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def context_stamp(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    status = _git("status", "--porcelain", "--untracked-files=no")
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "betree").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_betree_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(s, traced_ops, setups, untraced_wall, traced_wall):
    """Per-layer metrics from the spans of the traced operations. A metric
    whose hook target is gone (or whose counter no longer fits the returned
    object) is left out and named in the returned list of absent metrics."""
    n_ops = len(traced_ops)
    iterations = sum(op.iterations for op in traced_ops)
    c = s.counters.get
    train_s = s.total_s("trainer.train")

    def share(child):
        return _ratio(s.child_total_s("trainer.train", child), train_s)

    specs = [
        # name, unit, span hooks it needs, value
        ("data.gen_s", "s", (), lambda: statistics.median(d for _, d in setups)),
        ("boundary_tree.build_tree.us_per_sample", "us", ("boundary_tree.build_tree",),
         lambda: 1e6 * _ratio(s.total_s("boundary_tree.build_tree"), c("build_tree.samples", 0))),
        ("boundary_tree.insert_ratio", "nodes/sample", ("boundary_tree.build_tree",),
         lambda: _ratio(c("build_tree.nodes", 0), c("build_tree.samples", 0))),
        ("boundary_tree.traverse.us_per_query", "us", ("boundary_tree.traverse",),
         lambda: 1e6 * _ratio(s.total_s("boundary_tree.traverse"), s.calls("boundary_tree.traverse"))),
        ("boundary_tree.traverse.dist_per_query", "count", ("boundary_tree.traverse",),
         lambda: _ratio(c("traverse.dists", 0), s.calls("boundary_tree.traverse"))),
        ("boundary_tree.traverse.depth_mean", "steps", ("boundary_tree.traverse",),
         lambda: _ratio(c("traverse.steps", 0), s.calls("boundary_tree.traverse"))),
        ("boundary_tree.node_embedding.miss_ratio", "fraction",
         ("boundary_tree.node_embedding", "transform.make_embedder", "transform.identity_embedder"),
         lambda: _ratio(c("node_embedding.misses", 0), s.calls("boundary_tree.node_embedding"))),
        ("transform.embed.calls", "count", ("transform.embed",),
         lambda: _ratio(s.calls("transform.embed"), n_ops)),
        ("transform.embed.us_per_call", "us", ("transform.embed",),
         lambda: 1e6 * _ratio(s.total_s("transform.embed"), s.calls("transform.embed"))),
        ("transform.forward.calls_per_step", "count", ("transform.forward", "soft_path.loss_and_grad"),
         lambda: _ratio(s.calls("transform.forward"), s.calls("soft_path.loss_and_grad"))),
        ("transform.adam_step.ms_per_call", "ms", ("transform.adam_step",),
         lambda: 1e3 * _ratio(s.total_s("transform.adam_step"), s.calls("transform.adam_step"))),
        ("tape.backward.ms_per_call", "ms", ("tape.Tape.backward",),
         lambda: 1e3 * _ratio(s.total_s("tape.Tape.backward"), s.calls("tape.Tape.backward"))),
        ("tape.nodes_per_step", "count", ("tape.Tape.backward",),
         lambda: _ratio(c("tape.nodes", 0), s.calls("tape.Tape.backward"))),
        ("soft_path.greedy_path.ms_per_call", "ms", ("soft_path.greedy_path",),
         lambda: 1e3 * _ratio(s.total_s("soft_path.greedy_path"), s.calls("soft_path.greedy_path"))),
        ("soft_path.loss_and_grad.ms_per_call", "ms", ("soft_path.loss_and_grad",),
         lambda: 1e3 * _ratio(s.total_s("soft_path.loss_and_grad"), s.calls("soft_path.loss_and_grad"))),
        ("soft_path.decisions_per_step", "count", ("soft_path.greedy_path",),
         lambda: _ratio(c("greedy_path.decisions", 0), s.calls("soft_path.greedy_path"))),
        ("soft_path.candidates_per_step", "count", ("soft_path.greedy_path",),
         lambda: _ratio(c("greedy_path.candidates", 0), s.calls("soft_path.greedy_path"))),
        ("soft_path.clamp_rate", "fraction", ("soft_path.loss_and_grad",),
         lambda: _ratio(c("loss_and_grad.clamps", 0), s.calls("soft_path.loss_and_grad"))),
        ("trainer.iter.self_ms", "ms", ("trainer.train",),
         lambda: 1e3 * _ratio(s.self_s("trainer.train"), iterations)),
        ("trainer.build_share", "fraction", ("trainer.train", "boundary_tree.build_tree"),
         lambda: share("boundary_tree.build_tree")),
        ("trainer.step_share", "fraction", ("trainer.train", "soft_path.loss_and_grad"),
         lambda: share("soft_path.loss_and_grad")),
        ("trainer.adam_share", "fraction", ("trainer.train", "transform.adam_step"),
         lambda: share("transform.adam_step")),
        ("trainer.eval_share", "fraction", ("trainer.train", "boundary_tree.predict_hard"),
         lambda: share("boundary_tree.predict_hard")),
        ("trace.overhead_frac", "fraction", (),
         lambda: statistics.median(traced_wall) / statistics.median(untraced_wall) - 1.0),
    ]
    metrics, absent = {}, []
    for name, unit, needs, value in specs:
        if any(h in s.missing for h in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": float(value()), "unit": unit}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "betree" / "__init__.py").is_file():
        print(f"error: no betree sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    from tracing import Tracer
    from workloads import SPECS, member_seeds, recount, run_op, setup

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(SPECS)}")
    spec = SPECS[args.workload]
    trace = bool(args.trace)
    clock = time.perf_counter
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}"

    # Closed loop over passes; a pass sets up and runs every family member
    # in turn, so only one member's data is alive at a time. With tracing,
    # even-numbered passes run untraced and odd-numbered ones traced, so
    # both see the same machine conditions.
    seeds = member_seeds(spec, args.seed)
    tracer = Tracer() if trace else None
    setups = []  # (set-up seconds, data-generation seconds), one per member set-up
    passes = []  # (traced, [OpResult per member])
    firsts = [None] * len(seeds)
    failures = []
    last_wall = {False: None, True: None}
    t_start = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        results = []
        t_pass = clock()
        for k, seed in enumerate(seeds):
            t0 = clock()
            inputs = setup(spec, seed)
            setups.append((clock() - t0, inputs.data_s))
            if traced:
                tracer.install()
            try:
                op = run_op(spec, inputs, stem.with_suffix(".log.csv"))
            finally:
                if traced:
                    tracer.uninstall()
            results.append(op)

            errors = list(op.errors)
            if firsts[k] is None:
                firsts[k] = op
                if k == 0:
                    # A recount costs as much as the evaluate itself, so it
                    # is made once per run, on the first member.
                    err, nodes, recount_errors = recount(inputs)
                    errors += recount_errors
                    if (err, nodes) != (op.test_error, op.tree_nodes):
                        errors.append(f"evaluate gave error {op.test_error} with "
                                      f"{op.tree_nodes} nodes, recount gives {err} with {nodes}")
            else:
                keys = ("test_error", "tree_nodes", "params_sha256", "log_sha256")
                changed = [key for key in keys if getattr(op, key) != getattr(firsts[k], key)]
                if changed:
                    errors.append(f"repeat differs from the first run in {changed}")
            if errors:
                failures.append({"pass": len(passes), "member_seed": seed,
                                 "traced": traced, "errors": errors})
            inputs = None
        passes.append((traced, results))
        last_wall[traced] = clock() - t_pass

        nxt = trace and len(passes) % 2 == 1
        expected = last_wall[nxt] if last_wall[nxt] is not None else last_wall[not nxt]
        if len(passes) >= (2 if trace else 1) and clock() - t_start + expected > args.seconds:
            break

    untraced = [ops for traced, ops in passes if not traced]
    traced_passes = [ops for traced, ops in passes if traced]
    ctx = context_stamp(spec.name, args.seed, trace)
    ctx.update({
        "seconds": args.seconds,
        "member_seeds": seeds,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "iter_samples": sum(op.iterations for ops in untraced for op in ops),
        "fingerprints": [{
            "member_seed": seed,
            "params_sha256": op.params_sha256,
            "train_log_sha256": op.log_sha256,
            "iterations": op.iterations,
            "clamps": op.clamps,
            "test_error": op.test_error,
            "tree_nodes": op.tree_nodes,
        } for seed, op in zip(seeds, firsts)],
        "failures": failures[:10],
    })

    def family_mean(field):
        # Median over each member's repeats, then the mean over the family:
        # the cost of an operation varies with its data seed, and the mean
        # over the family is what keeps runs of different workload seeds
        # comparable.
        return statistics.fmean(
            statistics.median(getattr(ops[k], field) for ops in untraced)
            for k in range(len(seeds)))

    if trace:
        def pass_wall(ops):
            return sum(op.wall_s for op in ops)

        metrics, absent = per_layer_metrics(
            tracer.summary(), [op for ops in traced_passes for op in ops], setups,
            [pass_wall(ops) for ops in untraced], [pass_wall(ops) for ops in traced_passes])
        ctx["absent"] = absent
        tracer.save(stem.with_suffix(".spans.npz"))
    else:
        iter_ms = 1e3 * np.array([t for ops in untraced for op in ops for t in op.iter_s])
        ctx["iter_ms_p95"] = float(np.percentile(iter_ms, 95))
        values = {
            "setup_s": (statistics.median(t for t, _ in setups), "s"),
            "train_s": (family_mean("train_s"), "s"),
            "iter_ms_p50": (np.percentile(iter_ms, 50), "ms"),
            "eval_s": (family_mean("eval_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}

    attempted = sum(len(ops) for _, ops in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    detail = [{"traced": traced,
               "ops": [{"member_seed": seed, "train_s": op.train_s, "eval_s": op.eval_s,
                        "iter_s": op.iter_s} for seed, op in zip(seeds, ops)]}
              for traced, ops in passes]
    stem.with_suffix(".json").write_text(
        json.dumps({"context": ctx, "result": result, "passes": detail}, indent=1))
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
