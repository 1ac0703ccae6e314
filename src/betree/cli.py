"""Command-line entry point: train, eval, export-dot, gen-moons,
dump-embeddings.

Exit codes: 0 success (train: converged), 2 train stopped at the iteration
cap, 3 usage error, 1 any runtime/format error. Every CSV output starts with
a comment line holding the fully resolved run configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .boundary_tree import BoundaryTree, TreeFormatError, build_tree, load_tree, save_tree
from .data import (
    DataFormatError,
    Dataset,
    gen_half_moons,
    load_embedding_csv,
    load_idx,
    shuffle_split,
    write_embedding_csv,
)
from .trainer import TrainConfig, TrainingDivergedError, evaluate, hard_error, train, write_train_log
from .transform import (
    CheckpointFormatError,
    MlpArchitecture,
    identity_embedder,
    load_checkpoint,
    make_embedder,
    save_checkpoint,
)

# One fill color per class index, cycled past 10 classes.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 3, keeping 2 for the
    iteration-cap outcome of `train`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


# Environment variables that set the BLAS thread count. A GEMM's summation
# order can follow that count, so a train log records them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _runspec(args: argparse.Namespace, *extra: str) -> str:
    """The resolved run configuration, then the `extra` fields, as one line
    of printable ASCII, for the comment line of a CSV output: any other
    character (non-ASCII, newline, other control characters) becomes a
    backslash escape."""
    pairs = sorted(
        (k, v) for k, v in vars(args).items() if k not in ("func", "command") and v is not None
    )
    text = " ".join([f"betree {args.command}",
                     *(f"{k.replace('_', '-')}={v}" for k, v in pairs), *extra])
    return "".join(ch if " " <= ch <= "~" else ch.encode("unicode_escape").decode("ascii")
                   for ch in text)


def _parse_arch(text: str, activation: str, parser: _Parser) -> MlpArchitecture:
    try:
        sizes = tuple(int(p) for p in text.split(","))
        return MlpArchitecture(sizes, activation)
    except ValueError as e:
        parser.error(f"--arch: {e}")


def _add_dataset_flags(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--dataset", choices=("halfmoons", "idx", "csv"), required=required,
                   help="data source")
    p.add_argument("--n", type=int, default=1000, help="halfmoons: number of samples")
    p.add_argument("--noise", type=float, default=0.1, help="halfmoons: Gaussian noise stddev")
    p.add_argument("--train-frac", type=float, default=0.8,
                   help="halfmoons/csv: train fraction; 1.0 means no test split")
    p.add_argument("--images", help="idx: training image file")
    p.add_argument("--labels", help="idx: training label file")
    p.add_argument("--test-images", help="idx: test image file")
    p.add_argument("--test-labels", help="idx: test label file")
    p.add_argument("--csv", help="csv: embedding file with label,v1,...,vD rows")
    p.add_argument("--train-limit", type=int, default=0,
                   help="keep only the first N training samples (0 = all)")
    p.add_argument("--test-limit", type=int, default=0,
                   help="keep only the first N test samples (0 = all)")
    p.add_argument("--data-seed", type=int, default=None,
                   help="seed for data generation/splitting (default: --seed)")


def _limit(ds: Dataset, n: int) -> Dataset:
    if n and n < len(ds.samples):
        return Dataset(ds.samples[:n], ds.feature_dim, ds.class_count, ds.provenance)
    return ds


def _resolve_datasets(args, parser: _Parser, split: bool = True) -> tuple[Dataset, Dataset | None]:
    """Build (train set, test set or None) from the dataset flags."""
    data_seed = args.data_seed if args.data_seed is not None else args.seed
    if args.dataset == "idx":
        if not (args.images and args.labels):
            parser.error("--dataset idx needs --images and --labels")
        train_ds = _limit(load_idx(args.images, args.labels), args.train_limit)
        test_ds = None
        if args.test_images or args.test_labels:
            if not (args.test_images and args.test_labels):
                parser.error("need both --test-images and --test-labels")
            test_ds = _limit(load_idx(args.test_images, args.test_labels), args.test_limit)
        return train_ds, test_ds

    if args.dataset == "halfmoons":
        full = gen_half_moons(args.n, args.noise, data_seed)
    else:
        if not args.csv:
            parser.error("--dataset csv needs --csv")
        full = load_embedding_csv(args.csv)

    if not split or args.train_frac >= 1.0:
        return _limit(full, args.train_limit), None
    if not 0.0 < args.train_frac < 1.0 + 1e-12:
        parser.error(f"--train-frac must be in (0, 1], got {args.train_frac}")
    train_ds, test_ds = shuffle_split(full, data_seed + 1,
                                      (args.train_frac, 1.0 - args.train_frac))
    return _limit(train_ds, args.train_limit), _limit(test_ds, args.test_limit)


def _load_params(args, parser: _Parser):
    """ParameterSet from --checkpoint, or None for --identity."""
    if args.checkpoint and args.identity:
        parser.error("give either --checkpoint or --identity, not both")
    if args.checkpoint:
        return load_checkpoint(args.checkpoint)
    if args.identity:
        return None
    parser.error("need --checkpoint or --identity")


def _max_children(args) -> int | None:
    return args.max_children if args.max_children > 0 else None


def to_dot(tree: BoundaryTree) -> str:
    """DOT digraph: nodes labeled id:label, filled by class color, in id
    order; one edge per parent-child pair."""
    lines = ["digraph boundary_tree {", "  node [style=filled];"]
    for node in tree.nodes:
        color = PALETTE[node.label % len(PALETTE)]
        lines.append(f'  n{node.id} [label="{node.id}:{node.label}", fillcolor="{color}"];')
    for a, b in tree.edges():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---- commands --------------------------------------------------------------

def cmd_train(args, parser: _Parser) -> int:
    arch = _parse_arch(args.arch, args.activation, parser)
    train_ds, test_ds = _resolve_datasets(args, parser)
    config = TrainConfig(
        arch=arch,
        tree_build_samples=args.tree_samples,
        grad_steps_per_iter=args.grad_steps,
        convergence_rel_threshold=args.threshold,
        max_outer_iters=args.max_iters,
        lr=args.lr,
        seed=args.seed + 2,
        max_children=_max_children(args),
    )
    comment = _runspec(args, *(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARS))

    def write_outputs(params, log):
        save_checkpoint(params, args.checkpoint_out)
        write_train_log(log, args.log, comment=comment, timing=not args.no_timing,
                        full_tree_column=args.log_full_tree_error)

    try:
        params, log = train(train_ds, test_ds, config,
                            full_tree_eval=args.log_full_tree_error)
    except TrainingDivergedError as e:
        write_outputs(e.params, e.log)
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    write_outputs(params, log)

    status = "converged" if log.converged else "iteration cap reached"
    print(f"{status} after {len(log.records)} iteration(s)")
    if args.tree_out or (test_ds is not None and not args.no_final_eval):
        embedder = make_embedder(params)
        full_tree = build_tree(train_ds.samples, embedder, _max_children(args),
                               train_ds.class_count)
        if args.tree_out:
            save_tree(full_tree, args.tree_out)
        if test_ds is not None and not args.no_final_eval:
            err = hard_error(full_tree, embedder, test_ds.samples)
            print(f"final full-train tree: test_error={err} nodes={len(full_tree)}")
    return 0 if log.converged else 2


def cmd_eval(args, parser: _Parser) -> int:
    params = _load_params(args, parser)
    train_ds, test_ds = _resolve_datasets(args, parser)
    if test_ds is None:
        parser.error("eval needs a test set (idx: --test-images/--test-labels; "
                     "halfmoons/csv: --train-frac < 1)")
    err, nodes = evaluate(params, train_ds, test_ds, _max_children(args))
    line = f"{repr(float(err))},{nodes}"
    print(line)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="ascii", newline="\n") as f:
            f.write(f"# {_runspec(args)}\n")
            f.write("test_error,node_count\n")
            f.write(line + "\n")
    return 0


def cmd_export_dot(args, parser: _Parser) -> int:
    if args.tree:
        tree = load_tree(args.tree)
    else:
        if not args.dataset:
            parser.error("need --tree or dataset flags to build one")
        params = _load_params(args, parser)
        train_ds, _ = _resolve_datasets(args, parser, split=False)
        embedder = identity_embedder() if params is None else make_embedder(params)
        tree = build_tree(train_ds.samples, embedder, _max_children(args),
                          train_ds.class_count)
    with open(args.out, "w", encoding="ascii", newline="\n") as f:
        f.write(to_dot(tree))
    return 0


def cmd_gen_moons(args, parser: _Parser) -> int:
    ds = gen_half_moons(args.n, args.noise, args.seed)
    rows = ((s.label, s.features) for s in ds.samples)
    write_embedding_csv(args.out, rows, ds.feature_dim, comment=_runspec(args))
    return 0


def cmd_dump_embeddings(args, parser: _Parser) -> int:
    params = _load_params(args, parser)
    ds, _ = _resolve_datasets(args, parser, split=False)
    embedder = identity_embedder() if params is None else make_embedder(params)
    dim = ds.feature_dim if params is None else params.arch.out_dim
    features = np.array([s.features for s in ds.samples]).reshape(len(ds), ds.feature_dim)
    block = embedder(features)
    write_embedding_csv(args.out, zip((s.label for s in ds.samples), block), dim,
                        comment=_runspec(args))
    return 0


# ---- wiring ----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="betree",
                     description="Boundary-tree classifiers with learned embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed for the run")
        p.add_argument("--max-children", type=int, default=0,
                       help="tree fan-out bound (0 = unlimited)")

    p = sub.add_parser("train", help="learn an embedding with the alternating loop")
    common(p)
    _add_dataset_flags(p, required=True)
    p.add_argument("--arch", required=True,
                   help="comma-separated layer sizes, e.g. 2,100,100,30,2")
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--tree-samples", type=int, default=20,
                   help="samples used to rebuild the tree each outer iteration")
    p.add_argument("--grad-steps", type=int, default=10,
                   help="query batch per outer iteration: one Adam step on its mean loss")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="relative mean-loss change that counts as converged")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--checkpoint-out", default="model.ckpt")
    p.add_argument("--log", default="trainlog.csv")
    p.add_argument("--tree-out", help="also save the final full-train tree snapshot")
    p.add_argument("--no-timing", action="store_true",
                   help="leave the seconds column empty for byte-identical logs")
    p.add_argument("--log-full-tree-error", action="store_true",
                   help="also log full-train-tree test error per iteration (slow)")
    p.add_argument("--no-final-eval", action="store_true",
                   help="skip the final full-train tree evaluation")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="build a full-train tree and report test error")
    common(p)
    _add_dataset_flags(p, required=True)
    p.add_argument("--checkpoint", help="transform checkpoint to evaluate")
    p.add_argument("--identity", action="store_true", help="use raw features")
    p.add_argument("--metrics-out", help="write test_error,node_count to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-dot", help="render a boundary tree as a DOT digraph")
    common(p)
    _add_dataset_flags(p, required=False)
    p.add_argument("--tree", help="tree snapshot to render")
    p.add_argument("--checkpoint", help="transform for building a tree from data")
    p.add_argument("--identity", action="store_true", help="use raw features")
    p.add_argument("--out", required=True, help="DOT output path")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("gen-moons", help="write a half-moons dataset as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_gen_moons)

    p = sub.add_parser("dump-embeddings", help="write transformed features as CSV")
    common(p)
    _add_dataset_flags(p, required=True)
    p.add_argument("--checkpoint", help="transform checkpoint")
    p.add_argument("--identity", action="store_true", help="use raw features")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_dump_embeddings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DataFormatError, CheckpointFormatError, TreeFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except (OSError, ValueError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
