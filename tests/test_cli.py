"""CLI behavior: exit codes, file outputs, determinism, DOT export."""

import re

import numpy as np
import pytest

from betree import (
    MlpArchitecture,
    ParameterSet,
    Sample,
    embed,
    gen_half_moons,
    init_params,
    load_checkpoint,
    load_embedding_csv,
    load_tree,
    new_tree,
    save_checkpoint,
    save_tree,
)
from betree.cli import main, to_dot

FAST_TRAIN = [
    "train", "--dataset", "halfmoons", "--n", "80", "--arch", "2,6,2",
    "--tree-samples", "8", "--grad-steps", "4", "--max-iters", "3",
    "--threshold", "1e-12", "--seed", "1",
]


def run(argv):
    return main(list(argv))


def test_train_writes_outputs_and_exits_2_at_cap(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "log.csv"
    code = run(FAST_TRAIN + ["--checkpoint-out", str(ckpt), "--log", str(log)])
    assert code == 2  # threshold 1e-12 cannot be met in 3 iterations
    out = capsys.readouterr().out
    assert "iteration cap reached after 3 iteration(s)" in out
    assert re.search(r"final full-train tree: test_error=\S+ nodes=\d+", out)
    params = load_checkpoint(ckpt)
    assert params.arch.layer_sizes == (2, 6, 2)
    lines = log.read_text().splitlines()
    assert lines[0].startswith("# betree train ")
    assert lines[1] == "iter,mean_loss,nodes,test_error,clamps,seconds"
    assert len(lines) == 2 + 3


def test_train_exit_0_on_convergence(tmp_path):
    code = run([
        "train", "--dataset", "halfmoons", "--n", "60", "--arch", "2,4,2",
        "--tree-samples", "8", "--grad-steps", "0", "--max-iters", "5",
        "--checkpoint-out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.csv"),
        "--no-final-eval",
    ])
    assert code == 0  # zero gradient steps: flat loss converges immediately


def test_train_usage_error_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(["train", "--dataset", "halfmoons"])  # --arch missing
    assert err.value.code == 3
    assert list(tmp_path.iterdir()) == []


def test_train_bad_arch_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(FAST_TRAIN[:6] + ["--arch", "2,banana,2"])
    assert err.value.code == 3
    assert list(tmp_path.iterdir()) == []


def test_train_reruns_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.csv"
        code = run(FAST_TRAIN + ["--checkpoint-out", str(ckpt), "--log", str(log),
                                 "--no-timing", "--no-final-eval"])
        assert code == 2
        # the runspec comment embeds the output paths, so compare past it
        body = log.read_bytes().split(b"\n", 1)[1]
        outs.append((ckpt.read_bytes(), body))
    assert outs[0] == outs[1]


def test_train_tree_out_snapshot(tmp_path):
    tree_path = tmp_path / "final.btree"
    code = run(FAST_TRAIN + ["--checkpoint-out", str(tmp_path / "m.ckpt"),
                             "--log", str(tmp_path / "l.csv"),
                             "--tree-out", str(tree_path), "--no-final-eval"])
    assert code == 2
    tree = load_tree(tree_path)
    assert len(tree) >= 1 and tree.class_count == 2 and tree.feature_dim == 2


def test_train_builds_the_full_train_tree_once(tmp_path, monkeypatch, capsys):
    import betree.cli
    import betree.trainer

    sizes = []

    def counting(build):
        def wrapper(samples, *args, **kwargs):
            sizes.append(len(samples))
            return build(samples, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(betree.cli, "build_tree", counting(betree.cli.build_tree))
    monkeypatch.setattr(betree.trainer, "build_tree", counting(betree.trainer.build_tree))
    ckpt, tree_path = tmp_path / "m.ckpt", tmp_path / "final.btree"
    code = run(FAST_TRAIN + ["--checkpoint-out", str(ckpt), "--log", str(tmp_path / "l.csv"),
                             "--tree-out", str(tree_path)])
    assert code == 2
    train_size = 64  # 80 half-moons samples at the default 0.8 train fraction
    assert sizes.count(train_size) == 1
    final = re.search(r"final full-train tree: test_error=(\S+) nodes=(\d+)",
                      capsys.readouterr().out)
    assert int(final.group(2)) == len(load_tree(tree_path))

    # the same checkpoint and split through `eval` report the same figures
    assert run(["eval", "--dataset", "halfmoons", "--n", "80", "--seed", "1",
                "--checkpoint", str(ckpt)]) == 0
    err_s, nodes_s = capsys.readouterr().out.strip().split(",")
    assert (float(err_s), int(nodes_s)) == (float(final.group(1)), int(final.group(2)))


def test_tanh_checkpoint_evaluates_without_an_activation_flag(tmp_path, capsys):
    # the checkpoint names its activation, so eval and dump-embeddings read
    # a tanh model as tanh; they take no --activation
    ckpt = tmp_path / "tanh.ckpt"
    assert run(FAST_TRAIN + ["--activation", "tanh", "--checkpoint-out", str(ckpt),
                             "--log", str(tmp_path / "l.csv")]) == 2
    final = re.search(r"final full-train tree: test_error=(\S+) nodes=(\d+)",
                      capsys.readouterr().out)
    params = load_checkpoint(ckpt)
    assert params.arch == MlpArchitecture((2, 6, 2), "tanh")

    out = tmp_path / "emb.csv"
    assert run(["dump-embeddings", "--dataset", "halfmoons", "--n", "80", "--seed", "1",
                "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    # the CLI embeds the dataset as one block
    block = np.array([s.features for s in gen_half_moons(80, 0.1, 1).samples])
    dumped = np.array([d.features for d in load_embedding_csv(out).samples])
    assert np.array_equal(dumped, embed(params, block))
    as_relu = ParameterSet(MlpArchitecture((2, 6, 2), "relu"), params.flat)
    assert not np.array_equal(dumped, embed(as_relu, block))

    assert run(["eval", "--dataset", "halfmoons", "--n", "80", "--seed", "1",
                "--checkpoint", str(ckpt)]) == 0
    err_s, nodes_s = capsys.readouterr().out.strip().split(",")
    assert (float(err_s), int(nodes_s)) == (float(final.group(1)), int(final.group(2)))
    for command in (["eval"], ["dump-embeddings", "--out", str(out)], ["export-dot", "--out", str(out)]):
        with pytest.raises(SystemExit) as err:
            run(command + ["--dataset", "halfmoons", "--checkpoint", str(ckpt), "--activation", "tanh"])
        assert err.value.code == 3


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = run(["eval", "--dataset", "csv", "--csv", str(tmp_path / "absent.csv"),
                "--identity"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_checkpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint\n\x00\x00")
    code = run(["eval", "--dataset", "halfmoons", "--n", "40",
                "--checkpoint", str(bad)])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_eval_identity_prints_metrics_and_is_deterministic(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    argv = ["eval", "--dataset", "halfmoons", "--n", "120", "--seed", "4",
            "--identity", "--metrics-out", str(metrics)]
    assert run(argv) == 0
    first = capsys.readouterr().out.strip()
    err_s, nodes_s = first.split(",")
    assert 0.0 <= float(err_s) <= 1.0 and int(nodes_s) >= 1
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("# betree eval ")
    assert lines[1] == "test_error,node_count"
    assert lines[2] == first
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == first


def test_eval_checkpoint_round_trip(tmp_path, capsys):
    params = init_params(MlpArchitecture((2, 5, 3)), 9)
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(params, ckpt)
    code = run(["eval", "--dataset", "halfmoons", "--n", "80", "--seed", "2",
                "--checkpoint", str(ckpt)])
    assert code == 0
    err_s, nodes_s = capsys.readouterr().out.strip().split(",")
    assert 0.0 <= float(err_s) <= 1.0 and int(nodes_s) >= 1


def test_eval_requires_test_split():
    with pytest.raises(SystemExit) as err:
        run(["eval", "--dataset", "halfmoons", "--train-frac", "1.0", "--identity"])
    assert err.value.code == 3


def test_eval_rejects_checkpoint_plus_identity(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["eval", "--dataset", "halfmoons", "--identity",
             "--checkpoint", str(tmp_path / "x.ckpt")])
    assert err.value.code == 3


def _parse_dot(text):
    nodes = {int(m[1]): int(m[2])
             for m in re.finditer(r'n(\d+) \[label="(?:\d+):(\d+)"', text)}
    edges = [(int(a), int(b)) for a, b in re.findall(r"n(\d+) -> n(\d+);", text)]
    return nodes, edges


def test_export_dot_from_snapshot(tmp_path):
    tree = new_tree(Sample([0.0, 0.0], 0))
    tree.add_child(0, Sample([2.0, 0.0], 1))
    snap = tmp_path / "t.btree"
    save_tree(tree, snap)
    out = tmp_path / "t.dot"
    assert run(["export-dot", "--tree", str(snap), "--out", str(out)]) == 0
    labels, edges = _parse_dot(out.read_text())
    assert labels == {0: 0, 1: 1}
    assert edges == [(0, 1)]
    assert labels[edges[0][0]] != labels[edges[0][1]]


def test_export_dot_single_node(tmp_path):
    snap = tmp_path / "one.btree"
    save_tree(new_tree(Sample([1.0], 1)), snap)
    out = tmp_path / "one.dot"
    assert run(["export-dot", "--tree", str(snap), "--out", str(out)]) == 0
    labels, edges = _parse_dot(out.read_text())
    assert labels == {0: 1} and edges == []


def test_export_dot_builds_from_dataset_and_edges_cross_classes(tmp_path):
    out = tmp_path / "moons.dot"
    code = run(["export-dot", "--dataset", "halfmoons", "--n", "150", "--seed", "5",
                "--identity", "--out", str(out)])
    assert code == 0
    labels, edges = _parse_dot(out.read_text())
    assert len(labels) >= 2 and len(edges) == len(labels) - 1
    for a, b in edges:
        assert labels[a] != labels[b]


def test_export_dot_needs_a_source():
    with pytest.raises(SystemExit) as err:
        run(["export-dot", "--out", "x.dot"])
    assert err.value.code == 3


def test_to_dot_colors_by_class():
    tree = new_tree(Sample([0.0], 0), class_count=3)
    tree.add_child(0, Sample([1.0], 2))
    text = to_dot(tree)
    fills = re.findall(r'fillcolor="(#\w{6})"', text)
    assert len(fills) == 2 and fills[0] != fills[1]


def test_gen_moons_round_trip(tmp_path):
    out = tmp_path / "moons.csv"
    assert run(["gen-moons", "--n", "51", "--noise", "0.2", "--seed", "6",
                "--out", str(out)]) == 0
    loaded = load_embedding_csv(out)
    direct = gen_half_moons(51, 0.2, 6)
    assert len(loaded) == 51 and loaded.class_count == 2
    for a, b in zip(loaded.samples, direct.samples):
        assert a.label == b.label
        assert np.array_equal(a.features, b.features)  # repr round-trips exactly


def test_comment_line_escapes_non_ascii_and_control_characters(tmp_path):
    # a non-ASCII log path: training writes the whole log, and the comment
    # line names the path with a backslash escape
    log = tmp_path / "l\u00e9.csv"
    code = run(FAST_TRAIN + ["--checkpoint-out", str(tmp_path / "m.ckpt"), "--log", str(log),
                             "--no-final-eval"])
    assert code == 2
    lines = log.read_bytes().decode("ascii").split("\n")
    assert lines[0].startswith("# betree train ") and "log=" + str(tmp_path / "l\\xe9.csv") in lines[0]
    assert lines[1] == "iter,mean_loss,nodes,test_error,clamps,seconds"
    assert len(lines) == 2 + 3 + 1  # the file ends with a newline

    # gen-moons to a non-ASCII path and to a path with a newline in it:
    # each CSV keeps a one-line comment and loads back exactly
    direct = gen_half_moons(12, 0.1, 3)
    for name, escaped in (("d\u00e9.csv", "d\\xe9.csv"), ("a\nb.csv", "a\\nb.csv")):
        out = tmp_path / name
        assert run(["gen-moons", "--n", "12", "--seed", "3", "--out", str(out)]) == 0
        first, second = out.read_bytes().decode("ascii").split("\n")[:2]
        assert first.endswith("out=" + str(tmp_path / escaped) + " seed=3")
        assert second.startswith("label,")
        loaded = load_embedding_csv(out)
        assert [s.label for s in loaded.samples] == [s.label for s in direct.samples]
        assert all(np.array_equal(a.features, b.features)
                   for a, b in zip(loaded.samples, direct.samples))


def test_comment_line_keeps_printable_ascii_arguments_verbatim(tmp_path):
    out = tmp_path / "plain.csv"
    assert run(["gen-moons", "--n", "5", "--noise", "0.2", "--seed", "4", "--out", str(out)]) == 0
    assert out.read_text().split("\n")[0] == f"# betree gen-moons n=5 noise=0.2 out={out} seed=4"


def test_dump_embeddings_identity_reproduces_inputs(tmp_path):
    src = tmp_path / "src.csv"
    assert run(["gen-moons", "--n", "20", "--noise", "0.1", "--seed", "7",
                "--out", str(src)]) == 0
    out = tmp_path / "emb.csv"
    assert run(["dump-embeddings", "--dataset", "csv", "--csv", str(src),
                "--identity", "--out", str(out)]) == 0
    a = load_embedding_csv(src)
    b = load_embedding_csv(out)
    assert len(a) == len(b)
    for x, y in zip(a.samples, b.samples):
        assert x.label == y.label and np.array_equal(x.features, y.features)


def test_dump_embeddings_applies_checkpoint(tmp_path):
    params = init_params(MlpArchitecture((2, 4, 3)), 11)
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(params, ckpt)
    out = tmp_path / "emb.csv"
    assert run(["dump-embeddings", "--dataset", "halfmoons", "--n", "15",
                "--seed", "8", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    data = gen_half_moons(15, 0.1, 8)
    dumped = load_embedding_csv(out)
    assert dumped.feature_dim == 3 and len(dumped) == 15
    assert [s.label for s in data.samples] == [d.label for d in dumped.samples]
    # the CLI embeds the dataset as one block
    want = embed(params, np.array([s.features for s in data.samples]))
    assert np.array_equal(np.array([d.features for d in dumped.samples]), want)
