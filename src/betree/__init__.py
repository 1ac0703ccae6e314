"""Boundary-tree classifiers with learned embeddings.

A boundary tree stores raw training samples and answers queries by greedy
nearest-neighbor descent; misclassified queries become new nodes. Softening
each traversal decision into a softmax over negative embedding distances
makes the tree's prediction differentiable, so an embedding network can be
trained through it and the tree rebuilt under the improving representation.
"""

from .boundary_tree import (
    STOP_LEAF,
    STOP_STAYED,
    BoundaryTree,
    Sample,
    Trace,
    TraceStep,
    TreeFormatError,
    TreeNode,
    build_tree,
    candidate_ids,
    fill_embeddings,
    insert_if_wrong,
    l2_value,
    load_tree,
    new_tree,
    node_embedding,
    predict_hard,
    save_tree,
    traverse,
    walk_block,
)
from .data import (
    DataFormatError,
    Dataset,
    gen_half_moons,
    load_embedding_csv,
    load_idx,
    shuffle_split,
    write_embedding_csv,
)
from .soft_path import (
    LOG_FLOOR,
    MISS_LOSS,
    LossHead,
    PathTrace,
    aggregation_mask,
    batch_loss,
    class_probs,
    embed_paths,
    greedy_path,
    loss_and_grad,
    loss_head,
    path_log_prob,
    predict_soft,
)
from .tape import Tape
from .trainer import (
    IterRecord,
    TrainConfig,
    TrainingDivergedError,
    TrainLog,
    converged,
    evaluate,
    train,
    write_train_log,
)
from .transform import (
    AdamState,
    CheckpointFormatError,
    MlpArchitecture,
    NonFiniteGradientError,
    ParameterSet,
    adam_step,
    embed,
    forward,
    identity_embedder,
    init_params,
    load_checkpoint,
    make_embedder,
    save_checkpoint,
)

__version__ = "0.1.0"
