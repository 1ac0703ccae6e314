"""Online boundary tree over raw training samples.

Queries descend greedily by embedding-space distance; a misclassified query
is stored as a child of the node that produced the wrong answer, so every
edge joins differently-labeled samples. Nodes live in an arena and are
addressed by integer ids that ascend in insertion order; their embeddings
live in one matrix on the tree, one row per node id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tape import l2_value

STOP_STAYED = "stayed"
STOP_LEAF = "leaf"


@dataclass(frozen=True)
class Sample:
    """One raw training point: a feature vector plus a class index."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "label", int(self.label))
        if self.features.ndim != 1:
            raise ValueError(f"sample features must be rank 1, got shape {self.features.shape}")
        if self.label < 0:
            raise ValueError(f"sample label must be >= 0, got {self.label}")


@dataclass
class TreeNode:
    """One stored sample; its embedding is row `id` of the tree's matrix."""

    id: int
    sample: Sample
    parent: int | None
    children: list[int] = field(default_factory=list)

    @property
    def label(self) -> int:
        return self.sample.label


@dataclass
class TraceStep:
    """One traversal decision: candidates are the decision node first (unless
    excluded by the max_children rule) then its children, ids ascending."""

    node: int
    candidates: list[int]
    distances: np.ndarray
    chosen: int  # index into candidates

    @property
    def chosen_id(self) -> int:
        return self.candidates[self.chosen]


@dataclass
class Trace:
    steps: list[TraceStep]
    final: int
    stop_mode: str  # STOP_STAYED or STOP_LEAF

    @property
    def visited(self) -> list[int]:
        seq = [self.steps[0].node] if self.steps else [self.final]
        for s in self.steps:
            if s.chosen_id != s.node:
                seq.append(s.chosen_id)
        return seq


class BoundaryTree:
    """Arena-backed tree; node 0 is always the root.

    max_children of None means unbounded fan-out. With a finite bound, a node
    that is full is excluded from its own candidate set, which forces the
    traversal to descend past it.

    Node embeddings are cached in `emb`, one row per node id, valid where
    `emb_valid` is set and only under the embedder stamp `emb_key`; `sq`
    holds each valid row's squared norm for the hard decisions' screen.
    All three grow geometrically as nodes are added; `emb` and `sq` are
    None until the first row is filled under the current key, which also
    fixes the width.
    """

    def __init__(self, first: Sample, max_children: int | None = None, class_count: int = 2):
        if max_children is not None and max_children < 1:
            raise ValueError(f"max_children must be >= 1 or None, got {max_children}")
        if not 0 <= first.label < class_count:
            raise ValueError(f"root label {first.label} outside [0, {class_count})")
        self.nodes: list[TreeNode] = [TreeNode(0, first, None)]
        self.root = 0
        self.max_children = max_children
        self.class_count = class_count
        self.emb_key = None
        self.emb: np.ndarray | None = None
        self.sq: np.ndarray | None = None
        self.emb_valid = np.zeros(1, dtype=bool)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def feature_dim(self) -> int:
        return self.nodes[0].sample.features.shape[0]

    def edges(self):
        for node in self.nodes:
            for c in node.children:
                yield node.id, c

    def add_child(self, parent: int, sample: Sample) -> int:
        if not 0 <= sample.label < self.class_count:
            raise ValueError(f"label {sample.label} outside [0, {self.class_count})")
        if sample.features.shape != (self.feature_dim,):
            raise ValueError(
                f"feature length {sample.features.shape[0]} does not match tree dim {self.feature_dim}"
            )
        node = TreeNode(len(self.nodes), sample, parent)
        self.nodes.append(node)
        self.nodes[parent].children.append(node.id)
        if node.id == len(self.emb_valid):
            self._grow_embeddings()
        return node.id

    def _grow_embeddings(self) -> None:
        capacity = 2 * len(self.emb_valid)
        valid = np.zeros(capacity, dtype=bool)
        valid[:len(self.emb_valid)] = self.emb_valid
        self.emb_valid = valid
        if self.emb is not None:
            emb = np.empty((capacity, self.emb.shape[1]))
            emb[:len(self.emb)] = self.emb
            self.emb = emb
            sq = np.empty(capacity)
            sq[:len(self.sq)] = self.sq
            self.sq = sq

    def reset_embeddings(self, key) -> None:
        """Drop every cached row and start caching under `key`."""
        self.emb_key = key
        self.emb = None
        self.sq = None
        self.emb_valid = np.zeros(len(self.emb_valid), dtype=bool)


def new_tree(first: Sample, max_children: int | None = None, class_count: int = 2) -> BoundaryTree:
    return BoundaryTree(first, max_children, class_count)


def fill_embeddings(tree: BoundaryTree, embed, ids=None) -> None:
    """Make rows `ids`, or every node's row for None, valid under `embed`:
    the missing rows are embedded as one row block by one embed call. A new
    embed.cache_key first drops every row, and the width may change with
    it."""
    if tree.emb_key != embed.cache_key:
        tree.reset_embeddings(embed.cache_key)
    if ids is None:
        missing = np.flatnonzero(~tree.emb_valid[:len(tree)])
    else:
        missing = [i for i in ids if not tree.emb_valid[i]]
    if len(missing):
        _store_rows(tree, missing, embed(np.array([tree.nodes[i].sample.features for i in missing])))


def _store_rows(tree: BoundaryTree, ids, rows) -> None:
    """Store embedding rows for `ids`, and their squared norms, under the
    tree's current key."""
    rows = np.asarray(rows, dtype=np.float64)
    if tree.emb is None:
        tree.emb = np.empty((len(tree.emb_valid), rows.shape[1]))
        tree.sq = np.empty(len(tree.emb_valid))
    tree.emb[ids] = rows
    tree.sq[ids] = np.einsum("ij,ij->i", rows, rows)
    tree.emb_valid[ids] = True


def node_embedding(tree: BoundaryTree, ids, embed) -> np.ndarray:
    """Rows `ids` of the tree's embedding matrix under `embed`: one row for
    an int id, a row block for a list of ids. Missing rows are filled first
    (see fill_embeddings)."""
    fill_embeddings(tree, embed, [ids] if isinstance(ids, (int, np.integer)) else ids)
    return tree.emb[ids]


def candidate_ids(tree: BoundaryTree, node_id: int) -> list[int]:
    """Traversal candidates at a node: itself plus its children, except that
    a node at the max_children bound cannot be its own candidate."""
    node = tree.nodes[node_id]
    if tree.max_children is not None and len(node.children) >= tree.max_children:
        return list(node.children)
    return [node_id, *node.children]


def _check_queries(tree: BoundaryTree, y, ranks, name: str) -> np.ndarray:
    """`y` as float64, or a ValueError unless it has one of `ranks` and rows
    of the tree's feature width."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in ranks or y.shape[-1] != tree.feature_dim:
        want = " or ".join(("(d,)", "(k, d)")[r - 1] for r in ranks)
        raise ValueError(f"{name}: query shape {y.shape} does not match the tree's feature "
                         f"width d = {tree.feature_dim}; expected {want}")
    return y


def traverse(tree: BoundaryTree, embed, y, y_emb=None) -> Trace:
    """Greedy root-to-final descent for one raw query vector `y`.

    `y_emb` is the query's embedding under `embed` when the caller already
    has it; otherwise traverse computes embed(y). At each node with
    children, move to the distance argmin over the candidate set; equal
    distances resolve to the lowest node id (candidate lists ascend by id,
    so the first minimum wins). Stops when the argmin is the current node or
    a childless node is reached. Each decision's distances come from one
    l2_value call over the candidate rows of the tree's embedding matrix.
    walk_block takes the same descent for a block of queries.
    """
    y = _check_queries(tree, y, (1,), "traverse")
    if y_emb is None:
        y_emb = embed(y)
    y_emb = np.asarray(y_emb, dtype=np.float64)
    steps: list[TraceStep] = []
    current = tree.root
    while True:
        if not tree.nodes[current].children:
            return Trace(steps, current, STOP_LEAF)
        cands = candidate_ids(tree, current)
        dists = l2_value(y_emb, node_embedding(tree, cands, embed))
        chosen = int(np.argmin(dists))
        steps.append(TraceStep(current, cands, dists, chosen))
        nxt = cands[chosen]
        if nxt == current:
            return Trace(steps, current, STOP_STAYED)
        current = nxt


# The block walk measures distances in row chunks sized so that each of its
# arrays of query rows, differences and distances holds about this many
# floats, whatever the block size.
CHUNK_FLOATS = 1 << 16

# Embedding width from which _nearest screens a decision with one GEMM
# before it takes any exact distance. Below it the screen's dozen extra
# numpy calls per decision cost more than the arithmetic they save: on
# Gaussian blobs, a raw-feature block build plus block walk was 15% slower
# screened at width 2, 9% faster at 20 and 26-63% faster from 64 on
# (CHANGES.md has the table). Width 20, an MLP output width of the
# benchmark, stays exact until its training builds are measured screened.
SCREEN_MIN_WIDTH = 64

# A row whose screen scale |q|^2 + max sq reaches this (inf and NaN
# included) takes the exact path, so nothing in the screen can overflow.
_SCREEN_MAX_SCALE = 2.0 ** 1000
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def walk_block(tree: BoundaryTree, embed, y) -> np.ndarray:
    """Final node id of each row of a raw query block `y` (rank 2): the
    descent of `traverse`, taken for the whole block at once.

    The block is embedded by one embed call and the tree's rows are filled
    once; _walk then descends every row, so each final equals
    traverse(tree, embed, y[i], q[i]).final, with q = embed(y), bitwise,
    ties included. Non-finite rows take the exact path without a numpy
    warning.
    """
    y = _check_queries(tree, y, (2,), "walk_block")
    if not len(y):
        return np.full(0, tree.root, dtype=np.intp)
    with np.errstate(invalid="ignore", over="ignore"):
        q = np.asarray(embed(y), dtype=np.float64)
        fill_embeddings(tree, embed)
        return _walk(tree, q)[0]


def _walk(tree: BoundaryTree, q):
    """Descend every row of an embedded query block `q` (rank 2, at least
    one row); every node row must be valid.

    Returns the final node id of each row and, for each visited node, the
    pair (rows, next): the indices of the rows that reached it and the node
    each of them moved to, the node itself where a row stopped there.
    Queries are grouped by their current node, level by level, and a group
    takes its decision through _nearest in row chunks gathered into a
    preallocated buffer (no copy of the whole group). _nearest's choice is
    l2_value's first minimum, so every move is the one traverse makes.
    """
    finals = np.full(len(q), tree.root, dtype=np.intp)
    visits = {}
    width = q.shape[1]
    scratch = np.empty((2, min(len(q), max(1, CHUNK_FLOATS // max(width, 1))), width))
    groups = [(tree.root, np.arange(len(q)))]
    for node, rows in groups:  # appended groups are the next level down
        finals[rows] = node
        if not tree.nodes[node].children:
            visits[node] = (rows, np.full(len(rows), node))
            continue
        cands = candidate_ids(tree, node)
        choice = np.empty(len(rows), dtype=np.intp)
        step = max(1, CHUNK_FLOATS // max(width, len(cands)))
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            m = len(chunk)
            # clip, not the default raise: take then writes `out` directly
            block = np.take(q, chunk, axis=0, out=scratch[0, :m], mode="clip")
            choice[lo:lo + m] = _nearest(tree, cands, block, diff=scratch[1, :m])
        visits[node] = (rows, np.asarray(cands)[choice])
        # bincount, not np.unique: the latter imports numpy.ma on first use
        for j in np.bincount(choice, minlength=len(cands)).nonzero()[0]:
            if cands[j] != node:
                groups.append((cands[j], rows[choice == j]))
    return finals, visits


def _nearest(tree: BoundaryTree, cands, q, qsq=None, diff=None):
    """Index into `cands` of the nearest candidate for one embedded query
    row `q` (rank 1), or one index per row of a block (rank 2): the first
    minimum of l2_value(row, tree.emb[cands]), bitwise traverse's choice.
    The candidates' rows and squared norms `tree.sq` must be valid.

    The exact path is _exact. For widths d >= SCREEN_MIN_WIDTH a screen
    decides first, since a hard decision needs only the argmin. For a row
    q and a candidate c, let s_c be the float sum l2_value takes the square
    root of, and a_c = sq[c] - 2 q.c, from one GEMM (a GEMV for one row)
    over the candidates. With u = eps/2 and gamma_n = n u / (1 - n u), the
    dot-product error bound holds for any summation order, FMA included:
      |sq[c] - |c|^2| <= gamma_d |c|^2 and |fl(q.c) - q.c| <= gamma_d |q||c|,
      so with the last subtraction |a_c + |q|^2 - |q - c|^2|
          <= 2 gamma_(d+1) (|q|^2 + |c|^2);
      l2_value's sum of d rounded squares of rounded differences gives
      |s_c - |q - c|^2| <= gamma_(d+2) |q - c|^2 <= 2 gamma_(d+2) (|q|^2 + |c|^2).
    Hence, for every candidate,
      |a_c + |q|^2 - s_c| <= M = 8 (d + 4) eps (|q|^2 + max sq[C] + tiny),
    more than four times over: the slack covers the rounding of |q|^2, of
    max sq and of M itself, and the tiny term (the smallest normal float)
    covers underflow, which adds at most u tiny per product. A row is
    decided by the screen only if exactly one candidate w has
    a_w <= min a + 3M. Then every other candidate has
      s_c >= a_c + |q|^2 - M > a_w + |q|^2 + 2M >= s_w + M >= s_w (1 + 4 eps),
    so its correctly rounded square root is strictly larger than w's, and
    the first-minimum rule cannot pick it. Every other row takes the exact
    path: ties, duplicates and near-ties (two or more candidates pass),
    rows with a NaN (none passes), and rows whose scale |q|^2 + max sq is
    not below _SCREEN_MAX_SCALE (inf included).
    """
    c = tree.emb[cands]
    if q.shape[-1] < SCREEN_MIN_WIDTH:
        return _exact(q, c, diff)
    if qsq is None:
        qsq = np.einsum("ij,ij->i", q, q)
    sq = tree.sq[cands]
    approx = sq - 2.0 * (q @ c.T)
    scale = qsq + sq.max()
    limit = approx.min(axis=-1) + (scale + _TINY) * (24 * (q.shape[-1] + 4) * _EPS)
    unsure = ((approx <= limit[..., None]).sum(axis=-1) != 1) | (scale >= _SCREEN_MAX_SCALE)
    choice = approx.argmin(axis=-1)
    if not unsure.any():
        return choice
    if q.ndim == 1:
        return _exact(q, c)
    todo = np.flatnonzero(unsure)
    choice[todo] = _exact(q[todo], c, diff)
    return choice


def _exact(q, c, diff=None):
    """First minimum of l2_value(row, c) for one row `q` (rank 1) or each
    row of a block, with l2_value's arithmetic on the same elements in the
    same order: one l2_value call for one row, one distance column per
    candidate through the (rows x width) buffer `diff` for a block."""
    if q.ndim == 1:
        return np.argmin(l2_value(q, c))
    diff = diff[:len(q)]
    dist = np.empty((len(c), len(q)))
    for j, row in enumerate(c):
        np.subtract(q, row, out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=dist[j])
    np.sqrt(dist, out=dist)
    return dist.argmin(axis=0)


def _descend(tree: BoundaryTree, row) -> int:
    """Final node of traverse's descent for one embedded query row, with
    the decisions of _nearest; every node row must be valid."""
    current = tree.root
    qsq = row @ row
    while tree.nodes[current].children:
        cands = candidate_ids(tree, current)
        nxt = cands[_nearest(tree, cands, row, qsq)]
        if nxt == current:
            break
        current = nxt
    return current


def predict_hard(tree: BoundaryTree, embed, y):
    """Label of the node where the greedy descent stops for a raw query
    vector; for a rank-2 block of queries, one label per row (an empty list
    for no rows). Both go through walk_block, so every label is the one
    traverse's final node carries for the same embedded row."""
    y = _check_queries(tree, y, (1, 2), "predict_hard")
    labels = [tree.nodes[i].label for i in walk_block(tree, embed, np.atleast_2d(y)).tolist()]
    return labels[0] if y.ndim == 1 else labels


def _insert(tree: BoundaryTree, sample: Sample, row, final=None) -> int | None:
    """The insert-on-error rule for one sample with embedded query row
    `row`: descend (unless the caller knows the `final` node of that
    descent), and add the sample under the final node if that node's label
    is wrong, with `row` as the new node's row. Returns the new node's id,
    or None when nothing was added."""
    if final is None:
        final = _descend(tree, row)
    if tree.nodes[final].label == sample.label:
        return None
    node_id = tree.add_child(final, sample)
    _store_rows(tree, [node_id], row[None])
    return node_id


def insert_if_wrong(tree: BoundaryTree, embed, query: Sample, y_emb=None) -> bool:
    """Train on one sample: store it only if the tree misclassifies it.

    Returns True when a node was added. The new node hangs off the final
    node of the failed query, so the new edge crosses a class boundary.
    The tree's missing rows are filled once, then the query descends with
    _nearest's decisions, which are traverse's. The query's embedding,
    `y_emb` if the caller has it and embed(y) otherwise, is stored as the
    new node's row. Non-finite rows take the exact path without a numpy
    warning.
    """
    y = _check_queries(tree, query.features, (1,), "insert_if_wrong")
    with np.errstate(invalid="ignore", over="ignore"):
        fill_embeddings(tree, embed)
        row = np.asarray(embed(y) if y_emb is None else y_emb, dtype=np.float64)
        return _insert(tree, query, row) is not None


# build_tree walks its pending samples in blocks of this many rows. Longer
# blocks share more of each level's Python work; shorter ones let fewer
# rows go stale before their turn. Raw-feature builds of 3000 Gaussian-blob
# samples at 784-d were fastest from 64 to 256 rows with unbounded fan-out
# and at 256 with max_children 2; 800 half-moons samples, from 64 to 128
# (CHANGES.md has the table).
BUILD_BLOCK = 128


def build_tree(samples, embed, max_children: int | None = None, class_count: int = 2) -> BoundaryTree:
    """Feed samples through insert_if_wrong's rule in order; the first
    becomes the root. The samples are embedded as one row block, and each
    stored sample's row is its query embedding.

    The tree equals one built by a loop of traverse, fed the block's rows,
    plus add_child. The samples are walked BUILD_BLOCK rows at a time by
    _walk, and then taken in order. An insert under a node F changes only
    F's candidate set, and every walk that F changes passed through F, so
    only the block's later rows that visited F can move; _mark_stale
    re-checks them. A row marked stale takes the one-row descent of
    _insert when its turn comes. Non-finite rows take the exact path
    without a numpy warning.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("build_tree: empty sample list")
    dim = samples[0].features.shape[0]
    for i, s in enumerate(samples):
        if s.features.shape != (dim,):
            raise ValueError(f"build_tree: sample {i} has feature length {s.features.shape[0]}, expected {dim}")
    tree = new_tree(samples[0], max_children, class_count)
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.asarray(embed(np.array([s.features for s in samples])), dtype=np.float64)
        tree.reset_embeddings(embed.cache_key)
        _store_rows(tree, [0], rows[:1])
        for lo in range(1, len(samples), BUILD_BLOCK):
            q = rows[lo:lo + BUILD_BLOCK]
            finals, visits = _walk(tree, q)
            finals = finals.tolist()
            stale = np.zeros(len(q), dtype=bool)
            for i, s in enumerate(samples[lo:lo + len(q)]):
                node_id = _insert(tree, s, q[i], None if stale[i] else finals[i])
                if node_id is not None:
                    _mark_stale(tree, node_id, visits, q, i, stale)
    return tree


def _mark_stale(tree: BoundaryTree, node_id: int, visits, q, i: int, stale) -> None:
    """Mark stale each row of the block `q` after row `i` whose walk the
    new node `node_id` may change; `visits` is _walk's map for the block.

    Every move of a walk goes from a node to one of its children, so only
    walks that reached the new node's parent F can change. A row not yet
    stale still walks its _walk path, and chose c* = next there. The new
    node joins F's candidates with the highest id, so it loses every tie,
    and F leaves them if F just became full. So the row keeps its whole
    path exactly when l2(q, new) >= l2(q, c*) in l2_value's arithmetic,
    unless c* = F and F is now full. A NaN distance compares False, so its
    row goes stale, which is safe: a stale row is walked again.
    """
    parent = tree.nodes[node_id].parent
    if parent not in visits:
        return
    rows, nxt = visits[parent]
    live = (rows > i) & ~stale[rows]
    rows, nxt = rows[live], nxt[live]
    if not len(rows):
        return
    block = q[rows]
    keep = l2_value(block, tree.emb[node_id]) >= l2_value(block, tree.emb[nxt])
    if tree.max_children is not None and len(tree.nodes[parent].children) == tree.max_children:
        keep &= nxt != parent
    stale[rows[~keep]] = True


# ---- snapshot files --------------------------------------------------------
#
# Text header, then a count line "n dim C", then per node one text line
# "id parent label" followed by the node's raw features as little-endian
# float64. Nodes appear in id order; children lists are rebuilt from the
# parent column. max_children is a query-time setting and is not stored.

TREE_MAGIC = "BETREE-TREE v1"


class TreeFormatError(ValueError):
    """Tree snapshot file does not match the expected layout."""


def save_tree(tree: BoundaryTree, path) -> None:
    with open(path, "wb") as f:
        f.write(f"{TREE_MAGIC}\n".encode("ascii"))
        f.write(f"{len(tree)} {tree.feature_dim} {tree.class_count}\n".encode("ascii"))
        for node in tree.nodes:
            parent = -1 if node.parent is None else node.parent
            f.write(f"{node.id} {parent} {node.label}\n".encode("ascii"))
            f.write(node.sample.features.astype("<f8").tobytes())


def load_tree(path, max_children: int | None = None) -> BoundaryTree:
    with open(path, "rb") as f:
        buf = f.read()

    def read_line(pos):
        end = buf.find(b"\n", pos)
        if end < 0:
            raise TreeFormatError("unterminated header line")
        return buf[pos:end].decode("ascii", errors="replace"), end + 1

    line, pos = read_line(0)
    if line != TREE_MAGIC:
        raise TreeFormatError(f"bad tree magic {line!r}, expected {TREE_MAGIC!r}")
    line, pos = read_line(pos)
    parts = line.split()
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise TreeFormatError(f"bad tree count line {line!r}, expected 'count dim classes'")
    count, dim, class_count = (int(p) for p in parts)
    if count < 1:
        raise TreeFormatError("tree snapshot has no nodes")

    tree = None
    entries = []
    for i in range(count):
        line, pos = read_line(pos)
        fields = line.split()
        if len(fields) != 3:
            raise TreeFormatError(f"bad node line {line!r}, expected 'id parent label'")
        try:
            nid, parent, label = (int(x) for x in fields)
        except ValueError:
            raise TreeFormatError(
                f"node line {line!r} at position {i} has a non-integer field") from None
        if nid != i:
            raise TreeFormatError(f"node ids must be sequential, got {nid} at position {i}")
        if not 0 <= label < class_count:
            raise TreeFormatError(f"node {nid} has label {label} outside [0, {class_count})")
        if len(buf) - pos < dim * 8:
            raise TreeFormatError(f"truncated feature payload at node {nid}")
        feats = np.frombuffer(buf, "<f8", dim, pos).copy()
        pos += dim * 8
        entries.append((nid, parent, label, feats))
    if pos != len(buf):
        raise TreeFormatError(f"{len(buf) - pos} trailing bytes after last node")

    for nid, parent, label, feats in entries:
        if nid == 0:
            if parent != -1:
                raise TreeFormatError("node 0 must be the root (parent -1)")
            tree = BoundaryTree(Sample(feats, label), max_children, class_count)
        else:
            if not 0 <= parent < nid:
                raise TreeFormatError(f"node {nid} has invalid parent {parent}")
            tree.add_child(parent, Sample(feats, label))
    return tree
