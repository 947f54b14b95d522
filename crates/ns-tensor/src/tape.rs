//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an append-only arena of operator nodes. Because nodes can
//! only refer to earlier nodes, the arena order is a topological order and
//! the backward pass is a single reverse scan.
//!
//! Unlike a scalar-loss-only autograd API, [`Tape::backward_from`] seeds an
//! *arbitrary* node with an upstream gradient tensor. The distributed
//! runtime uses this to chain per-layer tape segments: the gradient of a
//! layer's output arrives from the next layer (possibly from a remote
//! worker via `PostToDepNbr`) and is injected as the seed.

use std::sync::Arc;
use std::time::Instant;

use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The raw arena index (for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Differentiable operators recorded on the tape.
#[derive(Clone)]
enum Op {
    /// No operands: a [`Tape::leaf`] (trainable parameter, or an activation
    /// input whose gradient is shipped upstream) or a [`Tape::constant`].
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddRowBroadcast(Var, Var),
    MulColBroadcast(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Elu(Var, f32),
    GatherRows(Var, Arc<[u32]>),
    ScatterAddRows(Var, Arc<[u32]>),
    /// Fused SpMM-style neighborhood aggregation.
    WeightedAggregate {
        x: Var,
        edge_src: Arc<[u32]>,
        dst_offsets: Arc<[usize]>,
        weights: Option<Arc<[f32]>>,
    },
    /// Max-pooling neighborhood aggregation; `argmax` records the winning
    /// edge per output element for the backward pass.
    MaxAggregate {
        x: Var,
        edge_src: Arc<[u32]>,
        argmax: Arc<[u32]>,
    },
    ConcatCols(Var, Var),
    SegmentSoftmax(Var, Arc<[usize]>),
    LogSoftmaxRows(Var),
    /// `(1 + eps) * h + agg` with scalar `eps` — the GIN combiner.
    EpsCombine {
        eps: Var,
        h: Var,
        agg: Var,
    },
    /// Masked negative log-likelihood against fixed labels.
    NllLoss {
        log_probs: Var,
        labels: Arc<[u32]>,
        weights: Arc<[f32]>,
    },
    SumAll(Var),
}

impl Op {
    /// The nodes this operator reads.
    fn operands(&self) -> [Option<Var>; 3] {
        match *self {
            Op::Leaf => [None; 3],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::ConcatCols(a, b) => [Some(a), Some(b), None],
            Op::Scale(x, _)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Elu(x, _)
            | Op::GatherRows(x, _)
            | Op::ScatterAddRows(x, _)
            | Op::WeightedAggregate { x, .. }
            | Op::MaxAggregate { x, .. }
            | Op::SegmentSoftmax(x, _)
            | Op::LogSoftmaxRows(x)
            | Op::NllLoss { log_probs: x, .. }
            | Op::SumAll(x) => [Some(x), None, None],
            Op::EpsCombine { eps, h, agg } => [Some(eps), Some(h), Some(agg)],
        }
    }
}

struct Node {
    op: Op,
    /// Shared only by a [`Tape::leaf_shared`]; every other value is the
    /// tape's alone.
    value: Arc<Tensor>,
    grad: Option<Tensor>,
    /// Does any [`Tape::leaf`] feed this node? Fixed when the node is
    /// recorded; the backward pass computes a gradient for a node only if
    /// this is set.
    needs_grad: bool,
}

/// Append-only autograd arena.
pub struct Tape {
    nodes: Vec<Node>,
    flops: u64,
    /// Operand gradients the backward passes skipped. See [`Tape::pruned`].
    pruned: u64,
    /// Gradient rows the adjoint kernels left out. See [`Tape::zero_rows`].
    zero_rows: u64,
    /// Wall time accrued to graph operators (gather/scatter/aggregate/
    /// segment-softmax), forward and backward combined. See [`Tape::graph_op_ns`].
    graph_ns: u64,
    /// Wall time accrued to NN operators (everything else).
    nn_ns: u64,
    /// Timestamp of the most recent tape event; the gap to the next recorded
    /// op accrues to that op's kind.
    last_event: Instant,
}

impl Default for Tape {
    fn default() -> Self {
        Tape {
            nodes: Vec::new(),
            flops: 0,
            pruned: 0,
            zero_rows: 0,
            graph_ns: 0,
            nn_ns: 0,
            last_event: Instant::now(),
        }
    }
}

/// Is this operator a *graph* op (neighborhood data movement / aggregation,
/// Fig. 6's decoupled graph-op set) as opposed to an in-worker NN op?
fn is_graph_op(op: &Op) -> bool {
    matches!(
        op,
        Op::GatherRows(..)
            | Op::ScatterAddRows(..)
            | Op::WeightedAggregate { .. }
            | Op::MaxAggregate { .. }
            | Op::SegmentSoftmax(..)
    )
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total FLOPs recorded so far (forward and backward combined).
    /// Monotonically increasing; callers snapshot and diff.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Wall-clock nanoseconds accrued to graph operators so far (forward and
    /// backward combined). Monotonically increasing; callers snapshot and diff.
    ///
    /// Attribution is at tape granularity: the elapsed time between
    /// consecutive tape events accrues to the kind (graph vs NN) of the
    /// operator just recorded, so interleaved flows like GAT attention split
    /// honestly without per-operator instrumentation.
    pub fn graph_op_ns(&self) -> u64 {
        self.graph_ns
    }

    /// Wall-clock nanoseconds accrued to NN operators so far. Counterpart of
    /// [`Tape::graph_op_ns`].
    pub fn nn_op_ns(&self) -> u64 {
        self.nn_ns
    }

    /// Operand gradients the backward passes so far did not compute because
    /// no [`Tape::leaf`] feeds the operand: one per operand of every
    /// adjoint that ran. Exact and monotonically increasing; zero on a
    /// tape without [`Tape::constant`]s.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Exactly-zero gradient rows the backward passes so far left out of
    /// the weight-gradient products (`k` steps of
    /// [`Tensor::matmul_tn`]) and the transposed aggregations
    /// (destinations of [`Tensor::weighted_aggregate_transpose`]), counted
    /// from the kernels' own skip decisions. Exact, the same at every
    /// thread count, and monotonically increasing. FLOPs stay metered at
    /// the nominal, shape-based count.
    pub fn zero_rows(&self) -> u64 {
        self.zero_rows
    }

    /// Records an operator node. It needs a gradient iff one of its
    /// operands does, which is known here in O(1): operands are earlier
    /// nodes, so the backward pass never walks the graph to find out.
    fn push(&mut self, op: Op, value: Tensor, flops: u64) -> Var {
        let needs_grad = op.operands().iter().flatten().any(|v| self.nodes[v.0].needs_grad);
        self.push_node(op, Arc::new(value), flops, needs_grad)
    }

    fn push_node(&mut self, op: Op, value: Arc<Tensor>, flops: u64, needs_grad: bool) -> Var {
        let now = Instant::now();
        let dt = now.duration_since(self.last_event).as_nanos() as u64;
        self.last_event = now;
        if is_graph_op(&op) {
            self.graph_ns += dt;
        } else {
            self.nn_ns += dt;
        }
        self.flops += flops;
        self.nodes.push(Node { op, value, grad: None, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// Records a leaf holding `value`. Leaves accumulate gradients, which
    /// the caller reads back with [`Tape::grad`] / [`Tape::take_grad`].
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push_node(Op::Leaf, Arc::new(value), 0, true)
    }

    /// A [`Tape::leaf`] that shares `value` instead of owning a copy: the
    /// tape keeps the tensor alive, and whoever else holds it sees no write
    /// through the tape (nothing writes a leaf's value).
    pub fn leaf_shared(&mut self, value: Arc<Tensor>) -> Var {
        self.push_node(Op::Leaf, value, 0, true)
    }

    /// Records `value` as an input nobody wants the gradient of (raw
    /// features, serving inputs). Forward results are those of a
    /// [`Tape::leaf`]; the backward pass computes nothing for it or for
    /// any node that depends on constants alone, and its [`Tape::grad`]
    /// stays `None`.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push_node(Op::Leaf, Arc::new(value), 0, false)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Moves the forward value of `v` out of the tape, leaving an empty
    /// tensor behind: for a caller that is done with the tape and wants a
    /// value it recorded back without copying it (a shared value is
    /// copied only if its other holders are still alive).
    pub fn take_value(&mut self, v: Var) -> Tensor {
        let empty = Arc::new(Tensor::from_vec(0, 0, Vec::new()));
        Arc::unwrap_or_clone(std::mem::replace(&mut self.nodes[v.0].value, empty))
    }

    /// Whether a backward pass computes a gradient for `v`: true iff some
    /// [`Tape::leaf`] feeds it.
    pub fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// The accumulated gradient of `v`, if any backward pass reached it
    /// (never, for a node no [`Tape::leaf`] feeds).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Removes and returns the accumulated gradient of `v`.
    pub fn take_grad(&mut self, v: Var) -> Option<Tensor> {
        self.nodes[v.0].grad.take()
    }

    // ---- operators -------------------------------------------------------

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        let flops = 2 * va.rows() as u64 * va.cols() as u64 * vb.cols() as u64;
        let out = va.matmul(vb);
        self.push(Op::MatMul(a, b), out, flops)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        let flops = out.len() as u64;
        self.push(Op::Add(a, b), out, flops)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        let flops = out.len() as u64;
        self.push(Op::Sub(a, b), out, flops)
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        let flops = out.len() as u64;
        self.push(Op::Mul(a, b), out, flops)
    }

    /// `a * s` for a constant `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let out = self.nodes[a.0].value.scale(s);
        let flops = out.len() as u64;
        self.push(Op::Scale(a, s), out, flops)
    }

    /// Adds the `1 x d` row vector `bias` to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let out = self.nodes[x.0].value.add_row_broadcast(&self.nodes[bias.0].value);
        let flops = out.len() as u64;
        self.push(Op::AddRowBroadcast(x, bias), out, flops)
    }

    /// Multiplies row `r` of `x` by scalar `coeff[r]` (`coeff` is `n x 1`).
    pub fn mul_col_broadcast(&mut self, x: Var, coeff: Var) -> Var {
        let out = self.nodes[x.0].value.mul_col_broadcast(&self.nodes[coeff.0].value);
        let flops = out.len() as u64;
        self.push(Op::MulColBroadcast(x, coeff), out, flops)
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let out = self.nodes[x.0].value.relu();
        let flops = out.len() as u64;
        self.push(Op::Relu(x), out, flops)
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        let out = self.nodes[x.0].value.leaky_relu(alpha);
        let flops = out.len() as u64;
        self.push(Op::LeakyRelu(x, alpha), out, flops)
    }

    /// ELU.
    pub fn elu(&mut self, x: Var, alpha: f32) -> Var {
        let out = self.nodes[x.0].value.elu(alpha);
        let flops = 2 * out.len() as u64;
        self.push(Op::Elu(x, alpha), out, flops)
    }

    /// Row gather (the differentiable half of `ScatterToEdge`).
    pub fn gather_rows(&mut self, x: Var, idx: Arc<[u32]>) -> Var {
        let out = self.nodes[x.0].value.gather_rows(&idx);
        let flops = out.len() as u64;
        self.push(Op::GatherRows(x, idx), out, flops)
    }

    /// Row scatter-add into `n_out` rows (the differentiable half of
    /// `GatherByDst`).
    pub fn scatter_add_rows(&mut self, x: Var, idx: Arc<[u32]>, n_out: usize) -> Var {
        let out = self.nodes[x.0].value.scatter_add_rows(&idx, n_out);
        let flops = self.nodes[x.0].value.len() as u64;
        self.push(Op::ScatterAddRows(x, idx), out, flops)
    }

    /// Fused neighborhood aggregation (SpMM):
    /// `out[d] = Σ_e weights[e] · x[edge_src[e]]` over each destination's
    /// edge segment, without materializing per-edge rows. The adjoint
    /// scatters the destination gradient back through the same structure.
    pub fn weighted_aggregate(
        &mut self,
        x: Var,
        edge_src: Arc<[u32]>,
        dst_offsets: Arc<[usize]>,
        weights: Option<Arc<[f32]>>,
    ) -> Var {
        let out = self.nodes[x.0].value.weighted_aggregate(
            &edge_src,
            &dst_offsets,
            weights.as_deref(),
        );
        let flops = 2 * edge_src.len() as u64 * out.cols() as u64;
        self.push(
            Op::WeightedAggregate { x, edge_src, dst_offsets, weights },
            out,
            flops,
        )
    }

    /// Max-pooling neighborhood aggregation: `out[d][c] =
    /// max_e x[edge_src[e]][c]` over destination `d`'s edge segment
    /// (0 for empty segments). The adjoint routes each output gradient to
    /// the winning source row.
    pub fn max_aggregate(
        &mut self,
        x: Var,
        edge_src: Arc<[u32]>,
        dst_offsets: Arc<[usize]>,
    ) -> Var {
        let (out, argmax) =
            self.nodes[x.0].value.max_aggregate(&edge_src, &dst_offsets);
        let flops = edge_src.len() as u64 * out.cols() as u64;
        self.push(
            Op::MaxAggregate { x, edge_src, argmax: argmax.into() },
            out,
            flops,
        )
    }

    /// Column concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(Op::ConcatCols(a, b), out, 0)
    }

    /// Softmax over contiguous row segments of an `e x 1` tensor.
    pub fn segment_softmax(&mut self, x: Var, offsets: Arc<[usize]>) -> Var {
        let out = self.nodes[x.0].value.segment_softmax(&offsets);
        let flops = 4 * out.len() as u64;
        self.push(Op::SegmentSoftmax(x, offsets), out, flops)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, x: Var) -> Var {
        let out = self.nodes[x.0].value.log_softmax_rows();
        let flops = 4 * out.len() as u64;
        self.push(Op::LogSoftmaxRows(x), out, flops)
    }

    /// GIN combiner: `(1 + eps) * h + agg` with `eps` a `1 x 1` parameter.
    pub fn eps_combine(&mut self, eps: Var, h: Var, agg: Var) -> Var {
        let e = self.nodes[eps.0].value.scalar_value();
        let out = {
            let vh = &self.nodes[h.0].value;
            let vagg = &self.nodes[agg.0].value;
            let mut out = vh.scale(1.0 + e);
            out.add_assign(vagg);
            out
        };
        let flops = 2 * out.len() as u64;
        self.push(Op::EpsCombine { eps, h, agg }, out, flops)
    }

    /// Masked negative log-likelihood: `sum_r weights[r] * -log_probs[r, labels[r]]`.
    ///
    /// Rows with `weights[r] == 0` contribute nothing (unlabeled vertices).
    pub fn nll_loss(&mut self, log_probs: Var, labels: Arc<[u32]>, weights: Arc<[f32]>) -> Var {
        let lp = &self.nodes[log_probs.0].value;
        assert_eq!(labels.len(), lp.rows(), "nll_loss: label count");
        assert_eq!(weights.len(), lp.rows(), "nll_loss: weight count");
        let mut loss = 0.0f32;
        for (r, (&y, &w)) in labels.iter().zip(weights.iter()).enumerate() {
            if w != 0.0 {
                loss -= w * lp.get(r, y as usize);
            }
        }
        let flops = 2 * lp.rows() as u64;
        self.push(
            Op::NllLoss { log_probs, labels, weights },
            Tensor::scalar(loss),
            flops,
        )
    }

    /// Sum of all elements, as a scalar node.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let out = Tensor::scalar(self.nodes[x.0].value.sum());
        let flops = self.nodes[x.0].value.len() as u64;
        self.push(Op::SumAll(x), out, flops)
    }

    // ---- backward --------------------------------------------------------

    fn accumulate(&mut self, v: Var, g: Tensor) {
        match &mut self.nodes[v.0].grad {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Operand `v`'s share of a node's adjoint: if `v` needs a gradient,
    /// adds `grad(self)` into it and `flops` into the FLOP meter; otherwise
    /// computes nothing and counts one pruned operand gradient. `grad`
    /// reads operand values through the `&Tape` it is handed, so no arm
    /// copies a value out of the arena to get past the borrow of the
    /// accumulation slot.
    fn give(&mut self, v: Var, flops: u64, grad: impl FnOnce(&Tape) -> Tensor) {
        if !self.nodes[v.0].needs_grad {
            self.pruned += 1;
            return;
        }
        self.flops += flops;
        let g = grad(self);
        self.accumulate(v, g);
    }

    /// Runs the backward pass from a scalar node, seeding it with gradient
    /// `1.0`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be scalar; use backward_from for tensors"
        );
        self.backward_from(loss, Tensor::scalar(1.0));
    }

    /// Runs the backward pass seeding node `root` with gradient `seed`.
    ///
    /// Gradients accumulate into every [`Tape::leaf`] reachable from
    /// `root`, and nowhere else: an operand that no `leaf` feeds (see
    /// [`Tape::constant`]) gets no gradient computed, so a `root` that
    /// depends on constants alone runs no operator adjoint at all. Every
    /// gradient that *is* computed is the one the all-`leaf` tape would
    /// compute, bit for bit. May be called multiple times; gradients add up.
    pub fn backward_from(&mut self, root: Var, seed: Tensor) {
        assert_eq!(
            self.nodes[root.0].value.shape(),
            seed.shape(),
            "backward_from: seed shape mismatch"
        );
        if !self.nodes[root.0].needs_grad {
            return;
        }
        self.accumulate(root, seed);
        // Graph-op vs NN-op wall-time attribution for the backward scan:
        // each node's elapsed time accrues to its kind.
        let mut last = Instant::now();
        for i in (0..=root.0).rev() {
            // Leaves keep their accumulated gradients for the caller.
            // Interior nodes are drained as their gradient is propagated,
            // so a later `backward_from` call only pushes newly-seeded
            // gradient.
            let op = match &self.nodes[i].op {
                Op::Leaf => continue,
                op => op.clone(),
            };
            let Some(mut g) = self.nodes[i].grad.take() else { continue };
            let node_is_graph = is_graph_op(&op);
            let n = g.len() as u64;
            // Backward flops are counted roughly symmetrical to forward,
            // per operand gradient actually computed.
            match op {
                Op::Leaf => unreachable!("leaves are skipped above"),
                Op::MatMul(a, b) => {
                    let (m, k) = self.nodes[a.0].value.shape();
                    let flops = 2 * m as u64 * k as u64 * g.cols() as u64;
                    self.give(a, flops, |t| g.matmul_nt(t.value(b)));
                    let mut zero_rows = 0;
                    self.give(b, flops, |t| {
                        let (db, z) = t.value(a).matmul_tn_counted(&g);
                        zero_rows = z;
                        db
                    });
                    self.zero_rows += zero_rows;
                }
                Op::Add(a, b) => {
                    self.give(a, n, |_| g.clone());
                    self.give(b, n, |_| g);
                }
                Op::Sub(a, b) => {
                    self.give(a, n, |_| g.clone());
                    self.give(b, n, |_| g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    self.give(a, n, |t| g.mul(t.value(b)));
                    self.give(b, n, |t| g.mul(t.value(a)));
                }
                Op::Scale(a, s) => self.give(a, n, |_| g.scale(s)),
                Op::AddRowBroadcast(x, bias) => {
                    self.give(bias, n, |_| g.sum_rows());
                    self.give(x, n, |_| g);
                }
                Op::MulColBroadcast(x, coeff) => {
                    self.give(x, 2 * n, |t| g.mul_col_broadcast(t.value(coeff)));
                    self.give(coeff, 2 * n, |t| {
                        let vx = t.value(x);
                        let mut dc = Tensor::zeros(vx.rows(), 1);
                        for r in 0..vx.rows() {
                            let dot: f32 =
                                g.row(r).iter().zip(vx.row(r)).map(|(a, b)| a * b).sum();
                            dc.set(r, 0, dot);
                        }
                        dc
                    });
                }
                Op::Relu(x) => self.give(x, n, |t| {
                    for (d, &y) in g.data_mut().iter_mut().zip(t.nodes[i].value.data()) {
                        if y <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    g
                }),
                Op::LeakyRelu(x, alpha) => self.give(x, n, |t| {
                    for (d, &v) in g.data_mut().iter_mut().zip(t.value(x).data()) {
                        if v <= 0.0 {
                            *d *= alpha;
                        }
                    }
                    g
                }),
                Op::Elu(x, alpha) => self.give(x, 2 * n, |t| {
                    let (vx, vy) = (t.value(x), &t.nodes[i].value);
                    for ((d, &xin), &yout) in
                        g.data_mut().iter_mut().zip(vx.data()).zip(vy.data())
                    {
                        if xin <= 0.0 {
                            // d/dx alpha(e^x - 1) = alpha e^x = y + alpha
                            *d *= yout + alpha;
                        }
                    }
                    g
                }),
                Op::GatherRows(x, idx) => {
                    self.give(x, n, |t| g.scatter_add_rows(&idx, t.value(x).rows()))
                }
                Op::ScatterAddRows(x, idx) => self.give(x, n, |_| g.gather_rows(&idx)),
                Op::WeightedAggregate { x, edge_src, dst_offsets, weights } => {
                    let flops = 2 * edge_src.len() as u64 * g.cols() as u64;
                    let mut zero_rows = 0;
                    self.give(x, flops, |t| {
                        let (dx, z) = g.weighted_aggregate_transpose_counted(
                            &edge_src,
                            &dst_offsets,
                            weights.as_deref(),
                            t.value(x).rows(),
                        );
                        zero_rows = z;
                        dx
                    });
                    self.zero_rows += zero_rows;
                }
                Op::MaxAggregate { x, edge_src, argmax } => self.give(x, n, |t| {
                    let (rows, cols) = t.value(x).shape();
                    let mut dx = Tensor::zeros(rows, cols);
                    for (o, &winner) in argmax.iter().enumerate() {
                        if winner == u32::MAX {
                            continue;
                        }
                        let src = edge_src[winner as usize] as usize;
                        dx.data_mut()[src * cols + o % cols] += g.data()[o];
                    }
                    dx
                }),
                Op::ConcatCols(a, b) => {
                    let wa = self.nodes[a.0].value.cols();
                    self.give(a, 0, |_| g.slice_cols(0, wa));
                    self.give(b, 0, |_| g.slice_cols(wa, g.cols()));
                }
                Op::SegmentSoftmax(x, offsets) => self.give(x, 4 * n, |t| {
                    // dx = y * (g - sum_segment(g * y))
                    let y = &t.nodes[i].value;
                    let mut dx = Tensor::zeros(y.rows(), 1);
                    for w in offsets.windows(2) {
                        let (s, e) = (w[0], w[1]);
                        let mut dot = 0.0f32;
                        for r in s..e {
                            dot += g.data()[r] * y.data()[r];
                        }
                        for r in s..e {
                            dx.data_mut()[r] = y.data()[r] * (g.data()[r] - dot);
                        }
                    }
                    dx
                }),
                Op::LogSoftmaxRows(x) => self.give(x, 4 * n, |t| {
                    // dx = g - softmax(x) * rowsum(g), with the softmax
                    // recomputed from the input as exp(x - max) / Σ.
                    let vx = t.value(x);
                    for r in 0..vx.rows() {
                        let row = vx.row(r);
                        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut sum = 0.0f32;
                        for &a in row {
                            sum += (a - max).exp();
                        }
                        let gsum: f32 = g.row(r).iter().sum();
                        for (d, &a) in g.row_mut(r).iter_mut().zip(row) {
                            *d -= (a - max).exp() / sum * gsum;
                        }
                    }
                    g
                }),
                Op::EpsCombine { eps, h, agg } => {
                    self.give(eps, n, |t| {
                        let dot: f32 =
                            g.data().iter().zip(t.value(h).data()).map(|(a, b)| a * b).sum();
                        Tensor::scalar(dot)
                    });
                    self.give(h, n, |t| g.scale(1.0 + t.value(eps).scalar_value()));
                    self.give(agg, n, |_| g);
                }
                Op::NllLoss { log_probs, labels, weights } => {
                    let rows = labels.len() as u64;
                    self.give(log_probs, rows, |t| {
                        let gs = g.scalar_value();
                        let lp = t.value(log_probs);
                        let mut dx = Tensor::zeros(lp.rows(), lp.cols());
                        for (r, (&y, &w)) in labels.iter().zip(weights.iter()).enumerate() {
                            if w != 0.0 {
                                dx.set(r, y as usize, -w * gs);
                            }
                        }
                        dx
                    });
                }
                Op::SumAll(x) => {
                    let (rows, cols) = self.nodes[x.0].value.shape();
                    self.give(x, (rows * cols) as u64, |_| {
                        Tensor::full(rows, cols, g.scalar_value())
                    });
                }
            }
            let now = Instant::now();
            let dt = now.duration_since(last).as_nanos() as u64;
            last = now;
            if node_is_graph {
                self.graph_ns += dt;
            } else {
                self.nn_ns += dt;
            }
        }
        self.last_event = last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference numerical gradient of `f` w.r.t. one input tensor.
    fn numeric_grad(
        f: &dyn Fn(&Tensor) -> f32,
        at: &Tensor,
        eps: f32,
    ) -> Tensor {
        let mut g = Tensor::zeros(at.rows(), at.cols());
        for i in 0..at.len() {
            let mut plus = at.clone();
            plus.data_mut()[i] += eps;
            let mut minus = at.clone();
            minus.data_mut()[i] -= eps;
            g.data_mut()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        let d = a.max_abs_diff(b);
        assert!(d < tol, "max abs diff {d} exceeds tol {tol}");
    }

    #[test]
    fn matmul_gradients_match_numeric() {
        let a0 = Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75]);
        let b0 = Tensor::from_vec(3, 2, vec![1.0, 0.5, -0.5, 2.0, 0.25, -1.0]);

        let mut tape = Tape::new();
        let a = tape.leaf(a0.clone());
        let b = tape.leaf(b0.clone());
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        tape.backward(loss);

        let f_a = |x: &Tensor| x.matmul(&b0).sum();
        let f_b = |x: &Tensor| a0.matmul(x).sum();
        assert_close(tape.grad(a).unwrap(), &numeric_grad(&f_a, &a0, 1e-3), 1e-2);
        assert_close(tape.grad(b).unwrap(), &numeric_grad(&f_b, &b0, 1e-3), 1e-2);
    }

    #[test]
    fn relu_gradient_matches_numeric() {
        let x0 = Tensor::from_vec(1, 4, vec![-1.0, 0.5, 2.0, -0.25]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = tape.relu(x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let f = |t: &Tensor| t.relu().sum();
        assert_close(tape.grad(x).unwrap(), &numeric_grad(&f, &x0, 1e-3), 1e-2);
    }

    #[test]
    fn elu_gradient_matches_numeric() {
        let x0 = Tensor::from_vec(1, 4, vec![-1.0, 0.5, 2.0, -0.25]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = tape.elu(x, 1.0);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let f = |t: &Tensor| t.elu(1.0).sum();
        assert_close(tape.grad(x).unwrap(), &numeric_grad(&f, &x0, 1e-3), 1e-2);
    }

    #[test]
    fn leaky_relu_gradient_matches_numeric() {
        let x0 = Tensor::from_vec(1, 4, vec![-1.0, 0.5, 2.0, -0.25]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = tape.leaky_relu(x, 0.2);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let f = |t: &Tensor| t.leaky_relu(0.2).sum();
        assert_close(tape.grad(x).unwrap(), &numeric_grad(&f, &x0, 1e-3), 1e-2);
    }

    #[test]
    fn gather_scatter_gradients() {
        let x0 = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let idx: Arc<[u32]> = Arc::from(vec![2u32, 0, 2].into_boxed_slice());

        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = tape.gather_rows(x, Arc::clone(&idx));
        let loss = tape.sum_all(y);
        tape.backward(loss);
        // Row 2 gathered twice -> grad 2; row 0 once -> 1; row 1 never -> 0.
        assert_eq!(tape.grad(x).unwrap().data(), &[1., 1., 0., 0., 2., 2.]);

        let mut tape2 = Tape::new();
        let x2 = tape2.leaf(x0);
        let s = tape2.scatter_add_rows(x2, idx, 4);
        let loss2 = tape2.sum_all(s);
        tape2.backward(loss2);
        assert_eq!(tape2.grad(x2).unwrap().data(), &[1.; 6]);
    }

    #[test]
    fn segment_softmax_gradient_matches_numeric() {
        let x0 = Tensor::from_vec(5, 1, vec![0.1, -0.4, 0.7, 1.2, -0.3]);
        let offsets: Arc<[usize]> = Arc::from(vec![0usize, 3, 5].into_boxed_slice());
        // Weighted sum so the gradient is not trivially zero (softmax sums
        // to one per segment, so an unweighted sum has zero gradient).
        let w0 = Tensor::from_vec(5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]);

        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let w = tape.leaf(w0.clone());
        let y = tape.segment_softmax(x, Arc::clone(&offsets));
        let p = tape.mul(y, w);
        let loss = tape.sum_all(p);
        tape.backward(loss);

        let off = vec![0usize, 3, 5];
        let f = |t: &Tensor| t.segment_softmax(&off).mul(&w0).sum();
        assert_close(tape.grad(x).unwrap(), &numeric_grad(&f, &x0, 1e-3), 1e-2);
    }

    #[test]
    fn log_softmax_nll_gradient_matches_numeric() {
        let x0 = Tensor::from_vec(3, 4, vec![
            0.1, -0.2, 0.3, 0.4, 1.0, 0.0, -1.0, 0.5, -0.3, 0.2, 0.9, -0.8,
        ]);
        let labels: Arc<[u32]> = Arc::from(vec![2u32, 0, 3].into_boxed_slice());
        let weights: Arc<[f32]> = Arc::from(vec![1.0f32, 0.0, 0.5].into_boxed_slice());

        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let lp = tape.log_softmax_rows(x);
        let loss = tape.nll_loss(lp, Arc::clone(&labels), Arc::clone(&weights));
        tape.backward(loss);

        let f = |t: &Tensor| {
            let lp = t.log_softmax_rows();
            let mut l = 0.0;
            for (r, (&y, &w)) in labels.iter().zip(weights.iter()).enumerate() {
                l -= w * lp.get(r, y as usize);
            }
            l
        };
        assert_close(tape.grad(x).unwrap(), &numeric_grad(&f, &x0, 1e-3), 1e-2);
    }

    #[test]
    fn eps_combine_gradient_matches_numeric() {
        let h0 = Tensor::from_vec(2, 2, vec![1., -2., 3., 0.5]);
        let a0 = Tensor::from_vec(2, 2, vec![0.5, 0.5, -1., 2.]);
        let e0 = Tensor::scalar(0.3);

        let mut tape = Tape::new();
        let eps = tape.leaf(e0.clone());
        let h = tape.leaf(h0.clone());
        let agg = tape.leaf(a0.clone());
        let y = tape.eps_combine(eps, h, agg);
        let sq = tape.mul(y, y);
        let loss = tape.sum_all(sq);
        tape.backward(loss);

        let f_h = |t: &Tensor| {
            let mut y = t.scale(1.3);
            y.add_assign(&a0);
            y.mul(&y).sum()
        };
        assert_close(tape.grad(h).unwrap(), &numeric_grad(&f_h, &h0, 1e-3), 2e-2);
        let f_e = |t: &Tensor| {
            let mut y = h0.scale(1.0 + t.scalar_value());
            y.add_assign(&a0);
            y.mul(&y).sum()
        };
        assert_close(tape.grad(eps).unwrap(), &numeric_grad(&f_e, &e0, 1e-3), 2e-2);
    }

    #[test]
    fn max_aggregate_forward_and_backward() {
        // dst0 <- {rows 0, 1}; dst1 <- {row 2}; dst2 <- {} (empty).
        let x0 = Tensor::from_vec(3, 2, vec![1., 9., 5., 2., 3., 4.]);
        let edge_src: Arc<[u32]> = vec![0u32, 1, 2].into();
        let offsets: Arc<[usize]> = vec![0usize, 2, 3, 3].into();
        let mut tape = Tape::new();
        let x = tape.leaf(x0);
        let y = tape.max_aggregate(x, edge_src, offsets);
        // dst0 = [max(1,5), max(9,2)] = [5, 9]; dst1 = [3, 4]; dst2 = 0.
        assert_eq!(tape.value(y).data(), &[5., 9., 3., 4., 0., 0.]);
        tape.backward_from(y, Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        // grad routes to winners: row1 col0 (+1), row0 col1 (+2),
        // row2 both (+3, +4); empty dst contributes nothing.
        assert_eq!(tape.grad(x).unwrap().data(), &[0., 2., 1., 0., 3., 4.]);
    }

    #[test]
    fn max_aggregate_matches_numeric_gradient_off_ties() {
        let x0 = Tensor::from_vec(4, 2, vec![0.3, -0.7, 1.2, 0.4, -0.1, 0.9, 0.5, -0.2]);
        let edge_src: Arc<[u32]> = vec![0u32, 1, 2, 3, 1].into();
        let offsets: Arc<[usize]> = vec![0usize, 3, 5].into();
        let w0 = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let w = tape.leaf(w0.clone());
        let y = tape.max_aggregate(x, Arc::clone(&edge_src), Arc::clone(&offsets));
        let p = tape.mul(y, w);
        let loss = tape.sum_all(p);
        tape.backward(loss);
        let grad = tape.grad(x).unwrap().clone();
        // Numeric check.
        let f = |t: &Tensor| {
            let (agg, _) = t.max_aggregate(&edge_src, &offsets);
            agg.mul(&w0).sum()
        };
        let eps = 1e-3;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            let num = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                (grad.data()[i] - num).abs() < 1e-2,
                "elem {i}: {} vs {num}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn backward_from_seeds_arbitrary_node() {
        let x0 = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0);
        let y = tape.scale(x, 3.0);
        let seed = Tensor::from_vec(2, 2, vec![1., 0., 0., 2.]);
        tape.backward_from(y, seed);
        assert_eq!(tape.grad(x).unwrap().data(), &[3., 0., 0., 6.]);
    }

    #[test]
    fn repeated_backward_accumulates() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(5.0));
        let y = tape.scale(x, 2.0);
        tape.backward_from(y, Tensor::scalar(1.0));
        tape.backward_from(y, Tensor::scalar(1.0));
        assert_eq!(tape.grad(x).unwrap().scalar_value(), 4.0);
    }

    /// Every operator with two or more operands, with its operand shapes.
    type NaryOp = (&'static str, fn(&mut Tape, &[Var]) -> Var, &'static [(usize, usize)]);
    const NARY_OPS: [NaryOp; 8] = [
        ("matmul", |t, v| t.matmul(v[0], v[1]), &[(3, 4), (4, 2)]),
        ("add", |t, v| t.add(v[0], v[1]), &[(3, 4), (3, 4)]),
        ("sub", |t, v| t.sub(v[0], v[1]), &[(3, 4), (3, 4)]),
        ("mul", |t, v| t.mul(v[0], v[1]), &[(3, 4), (3, 4)]),
        ("add_row_broadcast", |t, v| t.add_row_broadcast(v[0], v[1]), &[(3, 4), (1, 4)]),
        ("mul_col_broadcast", |t, v| t.mul_col_broadcast(v[0], v[1]), &[(3, 4), (3, 1)]),
        ("concat_cols", |t, v| t.concat_cols(v[0], v[1]), &[(3, 4), (3, 2)]),
        ("eps_combine", |t, v| t.eps_combine(v[0], v[1], v[2]), &[(1, 1), (3, 4), (3, 4)]),
    ];

    fn ramp(rows: usize, cols: usize, salt: usize) -> Tensor {
        let data = (0..rows * cols).map(|i| ((i * 7 + salt * 5) % 13) as f32 / 4.0 - 1.5).collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Records `op` over ramp operands, operand `constant` (if any) as a
    /// constant and the rest as leaves, and runs one seeded backward pass.
    fn run_nary(op: &NaryOp, constant: Option<usize>) -> (Tape, Vec<Var>) {
        let (_, build, shapes) = op;
        let mut tape = Tape::new();
        let vars: Vec<Var> = shapes
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| {
                let value = ramp(r, c, k);
                if constant == Some(k) { tape.constant(value) } else { tape.leaf(value) }
            })
            .collect();
        let out = build(&mut tape, &vars);
        let (r, c) = tape.value(out).shape();
        tape.backward_from(out, ramp(r, c, 9));
        (tape, vars)
    }

    #[test]
    fn constant_operand_leaves_the_other_gradients_bitwise_equal() {
        for op in &NARY_OPS {
            let (all_leaf, leaf_vars) = run_nary(op, None);
            assert_eq!(all_leaf.pruned(), 0, "{}", op.0);
            for c in 0..op.2.len() {
                let (tape, vars) = run_nary(op, Some(c));
                for k in 0..vars.len() {
                    if k == c {
                        assert!(!tape.needs_grad(vars[k]));
                        assert!(tape.grad(vars[k]).is_none(), "{} operand {k}", op.0);
                    } else {
                        assert_eq!(
                            tape.grad(vars[k]).unwrap().data(),
                            all_leaf.grad(leaf_vars[k]).unwrap().data(),
                            "{} operand {k} with operand {c} constant",
                            op.0
                        );
                    }
                }
                assert_eq!(tape.pruned(), 1, "{} operand {c}", op.0);
                assert!(tape.flops() <= all_leaf.flops(), "{} operand {c}", op.0);
            }
        }
    }

    #[test]
    fn constant_only_chain_runs_no_backward_arm() {
        let mut tape = Tape::new();
        let x = tape.constant(ramp(3, 4, 0));
        let w = tape.constant(ramp(4, 2, 1));
        let y = tape.matmul(x, w);
        let z = tape.relu(y);
        let loss = tape.sum_all(z);
        let forward_flops = tape.flops();
        tape.backward(loss);
        // An adjoint that ran would have added flops or counted a pruned
        // operand.
        assert_eq!(tape.flops(), forward_flops);
        assert_eq!(tape.pruned(), 0);
        for v in [x, w, y, z, loss] {
            assert!(!tape.needs_grad(v));
            assert!(tape.grad(v).is_none());
        }
    }

    #[test]
    fn repeated_backward_accumulates_beside_a_constant() {
        let mut tape = Tape::new();
        let x = tape.constant(ramp(3, 4, 0));
        let w = tape.leaf(ramp(4, 2, 1));
        let y = tape.matmul(x, w);
        tape.backward_from(y, ramp(3, 2, 2));
        let once = tape.grad(w).unwrap().clone();
        tape.backward_from(y, ramp(3, 2, 2));
        assert_eq!(tape.grad(w).unwrap().data(), once.scale(2.0).data());
        assert!(tape.grad(x).is_none());
        assert_eq!(tape.pruned(), 2);
    }

    #[test]
    fn flops_are_recorded() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(4, 8));
        let b = tape.leaf(Tensor::zeros(8, 2));
        assert_eq!(tape.flops(), 0);
        let _ = tape.matmul(a, b);
        assert_eq!(tape.flops(), 2 * 4 * 8 * 2);
    }

    #[test]
    fn concat_cols_gradient_splits() {
        let a0 = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b0 = Tensor::from_vec(2, 1, vec![5., 6.]);
        let mut tape = Tape::new();
        let a = tape.leaf(a0);
        let b = tape.leaf(b0);
        let c = tape.concat_cols(a, b);
        let seed = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        tape.backward_from(c, seed);
        assert_eq!(tape.grad(a).unwrap().data(), &[1., 2., 4., 5.]);
        assert_eq!(tape.grad(b).unwrap().data(), &[3., 6.]);
    }

    #[test]
    fn mul_col_broadcast_gradient_matches_numeric() {
        let x0 = Tensor::from_vec(2, 3, vec![1., -2., 3., 0.5, 1.5, -0.5]);
        let c0 = Tensor::from_vec(2, 1, vec![2.0, -0.5]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let c = tape.leaf(c0.clone());
        let y = tape.mul_col_broadcast(x, c);
        let sq = tape.mul(y, y);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        let f_x = |t: &Tensor| {
            let y = t.mul_col_broadcast(&c0);
            y.mul(&y).sum()
        };
        let f_c = |t: &Tensor| {
            let y = x0.mul_col_broadcast(t);
            y.mul(&y).sum()
        };
        assert_close(tape.grad(x).unwrap(), &numeric_grad(&f_x, &x0, 1e-3), 2e-2);
        assert_close(tape.grad(c).unwrap(), &numeric_grad(&f_c, &c0, 1e-3), 2e-2);
    }
}
