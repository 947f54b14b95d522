//! GNN layer implementations: GCN, GIN, GAT.
//!
//! Each layer's `forward` records one autograd tape segment over the
//! decoupled flow of Fig. 6 and returns a [`LayerRun`]. The engine calls
//! `LayerRun::backward` with the gradient of the layer's *output*
//! (obtained from the next layer locally, and/or accumulated from remote
//! mirrors via `PostToDepNbr`) and receives the gradient of the layer's
//! *input* rows, which it routes back across workers — if it asked for
//! one: the caller says through [`LayerInput`] whether anybody reads the
//! input gradient, and a layer fed raw features or serving inputs computes
//! none. Parameter gradients accumulate into the id-indexed gradient
//! vector for the all-reduce.
//!
//! Every layer is a parameter-free *prefix* (the operators that read only
//! the input rows and the topology) followed by a *body* that starts at the
//! first parameter bind. Over a constant input the prefix's values never
//! change, so the backward pass hands them back as a [`LayerPrefix`] and a
//! later `forward` can start from them ([`LayerInput::Prefix`]).
//! A layer may first map each input row on its own ([`GnnLayer::transform`]:
//! a narrowing GCN layer's `H·W`); a distributed caller records that map
//! where the rows were computed ([`LayerRun::transform_for`]) and exchanges
//! the mapped rows ([`LayerInput::Exchanged`]).

use ns_rand::StdRng;
use std::sync::Arc;

use ns_tensor::nn::{Bindings, Init, Linear, Mlp, ParamId, ParamStore};
use ns_tensor::{Tape, Tensor, Var};

use crate::ops;
use crate::topology::LayerTopology;

/// A layer's input rows, and whether the caller will read their gradient.
/// Forward values and parameter gradients are bitwise the same either way.
pub enum LayerInput {
    /// The previous layer's output: the backward pass yields its gradient.
    Tracked(Tensor),
    /// Rows nobody differentiates (raw features, inference): the backward
    /// pass skips every adjoint that only feeds the input gradient.
    Constant(Tensor),
    /// The layer's prefix over a `Constant` input on the same topology, as
    /// an earlier run's backward pass handed it back: the forward pass
    /// records these values instead of recomputing them, and everything it
    /// does compute is bitwise what `Constant` gives.
    Prefix(LayerPrefix),
    /// Rows the dependency exchange assembled, this layer's
    /// [`GnnLayer::transform`] already applied where each was computed: the
    /// forward pass starts after it and the backward pass yields their
    /// gradient. Without a transform this is `Tracked`.
    Exchanged(Tensor),
}

/// The values of a layer's parameter-free prefix ([`GnnLayer::prefix`])
/// over a constant input, or the input itself for a layer with a
/// [`GnnLayer::transform`]. They depend on the input rows and the topology
/// only, not on any parameter, so they can outlive the run that computed
/// them for as long as both stay the same.
pub struct LayerPrefix(Vec<Tensor>);

/// What one layer's backward pass produced, besides the parameter
/// gradients it accumulated.
pub struct LayerBackward {
    /// Gradient of the layer's input rows: `Some` iff the forward pass was
    /// given [`LayerInput::Tracked`] or [`LayerInput::Exchanged`].
    pub input_grad: Option<Tensor>,
    /// FLOPs spent.
    pub flops: u64,
    /// Wall time attributed to graph operators, nanoseconds.
    pub graph_ns: u64,
    /// Wall time attributed to NN operators, nanoseconds.
    pub nn_ns: u64,
    /// Operand gradients skipped because only the (unwanted) input
    /// gradient depended on them (`ns_tensor::Tape::pruned`).
    pub pruned: u64,
    /// Exactly-zero gradient rows the adjoint kernels left out
    /// (`ns_tensor::Tape::zero_rows`).
    pub zero_rows: u64,
    /// The prefix values the run computed or was given, moved out of its
    /// tape: `Some` iff the input was `Constant` or `Prefix`.
    pub prefix: Option<LayerPrefix>,
}

/// The in-flight state of one layer's forward pass on one worker.
pub struct LayerRun {
    tape: Tape,
    bindings: Bindings,
    /// `None` when the run started from a [`LayerPrefix`].
    input: Option<Var>,
    prefix: Vec<Var>,
    output: Var,
    forward_flops: u64,
    fwd_graph_ns: u64,
    fwd_nn_ns: u64,
}

impl LayerRun {
    /// The layer's output values (`n_dst x out_dim`), or their transform
    /// once [`LayerRun::transform_for`] recorded one.
    pub fn output(&self) -> &Tensor {
        self.tape.value(self.output)
    }

    /// Records `next`'s [`GnnLayer::transform`] on this run's tape, over
    /// its output, which becomes the rows `next`'s exchange moves: the
    /// backward pass then starts from their gradient and also yields the
    /// transform's parameter gradients. A no-op without a transform.
    pub fn transform_for(&mut self, next: &dyn GnnLayer, store: &ParamStore) {
        let tape = &mut self.tape;
        if let Some(rows) = next.transform(tape, &mut self.bindings, store, self.output) {
            self.output = rows;
            self.forward_flops = tape.flops();
            (self.fwd_graph_ns, self.fwd_nn_ns) = (tape.graph_op_ns(), tape.nn_op_ns());
        }
    }

    /// The layer's output values, moved out of a run that is done with
    /// (inference: no backward pass follows).
    pub fn into_output(mut self) -> Tensor {
        self.tape.take_value(self.output)
    }

    /// FLOPs spent by the forward pass.
    pub fn forward_flops(&self) -> u64 {
        self.forward_flops
    }

    /// Forward wall time attributed to graph operators, nanoseconds
    /// (tape-granularity attribution; see `ns_tensor::Tape::graph_op_ns`).
    pub fn fwd_graph_ns(&self) -> u64 {
        self.fwd_graph_ns
    }

    /// Forward wall time attributed to NN operators, nanoseconds.
    pub fn fwd_nn_ns(&self) -> u64 {
        self.fwd_nn_ns
    }

    /// Runs the backward pass seeded with `output_grad`; accumulates
    /// parameter gradients into `grads` (parallel to the store) and
    /// returns `(input_gradient, backward_flops)`.
    pub fn backward(self, output_grad: Tensor, grads: &mut [Tensor]) -> (Option<Tensor>, u64) {
        let out = self.backward_split(output_grad, grads);
        (out.input_grad, out.flops)
    }

    /// Like [`LayerRun::backward`], additionally returning the backward
    /// pass's graph-op vs NN-op wall-time split, pruned-gradient count and
    /// zero-row count.
    pub fn backward_split(mut self, output_grad: Tensor, grads: &mut [Tensor]) -> LayerBackward {
        let tape = &mut self.tape;
        let (flops, pruned, zero_rows) = (tape.flops(), tape.pruned(), tape.zero_rows());
        let (graph_ns, nn_ns) = (tape.graph_op_ns(), tape.nn_op_ns());
        tape.backward_from(self.output, output_grad);
        let (flops, pruned) = (tape.flops() - flops, tape.pruned() - pruned);
        let zero_rows = tape.zero_rows() - zero_rows;
        let (graph_ns, nn_ns) = (tape.graph_op_ns() - graph_ns, tape.nn_op_ns() - nn_ns);
        self.bindings.collect_grads(tape, grads);
        let input_grad = self.input.filter(|&input| tape.needs_grad(input)).map(|input| {
            let (rows, cols) = tape.value(input).shape();
            tape.take_grad(input).unwrap_or_else(|| Tensor::zeros(rows, cols))
        });
        // The tape dies with `self`: a constant prefix moves out, uncopied.
        let prefix = input_grad.is_none().then(|| {
            LayerPrefix(self.prefix.iter().map(|&v| tape.take_value(v)).collect())
        });
        LayerBackward { input_grad, flops, graph_ns, nn_ns, pruned, zero_rows, prefix }
    }
}

/// One GNN layer, in the paper's decoupled edge/vertex formulation.
pub trait GnnLayer: Send + Sync {
    /// Input representation width (`d^{(l-1)}`): the width of the rows the
    /// layer below computes. The dependency exchange moves these rows, or
    /// their [`GnnLayer::transform`].
    fn in_dim(&self) -> usize;

    /// Output representation width (`d^{(l)}`).
    fn out_dim(&self) -> usize;

    /// Records the map this layer applies to each input row alone, before
    /// any neighbour is read, and returns the rows the dependency exchange
    /// moves; `None` (the default) exchanges the input rows. The layer's
    /// one split around the exchange.
    fn transform(
        &self,
        _tape: &mut Tape,
        _binds: &mut Bindings,
        _store: &ParamStore,
        _input: Var,
    ) -> Option<Var> {
        None
    }

    /// Records the layer's parameter-free prefix — every operator that
    /// reads only `rows` (the input, or its [`GnnLayer::transform`]) and
    /// `topo` — and returns the nodes [`body`] continues from. The prefix
    /// ends where the layer binds its next parameter; each layer says so
    /// here, once.
    ///
    /// [`body`]: GnnLayer::body
    fn prefix(&self, tape: &mut Tape, rows: Var, topo: &LayerTopology) -> Vec<Var>;

    /// Records the rest of the layer, from the nodes [`GnnLayer::prefix`]
    /// returned to the output.
    fn body(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        topo: &LayerTopology,
        prefix: &[Var],
    ) -> Var;

    /// Records the forward pass over `topo` with input rows `h`
    /// (`topo.n_src x in_dim`): transform, prefix, then body, on one tape.
    /// Given [`LayerInput::Prefix`], the saved values stand in for the
    /// prefix (for the input, ahead of a transform); given
    /// [`LayerInput::Exchanged`], the rows stand in for the transform.
    fn forward(&self, store: &ParamStore, topo: &LayerTopology, h: LayerInput) -> LayerRun {
        let (mut tape, mut bindings) = (Tape::new(), Bindings::new());
        let tracked = matches!(h, LayerInput::Tracked(_));
        // `prefix`: what a constant input's run hands back, and `from`: what
        // the body continues from. A transform binds a parameter, so a
        // transforming layer hands back its input alone.
        let (input, prefix, from) = match h {
            LayerInput::Tracked(t) | LayerInput::Constant(t) => {
                assert_eq!(t.cols(), self.in_dim(), "layer input width");
                assert_eq!(t.rows(), topo.n_src, "layer input rows");
                let input = if tracked { tape.leaf(t) } else { tape.constant(t) };
                match self.transform(&mut tape, &mut bindings, store, input) {
                    Some(rows) => (Some(input), vec![input], self.prefix(&mut tape, rows, topo)),
                    None => {
                        let prefix = self.prefix(&mut tape, input, topo);
                        (Some(input), prefix.clone(), prefix)
                    }
                }
            }
            LayerInput::Prefix(saved) => {
                let saved: Vec<Var> = saved.0.into_iter().map(|t| tape.constant(t)).collect();
                // A transforming layer saved its input; any other records
                // nothing here.
                let from = match self.transform(&mut tape, &mut bindings, store, saved[0]) {
                    Some(rows) => self.prefix(&mut tape, rows, topo),
                    None => saved.clone(),
                };
                (None, saved, from)
            }
            LayerInput::Exchanged(t) => {
                assert_eq!(t.rows(), topo.n_src, "layer input rows");
                let input = tape.leaf(t);
                (Some(input), Vec::new(), self.prefix(&mut tape, input, topo))
            }
        };
        let output = self.body(&mut tape, &mut bindings, store, topo, &from);
        let forward_flops = tape.flops();
        let (fwd_graph_ns, fwd_nn_ns) = (tape.graph_op_ns(), tape.nn_op_ns());
        LayerRun { tape, bindings, input, prefix, output, forward_flops, fwd_graph_ns, fwd_nn_ns }
    }

    /// Analytic per-edge FLOP estimate (edge function + aggregation), used
    /// by the cost model before any data exists.
    fn edge_flops_estimate(&self) -> u64;

    /// Analytic per-vertex FLOP estimate (vertex function), used by the
    /// cost model before any data exists.
    fn vertex_flops_estimate(&self) -> u64;

    /// Width (floats per edge) of the per-edge tensors an optimized
    /// backend must actually *materialize* in device memory for this
    /// layer. Copy-style edge functions (GCN's weighted copy, GIN's copy)
    /// fuse into an SpMM-like aggregation and keep nothing per edge
    /// beyond the static weight; parameterized edge functions (GAT) hold
    /// logits, attention coefficients and weighted messages.
    fn edge_tensor_width(&self) -> usize;
}

/// Graph Convolutional Network layer (Kipf & Welling):
/// `h' = σ(Σ_{u→v} w_uv · h_u · W + b)` with the pre-computed symmetric
/// normalization `w_uv` (the entries of `Â`) as the (non-parameterized)
/// edge function. The product is `(Â·H)·W` by default and `Â·(H·W)` when
/// [`GcnLayer::transform_first`]: `H·W` is then the layer's
/// [`GnnLayer::transform`], and its aggregate and exchange move `out_dim`
/// columns.
pub struct GcnLayer {
    lin: Linear,
    activation: bool,
    transform_first: bool,
}

impl GcnLayer {
    /// Registers a GCN layer's parameters. `activation` applies ReLU
    /// (disabled on the output layer, whose logits feed the softmax head).
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        activation: bool,
        rng: &mut StdRng,
    ) -> Self {
        let lin = Linear::new(store, prefix, in_dim, out_dim, rng);
        Self { lin, activation, transform_first: false }
    }

    /// This layer with `H·W` as its transform, before the aggregate, when
    /// `on`. A constant input's run then hands back the input alone, not
    /// its aggregate: [`GnnModel::new`](crate::GnnModel::new) sets it on a
    /// narrowing layer above layer 0.
    pub fn transform_first(self, on: bool) -> Self {
        Self { transform_first: on, ..self }
    }
}

impl GnnLayer for GcnLayer {
    fn in_dim(&self) -> usize {
        self.lin.in_features()
    }

    fn out_dim(&self) -> usize {
        self.lin.out_features()
    }

    fn transform(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        input: Var,
    ) -> Option<Var> {
        // VertexForward's product, ahead of the aggregate.
        self.transform_first.then(|| {
            let w = binds.bind(tape, store, self.lin.param_ids().0);
            tape.matmul(input, w)
        })
    }

    fn prefix(&self, tape: &mut Tape, rows: Var, topo: &LayerTopology) -> Vec<Var> {
        // EdgeForward (weighted copy) fused with GatherByDst: the copy
        // edge function needs no materialized edge tensor, so it runs as
        // one SpMM — the fusion real GNN backends apply.
        vec![ops::aggregate_neighbors(tape, rows, topo, true)]
    }

    fn body(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        _topo: &LayerTopology,
        prefix: &[Var],
    ) -> Var {
        // VertexForward: linear (+ ReLU). Transform-first adds the bias
        // after the aggregate: Σ w·(h·W + b) ≠ (Σ w·h)·W + b.
        let z = if self.transform_first {
            let b = binds.bind(tape, store, self.lin.param_ids().1);
            tape.add_row_broadcast(prefix[0], b)
        } else {
            self.lin.forward(tape, binds, store, prefix[0])
        };
        if self.activation { tape.relu(z) } else { z }
    }

    fn edge_flops_estimate(&self) -> u64 {
        // weighted copy + aggregation add, per aggregated column.
        let width = if self.transform_first { self.out_dim() } else { self.in_dim() };
        2 * width as u64
    }

    fn vertex_flops_estimate(&self) -> u64 {
        self.lin.forward_flops(1)
    }

    fn edge_tensor_width(&self) -> usize {
        1 // only the static normalization weight
    }
}

/// Graph Isomorphism Network layer (Xu et al.):
/// `h' = MLP((1 + ε) · h_v + Σ_{u→v} h_u)` with a learnable scalar `ε`.
pub struct GinLayer {
    mlp: Mlp,
    eps: ParamId,
    in_dim: usize,
    activation: bool,
}

impl GinLayer {
    /// Registers a GIN layer: a 2-layer MLP `in → out → out` and ε.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        activation: bool,
        rng: &mut StdRng,
    ) -> Self {
        let mlp = Mlp::new(store, &format!("{prefix}.mlp"), &[in_dim, out_dim, out_dim], rng);
        let eps = store.register(format!("{prefix}.eps"), Init::Zeros.tensor(1, 1, rng));
        Self { mlp, eps, in_dim, activation }
    }
}

impl GnnLayer for GinLayer {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.mlp.out_features()
    }

    fn prefix(&self, tape: &mut Tape, input: Var, topo: &LayerTopology) -> Vec<Var> {
        // EdgeForward (plain copy) fused with GatherByDst (SpMM), and each
        // destination's own row for the combiner.
        let agg = ops::aggregate_neighbors(tape, input, topo, false);
        let self_h = ops::gather_dst_self(tape, input, topo);
        vec![agg, self_h]
    }

    fn body(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        _topo: &LayerTopology,
        prefix: &[Var],
    ) -> Var {
        let (agg, self_h) = (prefix[0], prefix[1]);
        // VertexForward: (1+ε)h_v + agg, then the MLP.
        let eps = binds.bind(tape, store, self.eps);
        let comb = tape.eps_combine(eps, self_h, agg);
        let z = self.mlp.forward(tape, binds, store, comb);
        if self.activation { tape.relu(z) } else { z }
    }

    fn edge_flops_estimate(&self) -> u64 {
        self.in_dim() as u64
    }

    fn vertex_flops_estimate(&self) -> u64 {
        self.mlp.forward_flops(1) + 2 * self.in_dim() as u64
    }

    fn edge_tensor_width(&self) -> usize {
        0 // plain copy, fully fused into the aggregation
    }
}

/// Graph Attention Network layer (Veličković et al.), single head:
/// attention logits `LeakyReLU(a_sᵀ W h_u + a_dᵀ W h_v)` per edge,
/// softmax-normalized over each destination's in-edges, then an
/// attention-weighted sum with ELU. The parameterized edge function
/// exercises the `EdgeForward`/`EdgeBackward` path (which ROC lacks —
/// the paper notes ROC cannot run GAT).
pub struct GatLayer {
    heads: Vec<GatHead>,
    in_dim: usize,
    head_dim: usize,
    activation: bool,
}

/// One attention head's parameters.
struct GatHead {
    w: ParamId,
    a_src: ParamId,
    a_dst: ParamId,
}

impl GatHead {
    fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        head_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.register(
            format!("{prefix}.W"),
            Init::XavierUniform.tensor(in_dim, head_dim, rng),
        );
        let a_src = store.register(
            format!("{prefix}.a_src"),
            Init::XavierUniform.tensor(head_dim, 1, rng),
        );
        let a_dst = store.register(
            format!("{prefix}.a_dst"),
            Init::XavierUniform.tensor(head_dim, 1, rng),
        );
        Self { w, a_src, a_dst }
    }

    /// One head's attention-weighted aggregation (`n_dst x head_dim`).
    fn attend(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        input: Var,
        topo: &LayerTopology,
    ) -> Var {
        let w = binds.bind(tape, store, self.w);
        let a_s = binds.bind(tape, store, self.a_src);
        let a_d = binds.bind(tape, store, self.a_dst);

        let wh = tape.matmul(input, w);
        // Per-vertex attention terms.
        let s_src = tape.matmul(wh, a_s);
        let wh_dst = tape.gather_rows(wh, Arc::clone(&topo.dst_in_rows));
        let s_dst = tape.matmul(wh_dst, a_d);
        // EdgeForward: logits from both endpoints.
        let e_src = tape.gather_rows(s_src, Arc::clone(&topo.edge_src));
        let e_dst = tape.gather_rows(s_dst, Arc::clone(&topo.edge_dst));
        let sums = tape.add(e_src, e_dst);
        let logits = tape.leaky_relu(sums, GatLayer::LEAKY_SLOPE);
        // Per-destination softmax (all of a destination's in-edges are
        // local to its worker, so this never crosses workers).
        let alpha = tape.segment_softmax(logits, Arc::clone(&topo.dst_offsets));
        // Attention-weighted aggregation.
        let msgs = ops::scatter_to_edge_src(tape, wh, topo);
        let weighted = tape.mul_col_broadcast(msgs, alpha);
        ops::gather_by_dst(tape, weighted, topo)
    }
}

impl GatLayer {
    /// Leaky-ReLU negative slope used for attention logits.
    pub const LEAKY_SLOPE: f32 = 0.2;

    /// Registers a single-head GAT layer's parameters.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        activation: bool,
        rng: &mut StdRng,
    ) -> Self {
        Self::multi_head(store, prefix, in_dim, out_dim, 1, activation, rng)
    }

    /// Registers a multi-head GAT layer; head outputs are concatenated,
    /// so `out_dim = heads * head_dim` (the standard GAT construction).
    pub fn multi_head(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        head_dim: usize,
        heads: usize,
        activation: bool,
        rng: &mut StdRng,
    ) -> Self {
        assert!(heads >= 1, "need at least one attention head");
        let heads = (0..heads)
            .map(|h| GatHead::new(store, &format!("{prefix}.head{h}"), in_dim, head_dim, rng))
            .collect();
        Self { heads, in_dim, head_dim, activation }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }
}

impl GnnLayer for GatLayer {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.head_dim * self.heads.len()
    }

    fn prefix(&self, _tape: &mut Tape, input: Var, _topo: &LayerTopology) -> Vec<Var> {
        // Attention starts at `W h`: nothing runs before the first bind,
        // and the input rows themselves are what a later run reuses.
        vec![input]
    }

    fn body(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        topo: &LayerTopology,
        prefix: &[Var],
    ) -> Var {
        let input = prefix[0];
        let mut agg = self.heads[0].attend(tape, binds, store, input, topo);
        for head in &self.heads[1..] {
            let next = head.attend(tape, binds, store, input, topo);
            agg = tape.concat_cols(agg, next);
        }
        if self.activation { tape.elu(agg, 1.0) } else { agg }
    }

    fn edge_flops_estimate(&self) -> u64 {
        // Per head: logit add + leaky relu + softmax + weighting +
        // aggregation.
        (self.heads.len() * (6 + 2 * self.head_dim)) as u64
    }

    fn vertex_flops_estimate(&self) -> u64 {
        (self.heads.len() * (2 * self.in_dim * self.head_dim + 4 * self.head_dim)) as u64
    }

    fn edge_tensor_width(&self) -> usize {
        // Per head: logits + attention coefficient + weighted messages.
        self.heads.len() * (self.head_dim + 2)
    }
}

/// GraphSAGE layer (Hamilton et al.): `h' = σ(W · [h_v ‖ AGG(h_u)])`
/// with a mean or element-wise-max neighborhood aggregator — the
/// aggregator family the paper's `GatherByDst` is defined over.
pub struct SageLayer {
    lin: Linear,
    in_dim: usize,
    aggregator: ops::Aggregator,
    activation: bool,
}

impl SageLayer {
    /// Registers a GraphSAGE layer. `aggregator` must be `Mean` or `Max`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        aggregator: ops::Aggregator,
        activation: bool,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            matches!(aggregator, ops::Aggregator::Mean | ops::Aggregator::Max),
            "GraphSAGE uses mean or max aggregation"
        );
        // Concatenation of self and neighborhood doubles the input width.
        let lin = Linear::new(store, prefix, 2 * in_dim, out_dim, rng);
        Self { lin, in_dim, aggregator, activation }
    }

    /// The configured aggregator.
    pub fn aggregator(&self) -> ops::Aggregator {
        self.aggregator
    }
}

impl GnnLayer for SageLayer {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.lin.out_features()
    }

    fn prefix(&self, tape: &mut Tape, input: Var, topo: &LayerTopology) -> Vec<Var> {
        let agg = ops::aggregate_neighbors_with(tape, input, topo, self.aggregator);
        let self_h = ops::gather_dst_self(tape, input, topo);
        vec![tape.concat_cols(self_h, agg)]
    }

    fn body(
        &self,
        tape: &mut Tape,
        binds: &mut Bindings,
        store: &ParamStore,
        _topo: &LayerTopology,
        prefix: &[Var],
    ) -> Var {
        let z = self.lin.forward(tape, binds, store, prefix[0]);
        if self.activation { tape.relu(z) } else { z }
    }

    fn edge_flops_estimate(&self) -> u64 {
        self.in_dim as u64
    }

    fn vertex_flops_estimate(&self) -> u64 {
        self.lin.forward_flops(1)
    }

    fn edge_tensor_width(&self) -> usize {
        0 // mean/max both fuse into segmented kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> LayerTopology {
        // 4 sources, 3 destinations; dst d's own row is d.
        LayerTopology::from_adjacency(
            4,
            &[
                vec![(0, 1.0), (3, 0.5)],
                vec![(1, 1.0)],
                vec![(0, 0.25), (1, 0.25), (2, 0.5)],
            ],
            vec![0, 1, 2],
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn input(rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect(),
        )
    }

    fn numeric_input_grad(
        layer: &dyn GnnLayer,
        store: &ParamStore,
        topo: &LayerTopology,
        h: &Tensor,
        coeff: &Tensor,
    ) -> Tensor {
        let f = |x: &Tensor| -> f32 {
            layer.forward(store, topo, LayerInput::Constant(x.clone())).output().mul(coeff).sum()
        };
        let mut g = Tensor::zeros(h.rows(), h.cols());
        let eps = 1e-3;
        for i in 0..h.len() {
            let mut p = h.clone();
            p.data_mut()[i] += eps;
            let mut m = h.clone();
            m.data_mut()[i] -= eps;
            g.data_mut()[i] = (f(&p) - f(&m)) / (2.0 * eps);
        }
        g
    }

    fn check_layer_gradients(layer: &dyn GnnLayer, store: &ParamStore, tol: f32) {
        let t = topo();
        let h = input(4, layer.in_dim());
        let run = layer.forward(store, &t, LayerInput::Tracked(h.clone()));
        assert_eq!(run.output().shape(), (3, layer.out_dim()));
        let coeff = input(3, layer.out_dim());
        let mut grads = store.zero_grads();
        let (input_grad, back_flops) = run.backward(coeff.clone(), &mut grads);
        let input_grad = input_grad.expect("tracked input");
        assert!(back_flops > 0);
        let numeric = numeric_input_grad(layer, store, &t, &h, &coeff);
        let diff = input_grad.max_abs_diff(&numeric);
        assert!(diff < tol, "input grad mismatch: {diff}");
        // At least one parameter must have received gradient.
        assert!(grads.iter().any(|g| g.norm() > 0.0));
    }

    #[test]
    fn gcn_forward_known_values() {
        // Identity-ish check with hand-set weights: 1 input dim, 1 output.
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GcnLayer::new(&mut store, "l", 1, 1, false, &mut r);
        let (wid, bid) = layer.lin.param_ids();
        store.replace(wid, Tensor::scalar(2.0));
        store.replace(bid, Tensor::scalar(1.0));
        let t = topo();
        let h = Tensor::from_vec(4, 1, vec![1., 2., 3., 4.]);
        let run = layer.forward(&store, &t, LayerInput::Constant(h));
        // dst0 = (1*1 + 4*0.5) * 2 + 1 = 7; dst1 = 2*2+1 = 5;
        // dst2 = (0.25 + 0.5 + 1.5) * 2 + 1 = 5.5.
        assert_eq!(run.output().data(), &[7., 5., 5.5]);
    }

    #[test]
    fn gcn_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GcnLayer::new(&mut store, "gcn", 3, 2, true, &mut r);
        check_layer_gradients(&layer, &store, 2e-2);
    }

    #[test]
    fn gin_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GinLayer::new(&mut store, "gin", 3, 2, false, &mut r);
        check_layer_gradients(&layer, &store, 2e-2);
    }

    #[test]
    fn gat_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GatLayer::new(&mut store, "gat", 3, 2, true, &mut r);
        check_layer_gradients(&layer, &store, 2e-2);
    }

    #[test]
    fn gat_attention_rows_sum_to_one_effectively() {
        // With W = I and uniform features, the output must equal Wh (the
        // attention weights sum to 1 per destination).
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GatLayer::new(&mut store, "gat", 2, 2, false, &mut r);
        store.replace(layer.heads[0].w, Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]));
        let t = topo();
        let h = Tensor::full(4, 2, 3.0);
        let run = layer.forward(&store, &t, LayerInput::Constant(h));
        for v in run.output().data() {
            assert!((v - 3.0).abs() < 1e-5, "{v}");
        }
    }

    #[test]
    fn gin_eps_shifts_self_contribution() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GinLayer::new(&mut store, "gin", 2, 2, false, &mut r);
        // Pin the MLP to a benign affine map (identity weights, large
        // positive bias on the hidden layer) so no ReLU unit is dead and
        // the ε shift must reach the output.
        let eye = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        for (i, lin) in layer.mlp.layers().iter().enumerate() {
            let (w, b) = lin.param_ids();
            store.replace(w, eye.clone());
            store.replace(b, Tensor::full(1, 2, if i == 0 { 10.0 } else { 0.0 }));
        }
        let t = topo();
        let h = input(4, 2);
        let base = layer.forward(&store, &t, LayerInput::Constant(h.clone())).output().clone();
        store.replace(layer.eps, Tensor::scalar(1.0));
        let shifted =
            layer.forward(&store, &t, LayerInput::Constant(h.clone())).output().clone();
        // Difference is exactly ε · h_self pushed through the affine map.
        let expected = h.gather_rows(&[0, 1, 2]);
        assert!(base.max_abs_diff(&shifted) > 1e-4);
        assert!(shifted.sub(&base).max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn flop_estimates_are_positive_and_scale_with_dims() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let small = GcnLayer::new(&mut store, "s", 8, 8, true, &mut r);
        let large = GcnLayer::new(&mut store, "l", 64, 64, true, &mut r);
        assert!(large.vertex_flops_estimate() > small.vertex_flops_estimate());
        assert!(large.edge_flops_estimate() > small.edge_flops_estimate());
    }

    #[test]
    fn sage_mean_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = SageLayer::new(
            &mut store, "sage", 3, 2, crate::ops::Aggregator::Mean, true, &mut r,
        );
        check_layer_gradients(&layer, &store, 2e-2);
    }

    #[test]
    fn sage_max_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = SageLayer::new(
            &mut store, "sage", 3, 2, crate::ops::Aggregator::Max, false, &mut r,
        );
        check_layer_gradients(&layer, &store, 2e-2);
    }

    #[test]
    fn multi_head_gat_concatenates_heads() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GatLayer::multi_head(&mut store, "gat", 3, 4, 3, true, &mut r);
        assert_eq!(layer.num_heads(), 3);
        assert_eq!(layer.out_dim(), 12);
        let run = layer.forward(&store, &topo(), LayerInput::Constant(input(4, 3)));
        assert_eq!(run.output().shape(), (3, 12));
    }

    #[test]
    fn multi_head_gat_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GatLayer::multi_head(&mut store, "gat", 3, 2, 2, true, &mut r);
        check_layer_gradients(&layer, &store, 2e-2);
    }

    /// Backward with and without the input gradient: same output, bitwise
    /// the same parameter gradients, strictly less work without.
    fn check_constant_input(layer: &dyn GnnLayer, store: &ParamStore) {
        let t = topo();
        let h = input(4, layer.in_dim());
        let coeff = input(3, layer.out_dim());
        let backward = |h: LayerInput| {
            let run = layer.forward(store, &t, h);
            let output = run.output().clone();
            let mut grads = store.zero_grads();
            (output, run.backward_split(coeff.clone(), &mut grads), grads)
        };
        let (out_on, on, grads_on) = backward(LayerInput::Tracked(h.clone()));
        let (out_off, off, grads_off) = backward(LayerInput::Constant(h));
        assert_eq!(out_on.data(), out_off.data());
        assert!(on.input_grad.is_some() && off.input_grad.is_none());
        assert!(on.prefix.is_none() && off.prefix.is_some());
        assert!(grads_on.iter().any(|g| g.norm() > 0.0));
        for (a, b) in grads_on.iter().zip(&grads_off) {
            assert_eq!(a.data(), b.data(), "parameter gradients must not move");
        }
        assert_eq!(on.pruned, 0, "a tracked input prunes nothing");
        assert!(off.pruned > 0, "a constant input must prune something");
        assert!(off.flops < on.flops, "{} vs {}", off.flops, on.flops);
    }

    /// One layer of every kind, over one store.
    fn every_layer_kind() -> (ParamStore, Vec<Box<dyn GnnLayer>>) {
        use crate::ops::Aggregator;
        let mut r = rng();
        let mut store = ParamStore::new();
        let layers: Vec<Box<dyn GnnLayer>> = vec![
            Box::new(GcnLayer::new(&mut store, "gcn", 3, 2, true, &mut r)),
            Box::new(GcnLayer::new(&mut store, "tf", 3, 2, false, &mut r).transform_first(true)),
            Box::new(GinLayer::new(&mut store, "gin", 3, 2, false, &mut r)),
            Box::new(GatLayer::new(&mut store, "gat1", 3, 2, true, &mut r)),
            Box::new(GatLayer::multi_head(&mut store, "gat3", 3, 2, 3, true, &mut r)),
            Box::new(SageLayer::new(&mut store, "mean", 3, 2, Aggregator::Mean, true, &mut r)),
            Box::new(SageLayer::new(&mut store, "max", 3, 2, Aggregator::Max, false, &mut r)),
        ];
        (store, layers)
    }

    #[test]
    fn constant_input_leaves_parameter_gradients_bitwise_equal() {
        let (store, layers) = every_layer_kind();
        for layer in &layers {
            check_constant_input(layer.as_ref(), &store);
        }
    }

    /// Entering `forward` after the prefix, with the values a constant run
    /// handed back, is that constant run again: same output, same parameter
    /// gradients, same pruning, and the same values handed back once more.
    #[test]
    fn prefix_then_body_equals_forward() {
        let (store, layers) = every_layer_kind();
        let t = topo();
        for layer in &layers {
            let coeff = input(3, layer.out_dim());
            let run_from = |h: LayerInput| {
                let run = layer.forward(&store, &t, h);
                let output = run.output().clone();
                let mut grads = store.zero_grads();
                (output, run.backward_split(coeff.clone(), &mut grads), grads)
            };
            let (want_out, want, want_grads) =
                run_from(LayerInput::Constant(input(4, layer.in_dim())));
            let mut saved = want.prefix.expect("a constant run hands its prefix back");
            let want_prefix: Vec<Tensor> = saved.0.to_vec();
            assert!(want_prefix.iter().all(|p| !p.is_empty()));
            // Twice: the handed-back values must survive a round trip.
            for _ in 0..2 {
                let (out, back, grads) = run_from(LayerInput::Prefix(saved));
                assert_eq!(out.data(), want_out.data());
                for (a, b) in grads.iter().zip(&want_grads) {
                    assert_eq!(a.data(), b.data(), "parameter gradients must not move");
                }
                assert!(back.input_grad.is_none());
                assert_eq!(back.pruned, want.pruned);
                saved = back.prefix.expect("a prefix run hands its prefix back");
                assert_eq!(saved.0.len(), want_prefix.len());
                for (a, b) in saved.0.iter().zip(&want_prefix) {
                    assert_eq!((a.shape(), a.data()), (b.shape(), b.data()));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mean or max")]
    fn sage_rejects_sum_aggregator() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let _ = SageLayer::new(
            &mut store, "sage", 3, 2, crate::ops::Aggregator::Sum, true, &mut r,
        );
    }

    /// A square topology over `n` vertices: every vertex has a self-loop
    /// and a few random in-edges, all with random positive weights.
    fn random_topo(rng: &mut StdRng, n: usize) -> LayerTopology {
        let adj: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|d| {
                let extra = rng.random_range(0..n);
                let mut list = vec![(d as u32, 0.5 + rng.random::<f32>())];
                list.extend((0..extra).map(|_| {
                    (rng.random_range(0..n) as u32, 0.1 + rng.random::<f32>())
                }));
                list
            })
            .collect();
        LayerTopology::from_adjacency(n, &adj, (0..n as u32).collect())
    }

    fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.random::<f32>() - 0.5).collect())
    }

    /// One GCN layer, aggregate-first or transform-first, over parameters
    /// drawn from `seed`: both orders of one seed hold the same values.
    fn gcn(
        store: &mut ParamStore,
        name: &str,
        dims: (usize, usize),
        act: bool,
        tf: bool,
        seed: u64,
    ) -> GcnLayer {
        let mut r = StdRng::seed_from_u64(seed);
        let layer = GcnLayer::new(store, name, dims.0, dims.1, act, &mut r).transform_first(tf);
        store.replace(layer.lin.param_ids().1, random_tensor(&mut r, 1, dims.1));
        layer
    }

    /// `Σ coeff ⊙ (Â·relu(Â·X·W0 + b0)·W1 + b1)` in f64, written out with
    /// plain loops: the oracle shares no kernel, tape or order with the
    /// layers it checks. `p` holds `[X, W0, b0, W1, b1]`, row-major.
    fn reference_loss(
        topo: &LayerTopology,
        dims: [usize; 3],
        p: &[Vec<f64>],
        coeff: &[f64],
    ) -> f64 {
        let n = topo.n_dst;
        let aggregate = |x: &[f64], cols: usize| {
            let mut out = vec![0.0; n * cols];
            for d in 0..n {
                for e in topo.dst_offsets[d]..topo.dst_offsets[d + 1] {
                    let (s, w) = (topo.edge_src[e] as usize, topo.edge_weight[e] as f64);
                    for c in 0..cols {
                        out[d * cols + c] += w * x[s * cols + c];
                    }
                }
            }
            out
        };
        let linear = |x: &[f64], w: &[f64], b: &[f64], k: usize, m: usize, relu: bool| {
            let mut out = vec![0.0; n * m];
            for i in 0..n {
                for j in 0..m {
                    let z = b[j] + (0..k).map(|t| x[i * k + t] * w[t * m + j]).sum::<f64>();
                    out[i * m + j] = if relu { z.max(0.0) } else { z };
                }
            }
            out
        };
        let h = linear(&aggregate(&p[0], dims[0]), &p[1], &p[2], dims[0], dims[1], true);
        let out = linear(&aggregate(&h, dims[1]), &p[3], &p[4], dims[1], dims[2], false);
        out.iter().zip(coeff).map(|(o, c)| o * c).sum()
    }

    /// The first finite-difference oracle for parameter gradients: a
    /// 2-layer GCN (8 vertices, 5 -> 4 -> 3) in all four operator orders.
    /// The tape's `W`, `b` and input gradients must match central
    /// differences of the f64 reference to 1e-4 (absolute plus relative).
    #[test]
    fn gcn_two_layer_gradients_match_finite_differences_in_both_orders() {
        let mut rng = StdRng::seed_from_u64(42);
        let topo = random_topo(&mut rng, 8);
        let dims = [5, 4, 3];
        let x = random_tensor(&mut rng, 8, dims[0]);
        let coeff = random_tensor(&mut rng, 8, dims[2]);
        for (tf0, tf1) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut store = ParamStore::new();
            let l0 = gcn(&mut store, "l0", (dims[0], dims[1]), true, tf0, 1);
            let l1 = gcn(&mut store, "l1", (dims[1], dims[2]), false, tf1, 2);
            let run0 = l0.forward(&store, &topo, LayerInput::Tracked(x.clone()));
            let run1 = l1.forward(&store, &topo, LayerInput::Tracked(run0.output().clone()));
            let mut grads = store.zero_grads();
            let (g1, _) = run1.backward(coeff.clone(), &mut grads);
            let (gx, _) = run0.backward(g1.expect("tracked"), &mut grads);
            let ((w0, b0), (w1, b1)) = (l0.lin.param_ids(), l1.lin.param_ids());
            let gx = gx.expect("tracked");
            let [gw0, gb0, gw1, gb1] = [w0, b0, w1, b1].map(|id| &grads[id.index()]);
            let tape_grads = [&gx, gw0, gb0, gw1, gb1];

            let f64s = |t: &Tensor| t.data().iter().map(|&v| v as f64).collect::<Vec<_>>();
            let mut p: Vec<Vec<f64>> = [&x, store.value(w0), store.value(b0)]
                .into_iter()
                .chain([store.value(w1), store.value(b1)])
                .map(f64s)
                .collect();
            let c = f64s(&coeff);
            let eps = 1e-6;
            for (k, tape) in tape_grads.iter().enumerate() {
                for i in 0..p[k].len() {
                    let v = p[k][i];
                    p[k][i] = v + eps;
                    let up = reference_loss(&topo, dims, &p, &c);
                    p[k][i] = v - eps;
                    let down = reference_loss(&topo, dims, &p, &c);
                    p[k][i] = v;
                    let (fd, got) = ((up - down) / (2.0 * eps), tape.data()[i] as f64);
                    assert!(
                        (fd - got).abs() <= 1e-4 * (1.0 + fd.abs()),
                        "orders ({tf0}, {tf1}), operand {k}[{i}]: tape {got}, numeric {fd}"
                    );
                }
            }
        }
    }

    /// `Â·(H·W) + b` and `(Â·H)·W + b` over the same parameters agree to
    /// 1e-5 relative, in the output, the parameter gradients and the
    /// input gradient, on random graphs, widths and inputs.
    #[test]
    fn transform_first_agrees_with_aggregate_first() {
        let mut rng = StdRng::seed_from_u64(7);
        let relative = |a: &Tensor, b: &Tensor| {
            let scale = b.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            a.max_abs_diff(b) / scale.max(f32::MIN_POSITIVE)
        };
        for case in 0..20 {
            let n = rng.random_range(2..40);
            let dims = (rng.random_range(1..48), rng.random_range(1..48));
            let topo = random_topo(&mut rng, n);
            let h = random_tensor(&mut rng, n, dims.0);
            let coeff = random_tensor(&mut rng, n, dims.1);
            let mut store = ParamStore::new();
            let a = gcn(&mut store, "a", dims, true, false, case);
            let b = GcnLayer { lin: a.lin, activation: true, transform_first: true };
            let run = |layer: &GcnLayer| {
                let run = layer.forward(&store, &topo, LayerInput::Tracked(h.clone()));
                let out = run.output().clone();
                let mut grads = store.zero_grads();
                let (gx, _) = run.backward(coeff.clone(), &mut grads);
                (out, gx.expect("tracked"), grads)
            };
            let (out_a, gx_a, grads_a) = run(&a);
            let (out_b, gx_b, grads_b) = run(&b);
            let what = format!("case {case}: {n} vertices, {dims:?}");
            assert!(relative(&out_b, &out_a) <= 1e-5, "output, {what}");
            assert!(relative(&gx_b, &gx_a) <= 1e-5, "input gradient, {what}");
            for (gb, ga) in grads_b.iter().zip(&grads_a) {
                assert!(relative(gb, ga) <= 1e-5, "parameter gradient, {what}");
            }
        }
    }

    /// A transform recorded on the layer below's tape, then the layer run
    /// from the transformed rows, is the whole layer on one worker that
    /// holds every row: same output, input and parameter gradients, FLOPs.
    #[test]
    fn split_around_the_exchange_equals_the_whole_layer() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = random_topo(&mut rng, 12);
        let x = random_tensor(&mut rng, 12, 6);
        let coeff = random_tensor(&mut rng, 12, 3);
        let mut store = ParamStore::new();
        let l0 = gcn(&mut store, "l0", (6, 5), true, false, 1);
        let l1 = gcn(&mut store, "l1", (5, 3), false, true, 2);
        let train = |split: bool| {
            let mut run0 = l0.forward(&store, &topo, LayerInput::Tracked(x.clone()));
            let run1 = if split {
                run0.transform_for(&l1, &store);
                assert_eq!(run0.output().cols(), 3, "the transform ships out_dim");
                l1.forward(&store, &topo, LayerInput::Exchanged(run0.output().clone()))
            } else {
                l1.forward(&store, &topo, LayerInput::Tracked(run0.output().clone()))
            };
            let (out, flops) = (run1.output().clone(), run0.forward_flops() + run1.forward_flops());
            let mut grads = store.zero_grads();
            let (g, _) = run1.backward(coeff.clone(), &mut grads);
            let (gx, _) = run0.backward(g.expect("tracked"), &mut grads);
            (out, flops, gx.expect("tracked"), grads)
        };
        let (whole, split) = (train(false), train(true));
        assert_eq!(whole.0.data(), split.0.data());
        assert_eq!(whole.1, split.1);
        assert_eq!(whole.2.data(), split.2.data());
        for (a, b) in whole.3.iter().zip(&split.3) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn forward_flops_recorded() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GcnLayer::new(&mut store, "g", 3, 2, true, &mut r);
        let run = layer.forward(&store, &topo(), LayerInput::Constant(input(4, 3)));
        assert!(run.forward_flops() > 0);
    }
}
