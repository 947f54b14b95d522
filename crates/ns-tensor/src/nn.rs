//! Neural-network building blocks: parameter storage, initialization, and
//! the `Linear`/`Mlp` modules used by the GNN layers.
//!
//! A [`ParamStore`] owns the *values* of all trainable parameters of a
//! model. Stores are replicated on every worker (NeutronStar keeps model
//! parameters synchronized via all-reduce), and gradients are carried in a
//! parallel `Vec<Tensor>` keyed by [`ParamId`].
//!
//! Values are shared, copy-on-write (`Arc<Tensor>`): cloning a store copies
//! pointers, not weights. [`ParamStore::value_mut`] copies a value only
//! while another holder (a cloned store, a checkpoint, a live tape) still
//! reads it, and that holder keeps the old value; [`ParamStore::replace`]
//! copies nothing.
//!
//! Because a fresh [`Tape`] is built per layer per epoch,
//! parameters are *bound* onto a tape as leaves through a [`Bindings`]
//! scratch object — the store's own tensor, not a copy; after the backward
//! pass, `Bindings::collect_grads` drains the leaves' gradients back into
//! the id-indexed gradient vector.

use std::sync::Arc;

use ns_rand::StdRng;

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Stable identifier of a parameter within a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Weight-initialization schemes.
#[derive(Debug, Clone, Copy)]
pub enum Init {
    /// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6/(fan_in+fan_out))`.
    XavierUniform,
    /// All zeros (used for biases).
    Zeros,
    /// Constant fill.
    Constant(f32),
}

impl Init {
    /// Materializes a `rows x cols` tensor with this scheme.
    pub fn tensor(self, rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        match self {
            Init::XavierUniform => {
                let a = (6.0 / (rows + cols) as f32).sqrt();
                let data = (0..rows * cols).map(|_| rng.random_range(-a..a)).collect();
                Tensor::from_vec(rows, cols, data)
            }
            Init::Zeros => Tensor::zeros(rows, cols),
            Init::Constant(v) => Tensor::full(rows, cols, v),
        }
    }
}

/// Named trainable parameters of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    pub(crate) values: Vec<Arc<Tensor>>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter; names must be unique.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "duplicate parameter name {name:?}"
        );
        self.names.push(name);
        self.values.push(Arc::new(value));
        ParamId(self.values.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Parameter value by id.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value by id: copied first if anyone else shares
    /// it, so they keep reading the value as it was.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.values[id.0])
    }

    /// Installs `value` as parameter `id`'s value, copying nothing.
    pub fn replace(&mut self, id: ParamId, value: impl Into<Arc<Tensor>>) {
        self.values[id.0] = value.into();
    }

    /// Parameter name by id.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Iterate over `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(self.values.iter())
            .enumerate()
            .map(|(i, (n, v))| (ParamId(i), n.as_str(), &**v))
    }

    /// A zeroed gradient vector parallel to this store.
    pub fn zero_grads(&self) -> Vec<Tensor> {
        self.values
            .iter()
            .map(|v| Tensor::zeros(v.rows(), v.cols()))
            .collect()
    }

    /// Total parameter payload in bytes (used to meter all-reduce traffic).
    pub fn payload_bytes(&self) -> u64 {
        self.values.iter().map(|v| v.payload_bytes()).sum()
    }
}

/// Per-tape record of which tape leaf realizes which parameter.
#[derive(Default)]
pub struct Bindings {
    bound: Vec<(ParamId, Var)>,
}

impl Bindings {
    /// Empty bindings for a fresh tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds parameter `id` onto `tape` as a leaf holding the store's own
    /// tensor (no copy), memoizing so repeated binds of the same parameter
    /// share one leaf (and thus accumulate gradients correctly).
    pub fn bind(&mut self, tape: &mut Tape, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&(_, v)) = self.bound.iter().find(|(p, _)| *p == id) {
            return v;
        }
        let var = tape.leaf_shared(Arc::clone(&store.values[id.0]));
        self.bound.push((id, var));
        var
    }

    /// Drains accumulated leaf gradients into `grads` (id-indexed, parallel
    /// to the store). Leaves unreached by backward contribute nothing.
    pub fn collect_grads(&self, tape: &mut Tape, grads: &mut [Tensor]) {
        for &(id, var) in &self.bound {
            if let Some(g) = tape.take_grad(var) {
                grads[id.0].add_assign(&g);
            }
        }
    }
}

/// A fully connected layer `y = x W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.register(
            format!("{prefix}.weight"),
            Init::XavierUniform.tensor(in_features, out_features, rng),
        );
        let b = store.register(
            format!("{prefix}.bias"),
            Init::Zeros.tensor(1, out_features, rng),
        );
        Self { w, b, in_features, out_features }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Parameter ids `(weight, bias)`.
    pub fn param_ids(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    /// Records `x W + b` on the tape.
    pub fn forward(
        &self,
        tape: &mut Tape,
        bindings: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let w = bindings.bind(tape, store, self.w);
        let b = bindings.bind(tape, store, self.b);
        let xw = tape.matmul(x, w);
        tape.add_row_broadcast(xw, b)
    }

    /// FLOPs for a forward application on `n` rows.
    pub fn forward_flops(&self, n: usize) -> u64 {
        2 * n as u64 * self.in_features as u64 * self.out_features as u64
            + (n * self.out_features) as u64
    }
}

/// A multi-layer perceptron with ReLU between layers (used by GIN).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    pub fn new(store: &mut ParamStore, prefix: &str, widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(widths.len() >= 2, "Mlp needs at least one layer");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{prefix}.{i}"), w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// The constituent linear layers, in order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.layers.first().unwrap().in_features()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.layers.last().unwrap().out_features()
    }

    /// Records the MLP forward pass (ReLU between layers, none after the
    /// last).
    pub fn forward(
        &self,
        tape: &mut Tape,
        bindings: &mut Bindings,
        store: &ParamStore,
        mut x: Var,
    ) -> Var {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, bindings, store, x);
            if i + 1 < self.layers.len() {
                x = tape.relu(x);
            }
        }
        x
    }

    /// FLOPs for a forward application on `n` rows.
    pub fn forward_flops(&self, n: usize) -> u64 {
        self.layers.iter().map(|l| l.forward_flops(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn param_store_registration_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(2, 3));
        let b = store.register("b", Tensor::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.find("a"), Some(a));
        assert_eq!(store.find("missing"), None);
        assert_eq!(store.name(b), "b");
        assert_eq!(store.payload_bytes(), 36);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn param_store_rejects_duplicates() {
        let mut store = ParamStore::new();
        store.register("a", Tensor::zeros(1, 1));
        store.register("a", Tensor::zeros(1, 1));
    }

    #[test]
    fn xavier_init_is_bounded_and_seeded() {
        let mut r1 = rng();
        let mut r2 = rng();
        let t1 = Init::XavierUniform.tensor(10, 10, &mut r1);
        let t2 = Init::XavierUniform.tensor(10, 10, &mut r2);
        assert_eq!(t1.data(), t2.data(), "same seed, same init");
        let a = (6.0f32 / 20.0).sqrt();
        assert!(t1.data().iter().all(|v| v.abs() <= a));
    }

    #[test]
    fn linear_forward_shape_and_grads() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut r);
        let mut tape = Tape::new();
        let mut binds = Bindings::new();
        let x = tape.leaf(Tensor::full(5, 4, 1.0));
        let y = lin.forward(&mut tape, &mut binds, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let mut grads = store.zero_grads();
        binds.collect_grads(&mut tape, &mut grads);
        let (w, b) = lin.param_ids();
        // Bias gradient of sum-loss over 5 rows is 5 per output column.
        assert_eq!(grads[b.index()].data(), &[5.0, 5.0, 5.0]);
        assert!(grads[w.index()].norm() > 0.0);
    }

    #[test]
    fn bindings_memoize_repeated_binds() {
        let mut store = ParamStore::new();
        let id = store.register("p", Tensor::scalar(2.0));
        let mut tape = Tape::new();
        let mut binds = Bindings::new();
        let v1 = binds.bind(&mut tape, &store, id);
        let v2 = binds.bind(&mut tape, &store, id);
        assert_eq!(v1, v2);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn a_bound_leaf_is_the_stores_tensor() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(3, 2, 0.5));
        let mut tape = Tape::new();
        let v = Bindings::new().bind(&mut tape, &store, id);
        assert!(std::ptr::eq(tape.value(v), store.value(id)));
    }

    #[test]
    fn a_tape_bound_before_a_step_reads_the_old_value() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(2, 2, 1.0));
        let mut tape = Tape::new();
        let v = Bindings::new().bind(&mut tape, &store, id);
        store.value_mut(id).data_mut()[0] = 5.0;
        assert_eq!(tape.value(v).data(), &[1.0; 4]);
        assert_eq!(store.value(id).data(), &[5.0, 1.0, 1.0, 1.0]);
        // Once the tape is gone the store writes its value in place.
        drop(tape);
        let at = store.value(id) as *const Tensor;
        store.value_mut(id).data_mut()[1] = 6.0;
        assert!(std::ptr::eq(store.value(id), at));
    }

    #[test]
    fn a_cloned_store_is_untouched_by_a_step_on_the_original() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut r);
        let (w, _) = lin.param_ids();
        let copy = store.clone();
        assert!(std::ptr::eq(copy.value(w), store.value(w)), "a clone copies no weights");
        let before = copy.value(w).clone();
        let grads: Vec<Tensor> =
            store.iter().map(|(_, _, v)| Tensor::full(v.rows(), v.cols(), 1.0)).collect();
        Sgd::new(0.5).step(&mut store, &grads);
        assert_eq!(copy.value(w).data(), before.data());
        assert_ne!(store.value(w).data(), before.data());
    }

    #[test]
    fn replacing_a_value_copies_nothing() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(4, 4, 1.0));
        let copy = store.clone();
        let old = store.value(id) as *const Tensor;
        let new = Arc::new(Tensor::full(4, 4, 2.0));
        store.replace(id, Arc::clone(&new));
        // The store holds the very tensor it was given; the clone still
        // reads the very tensor the store held.
        assert!(std::ptr::eq(store.value(id), &*new));
        assert!(std::ptr::eq(copy.value(id), old));
    }

    #[test]
    fn mlp_stacks_layers() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let mlp = Mlp::new(&mut store, "m", &[4, 8, 2], &mut r);
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 2);
        let mut tape = Tape::new();
        let mut binds = Bindings::new();
        let x = tape.leaf(Tensor::full(3, 4, 0.5));
        let y = mlp.forward(&mut tape, &mut binds, &store, x);
        assert_eq!(tape.value(y).shape(), (3, 2));
        assert_eq!(
            mlp.forward_flops(3),
            (2 * 3 * 4 * 8 + 3 * 8) as u64 + (2 * 3 * 8 * 2 + 3 * 2) as u64
        );
    }
}
