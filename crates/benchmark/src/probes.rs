//! **P** metrics: each layer's public entry points called in isolation,
//! on the workload's own shapes, after the timed regions of a traced run.
//! Every value is the median of [`CALLS`] individually timed calls after
//! one untimed warm-up call.

use std::hint::black_box;
use std::time::Instant;

use neutronstar::TrainingSession;
use ns_graph::khop::khop_in_closure;
use ns_graph::Partitioner;
use ns_net::{wire, ClusterSpec, Fabric, MessageKind, ParallelEnqueue};
use ns_runtime::exec::{train_epochs, ExecConfig};
use ns_runtime::serve::{FeatureCache, SubmitQueue};
use ns_runtime::{probe_threaded, Checkpoint, CheckpointStore};
use ns_tensor::{Adam, Optimizer, ParamStore, Tensor};

use crate::pipeline::{Cx, RunResult};
use crate::spec::{ServeSpec, KEEP_GENERATIONS, WARMUP_EPOCHS, WORKERS};
use crate::stats;
use crate::trace::Tracer;

/// Timed calls behind each probe's median.
const CALLS: usize = 20;
/// Timed epochs of the executor-only run behind `exec.epoch_direct_s`
/// (after the same warm-up exclusion as `epoch_s`).
const DIRECT_EPOCHS: usize = 5;
/// Ping-pongs behind `net.roundtrip_us`.
const ROUNDTRIPS: usize = 1_000;
/// Operations per timed call of the nanosecond-scale serve probes.
const SMALL_OPS: usize = 10_000;
/// Rows of the wire probes' message when the workload sends no rows.
const DEFAULT_MSG_ROWS: usize = 1_024;

/// The workload's own shapes for the probes every workload runs.
pub struct Shapes {
    /// Seeds `graph.khop_s` closes over: worker 0's owned set when
    /// training, a batch's worth of query seeds when serving.
    pub khop_seeds: Vec<u32>,
    /// Mean rows of one `Rows` message the workload sent (`None`: none).
    pub msg_rows: Option<usize>,
    /// Its width: hidden when training, feature width when serving.
    pub msg_cols: usize,
}

/// Times `f` `CALLS` times after one warm-up call, inside a span named
/// like the metric, records the median under `name` and returns it.
fn probe(tr: &mut Tracer, out: &mut RunResult, name: &'static str, mut f: impl FnMut()) -> f64 {
    let (median, _) = tr.span(name, |_| {
        f();
        let samples: Vec<f64> = (0..CALLS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&samples)
    });
    out.put_n(name, median, CALLS);
    median
}

/// Deterministic filler in `[-0.5, 0.5)`; the kernels' speed does not
/// depend on the values, only on the shapes.
fn filled(rows: usize, cols: usize, salt: u64) -> Tensor {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// The probes every workload runs: graph, wire, checkpoint and store, on
/// the shapes and the parameters the workload itself produced.
pub fn common(
    cx: &mut Cx,
    shapes: &Shapes,
    params: &ParamStore,
    epochs: usize,
) -> std::io::Result<()> {
    let graph = &cx.ds.graph;
    let (tr, out) = (&mut cx.tr, &mut cx.out);
    probe(tr, out, "graph.partition_s", || {
        black_box(Partitioner::Chunk.partition(graph, WORKERS));
    });
    let hops = cx.model.num_layers();
    probe(tr, out, "graph.khop_s", || {
        black_box(khop_in_closure(graph, &shapes.khop_seeds, hops));
    });
    net(tr, out, shapes);
    recovery_and_store(cx, params, epochs)?;

    // A lone traced run has no untraced twin to difference against, so it
    // reports what recording its spans cost, as a share of its own wall;
    // `nsbench all --trace` overwrites this with traced ÷ untraced − 1.
    let tr = &cx.tr;
    let wall_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let per_span_s = {
        let mut scratch = Tracer::new(true);
        let t = Instant::now();
        for _ in 0..SMALL_OPS {
            scratch.span("bench.calibrate", |_| ());
        }
        t.elapsed().as_secs_f64() / SMALL_OPS as f64
    };
    cx.out.put(
        "bench.trace_overhead_share",
        per_span_s * tr.spans().len() as f64 / (wall_ns as f64 / 1e9),
    );
    Ok(())
}

/// The probes of the layers only training runs through, on worker 0's
/// plan.
pub fn train_only(cx: &mut Cx, session: &TrainingSession) {
    let cluster = ClusterSpec::aliyun_ecs(WORKERS);
    probe(&mut cx.tr, &mut cx.out, "plan.probe_s", || {
        black_box(probe_threaded(cx.model, &cluster, 1));
    });
    probe(&mut cx.tr, &mut cx.out, "sim.simulate_s", || {
        black_box(session.simulate_epoch());
    });
    tensor(cx, session);
    exec_direct(cx, session);
}

fn tensor(cx: &mut Cx, session: &TrainingSession) {
    let (tr, out) = (&mut cx.tr, &mut cx.out);
    let plan = &session.trainer().plans()[0];
    let dims = cx.model.dims();
    let (feat, hidden) = (dims[0], dims[1]);

    // Layer 0's dense product on worker 0: rows x feat x hidden.
    let rows = plan.layers[0].topo.n_dst;
    let x = filled(rows, feat, 1);
    let wgt = filled(feat, hidden, 2);
    let dy = filled(rows, hidden, 3);
    let matmul_s = probe(tr, out, "tensor.matmul_s", || {
        black_box(x.matmul(&wgt));
    });
    out.put(
        "tensor.matmul_gflops",
        2.0 * (rows * feat * hidden) as f64 / matmul_s / 1e9,
    );
    probe(tr, out, "tensor.matmul_tn_s", || {
        black_box(x.matmul_tn(&dy));
    });

    // The last layer's aggregation on worker 0's own CSR, at hidden width.
    let topo = &plan.layers[plan.layers.len() - 1].topo;
    let h = filled(topo.n_src, hidden, 4);
    let g = filled(topo.n_dst, hidden, 5);
    let weights = Some(&topo.edge_weight[..]);
    let aggregate_s = probe(tr, out, "tensor.aggregate_s", || {
        black_box(h.weighted_aggregate(&topo.edge_src, &topo.dst_offsets, weights));
    });
    // Computed from sizes: one source row read per edge, one destination
    // row written, plus the edge's index and weight.
    let edges = topo.num_edges();
    let bytes = 4 * (edges * hidden + topo.n_dst * hidden) + 8 * edges;
    out.put("tensor.aggregate_gbps", bytes as f64 / aggregate_s / 1e9);
    probe(tr, out, "tensor.aggregate_t_s", || {
        black_box(g.weighted_aggregate_transpose(
            &topo.edge_src,
            &topo.dst_offsets,
            weights,
            topo.n_src,
        ));
    });
    probe(tr, out, "tensor.gather_s", || {
        black_box(cx.ds.features.gather_rows(&plan.owned));
    });

    let mut store = cx.model.fresh_store();
    let grads: Vec<Tensor> = store
        .iter()
        .map(|(_, _, v)| Tensor::full(v.rows(), v.cols(), 1e-3))
        .collect();
    let mut adam = Adam::new(0.01);
    probe(tr, out, "tensor.adam_step_s", || {
        adam.step(&mut store, &grads)
    });
}

fn net(tr: &mut Tracer, out: &mut RunResult, shapes: &Shapes) {
    let rows = shapes.msg_rows.unwrap_or(DEFAULT_MSG_ROWS).max(1);
    let cols = shapes.msg_cols;
    out.notes.insert("net_probe_rows", rows as f64);
    let payload = filled(rows, cols, 6);
    let ids: Vec<u32> = (0..rows as u32).collect();
    let kind = MessageKind::Rows {
        layer: 1,
        ids: ids.clone(),
        cols: cols as u32,
        data: payload.data().to_vec(),
    };
    let mut frame = Vec::new();
    let encode_s = probe(tr, out, "net.encode_s", || {
        wire::encode_frame_into(&kind, &mut frame);
        black_box(&frame);
    });
    out.put("net.encode_gbps", frame.len() as f64 / encode_s / 1e9);
    probe(tr, out, "net.decode_s", || {
        black_box(wire::decode_frame(&frame).expect("a frame this probe just encoded"));
    });

    // The production send path: stage rows for the one peer through the
    // lock-free enqueue, storage from the tensor pool.
    probe(tr, out, "net.enqueue_s", || {
        let mut enq = ParallelEnqueue::new_with(cols, &[rows], ns_tensor::pool::take_scratch);
        enq.fill(payload.data(), &[&ids]);
        ns_tensor::pool::recycle(enq.take(0));
    });

    let (us, _) = tr.span("net.roundtrip_us", |_| {
        let mut eps = Fabric::new(2).into_endpoints();
        let echo = eps.pop().expect("endpoint 1");
        let ping = eps.pop().expect("endpoint 0");
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..=ROUNDTRIPS {
                    let m = echo.recv_from(0).expect("ping");
                    echo.send(0, m.kind).expect("pong");
                }
            });
            let once = || {
                let t = Instant::now();
                ping.send(1, MessageKind::Control(1.0)).expect("ping");
                black_box(ping.recv_from(1).expect("pong"));
                t.elapsed().as_secs_f64() * 1e6
            };
            once();
            let samples: Vec<f64> = (0..ROUNDTRIPS).map(|_| once()).collect();
            stats::median(&samples)
        })
    });
    out.put_n("net.roundtrip_us", us, ROUNDTRIPS);
}

/// The executor without the trainer's supervision: `exec::train_epochs`
/// straight on the prepared plans.
fn exec_direct(cx: &mut Cx, session: &TrainingSession) {
    let plans = session.trainer().plans();
    let timed = if cx.opts.quick { 1 } else { DIRECT_EPOCHS };
    let epochs = WARMUP_EPOCHS + timed;
    let (ran, _) = cx.tr.span("exec.epoch_direct_s", |_| {
        train_epochs(cx.ds, cx.model, plans, epochs, &ExecConfig::default())
    });
    match ran {
        Ok((metrics, _)) => {
            let walls: Vec<f64> = metrics
                .iter()
                .skip(WARMUP_EPOCHS)
                .map(|m| m.wall_s)
                .collect();
            cx.out
                .put_n("exec.epoch_direct_s", stats::median(&walls), walls.len());
        }
        Err(e) => panic!("exec::train_epochs failed on plans the trainer just ran: {e}"),
    }
}

fn recovery_and_store(cx: &mut Cx, params: &ParamStore, epochs: usize) -> std::io::Result<()> {
    let (tr, out) = (&mut cx.tr, &mut cx.out);
    probe(tr, out, "recovery.capture_s", || {
        black_box(Checkpoint::capture(epochs, params, None));
    });
    let checkpoint = Checkpoint::capture(epochs, params, None);
    probe(tr, out, "recovery.restore_s", || {
        black_box(
            checkpoint
                .restore()
                .expect("a checkpoint captured in this run"),
        );
    });
    // Its own directory: retention then prunes only this probe's files.
    let dir = cx.scratch.join("probe-store");
    let mut store = CheckpointStore::open(&dir, KEEP_GENERATIONS)?;
    let mut saved = None;
    probe(tr, out, "store.save_s", || {
        saved = Some(store.save(&checkpoint, WORKERS));
    });
    let receipt = saved.expect("the probe ran")?;
    out.put("store.bytes_per_gen", receipt.bytes as f64);
    probe(tr, out, "store.load_s", || {
        black_box(store.load_latest());
    });
    Ok(())
}

/// The serve layer's two small structures, `SMALL_OPS` operations per
/// timed call, reported per operation.
pub fn serve_only(cx: &mut Cx, s: &ServeSpec) {
    let (tr, out) = (&mut cx.tr, &mut cx.out);
    let per_op_ns = |per_call_s: f64| per_call_s * 1e9 / SMALL_OPS as f64;
    let n = cx.ds.graph.num_vertices();
    let cols = cx.ds.feature_dim();
    // The workload's own cache, as full as it gets, looked up over the
    // ids it can hold: all hits, or all misses where the cache is off.
    let resident = s.cache_rows.min(n);
    let mut cache = FeatureCache::new(s.cache_rows);
    for v in 0..resident {
        cache.insert(v as u32, cx.ds.features.row(v).to_vec());
    }
    let ids = resident.max(1);
    let per_call = probe(tr, out, "serve.cache_lookup_ns", || {
        for i in 0..SMALL_OPS {
            black_box(cache.lookup((i % ids) as u32).map(|row| row[cols - 1]));
        }
    });
    out.put_n("serve.cache_lookup_ns", per_op_ns(per_call), CALLS);

    // One push and one pop per operation.
    let queue: SubmitQueue<u64> = SubmitQueue::new(SMALL_OPS);
    let per_call = probe(tr, out, "serve.queue_push_ns", || {
        for i in 0..SMALL_OPS {
            queue.try_push(i as u64).expect("queue sized for the loop");
        }
        while queue.try_pop().is_some() {}
    });
    out.put_n("serve.queue_push_ns", per_op_ns(per_call), CALLS);
}
