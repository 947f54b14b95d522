//! `nts` — command-line front end for the NeutronStar reproduction.
//!
//! ```text
//! nts datasets
//! nts train    --dataset pokec --engine hybrid --workers 8 --epochs 20
//! nts simulate --dataset reddit --engine depcache --workers 16
//! nts probe    --dataset livejournal --cluster ibv
//! ```

use std::fmt::Display;
use std::path::Path;

use neutronstar::chaos;
use neutronstar::cli::{parse, usage, ChaosArgs, Command, ModelArgs, RunArgs, ServeArgs};
use neutronstar::metrics::{summary_table, to_chrome_trace, to_json};
use neutronstar::prelude::*;
use neutronstar::runtime::cost::probe_threaded;
use neutronstar::runtime::serve::ServeReport;
use neutronstar::runtime::{CheckpointStore, ServeDeployment, TrainerConfig, VertexWeight};
use neutronstar::tensor::checkpoint;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\n{}", usage());
        std::process::exit(2)
    });
    match command {
        Command::Help => print!("{}", usage()),
        Command::Datasets => datasets(),
        Command::Train(ra) => run(&ra, Mode::Train),
        Command::Simulate(ra) => run(&ra, Mode::Simulate),
        Command::Probe(ra) => run(&ra, Mode::Probe),
        Command::Chaos(ca) => run_chaos(&ca),
        Command::Serve(sa) => run_serve(&sa),
    }
}

/// The value in `result`, or its error printed and the process ended with
/// `code`: 2 for a usage error, 1 for a runtime failure.
fn or_exit<T, E: Display>(result: Result<T, E>, code: i32) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(code)
    })
}

fn datasets() {
    println!(
        "{:<12} {:>10} {:>12} {:>6} {:>4} {:>8} {:>5}",
        "name", "|V|", "|E|", "ftr", "#L", "avg-deg", "hid"
    );
    for spec in neutronstar::graph::datasets::registry() {
        println!(
            "{:<12} {:>10} {:>12} {:>6} {:>4} {:>8.2} {:>5}",
            spec.name,
            spec.vertices,
            spec.edges,
            spec.feature_dim,
            spec.num_classes,
            spec.avg_degree(),
            spec.hidden_dim
        );
    }
}

/// Materializes the dataset and builds the two-layer model `m` names;
/// returns them with the hidden width used.
fn build(m: &ModelArgs) -> (Dataset, GnnModel, usize) {
    let unknown = || format!("unknown dataset {:?} (see `nts datasets`)", m.dataset);
    let spec = or_exit(DatasetSpec::named(&m.dataset).ok_or_else(unknown), 2);
    let dataset = spec.materialize(m.scale, m.seed);
    let hidden = m.hidden.unwrap_or(dataset.hidden_dim);
    let model = GnnModel::two_layer(
        m.kind,
        dataset.feature_dim(),
        hidden,
        dataset.num_classes,
        m.seed,
    );
    (dataset, model, hidden)
}

enum Mode {
    Train,
    Simulate,
    Probe,
}

/// `nts chaos`: run seeded randomized fault schedules and check the
/// robustness invariants; exit nonzero if any schedule violates one.
fn run_chaos(ca: &ChaosArgs) {
    // Durable stores need a directory; default to a seed-derived scratch
    // path so corrupt-checkpoint faults have generations to damage.
    let mut cfg = ca.cfg.clone();
    let scratch =
        std::env::temp_dir().join(format!("nts-chaos-{}-{}", ca.seed, std::process::id()));
    let ckpt_base = cfg.ckpt_base.get_or_insert(scratch).clone();
    println!(
        "chaos soak ({}): {} schedules from seed {} | {} x{} workers, {} epochs, \
         checkpoint every {}, corrupt <= {:.2}, stores under {}",
        match cfg.matrix {
            chaos::Matrix::Partition => "link-fault matrix",
            chaos::Matrix::Resource => "resource-fault matrix",
            chaos::Matrix::Crash => "process-fault matrix",
        },
        ca.schedules,
        ca.seed,
        cfg.dataset,
        cfg.workers,
        cfg.epochs,
        cfg.checkpoint_every,
        cfg.corrupt,
        ckpt_base.display(),
    );
    let outcomes = or_exit(chaos::soak(&cfg, ca.seed, ca.schedules), 1);
    if ca.cfg.ckpt_base.is_none() {
        let _ = std::fs::remove_dir_all(&ckpt_base);
    }
    println!(
        "{:<6} {:<6} {:>10} {:>5} {:>7} {:>7} {:>5} {:>5}  schedule",
        "seed", "pass", "loss", "rec", "member", "replans", "crc", "fall"
    );
    let mut failures = 0usize;
    for o in &outcomes {
        println!(
            "{:<6} {:<6} {:>10.4} {:>5} {:>7} {:>7} {:>5} {:>5}  {}",
            o.seed,
            if o.passed() { "ok" } else { "FAIL" },
            o.final_loss,
            o.recoveries,
            o.membership_events,
            o.replans,
            o.crc_failures,
            o.ckpt_fallbacks,
            o.schedule,
        );
        for violation in &o.violations {
            println!("       violation: {violation}");
            failures += 1;
        }
    }
    let passed = outcomes.iter().filter(|o| o.passed()).count();
    // Per-invariant pass counts: which guarantee broke, not just how
    // many seeds did.
    print!("invariants:");
    for (i, (name, _)) in chaos::INVARIANTS.iter().enumerate() {
        let ok = outcomes.iter().filter(|o| o.invariant_pass[i]).count();
        print!(" {name} {ok}/{}", outcomes.len());
    }
    println!();
    println!("{passed}/{} schedules passed", outcomes.len());
    if failures > 0 {
        std::process::exit(1);
    }
}

/// `nts serve`: load the newest intact checkpoint generation from the
/// durable store, stand up the sharded read-only deployment, and drive
/// it with the seeded open-loop load.
fn run_serve(sa: &ServeArgs) {
    let (dataset, model, hidden) = build(&sa.model);
    let dir = Path::new(&sa.ckpt_dir);
    // A read-only server must not create the directory it reads, as
    // `CheckpointStore::open` would. Retention acts only on save, and
    // serving never saves, so it keeps 1.
    let store = if dir.is_dir() {
        CheckpointStore::open(dir, 1)
            .map_err(|e| format!("cannot open checkpoint store {}: {e}", sa.ckpt_dir))
    } else {
        Err(format!("checkpoint store {} does not exist", sa.ckpt_dir))
    };
    let loaded = or_exit(store, 1).load_latest();
    let ckpt = or_exit(
        loaded.checkpoint.ok_or_else(|| {
            format!(
                "no intact checkpoint generation under {0} — train one first \
                 with `nts train --ckpt-dir {0} --checkpoint-every <n>`",
                sa.ckpt_dir
            )
        }),
        1,
    );
    if loaded.fallbacks > 0 {
        println!(
            "store: skipped {} damaged generation(s) before an intact one",
            loaded.fallbacks
        );
    }
    let restored = ckpt
        .restore()
        .map_err(|e| format!("checkpoint restore failed: {e}"));
    let params = or_exit(restored, 1)
        .0
        .ok_or_else(|| format!("checkpoint under {} carries no parameters", sa.ckpt_dir));
    let params = or_exit(params, 1);

    let deploy = or_exit(
        ServeDeployment::new(&dataset, &model, params, sa.cfg.clone()),
        1,
    );
    println!(
        "serve | {} x{} (scale {}) | {} hid {} | {} shards | checkpoint at epoch {} \
         | {} queries at {} qps (zipf {})",
        dataset.name,
        dataset.graph.num_vertices(),
        sa.model.scale,
        sa.model.kind.name(),
        hidden,
        sa.cfg.shards,
        ckpt.next_epoch,
        sa.load.queries,
        sa.load.rate_qps,
        sa.load.zipf_s,
    );

    let report = or_exit(deploy.run_open_loop(&sa.load), 1);
    println!(
        "answered {} / offered {} | rejected {} | dropped {} | {:.0} qps achieved",
        report.answers.len(),
        report.offered,
        report.rejected,
        report.dropped,
        report.achieved_qps,
    );
    println!(
        "latency p50 {} µs | p99 {} µs | p999 {} µs | cache hit {:.1}%",
        report.percentile_us(50.0),
        report.percentile_us(99.0),
        report.percentile_us(99.9),
        report.cache_hit_ratio() * 100.0,
    );
    if report.rejected > 0 {
        // Rejections are admission-control back-pressure (bounded queue
        // full at the offered rate) — expected at saturation. Drops are
        // admitted queries that were lost, and always a bug.
        println!(
            "saturation: {} queries rejected at admission (bounded queue full); \
             rejects are back-pressure, not loss",
            report.rejected,
        );
    }
    if report.shard_deaths > 0 {
        println!(
            "degraded: {} shard death(s), {} queries rerouted, zero dropped",
            report.shard_deaths, report.reroutes,
        );
    }
    let hedge_issued = report.metrics.total_counter("serve.hedge.issued");
    let hedge_wins = report.metrics.total_counter("serve.hedge.wins");
    let fallback_rows = report.metrics.total_counter("serve.rows.fallback");
    if hedge_issued > 0 || fallback_rows > 0 {
        println!(
            "degraded fetch path: {hedge_issued} hedges issued, {hedge_wins} won \
             (mirror beat the peer), {fallback_rows} rows from mirror fallback",
        );
    }
    if let Some(path) = &sa.metrics_out {
        write_artifact(path, to_json(&report.metrics), "metrics JSON");
    }
    if let Some(path) = &sa.report_out {
        write_artifact(path, serve_report_json(sa, &report), "serve report");
    }
    if report.dropped > 0 {
        std::process::exit(1);
    }
}

/// Renders one serving run as a single-entry `bench-serve/v1` document.
fn serve_report_json(sa: &ServeArgs, r: &ServeReport) -> String {
    format!(
        "{{\n  \"schema\": \"bench-serve/v1\",\n  \"runs\": [\n    {{\n      \
         \"rate_qps\": {:.1},\n      \"queries\": {},\n      \"answered\": {},\n      \
         \"rejects\": {},\n      \"dropped\": {},\n      \"achieved_qps\": {:.1},\n      \
         \"p50_us\": {},\n      \"p99_us\": {},\n      \"p999_us\": {},\n      \
         \"cache_hit_ratio\": {:.4},\n      \"shard_deaths\": {},\n      \
         \"reroutes\": {},\n      \"hedge_issued\": {},\n      \
         \"hedge_wins\": {},\n      \"fetch_fallback_rows\": {}\n    }}\n  ]\n}}\n",
        sa.load.rate_qps,
        r.offered,
        r.answers.len(),
        r.rejected,
        r.dropped,
        r.achieved_qps,
        r.percentile_us(50.0),
        r.percentile_us(99.0),
        r.percentile_us(99.9),
        r.cache_hit_ratio(),
        r.shard_deaths,
        r.reroutes,
        r.metrics.total_counter("serve.hedge.issued"),
        r.metrics.total_counter("serve.hedge.wins"),
        r.metrics.total_counter("serve.rows.fallback"),
    )
}

/// Writes an output file (metrics JSON, trace, serve report or
/// checkpoint), exiting 1 when it cannot.
fn write_artifact(path: &str, contents: impl AsRef<[u8]>, what: &str) {
    let written = std::fs::write(path, contents);
    or_exit(
        written.map_err(|e| format!("cannot write {what} to {path}: {e}")),
        1,
    );
    println!("{what} written to {path}");
}

fn run(ra: &RunArgs, mode: Mode) {
    let (dataset, model, hidden) = build(&ra.model);
    let cluster = or_exit(ra.cluster_spec(), 2);
    println!(
        "{} | {} x{} (scale {}) | {} hid {} | {} workers on {}",
        match mode {
            Mode::Train => "train",
            Mode::Simulate => "simulate",
            Mode::Probe => "probe",
        },
        dataset.name,
        dataset.graph.num_vertices(),
        ra.model.scale,
        ra.model.kind.name(),
        hidden,
        cluster.workers,
        cluster.name,
    );

    if let Mode::Probe = mode {
        ns_par::set_threads(ra.threads);
        let costs = probe_threaded(&model, &cluster, ns_par::threads());
        println!("layer  T_v(s)      T_e(s)      T_c(s)");
        for lz in 0..model.num_layers() {
            println!(
                "{:>5}  {:<10.3e}  {:<10.3e}  {:<10.3e}",
                lz + 1,
                costs.t_v[lz],
                costs.t_e[lz],
                costs.t_c[lz]
            );
        }
        return;
    }

    let mut cfg = TrainerConfig::new(ra.engine, cluster);
    cfg.partitioner = ra.partitioner;
    if let Mode::Train = mode {
        // `train` executes, so it balances the model's FLOPs; `simulate`
        // prices the modelled cluster and keeps the paper's unit weight.
        cfg.vertex_weight = VertexWeight::ModelFlops;
    }
    cfg.threads = ra.threads;
    cfg.opts = ra.opts;
    cfg.lr = ra.lr;
    cfg.sync = ra.sync;
    cfg.fault = ra.fault.clone();
    cfg.recovery = ra.recovery;
    cfg.recv_timeout_ms = ra.recv_timeout_ms;
    cfg.store = ra.store.clone();
    let trainer = or_exit(
        neutronstar::runtime::Trainer::prepare(&dataset, &model, cfg),
        1,
    );

    if let Mode::Simulate = mode {
        let sim = trainer.simulate_epoch();
        println!(
            "epoch: {:.6}s | {:.3} MB moved | {:.3} GFLOP | device util {:.1}% | NIC util {:.1}%",
            sim.epoch_seconds,
            sim.bytes_per_epoch as f64 / 1e6,
            sim.flops_per_epoch as f64 / 1e9,
            sim.device_utilization * 100.0,
            sim.nic_utilization * 100.0,
        );
        return;
    }

    let (plan, costs) = (trainer.plan_summary(), trainer.costs());
    print!(
        "partition: vertex weight {:.3} = {} / {} FLOPs per vertex / per in-edge ->",
        plan.vertex_weight,
        costs.vertex_flops(),
        costs.edge_flops(),
    );
    for (w, p) in plan.parts.iter().enumerate() {
        print!(
            " w{w}: {} v + {} e = {:.1}%",
            p.vertices,
            p.in_edges,
            p.flop_share * 100.0
        );
    }
    println!();
    let report = or_exit(trainer.train(ra.epochs), 1);
    println!("epoch  loss      train  val    test");
    for e in &report.epochs {
        println!(
            "{:>5}  {:<8.4}  {:.3}  {:.3}  {:.3}",
            e.epoch, e.loss, e.train_acc, e.val_acc, e.test_acc
        );
    }
    println!(
        "simulated: {:.6}s/epoch ({:.3}s total)",
        report.sim.epoch_seconds,
        report.simulated_seconds(ra.epochs)
    );
    for (worker, epoch, engine) in &report.recoveries {
        println!(
            "recovered: worker {worker} lost, rolled back to epoch \
             {epoch}, resumed on {engine}"
        );
    }
    for e in &report.membership {
        println!(
            "membership: worker {} {} at epoch {}",
            e.worker,
            e.kind.name(),
            e.epoch
        );
    }
    for r in &report.replans {
        println!(
            "replan: epoch {} ({}) comm x{:.2}, moved {} deps to \
             cache / {} to comm",
            r.epoch,
            r.reason,
            r.comm_factor,
            r.moved_to_cached.iter().sum::<usize>(),
            r.moved_to_comm.iter().sum::<usize>(),
        );
    }
    print!("{}", summary_table(&report.metrics));
    if let Some(path) = &ra.metrics_out {
        write_artifact(path, to_json(&report.metrics), "metrics JSON");
    }
    if let Some(path) = &ra.trace_out {
        write_artifact(path, to_chrome_trace(&report.metrics), "trace");
    }
    if let Some(path) = &ra.save {
        let mut bytes = Vec::new();
        or_exit(checkpoint::save(&report.final_params, None, &mut bytes), 1);
        write_artifact(path, &bytes, "checkpoint");
    }
}
