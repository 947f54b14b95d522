//! `nsbench`: the repo's end-to-end train + serve benchmark with a
//! per-layer ledger. See `README.md` beside this crate and the root
//! `BENCHMARK.json`.
//!
//! ```text
//! nsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! nsbench all [--seed 42] [--seconds 15] [--runs 1] [--trace]
//!             [--trace-out <dir>] [--out <file>] [--quick]           every workload, own process each
//! nsbench compare <base.json> <new.json>                             apply the bounds
//! nsbench ladder --workload <serve-*> [--seed 42]                    open-loop rate ladder
//! nsbench manifest                                                   print BENCHMARK.json
//! ```

mod json;
mod pipeline;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use pipeline::{Expected, RunOptions};

/// The program and arguments `BENCHMARK.json` tells the driver to run;
/// the driver appends `--workload … --seed … --seconds … --trace …`.
/// `run.sh` builds this binary (against the registry crates where cargo
/// can resolve them, against `standins/` where it cannot) and runs it.
const COMMAND: [&str; 2] = ["bash", "crates/benchmark/run.sh"];
const PATHS: [&str; 1] = ["crates/benchmark"];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  nsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--result <file>] [--trace-out <dir>]\n  nsbench all [--seed <n>] \
         [--seconds <s>] [--runs <k>] [--trace] [--trace-out <dir>] [--out <file>] [--quick]\n  \
         nsbench compare <base.json> <new.json>\n  nsbench ladder --workload <serve-*> \
         [--seed <n>]\n  nsbench manifest\nworkloads: {}",
        spec::workloads()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    result: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parses `--flag value` pairs; `--trace` takes `0|1` in single-run mode
/// (the driver's form) and no value under `all`.
fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Args, String> {
    let mut a = Args {
        runs: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                a.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: {v:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                let s = num(value()?)?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                a.seconds = Some(s);
            }
            "--runs" => {
                a.runs = num(value()?)? as usize;
                if !(1..=50).contains(&a.runs) {
                    return Err("--runs is outside 1..=50".into());
                }
            }
            "--trace" if trace_takes_value => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace" => a.trace = true,
            "--quick" => a.quick = true,
            "--result" => a.result = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--out" => a.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workloads keep `WORKERS` threads busy; on fewer cores their timings
/// mean nothing, so only `--quick` smoke results may be produced there.
fn enough_cores(quick: bool) -> bool {
    let ok = quick || nproc() >= spec::WORKERS;
    if !ok {
        eprintln!(
            "nsbench: {} cores visible, the workloads need {}; only --quick may run here",
            nproc(),
            spec::WORKERS
        );
    }
    ok
}

fn load_expected() -> Option<Expected> {
    let doc = Json::parse(include_str!("../expected.json")).ok()?;
    let rng_fingerprint = doc.get("rng_fingerprint")?.as_f64()? as u64;
    let final_loss = doc
        .get("final_loss")?
        .as_obj()?
        .iter()
        .filter_map(|(name, e)| {
            Some((
                name.clone(),
                (
                    e.get("epochs")?.as_f64()? as usize,
                    e.get("loss")?.as_f64()?,
                ),
            ))
        })
        .collect();
    Some(Expected {
        rng_fingerprint,
        final_loss,
    })
}

/// The driver's entry point: one workload, in this process.
fn run_one(a: &Args) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds)) = (&a.workload, a.seed, a.seconds) else {
        return usage();
    };
    let Some(w) = spec::workload(name) else {
        eprintln!("nsbench: unknown workload {name:?}");
        return usage();
    };
    if !enough_cores(a.quick) {
        return ExitCode::from(1);
    }
    let expected = load_expected();
    let opts = RunOptions {
        seed,
        seconds,
        traced: a.trace,
        quick: a.quick,
        expected: expected.as_ref(),
        trace_out: a.trace_out.as_deref(),
    };
    let mut result = match pipeline::run(&w, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nsbench: {name}: I/O error: {e}");
            return ExitCode::from(1);
        }
    };
    for missing in report::missing_metrics(&result, w.on(), a.trace) {
        result
            .failures
            .push(format!("metric {missing} was not measured"));
    }
    if let Some(path) = &a.result {
        if let Err(e) = std::fs::write(path, report::run_to_json(&result).pretty()) {
            eprintln!("nsbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", report::driver_line(&result, a.trace).render());
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Runs one workload in a child process (so peak RSS, the tensor pool and
/// the `ns-par` pool are per workload) and reads back its result file.
fn run_child(
    exe: &Path,
    a: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    result_path: &Path,
) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--result")
        .arg(result_path)
        .stdout(std::process::Stdio::null());
    if a.quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = &a.trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    // The child's exit code repeats what its result file says; a child
    // that died without writing one is the error here.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let text = std::fs::read_to_string(result_path)
        .map_err(|_| format!("{workload}: child exited with {status} and left no result"))?;
    let _ = std::fs::remove_file(result_path);
    Json::parse(&text).map_err(|e| format!("{workload}: unreadable child result: {e}"))
}

fn run_all(a: &Args) -> ExitCode {
    if !enough_cores(a.quick) {
        return ExitCode::from(1);
    }
    let seed = a.seed.unwrap_or(42);
    let seconds = a
        .seconds
        .unwrap_or(if a.quick { 1.0 } else { spec::REF_SECONDS });
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nsbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let tmp = pipeline::scratch_base();
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("nsbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let mut workloads = std::collections::BTreeMap::new();
    let mut failed = false;
    for w in spec::workloads() {
        let result_path = tmp.join(format!("{}-{}.result.json", w.name, std::process::id()));
        let mut child = |is_traced: bool| {
            eprintln!(
                "nsbench: {} ({})",
                w.name,
                if is_traced { "traced" } else { "untraced" }
            );
            run_child(&exe, a, w.name, seed, seconds, is_traced, &result_path)
                .map_err(|e| {
                    eprintln!("nsbench: {e}");
                    failed = true;
                })
                .ok()
        };
        let untraced: Vec<Json> = (0..a.runs).filter_map(|_| child(false)).collect();
        let traced = if a.trace { child(true) } else { None };
        let entry = report::fold_workload(w.on(), &untraced, traced.as_ref());
        report::print_workload(w.name, &entry);
        failed |= entry
            .get("ops_failed")
            .and_then(Json::as_f64)
            .unwrap_or(1.0)
            > 0.0;
        failed |= entry
            .get("failures")
            .and_then(Json::as_arr)
            .is_some_and(|f| !f.is_empty());
        workloads.insert(w.name.to_string(), entry);
    }
    let doc = Json::obj([
        ("schema", Json::Str(report::SCHEMA.into())),
        ("quick", Json::Bool(a.quick)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(a.runs as f64)),
        ("traced", Json::Bool(a.trace)),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::Str(command_output("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rng_fingerprint",
            Json::Num(pipeline::rng_fingerprint() as f64),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("nsbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("nsbench: wrote {}", path.display());
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Rates of `nsbench ladder`, qps.
const LADDER: [f64; 12] = [
    1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 16000.0,
    20000.0,
];

/// Open-loop runs of one serving workload at rising rates: how the frozen
/// `rate_ref` / `rate_hi` of `spec.rs` were measured, and how to measure
/// them again after a change to serving capacity.
fn run_ladder(a: &Args) -> ExitCode {
    let Some(w) = a.workload.as_deref().and_then(spec::workload) else {
        return usage();
    };
    let spec::Kind::Serve(s) = &w.kind else {
        eprintln!("nsbench: {} is not a serving workload", w.name);
        return usage();
    };
    if !enough_cores(false) {
        return ExitCode::from(1);
    }
    let opts = RunOptions {
        seed: a.seed.unwrap_or(42),
        seconds: spec::REF_SECONDS,
        traced: false,
        quick: false,
        expected: None,
        trace_out: None,
    };
    match pipeline::with_inputs(&w, &opts, |cx| serve::ladder(cx, s, &LADDER)) {
        Ok(r) if r.failures.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nsbench: {}: I/O error: {e}", w.name);
            ExitCode::from(1)
        }
    }
}

fn run_compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else { return usage() };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match load(a)
        .and_then(|ja| Ok((ja, load(b)?)))
        .and_then(|(ja, jb)| report::compare(&ja, &jb))
    {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nsbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, generated from `spec` so the file and the code
/// cannot drift (a unit test compares them).
fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    let metric = |name: &str, unit: &str, better: spec::Better, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Json::Str(name.into())),
            ("unit", Json::Str(unit.into())),
            ("better", Json::Str(better.name().into())),
        ];
        fields.extend(bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    let end_to_end = spec::DRIVER_END_TO_END
        .iter()
        .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
        .collect();
    let per_layer = spec::driver_per_layer()
        .map(|m| metric(m.name, m.unit, m.better, None))
        .collect();
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(spec::REF_SECONDS)),
        (
            "workloads",
            Json::Arr(
                spec::workloads()
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("compare") => return run_compare(&args[1..]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Some("ladder") => {
            return match parse_flags(&args[1..], false) {
                Ok(a) => run_ladder(&a),
                Err(e) => {
                    eprintln!("nsbench: {e}");
                    usage()
                }
            }
        }
        Some("all") => parse_flags(&args[1..], false).map(|a| (a, true)),
        _ => parse_flags(&args, true).map(|a| (a, false)),
    };
    match parsed {
        Ok((a, true)) => run_all(&a),
        Ok((a, false)) => run_one(&a),
        Err(e) => {
            eprintln!("nsbench: {e}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_runtime::serve::load::OpenLoop;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in spec::METRICS {
            assert!(is_name(m.name), "metric name {:?}", m.name);
            assert!(seen.insert(m.name), "metric {} is listed twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
            if let spec::Rule::Bound(b) = m.rule {
                // The issue demotes a metric that needs more than 30%.
                assert!(b > 0.0 && b <= 0.30, "bound of {}", m.name);
            }
        }
        // What the driver sees: a bound is at most 25% there, and each
        // per-layer name is one of the ledger's.
        let mut driver = std::collections::BTreeSet::new();
        for m in spec::DRIVER_END_TO_END {
            assert!(is_name(m.name), "driver metric name {:?}", m.name);
            assert!(driver.insert(m.name), "driver metric {} twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in spec::driver_per_layer() {
            assert!(driver.insert(m.name), "{} is in both driver lists", m.name);
        }
        let setup = spec::DRIVER_END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", spec::Better::Lower)
        );
        for w in spec::workloads() {
            assert!(is_name(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "name {} is used twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
    }

    #[test]
    fn every_metric_is_measured_somewhere_and_tails_have_their_ten_samples() {
        let kinds: Vec<spec::On> = spec::workloads().iter().map(spec::Workload::on).collect();
        for m in spec::METRICS {
            assert!(
                kinds.iter().any(|&k| m.on.covers(k)),
                "{} is measured on no workload",
                m.name
            );
        }
        for w in spec::workloads() {
            if let spec::Kind::Train(t) = &w.kind {
                assert!(
                    t.epochs > spec::WARMUP_EPOCHS + 3,
                    "{}: too few timed epochs",
                    w.name
                );
                if t.durable {
                    assert_eq!(t.epochs % spec::CHECKPOINT_EVERY, 0, "{}", w.name);
                }
                // Epoch times are pooled over the run's `train()` calls.
                let timed = (t.epochs - spec::WARMUP_EPOCHS) * t.rounds;
                assert!(
                    stats::tail_percentile(timed) > 50.0,
                    "{}: epoch_tail_s would fall back to the median",
                    w.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `nsbench manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn equal_seeds_give_identical_inputs() {
        let w = spec::workload("serve-hot").unwrap().sized(1.0, true);
        let (a, b) = (pipeline::materialize(&w, 7), pipeline::materialize(&w, 7));
        assert_eq!(
            pipeline::dataset_checksum(&a),
            pipeline::dataset_checksum(&b)
        );
        assert_ne!(
            pipeline::dataset_checksum(&a),
            pipeline::dataset_checksum(&pipeline::materialize(&w, 8))
        );
        let load = OpenLoop {
            queries: 500,
            rate_qps: 1_000.0,
            seed: 7,
            zipf_s: 0.9,
        };
        assert_eq!(load.arrivals(), load.arrivals());
        assert_eq!(load.seeds(1_000), load.seeds(1_000));
        assert_ne!(load.seeds(1_000), OpenLoop { seed: 8, ..load }.seeds(1_000));
    }

    #[test]
    fn sizing_scales_the_rounds_and_leaves_a_round_as_it_is() {
        let shape = |w: &spec::Workload| match &w.kind {
            spec::Kind::Train(t) => (t.epochs, t.rounds),
            spec::Kind::Serve(s) => (s.phase_queries, s.rounds),
        };
        for w in spec::workloads() {
            let (per_round, rounds) = shape(&w);
            assert_eq!(
                shape(&w.sized(spec::REF_SECONDS, false)),
                (per_round, rounds)
            );
            assert_eq!(
                shape(&w.sized(spec::REF_SECONDS * 2.0, false)),
                (per_round, rounds * 2)
            );
            assert_eq!(shape(&w.sized(1.0, false)), (per_round, 1));
        }
        let w = spec::workload("train-comm").unwrap();
        assert!(w.sized(1.0, true).scale < w.scale);
    }

    #[test]
    fn time_to_loss_interpolates_between_epochs() {
        let losses = [4.0, 3.0, 1.0];
        let walls = [1.0, 1.0, 2.0];
        assert_eq!(train::time_to_loss(&losses, &walls, 2.0), Some(3.0));
        assert_eq!(train::time_to_loss(&losses, &walls, 3.0), Some(2.0));
        assert_eq!(train::time_to_loss(&losses, &walls, 0.5), None);
    }
}
