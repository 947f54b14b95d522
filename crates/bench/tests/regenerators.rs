//! Smoke test: the regenerators *run*, not only compile. Two figure/table
//! binaries and the two `BENCH_*.json` writers are executed with their
//! output redirected under the build directory; each file must parse with
//! `ns_metrics::json` and carry the same keys, record by record, as the
//! artifact committed for it. Values are not compared: they depend on the
//! host (timings) and on the generator stream the committed files predate.

use std::path::{Path, PathBuf};
use std::process::Command;

use ns_metrics::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scratch() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("regenerators");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(exe: &str, args: &[&str], results_dir: &Path) {
    let status = Command::new(exe)
        .args(args)
        .env("NS_RESULTS_DIR", results_dir)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(status.success(), "{exe} {args:?} exited with {status}");
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Objects must have equal key sets, recursively. Arrays of equal length
/// are compared element by element; a sweep whose length depends on
/// `--quick` or the core count has every record compared with the
/// committed file's first.
fn assert_same_keys(fresh: &Json, committed: &Json, at: &str) {
    match (fresh, committed) {
        (Json::Obj(f), Json::Obj(c)) => {
            assert_eq!(
                f.keys().collect::<Vec<_>>(),
                c.keys().collect::<Vec<_>>(),
                "key sets differ at {at}"
            );
            for (k, v) in f {
                assert_same_keys(v, &c[k], &format!("{at}.{k}"));
            }
        }
        (Json::Arr(f), Json::Arr(c)) if f.len() == c.len() => {
            for (i, (fv, cv)) in f.iter().zip(c).enumerate() {
                assert_same_keys(fv, cv, &format!("{at}[{i}]"));
            }
        }
        (Json::Arr(f), Json::Arr(c)) => {
            assert!(!f.is_empty() && !c.is_empty(), "empty sweep at {at}");
            for (i, fv) in f.iter().enumerate() {
                assert_same_keys(fv, &c[0], &format!("{at}[{i}]"));
            }
        }
        (Json::Obj(_) | Json::Arr(_), _) | (_, Json::Obj(_) | Json::Arr(_)) => {
            panic!("container on one side only at {at}")
        }
        _ => {}
    }
}

#[test]
fn figure_and_table_regenerators_write_the_committed_shape() {
    let dir = scratch();
    for (id, exe) in
        [("table02", env!("CARGO_BIN_EXE_table02")), ("fig02", env!("CARGO_BIN_EXE_fig02"))]
    {
        run(exe, &[], &dir);
        let fresh = load(&dir.join(format!("{id}.json")));
        let committed = load(&repo_root().join(format!("results/{id}.json")));
        assert_eq!(
            fresh.as_arr().map(<[Json]>::len),
            committed.as_arr().map(<[Json]>::len),
            "{id}: record count"
        );
        assert_same_keys(&fresh, &committed, id);
    }
}

fn bench_writer_writes_the_committed_shape(name: &str, exe: &str) {
    let dir = scratch();
    let out = dir.join(name);
    run(exe, &["--quick", "--out", out.to_str().expect("UTF-8 path")], &dir);
    assert_same_keys(&load(&out), &load(&repo_root().join(name)), name);
}

#[test]
fn micro_compute_writes_the_committed_shape() {
    bench_writer_writes_the_committed_shape("BENCH_compute.json", env!("CARGO_BIN_EXE_micro_compute"));
}

/// An unoptimized shard cannot answer inside the serve deadlines (the
/// frontend declares every shard dead), so this one needs
/// `cargo test --release -p bench --test regenerators`, which CI runs.
#[test]
#[cfg_attr(debug_assertions, ignore = "serve deadlines need an optimized build")]
fn bench_serve_writes_the_committed_shape() {
    bench_writer_writes_the_committed_shape("BENCH_serve.json", env!("CARGO_BIN_EXE_bench_serve"));
}
