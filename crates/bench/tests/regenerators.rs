//! The committed evaluation is a golden file: `experiments table02 fig02`,
//! run into a scratch directory, writes exactly the bytes committed under
//! `results/`, and nothing else. A full run, which CI checks against the
//! same files, must agree too, so no experiment's output depends on what
//! ran before it in the process.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn named_experiments_write_the_committed_bytes() {
    let ids = ["table02", "fig02"];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("regenerators");
    let _ = std::fs::remove_dir_all(&dir);
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(ids)
        .env("NS_RESULTS_DIR", &dir)
        .stdout(Stdio::null())
        .status()
        .expect("spawn experiments");
    assert!(status.success(), "experiments {ids:?} exited with {status}");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for id in ids {
        let file = format!("{id}.json");
        let read = |dir: &Path| {
            std::fs::read(dir.join(&file)).unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        };
        assert!(
            read(&dir) == read(&committed),
            "results/{file} differs from what the tree writes: \
             rerun `cargo run --release -p bench --bin experiments {id}` and commit the file"
        );
    }
    assert_eq!(
        std::fs::read_dir(&dir).expect("scratch dir").count(),
        ids.len()
    );
}
