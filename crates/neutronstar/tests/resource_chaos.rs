//! Resource-exhaustion chaos soak (invariant 6): >= 32 seeded schedules
//! mixing disk-full windows, slow disks, memory-pressure caps, and hung
//! workers must degrade — squeezed retention, shed buffers, evictions
//! of hung workers — and still finish within the loss tolerance with zero
//! aborts. Lives in its own test binary because memory-pressure runs
//! re-cap the process-global tensor pool; sharing a process with the
//! other chaos soaks would let their allocations pollute the high-water
//! mark the invariant checks.

use std::sync::{Mutex, MutexGuard, OnceLock};

use neutronstar::chaos::{baseline, generate, run_schedule, ChaosConfig, Matrix};
use neutronstar::net::fault::{Fault, Window};

const SOAK_SEEDS: u64 = 32;
const BASE_SEED: u64 = 1000;

/// Serializes tests that train under a pool cap: the tensor pool is
/// process-global, so two concurrent capped runs would corrupt each
/// other's peak accounting.
fn pool_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn cfg(ckpt_base: Option<std::path::PathBuf>) -> ChaosConfig {
    ChaosConfig { matrix: Matrix::Resource, ckpt_base, ..ChaosConfig::default() }
}

#[test]
fn resource_soak_32_seeds_uphold_all_invariants() {
    let _guard = pool_guard();
    let base_dir = std::env::temp_dir()
        .join(format!("nts-resource-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    let cfg = cfg(Some(base_dir.clone()));
    let base = baseline(&cfg).expect("fault-free baseline");
    let mut failed = Vec::new();
    for seed in BASE_SEED..BASE_SEED + SOAK_SEEDS {
        let schedule = neutronstar::chaos::generate_with_baseline(seed, &cfg, Some(&base));
        let outcome = run_schedule(&cfg, &base, &schedule);
        assert_eq!(
            outcome.passed(),
            outcome.invariant_pass.iter().all(|p| *p),
            "per-invariant verdicts must agree with the violation list"
        );
        if !outcome.passed() {
            failed.push(format!(
                "seed {seed} [{}]: {:?}",
                outcome.schedule, outcome.violations
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&base_dir);
    assert!(
        failed.is_empty(),
        "{} of {SOAK_SEEDS} resource schedules violated invariants:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

#[test]
fn resource_seed_range_exercises_every_resource_fault_kind() {
    // The soak only proves invariant 6 if the generator actually covers
    // the resource-fault space over the seeds the soak runs.
    let cfg = cfg(Some(std::path::PathBuf::from("unused-by-generate")));
    let (mut disk_full, mut slow_disk, mut pressure, mut hangs) = (0, 0, 0, 0);
    for seed in BASE_SEED..BASE_SEED + SOAK_SEEDS {
        let s = generate(seed, &cfg);
        assert!(s.rejoin, "resource schedules always re-admit evicted workers");
        for f in &s.faults {
            match f {
                Fault::DiskFull { .. } => disk_full += 1,
                Fault::SlowDisk { .. } => slow_disk += 1,
                Fault::MemPressure { .. } => pressure += 1,
                Fault::Hang { .. } => hangs += 1,
                other => panic!("resource matrix must not schedule {other:?}"),
            }
        }
    }
    assert!(disk_full > 0, "no disk-full windows across the soak range");
    assert!(slow_disk > 0, "no slow disks across the soak range");
    assert!(pressure > 0, "no memory pressure across the soak range");
    assert!(hangs > 0, "no hangs across the soak range");
}

#[test]
fn disk_full_run_keeps_a_loadable_generation() {
    let _guard = pool_guard();
    let base_dir = std::env::temp_dir()
        .join(format!("nts-resource-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    let cfg = cfg(Some(base_dir.clone()));
    let base = baseline(&cfg).expect("fault-free baseline");
    let b = cfg.checkpoint_every;
    let schedule = neutronstar::chaos::ChaosSchedule {
        seed: 9,
        faults: vec![Fault::DiskFull { window: Window { from: b, heal: b + 1 } }],
        rejoin: true,
    };
    let outcome = run_schedule(&cfg, &base, &schedule);
    let _ = std::fs::remove_dir_all(&base_dir);
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert!(outcome.invariant_pass[5], "invariant 6 must hold");
}
