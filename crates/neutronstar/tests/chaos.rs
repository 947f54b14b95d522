//! Chaos soak: >= 32 seeded randomized fault schedules must complete
//! training with every robustness invariant intact (see
//! `neutronstar::chaos` for the invariant list).

use std::sync::OnceLock;

use neutronstar::chaos::{baseline, generate, run_schedule, Baseline, ChaosConfig, Matrix};
use neutronstar::net::fault::Fault;

const SOAK_SEEDS: u64 = 32;
const BASE_SEED: u64 = 1000;

fn cfg() -> ChaosConfig {
    ChaosConfig::default()
}

fn shared_baseline() -> &'static Baseline {
    static BASE: OnceLock<Baseline> = OnceLock::new();
    BASE.get_or_init(|| baseline(&cfg()).expect("fault-free baseline"))
}

#[test]
fn soak_32_seeds_uphold_all_invariants() {
    let cfg = cfg();
    let base = shared_baseline();
    let mut failed = Vec::new();
    for seed in BASE_SEED..BASE_SEED + SOAK_SEEDS {
        let schedule = generate(seed, &cfg);
        let outcome = run_schedule(&cfg, base, &schedule);
        if !outcome.passed() {
            failed.push(format!(
                "seed {seed} [{}]: {:?}",
                outcome.schedule, outcome.violations
            ));
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {SOAK_SEEDS} schedules violated invariants:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

#[test]
fn soak_seed_range_exercises_every_fault_kind() {
    // The harness is only a soak if the generator actually covers the
    // fault space over the seeds the soak runs.
    let cfg = cfg();
    let mut kills = 0;
    let mut straggles = 0;
    let mut drops = 0;
    let mut delays = 0;
    let mut dups = 0;
    let mut corrupts = 0;
    let mut rejoins = 0;
    for seed in BASE_SEED..BASE_SEED + SOAK_SEEDS {
        let s = generate(seed, &cfg);
        rejoins += s.rejoin as usize;
        for f in &s.faults {
            match f {
                Fault::Kill { .. } => kills += 1,
                Fault::Straggle { .. } => straggles += 1,
                Fault::Drop { .. } => drops += 1,
                Fault::Delay { .. } => delays += 1,
                Fault::Duplicate { .. } => dups += 1,
                Fault::Corrupt { .. } | Fault::CorruptCkpt { .. } => corrupts += 1,
                Fault::Partition { .. } | Fault::Flap { .. } => {
                    panic!("default matrix must not schedule link faults")
                }
                Fault::DiskFull { .. }
                | Fault::SlowDisk { .. }
                | Fault::MemPressure { .. }
                | Fault::Hang { .. } => {
                    panic!("default matrix must not schedule resource faults")
                }
            }
        }
    }
    assert!(kills > 0, "no kills across the soak range");
    assert!(straggles > 0, "no stragglers across the soak range");
    assert!(drops > 0, "no drops across the soak range");
    assert!(delays > 0, "no delays across the soak range");
    assert!(dups > 0, "no duplicates across the soak range");
    assert!(corrupts > 0, "no corruptions across the soak range");
    assert!(rejoins > 0, "no rejoin schedules across the soak range");
}

#[test]
fn partition_soak_32_seeds_upholds_liveness() {
    // 32 healable link-fault schedules (partitions, half-partitions,
    // flaps — no kills) must terminate on their own with
    // baseline-quality loss.
    let cfg = ChaosConfig { matrix: Matrix::Partition, ..ChaosConfig::default() };
    let base = shared_baseline();
    let mut failed = Vec::new();
    for seed in BASE_SEED..BASE_SEED + SOAK_SEEDS {
        let schedule = generate(seed, &cfg);
        let outcome = run_schedule(&cfg, base, &schedule);
        if !outcome.passed() {
            failed.push(format!(
                "seed {seed} [{}]: {:?}",
                outcome.schedule, outcome.violations
            ));
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {SOAK_SEEDS} partition schedules violated invariants:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

#[test]
fn killed_worker_rejoins_and_restores_world() {
    // Directly exercise the rejoin invariant: a schedule with one early
    // kill and rejoin enabled must log a Failed -> Rejoined transition
    // and end the run at full world size (checked by run_schedule's
    // membership replay).
    let cfg = cfg();
    let base = shared_baseline();
    let schedule = neutronstar::chaos::ChaosSchedule {
        seed: 77,
        faults: vec![Fault::Kill { worker: 1, epoch: 2 }],
        rejoin: true,
    };
    let outcome = run_schedule(&cfg, base, &schedule);
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert_eq!(outcome.recoveries, 1);
    assert!(
        outcome.membership_events >= 2,
        "expected Failed + Rejoined, got {} events",
        outcome.membership_events
    );
}
