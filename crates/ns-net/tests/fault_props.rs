//! Property tests for fault injection: composed fault plans must be
//! deterministic under a fixed seed, and duplicate deliveries must never
//! surface twice from the fabric (a gradient message applied twice would
//! silently corrupt training).
//!
//! The cases are drawn from [`SplitMix64`], one stream per case seed, so
//! the suite needs no external crate, runs everywhere `cargo test` does,
//! and a failure names the seed that reproduces it.

use ns_net::fault::{parse_fault, Link, Window};
use ns_net::{Fabric, Fault, FaultPlan, KindSel, MessageKind, MsgSel};
use ns_rand::SplitMix64;

const CASES: u64 = 256;

/// `lo + [0, span)`.
fn range(rng: &mut SplitMix64, lo: usize, span: usize) -> usize {
    lo + rng.below(span as u64) as usize
}

/// A probability in `[0, 1]`, hitting both ends now and then.
fn arb_p(rng: &mut SplitMix64) -> f64 {
    match rng.below(8) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.unit(),
    }
}

/// Canonical selectors over every kind the grammar can name: the spec
/// suffix can only express src and dst together (`@w<src>-w<dst>`), so
/// they are generated paired.
fn arb_sel(rng: &mut SplitMix64) -> MsgSel {
    let kinds = [
        KindSel::Rows,
        KindSel::Grads,
        KindSel::AllReduce,
        KindSel::Control,
        KindSel::Query,
        KindSel::Reply,
        KindSel::Any,
    ];
    let kind = kinds[range(rng, 0, kinds.len())];
    let epoch = (rng.below(2) == 0).then(|| range(rng, 0, 32));
    let pair = (rng.below(2) == 0).then(|| (range(rng, 0, 16), range(rng, 0, 16)));
    MsgSel { kind, epoch, src: pair.map(|(s, _)| s), dst: pair.map(|(_, d)| d) }
}

/// A link between distinct workers; one-way half the time if `directed`.
fn arb_link(rng: &mut SplitMix64, directed: bool) -> Link {
    let a = range(rng, 0, 16);
    Link { a, b: (a + range(rng, 1, 15)) % 16, one_way: directed && rng.below(2) == 0 }
}

fn arb_window(rng: &mut SplitMix64) -> Window {
    let from = range(rng, 0, 32);
    Window { from, heal: from + range(rng, 1, 31) }
}

/// Variant `variant` of [`Fault`], constrained to what the parser admits
/// (distinct link endpoints, heal after start, nonzero flap period, duty
/// and probabilities inside [0, 1]).
fn arb_fault(rng: &mut SplitMix64, variant: u64) -> Fault {
    match variant {
        0 => Fault::Kill { worker: range(rng, 0, 16), epoch: range(rng, 0, 64) },
        1 => Fault::Straggle { worker: range(rng, 0, 16), delay_ms: rng.below(2_000) },
        2 => Fault::Drop { sel: arb_sel(rng), p: arb_p(rng) },
        3 => Fault::Delay { sel: arb_sel(rng), delay_ms: rng.below(1_000) },
        4 => Fault::Duplicate { sel: arb_sel(rng), p: arb_p(rng) },
        5 => Fault::Corrupt { sel: arb_sel(rng), p: arb_p(rng) },
        6 => Fault::CorruptCkpt {
            epoch: (rng.below(2) == 0).then(|| range(rng, 0, 64)),
            p: arb_p(rng),
        },
        7 => Fault::Partition { link: arb_link(rng, true), window: arb_window(rng) },
        8 => Fault::Flap {
            link: arb_link(rng, false),
            period_ms: 1 + rng.below(4_999),
            duty: arb_p(rng),
        },
        9 => Fault::DiskFull { window: arb_window(rng) },
        10 => Fault::SlowDisk { factor: 1.0 + rng.unit() * 63.0 },
        11 => Fault::MemPressure { cap_bytes: range(rng, 1, 1 << 30), window: arb_window(rng) },
        _ => Fault::Hang { worker: range(rng, 0, 16), epoch: range(rng, 0, 64) },
    }
}

/// The `variant` index [`arb_fault`] files a fault under. Exhaustive on
/// purpose: a new `Fault` variant does not build until it is numbered
/// here, and the round-trip property then fails until it is generated.
fn variant_of(fault: &Fault) -> u64 {
    match fault {
        Fault::Kill { .. } => 0,
        Fault::Straggle { .. } => 1,
        Fault::Drop { .. } => 2,
        Fault::Delay { .. } => 3,
        Fault::Duplicate { .. } => 4,
        Fault::Corrupt { .. } => 5,
        Fault::CorruptCkpt { .. } => 6,
        Fault::Partition { .. } => 7,
        Fault::Flap { .. } => 8,
        Fault::DiskFull { .. } => 9,
        Fault::SlowDisk { .. } => 10,
        Fault::MemPressure { .. } => 11,
        Fault::Hang { .. } => 12,
    }
}

const VARIANTS: u64 = 13;

/// A fault plan composing drop + delay + duplicate over every message.
fn composed_plan(seed: u64, p_drop: f64, delay_ms: u64, p_dup: f64) -> FaultPlan {
    FaultPlan::default()
        .with_seed(seed)
        .with_fault(Fault::Drop { sel: MsgSel::any(), p: p_drop })
        .with_fault(Fault::Delay { sel: MsgSel::any(), delay_ms })
        .with_fault(Fault::Duplicate { sel: MsgSel::any(), p: p_dup })
}

/// The same seed must yield the same per-message fate for an arbitrary
/// composition of drop, delay, and duplicate faults — chaos schedules are
/// only reproducible if every coin is a pure function of (seed, fault,
/// message identity).
#[test]
fn composed_faults_are_deterministic_under_a_seed() {
    for case in 0..CASES {
        let rng = &mut SplitMix64(case);
        let seed = rng.below(10_000);
        let (p_drop, delay_ms, p_dup) = (rng.unit() * 0.9, rng.below(50), rng.unit() * 0.9);
        let (epoch, src, dst) = (range(rng, 0, 8), range(rng, 0, 4), range(rng, 0, 4));
        let seq = 1 + rng.below(199);
        let a = composed_plan(seed, p_drop, delay_ms, p_dup);
        let b = composed_plan(seed, p_drop, delay_ms, p_dup);
        let kind = MessageKind::AllReduce { round: 0, data: vec![1.0] };
        let fa = a.send_fate(epoch, src, dst, &kind, seq, 0);
        let fb = b.send_fate(epoch, src, dst, &kind, seq, 0);
        assert_eq!(fa, fb, "case seed {case}: identical plans disagreed on a fate");
        // The fixed delay component always applies; the drop component
        // can only add the retransmission delay on top of it.
        assert!(
            fa.delay_ms == delay_ms || fa.delay_ms == delay_ms + a.retransmit_ms,
            "case seed {case}: delay {} is neither {delay_ms} nor that plus a retransmit",
            fa.delay_ms
        );
    }
}

/// A different seed is allowed to (and for aggressive probabilities
/// eventually must) flip at least one coin across a message grid — the
/// seed genuinely parameterizes the schedule rather than being ignored.
#[test]
fn seed_changes_reach_the_coins() {
    for case in 0..CASES {
        let seed = SplitMix64(case).below(10_000);
        let a = composed_plan(seed, 0.5, 0, 0.5);
        let b = composed_plan(seed + 1, 0.5, 0, 0.5);
        let kind = MessageKind::AllReduce { round: 0, data: vec![1.0] };
        let differs = (0..4usize).any(|src| {
            (0..4usize).filter(|&dst| dst != src).any(|dst| {
                (1..64u64).any(|seq| {
                    a.send_fate(0, src, dst, &kind, seq, 0)
                        != b.send_fate(0, src, dst, &kind, seq, 0)
                })
            })
        });
        assert!(differs, "case seed {case}: 756 coins never changed from seed {seed} to the next");
    }
}

/// Duplicated gradient messages must surface from the receiving endpoint
/// exactly once each, in send order: the suppressed copies are counted,
/// never delivered, so no gradient can be applied twice.
#[test]
fn duplicates_never_surface_twice() {
    for case in 0..CASES {
        let rng = &mut SplitMix64(case);
        let (seed, p_dup, n) = (rng.below(5_000), 0.1 + rng.unit() * 0.9, range(rng, 1, 39));
        let plan = FaultPlan::default().with_seed(seed).with_fault(Fault::Duplicate {
            sel: MsgSel { kind: KindSel::Grads, epoch: None, src: None, dst: None },
            p: p_dup,
        });
        let mut eps = Fabric::with_faults(2, plan).into_endpoints();
        let rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        for i in 0..n {
            let grads =
                MessageKind::Grads { layer: 0, ids: vec![i as u32], cols: 1, data: vec![i as f32] };
            tx.send(1, grads).unwrap();
        }
        // Every logical message arrives exactly once, in order.
        for i in 0..n {
            let msg = rx.recv_from(0).unwrap();
            let MessageKind::Grads { ids, .. } = msg.kind else {
                panic!("case seed {case}: non-Grads message surfaced");
            };
            assert_eq!(ids, vec![i as u32], "case seed {case}: message out of order or repeated");
        }
        // Nothing left over: the duplicate copies were all suppressed.
        assert!(rx.try_recv_from(0).is_none(), "case seed {case}: a duplicate escaped suppression");
        let injected = tx.stats().dups_injected;
        let suppressed = rx.stats().dups_suppressed;
        assert_eq!(injected, suppressed, "case seed {case}: injected dups must all be suppressed");
    }
}

/// Every fault spec round-trips: for an arbitrary parser-admissible fault
/// of every variant, `to_string` → `parse_fault` reconstructs the
/// identical fault, and a second `to_string` reproduces the identical
/// spec text. This pins the canonical grammar — chaos schedules are
/// logged as spec strings, so a lossy corner here silently breaks
/// replayability.
#[test]
fn fault_specs_round_trip() {
    for case in 0..CASES {
        let rng = &mut SplitMix64(case);
        for variant in 0..VARIANTS {
            let fault = arb_fault(rng, variant);
            assert_eq!(variant_of(&fault), variant, "arb_fault and variant_of disagree");
            let spec = fault.to_string();
            let reparsed = parse_fault(&spec)
                .unwrap_or_else(|e| panic!("case seed {case}: {spec:?} failed to parse: {e}"));
            assert_eq!(reparsed, fault, "case seed {case}: parse(display) lost {spec}");
            assert_eq!(
                reparsed.to_string(),
                spec,
                "case seed {case}: display is not a fixed point of parse -> display"
            );
        }
    }
}
