//! Deterministic fault injection for the fabric and the simulator.
//!
//! A [`FaultPlan`] is a seeded, declarative description of everything that
//! goes wrong during a run: workers that crash at a given epoch, stragglers
//! that delay every message they send, per-message drop / delay /
//! duplicate faults selected at `(epoch, src, dst)` granularity, and
//! link-level faults — epoch-bounded partitions (full or asymmetric) that
//! black-hole a link, and flaps that oscillate one on a duty cycle. The same
//! plan drives both the real [`fabric`](crate::fabric) (where a dropped
//! message becomes a retransmission delay and a duplicate becomes a second
//! physical delivery) and the [`sim`](crate::sim) event simulator (where
//! the same fates become service-time inflation), so a failure scenario
//! can be studied in modeled time and then executed for real.
//!
//! Every probabilistic decision is a pure function of
//! `(plan seed, fault index, epoch, src, dst, seq)` — re-running a plan
//! reproduces the exact same fault schedule, which is what makes the
//! recovery-determinism tests possible.

use crate::fabric::MessageKind;

/// Which message kinds a selector applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindSel {
    /// Forward dependency rows (`GetFromDepNbr`).
    Rows,
    /// Backward gradient rows (`PostToDepNbr`).
    Grads,
    /// Ring / parameter-server gradient chunks.
    AllReduce,
    /// Scalar control messages.
    Control,
    /// Inference query batches (serving path).
    Query,
    /// Inference reply batches (serving path).
    Reply,
    /// Every kind.
    Any,
}

impl KindSel {
    fn matches(self, kind: Option<&MessageKind>) -> bool {
        let Some(kind) = kind else {
            // The simulator meters bytes, not typed messages; kind-filtered
            // faults apply to every modeled transfer there.
            return true;
        };
        matches!(
            (self, kind),
            (KindSel::Any, _)
                | (KindSel::Rows, MessageKind::Rows { .. })
                | (KindSel::Grads, MessageKind::Grads { .. })
                | (KindSel::AllReduce, MessageKind::AllReduce { .. })
                | (KindSel::Control, MessageKind::Control(_))
                | (KindSel::Query, MessageKind::Query { .. })
                | (KindSel::Reply, MessageKind::Reply { .. })
        )
    }
}

/// Selects a subset of messages by kind, epoch, and channel endpoints.
/// `None` fields match everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSel {
    /// Message-kind filter.
    pub kind: KindSel,
    /// Restrict to one epoch.
    pub epoch: Option<usize>,
    /// Restrict to one sending worker.
    pub src: Option<usize>,
    /// Restrict to one receiving worker.
    pub dst: Option<usize>,
}

impl MsgSel {
    /// Selector matching every message.
    pub fn any() -> Self {
        Self { kind: KindSel::Any, epoch: None, src: None, dst: None }
    }

    fn matches(
        &self,
        epoch: usize,
        src: usize,
        dst: usize,
        kind: Option<&MessageKind>,
    ) -> bool {
        self.kind.matches(kind)
            && self.epoch.is_none_or(|e| e == epoch)
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Worker `worker` crashes at the top of epoch `epoch` (its endpoint is
    /// dropped, cascading channel disconnects to every peer).
    Kill {
        /// Worker that dies.
        worker: usize,
        /// Epoch at which it dies, counted from the start of the run.
        epoch: usize,
    },
    /// Every message `worker` sends is delayed by `delay_ms` — a fixed
    /// slowdown modeling a degraded node.
    Straggle {
        /// The slow worker.
        worker: usize,
        /// Added delivery delay per message, milliseconds.
        delay_ms: u64,
    },
    /// Each matching message is independently lost with probability `p`;
    /// the fabric models loss + retransmission as a delivery delay of
    /// [`FaultPlan::retransmit_ms`].
    Drop {
        /// Which messages are eligible.
        sel: MsgSel,
        /// Per-message loss probability in `[0, 1]`.
        p: f64,
    },
    /// Every matching message is delayed by `delay_ms`.
    Delay {
        /// Which messages are eligible.
        sel: MsgSel,
        /// Added delivery delay, milliseconds.
        delay_ms: u64,
    },
    /// Each matching message is independently delivered twice with
    /// probability `p`; receivers deduplicate by sequence number.
    Duplicate {
        /// Which messages are eligible.
        sel: MsgSel,
        /// Per-message duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Each matching message independently has one payload bit flipped in
    /// flight with probability `p`. The fabric delivers the corrupted
    /// physical copy immediately and a clean retransmission
    /// [`FaultPlan::retransmit_ms`] later under the same sequence number;
    /// receivers detect the flip by frame CRC and admit only the clean
    /// copy. The simulator models the detect-and-re-request round trip as
    /// a retransmission delay.
    Corrupt {
        /// Which messages are eligible.
        sel: MsgSel,
        /// Per-message corruption probability in `[0, 1]`.
        p: f64,
    },
    /// Each checkpoint generation persisted at a matching epoch boundary
    /// independently has one bit flipped on disk with probability `p` —
    /// a torn/bit-rotted write. Detected at load by the store's CRC; the
    /// recovery fallback chain skips the bad generation.
    CorruptCkpt {
        /// Restrict to one checkpoint boundary epoch (`None`: every one).
        epoch: Option<usize>,
        /// Per-generation corruption probability in `[0, 1]`.
        p: f64,
    },
    /// The link between `a` and `b` is severed in *both* directions from
    /// epoch `from_epoch` (inclusive) until `heal_epoch` (exclusive).
    /// The fabric black-holes severed sends: the call succeeds (the
    /// sender cannot tell), the message is never delivered, and only
    /// receive timeouts, backoff budgets, and circuit breakers surface
    /// the outage — the honest network-partition failure mode. The
    /// simulator models severed transfers as retransmission stalls.
    Partition {
        /// One end of the link.
        a: usize,
        /// The other end.
        b: usize,
        /// First epoch with the link down (inclusive).
        from_epoch: usize,
        /// Epoch at which the link heals (exclusive).
        heal_epoch: usize,
    },
    /// Like [`Fault::Partition`], but only the `src -> dst` direction is
    /// severed; replies still flow `dst -> src` — the asymmetric-route
    /// failure mode that defeats naive "ping works" health checks.
    AsymPartition {
        /// Sending side of the severed direction.
        src: usize,
        /// Receiving side of the severed direction.
        dst: usize,
        /// First epoch with the direction down (inclusive).
        from_epoch: usize,
        /// Epoch at which the direction heals (exclusive).
        heal_epoch: usize,
    },
    /// The link between `a` and `b` oscillates: within every
    /// `period_ms` window it is down for the first `duty` fraction and
    /// up for the rest. A message sent while the link is down is held
    /// and delivered at the next up-window (the transport retransmits
    /// once the link returns), so a flap inflates tail latency — by up
    /// to `duty * period_ms` per message — without losing messages.
    /// The simulator charges the expected residual down-time instead.
    Flap {
        /// One end of the link.
        a: usize,
        /// The other end.
        b: usize,
        /// Oscillation period, milliseconds (must be > 0).
        period_ms: u64,
        /// Fraction of each period the link is down, in `[0, 1]`.
        duty: f64,
    },
    /// The filesystem under the durable checkpoint store reports ENOSPC
    /// for every write attempted at a boundary epoch in
    /// `[from_epoch, heal_epoch)`. The store degrades instead of
    /// aborting: it squeezes retention toward keep-last-1 to free space,
    /// retries, and if the disk is still full defers the generation to
    /// the next cadence (`ckpt.enospc` / `ckpt.retention_squeezed`
    /// meter the degradation).
    DiskFull {
        /// First boundary epoch with the disk full (inclusive).
        from_epoch: usize,
        /// Boundary epoch at which space returns (exclusive).
        heal_epoch: usize,
    },
    /// Every durable-store write takes `factor` times as long — a
    /// saturated or throttled device. Pure latency: no write fails, but
    /// the inflated fsync time is metered (`ckpt.slow_disk_penalty_ns`)
    /// and visible in checkpoint-phase spans.
    SlowDisk {
        /// fsync-time multiplier (must be >= 1).
        factor: f64,
    },
    /// The tensor-pool budget shrinks to `cap_bytes` for epochs in
    /// `[from_epoch, heal_epoch)` — a co-tenant eating the machine's
    /// memory. The pool sheds parked buffers, the executor switches to
    /// the in-place all-reduce, and the serve cache drops cold rows to
    /// stay under the cap instead of OOMing; `alloc.peak_bytes` proves
    /// the budget held.
    MemPressure {
        /// Enforced pool budget while the pressure window is active.
        cap_bytes: usize,
        /// First epoch under pressure (inclusive).
        from_epoch: usize,
        /// Epoch at which the budget is restored (exclusive).
        heal_epoch: usize,
    },
    /// Worker `worker` wedges at the top of epoch `epoch` — stuck in
    /// compute or a syscall *outside* the fabric, where recv timeouts
    /// and circuit breakers cannot see it. It stays stuck until the
    /// liveness watchdog trips and cancels it (the injected hang polls
    /// the watchdog's cancel flag, standing in for a supervisor
    /// SIGKILL).
    Hang {
        /// Worker that wedges.
        worker: usize,
        /// Epoch at which it wedges, counted from the start of the run.
        epoch: usize,
    },
}

impl Fault {
    /// Canonical CLI spec text for this fault; [`parse_fault`] accepts the
    /// output verbatim (round-trip identity, covered by tests).
    pub fn to_spec(&self) -> String {
        fn sel_suffix(sel: &MsgSel) -> String {
            let mut s = String::new();
            if let Some(e) = sel.epoch {
                s.push_str(&format!("@e{e}"));
            }
            if let (Some(src), Some(dst)) = (sel.src, sel.dst) {
                s.push_str(&format!("@w{src}-w{dst}"));
            }
            s
        }
        fn kind_name(k: KindSel) -> &'static str {
            match k {
                KindSel::Rows => "rows",
                KindSel::Grads => "grads",
                KindSel::AllReduce => "allreduce",
                KindSel::Control => "control",
                KindSel::Query => "query",
                KindSel::Reply => "reply",
                KindSel::Any => "any",
            }
        }
        match self {
            Fault::Kill { worker, epoch } => format!("kill:w{worker}@e{epoch}"),
            Fault::Straggle { worker, delay_ms } => {
                format!("straggle:w{worker}:{delay_ms}ms")
            }
            Fault::Drop { sel, p } => {
                format!("drop:{}:{p}{}", kind_name(sel.kind), sel_suffix(sel))
            }
            Fault::Delay { sel, delay_ms } => {
                format!("delay:{}:{delay_ms}ms{}", kind_name(sel.kind), sel_suffix(sel))
            }
            Fault::Duplicate { sel, p } => {
                format!("dup:{}:{p}{}", kind_name(sel.kind), sel_suffix(sel))
            }
            Fault::Corrupt { sel, p } => {
                format!("corrupt:{}:{p}{}", kind_name(sel.kind), sel_suffix(sel))
            }
            Fault::CorruptCkpt { epoch, p } => match epoch {
                Some(e) => format!("corrupt:ckpt:{p}@e{e}"),
                None => format!("corrupt:ckpt:{p}"),
            },
            Fault::Partition { a, b, from_epoch, heal_epoch } => {
                format!("partition:w{a}-w{b}@e{from_epoch}-e{heal_epoch}")
            }
            Fault::AsymPartition { src, dst, from_epoch, heal_epoch } => {
                format!("partition:w{src}->w{dst}@e{from_epoch}-e{heal_epoch}")
            }
            Fault::Flap { a, b, period_ms, duty } => {
                format!("flap:w{a}-w{b}:{period_ms}ms:{duty}")
            }
            Fault::DiskFull { from_epoch, heal_epoch } => {
                format!("diskfull:e{from_epoch}-e{heal_epoch}")
            }
            Fault::SlowDisk { factor } => format!("slowdisk:{factor}"),
            Fault::MemPressure { cap_bytes, from_epoch, heal_epoch } => {
                format!("mempressure:{cap_bytes}@e{from_epoch}-e{heal_epoch}")
            }
            Fault::Hang { worker, epoch } => format!("hang:w{worker}@e{epoch}"),
        }
    }
}

/// True when a flapping link with the given shape is inside the down
/// part of its period at `now_ms`.
fn flap_down(period_ms: u64, duty: f64, now_ms: u64) -> bool {
    let down_ms = (period_ms as f64 * duty) as u64;
    now_ms % period_ms.max(1) < down_ms
}

/// Milliseconds until a flapping link comes back up, if it is down at
/// `now_ms` (`None` when the link is currently up).
fn flap_residual(period_ms: u64, duty: f64, now_ms: u64) -> Option<u64> {
    let down_ms = (period_ms as f64 * duty) as u64;
    let pos = now_ms % period_ms.max(1);
    (pos < down_ms).then(|| down_ms - pos)
}

/// What the fault plan decides for one send.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendFate {
    /// Total injected delivery delay, milliseconds.
    pub delay_ms: u64,
    /// Deliver a second copy of the message.
    pub duplicate: bool,
    /// Deliver a bit-flipped copy first; the clean copy follows
    /// [`FaultPlan::retransmit_ms`] later.
    pub corrupt: bool,
    /// The link is severed: the fabric black-holes the message (the send
    /// succeeds, nothing is ever delivered).
    pub severed: bool,
}

/// A seeded, declarative schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-message fault coins.
    pub seed: u64,
    /// Modeled retransmission delay applied to dropped messages,
    /// milliseconds.
    pub retransmit_ms: u64,
    /// The injected faults.
    pub faults: Vec<Fault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self { seed: 0, retransmit_ms: 20, faults: Vec::new() }
    }
}

impl FaultPlan {
    /// A plan with a single worker crash.
    pub fn kill(worker: usize, epoch: usize) -> Self {
        Self::default().with_fault(Fault::Kill { worker, epoch })
    }

    /// Adds a fault (builder style).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the coin seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The epoch at which `worker` is scheduled to crash, if any.
    pub fn kill_epoch(&self, worker: usize) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::Kill { worker: w, epoch } if *w == worker => Some(*epoch),
            _ => None,
        })
    }

    /// Removes a crash that has already fired, so a recovered run does not
    /// re-kill the (renumbered) worker occupying the same slot. Worker ids
    /// in the remaining faults refer to the *current* topology.
    pub fn retire_kill(&mut self, worker: usize, epoch: usize) {
        self.faults.retain(
            |f| !matches!(f, Fault::Kill { worker: w, epoch: e } if *w == worker && *e == epoch),
        );
    }

    /// Removes every straggle fault targeting `worker`. The elastic
    /// trainer calls this when the straggler policy evicts a slow member:
    /// the modeled node is restarted, so it comes back healthy when it
    /// rejoins. Worker ids in the remaining faults keep addressing the
    /// current topology.
    pub fn retire_straggle(&mut self, worker: usize) {
        self.faults
            .retain(|f| !matches!(f, Fault::Straggle { worker: w, .. } if *w == worker));
    }

    /// Parses and appends a CLI fault spec. Formats:
    ///
    /// * `kill:w<id>@e<epoch>` — crash a worker,
    /// * `straggle:w<id>:<ms>` — fixed per-message slowdown,
    /// * `drop:<kind>:<p>[@e<n>][@w<src>-w<dst>]` — probabilistic loss,
    /// * `delay:<kind>:<ms>[@e<n>][@w<src>-w<dst>]` — fixed delay,
    /// * `dup:<kind>:<p>[@e<n>][@w<src>-w<dst>]` — probabilistic duplicate,
    /// * `corrupt:<kind>:<p>[@e<n>][@w<src>-w<dst>]` — probabilistic
    ///   in-flight bit flip (detected by frame CRC, then retransmitted),
    /// * `corrupt:ckpt:<p>[@e<n>]` — probabilistic on-disk bit flip of the
    ///   checkpoint generation written at a boundary epoch,
    /// * `partition:w<a>-w<b>@e<from>-e<heal>` — sever the link both ways
    ///   for `from <= epoch < heal`,
    /// * `partition:w<src>->w<dst>@e<from>-e<heal>` — sever one direction,
    /// * `flap:w<a>-w<b>:<period>ms:<duty>` — oscillate the link: down for
    ///   the first `duty` fraction of every `period` window,
    /// * `diskfull:e<from>-e<heal>` — the durable store's disk reports
    ///   ENOSPC for boundary epochs in `[from, heal)`,
    /// * `slowdisk:<factor>` — every durable-store write takes `factor`
    ///   times as long (`factor >= 1`),
    /// * `mempressure:<bytes>@e<from>-e<heal>` — shrink the tensor-pool
    ///   budget to `<bytes>` for epochs in `[from, heal)`,
    /// * `hang:w<id>@e<epoch>` — wedge a worker outside the fabric until
    ///   the liveness watchdog cancels it,
    ///
    /// where `<kind>` is `rows|grads|allreduce|control|any`.
    pub fn push_spec(&mut self, spec: &str) -> Result<(), String> {
        self.faults.push(parse_fault(spec)?);
        Ok(())
    }

    /// Decides the fate of one send. `kind = None` (the simulator's
    /// untyped transfers) matches every kind filter. Pure in
    /// `(seed, epoch, src, dst, seq)`. Time-dependent link faults
    /// ([`Fault::Flap`]) evaluate at `now_ms = 0`; the fabric calls
    /// [`FaultPlan::send_fate_at`] with its real link-layer clock.
    pub fn send_fate(
        &self,
        epoch: usize,
        src: usize,
        dst: usize,
        kind: Option<&MessageKind>,
        seq: u64,
    ) -> SendFate {
        self.send_fate_at(epoch, src, dst, kind, seq, 0)
    }

    /// [`FaultPlan::send_fate`] with an explicit link-layer clock:
    /// `now_ms` is milliseconds since the fabric came up, and decides
    /// where inside a [`Fault::Flap`] period the send lands. Pure in
    /// `(seed, epoch, src, dst, seq, now_ms)`.
    pub fn send_fate_at(
        &self,
        epoch: usize,
        src: usize,
        dst: usize,
        kind: Option<&MessageKind>,
        seq: u64,
        now_ms: u64,
    ) -> SendFate {
        let mut fate = SendFate::default();
        if self.faults.is_empty() {
            return fate;
        }
        for (i, f) in self.faults.iter().enumerate() {
            match f {
                Fault::Kill { .. } => {}
                Fault::Straggle { worker, delay_ms } => {
                    if *worker == src {
                        fate.delay_ms += delay_ms;
                    }
                }
                Fault::Drop { sel, p } => {
                    if sel.matches(epoch, src, dst, kind)
                        && self.coin(i, epoch, src, dst, seq) < *p
                    {
                        fate.delay_ms += self.retransmit_ms;
                    }
                }
                Fault::Delay { sel, delay_ms } => {
                    if sel.matches(epoch, src, dst, kind) {
                        fate.delay_ms += delay_ms;
                    }
                }
                Fault::Duplicate { sel, p } => {
                    if sel.matches(epoch, src, dst, kind)
                        && self.coin(i, epoch, src, dst, seq) < *p
                    {
                        fate.duplicate = true;
                    }
                }
                Fault::Corrupt { sel, p } => {
                    if sel.matches(epoch, src, dst, kind)
                        && self.coin(i, epoch, src, dst, seq) < *p
                    {
                        if kind.is_some() {
                            fate.corrupt = true;
                        } else {
                            // The simulator moves untyped bytes: model the
                            // detect-and-re-request round trip as the same
                            // retransmission delay a drop costs.
                            fate.delay_ms += self.retransmit_ms;
                        }
                    }
                }
                Fault::CorruptCkpt { .. } => {}
                // Resource faults act on the store, the pool, and the
                // worker loop — never on a message in flight.
                Fault::DiskFull { .. }
                | Fault::SlowDisk { .. }
                | Fault::MemPressure { .. }
                | Fault::Hang { .. } => {}
                Fault::Partition { a, b, from_epoch, heal_epoch } => {
                    let on_link = (src == *a && dst == *b) || (src == *b && dst == *a);
                    if on_link && epoch >= *from_epoch && epoch < *heal_epoch {
                        if kind.is_some() {
                            fate.severed = true;
                        } else {
                            // The simulator moves untyped bytes: model the
                            // stalled link as retransmission inflation, the
                            // same way a drop is charged.
                            fate.delay_ms += self.retransmit_ms;
                        }
                    }
                }
                Fault::AsymPartition { src: fs, dst: fd, from_epoch, heal_epoch } => {
                    if src == *fs
                        && dst == *fd
                        && epoch >= *from_epoch
                        && epoch < *heal_epoch
                    {
                        if kind.is_some() {
                            fate.severed = true;
                        } else {
                            fate.delay_ms += self.retransmit_ms;
                        }
                    }
                }
                Fault::Flap { a, b, period_ms, duty } => {
                    let on_link = (src == *a && dst == *b) || (src == *b && dst == *a);
                    if on_link {
                        if kind.is_some() {
                            // Hold the message until the link comes back up.
                            if let Some(wait) = flap_residual(*period_ms, *duty, now_ms) {
                                fate.delay_ms += wait;
                            }
                        } else if self.coin(i, epoch, src, dst, seq) < *duty {
                            // The simulator has no link-layer clock: a
                            // `duty` fraction of transfers pay the expected
                            // residual down-time.
                            fate.delay_ms += ((*period_ms as f64 * *duty) as u64).div_ceil(2);
                        }
                    }
                }
            }
        }
        fate
    }

    /// True when the plan severs the `src -> dst` direction at `epoch`
    /// and link-layer time `now_ms`: an active [`Fault::Partition`] /
    /// [`Fault::AsymPartition`] window, or a [`Fault::Flap`] inside the
    /// down part of its period. Circuit-breaker liveness checks use this
    /// to tell a breaker that is *correctly* open (link still severed)
    /// from one stuck open after its link healed.
    pub fn link_severed(&self, epoch: usize, src: usize, dst: usize, now_ms: u64) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::Partition { a, b, from_epoch, heal_epoch } => {
                ((src == *a && dst == *b) || (src == *b && dst == *a))
                    && epoch >= *from_epoch
                    && epoch < *heal_epoch
            }
            Fault::AsymPartition { src: fs, dst: fd, from_epoch, heal_epoch } => {
                src == *fs && dst == *fd && epoch >= *from_epoch && epoch < *heal_epoch
            }
            Fault::Flap { a, b, period_ms, duty } => {
                ((src == *a && dst == *b) || (src == *b && dst == *a))
                    && flap_down(*period_ms, *duty, now_ms)
            }
            _ => false,
        })
    }

    /// Removes every link fault (partition, asymmetric partition, flap)
    /// touching `worker`. The elastic trainer calls this when the member
    /// leaves the cluster: the modeled replacement host comes up with
    /// fresh links, and the worker ids in the remaining faults keep
    /// addressing the renumbered topology.
    pub fn retire_links(&mut self, worker: usize) {
        self.faults.retain(|f| match f {
            Fault::Partition { a, b, .. } | Fault::Flap { a, b, .. } => {
                *a != worker && *b != worker
            }
            Fault::AsymPartition { src, dst, .. } => *src != worker && *dst != worker,
            _ => true,
        });
    }

    /// The epoch at which `worker` is scheduled to wedge, if any.
    pub fn hang_epoch(&self, worker: usize) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::Hang { worker: w, epoch } if *w == worker => Some(*epoch),
            _ => None,
        })
    }

    /// Removes a hang that has already fired (the watchdog evicted the
    /// wedged worker), so the slot's replacement does not re-wedge.
    pub fn retire_hang(&mut self, worker: usize, epoch: usize) {
        self.faults.retain(
            |f| !matches!(f, Fault::Hang { worker: w, epoch: e } if *w == worker && *e == epoch),
        );
    }

    /// True when the durable store's disk is full at boundary `epoch`
    /// (an active [`Fault::DiskFull`] window).
    pub fn disk_full_at(&self, epoch: usize) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::DiskFull { from_epoch, heal_epoch }
                if epoch >= *from_epoch && epoch < *heal_epoch)
        })
    }

    /// The combined store-write slowdown factor (product of every
    /// [`Fault::SlowDisk`] in the plan; `1.0` when none is injected).
    pub fn slow_disk_factor(&self) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::SlowDisk { factor } => Some(*factor),
                _ => None,
            })
            .product()
    }

    /// The enforced tensor-pool budget at `epoch`, if a
    /// [`Fault::MemPressure`] window is active (the tightest cap wins
    /// when windows overlap).
    pub fn mem_cap_at(&self, epoch: usize) -> Option<usize> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::MemPressure { cap_bytes, from_epoch, heal_epoch }
                    if epoch >= *from_epoch && epoch < *heal_epoch =>
                {
                    Some(*cap_bytes)
                }
                _ => None,
            })
            .min()
    }

    /// Decides whether the checkpoint generation persisted at boundary
    /// `epoch` gets a bit flipped on disk, and which bit. Returns a raw
    /// 64-bit draw to be reduced modulo the payload size by the store
    /// writer. Pure in `(seed, epoch)`.
    pub fn ckpt_fate(&self, epoch: usize) -> Option<u64> {
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::CorruptCkpt { epoch: e, p } = f {
                if e.is_none_or(|x| x == epoch) && self.coin(i, epoch, 0, 0, 1) < *p {
                    // Second independent draw selects the bit.
                    let bits = (self.coin(i, epoch, 0, 0, 2) * (1u64 << 53) as f64) as u64;
                    return Some(bits);
                }
            }
        }
        None
    }

    /// Deterministic uniform draw in `[0, 1)` for fault `idx` on one
    /// message: an FNV-1a mix of the identifying tuple finalized with the
    /// splitmix64 permutation.
    fn coin(&self, idx: usize, epoch: usize, src: usize, dst: usize, seq: u64) -> f64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for v in [idx as u64, epoch as u64, src as u64, dst as u64, seq] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // splitmix64 finalizer.
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn parse_worker(s: &str) -> Result<usize, String> {
    let digits = s
        .strip_prefix('w')
        .ok_or_else(|| format!("expected w<id>, got {s:?}"))?;
    digits.parse().map_err(|_| format!("bad worker id {s:?}"))
}

fn parse_epoch(s: &str) -> Result<usize, String> {
    let digits = s
        .strip_prefix('e')
        .ok_or_else(|| format!("expected e<epoch>, got {s:?}"))?;
    digits.parse().map_err(|_| format!("bad epoch {s:?}"))
}

fn parse_ms(s: &str) -> Result<u64, String> {
    let digits = s.strip_suffix("ms").unwrap_or(s);
    digits.parse().map_err(|_| format!("bad millisecond value {s:?}"))
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_kind(s: &str) -> Result<KindSel, String> {
    match s {
        "rows" => Ok(KindSel::Rows),
        "grads" => Ok(KindSel::Grads),
        "allreduce" => Ok(KindSel::AllReduce),
        "control" => Ok(KindSel::Control),
        "query" => Ok(KindSel::Query),
        "reply" => Ok(KindSel::Reply),
        "any" | "*" => Ok(KindSel::Any),
        other => Err(format!(
            "unknown message kind {other:?} (rows|grads|allreduce|control|any)"
        )),
    }
}

/// Parses one CLI fault spec (see [`FaultPlan::push_spec`] for formats).
pub fn parse_fault(spec: &str) -> Result<Fault, String> {
    let (head, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec {spec:?}: expected <type>:<args>"))?;
    match head {
        "kill" => {
            let (w, e) = rest
                .split_once('@')
                .ok_or_else(|| format!("kill spec {rest:?}: expected w<id>@e<epoch>"))?;
            Ok(Fault::Kill { worker: parse_worker(w)?, epoch: parse_epoch(e)? })
        }
        "straggle" => {
            let (w, ms) = rest
                .split_once(':')
                .ok_or_else(|| format!("straggle spec {rest:?}: expected w<id>:<ms>"))?;
            Ok(Fault::Straggle { worker: parse_worker(w)?, delay_ms: parse_ms(ms)? })
        }
        "drop" | "delay" | "dup" | "corrupt" => {
            let (kind_s, rest2) = rest.split_once(':').ok_or_else(|| {
                format!("{head} spec {rest:?}: expected <kind>:<value>[@...]")
            })?;
            if head == "corrupt" && kind_s == "ckpt" {
                let mut parts = rest2.split('@');
                let value = parts
                    .next()
                    .ok_or_else(|| format!("corrupt spec {rest:?}: missing value"))?;
                let mut epoch = None;
                for q in parts {
                    if q.starts_with('e') {
                        epoch = Some(parse_epoch(q)?);
                    } else {
                        return Err(format!(
                            "qualifier {q:?}: checkpoint corruption only scopes by e<n>"
                        ));
                    }
                }
                return Ok(Fault::CorruptCkpt { epoch, p: parse_prob(value)? });
            }
            let kind = parse_kind(kind_s)?;
            let mut parts = rest2.split('@');
            let value = parts
                .next()
                .ok_or_else(|| format!("{head} spec {rest:?}: missing value"))?;
            let mut sel = MsgSel { kind, epoch: None, src: None, dst: None };
            for q in parts {
                if q.starts_with('e') {
                    sel.epoch = Some(parse_epoch(q)?);
                } else if let Some(ws) = q.strip_prefix('w') {
                    let (s, d) = ws.split_once("-w").ok_or_else(|| {
                        format!("qualifier {q:?}: expected w<src>-w<dst>")
                    })?;
                    sel.src =
                        Some(s.parse().map_err(|_| format!("bad src worker {q:?}"))?);
                    sel.dst =
                        Some(d.parse().map_err(|_| format!("bad dst worker {q:?}"))?);
                } else {
                    return Err(format!("unknown qualifier {q:?} (e<n> or w<s>-w<d>)"));
                }
            }
            Ok(match head {
                "drop" => Fault::Drop { sel, p: parse_prob(value)? },
                "dup" => Fault::Duplicate { sel, p: parse_prob(value)? },
                "corrupt" => Fault::Corrupt { sel, p: parse_prob(value)? },
                _ => Fault::Delay { sel, delay_ms: parse_ms(value)? },
            })
        }
        "partition" => {
            let (link, epochs) = rest.split_once('@').ok_or_else(|| {
                format!("partition spec {rest:?}: expected w<a>-w<b>@e<from>-e<heal>")
            })?;
            let (from_s, heal_s) = epochs.split_once('-').ok_or_else(|| {
                format!("partition epochs {epochs:?}: expected e<from>-e<heal>")
            })?;
            let (from_epoch, heal_epoch) = (parse_epoch(from_s)?, parse_epoch(heal_s)?);
            if heal_epoch <= from_epoch {
                return Err(format!(
                    "partition window e{from_epoch}-e{heal_epoch}: heal epoch must \
                     come after the start"
                ));
            }
            if let Some((s, d)) = link.split_once("->") {
                let (src, dst) = (parse_worker(s)?, parse_worker(d)?);
                if src == dst {
                    return Err(format!("partition link {link:?}: endpoints must differ"));
                }
                return Ok(Fault::AsymPartition { src, dst, from_epoch, heal_epoch });
            }
            let (a_s, b_s) = link
                .split_once('-')
                .ok_or_else(|| format!("partition link {link:?}: expected w<a>-w<b>"))?;
            let (a, b) = (parse_worker(a_s)?, parse_worker(b_s)?);
            if a == b {
                return Err(format!("partition link {link:?}: endpoints must differ"));
            }
            Ok(Fault::Partition { a, b, from_epoch, heal_epoch })
        }
        "flap" => {
            let mut parts = rest.splitn(3, ':');
            let link = parts
                .next()
                .ok_or_else(|| format!("flap spec {rest:?}: missing link"))?;
            let period_s = parts.next().ok_or_else(|| {
                format!("flap spec {rest:?}: expected w<a>-w<b>:<period>ms:<duty>")
            })?;
            let duty_s = parts.next().ok_or_else(|| {
                format!("flap spec {rest:?}: expected w<a>-w<b>:<period>ms:<duty>")
            })?;
            let (a_s, b_s) = link
                .split_once('-')
                .ok_or_else(|| format!("flap link {link:?}: expected w<a>-w<b>"))?;
            let (a, b) = (parse_worker(a_s)?, parse_worker(b_s)?);
            if a == b {
                return Err(format!("flap link {link:?}: endpoints must differ"));
            }
            let period_ms = parse_ms(period_s)?;
            if period_ms == 0 {
                return Err(format!("flap period {period_s:?} must be > 0"));
            }
            let duty: f64 = duty_s
                .parse()
                .map_err(|_| format!("bad flap duty {duty_s:?}"))?;
            if !(0.0..=1.0).contains(&duty) {
                return Err(format!("flap duty {duty} outside [0, 1]"));
            }
            Ok(Fault::Flap { a, b, period_ms, duty })
        }
        "diskfull" => {
            let (from_s, heal_s) = rest.split_once('-').ok_or_else(|| {
                format!("diskfull spec {rest:?}: expected e<from>-e<heal>")
            })?;
            let (from_epoch, heal_epoch) = (parse_epoch(from_s)?, parse_epoch(heal_s)?);
            if heal_epoch <= from_epoch {
                return Err(format!(
                    "diskfull window e{from_epoch}-e{heal_epoch}: heal epoch must \
                     come after the start"
                ));
            }
            Ok(Fault::DiskFull { from_epoch, heal_epoch })
        }
        "slowdisk" => {
            let factor: f64 =
                rest.parse().map_err(|_| format!("bad slowdisk factor {rest:?}"))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!("slowdisk factor {factor} must be >= 1"));
            }
            Ok(Fault::SlowDisk { factor })
        }
        "mempressure" => {
            let (bytes_s, epochs) = rest.split_once('@').ok_or_else(|| {
                format!("mempressure spec {rest:?}: expected <bytes>@e<from>-e<heal>")
            })?;
            let cap_bytes: usize = bytes_s
                .parse()
                .map_err(|_| format!("bad mempressure byte budget {bytes_s:?}"))?;
            if cap_bytes == 0 {
                return Err("mempressure budget must be > 0 bytes".to_string());
            }
            let (from_s, heal_s) = epochs.split_once('-').ok_or_else(|| {
                format!("mempressure epochs {epochs:?}: expected e<from>-e<heal>")
            })?;
            let (from_epoch, heal_epoch) = (parse_epoch(from_s)?, parse_epoch(heal_s)?);
            if heal_epoch <= from_epoch {
                return Err(format!(
                    "mempressure window e{from_epoch}-e{heal_epoch}: heal epoch must \
                     come after the start"
                ));
            }
            Ok(Fault::MemPressure { cap_bytes, from_epoch, heal_epoch })
        }
        "hang" => {
            let (w, e) = rest
                .split_once('@')
                .ok_or_else(|| format!("hang spec {rest:?}: expected w<id>@e<epoch>"))?;
            Ok(Fault::Hang { worker: parse_worker(w)?, epoch: parse_epoch(e)? })
        }
        other => Err(format!(
            "unknown fault type {other:?} \
             (kill|straggle|drop|delay|dup|corrupt|partition|flap\
             |diskfull|slowdisk|mempressure|hang)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_benign() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.send_fate(0, 0, 1, None, 1), SendFate::default());
        assert_eq!(plan.kill_epoch(0), None);
    }

    #[test]
    fn kill_plan_targets_one_worker() {
        let plan = FaultPlan::kill(2, 3);
        assert_eq!(plan.kill_epoch(2), Some(3));
        assert_eq!(plan.kill_epoch(1), None);
        // A crash does not perturb message fates.
        assert_eq!(plan.send_fate(3, 2, 0, None, 1), SendFate::default());
    }

    #[test]
    fn retire_kill_removes_only_the_fired_crash() {
        let mut plan = FaultPlan::kill(1, 2).with_fault(Fault::Kill { worker: 1, epoch: 5 });
        plan.retire_kill(1, 2);
        assert_eq!(plan.kill_epoch(1), Some(5));
        plan.retire_kill(1, 5);
        assert!(plan.is_empty());
    }

    #[test]
    fn retire_straggle_cures_only_the_target_worker() {
        let mut plan = FaultPlan::default()
            .with_fault(Fault::Straggle { worker: 1, delay_ms: 30 })
            .with_fault(Fault::Straggle { worker: 2, delay_ms: 10 });
        plan.retire_straggle(1);
        assert_eq!(plan.send_fate(0, 1, 0, None, 1).delay_ms, 0);
        assert_eq!(plan.send_fate(0, 2, 0, None, 1).delay_ms, 10);
    }

    #[test]
    fn straggler_delays_all_its_sends() {
        let plan =
            FaultPlan::default().with_fault(Fault::Straggle { worker: 1, delay_ms: 30 });
        assert_eq!(plan.send_fate(0, 1, 0, None, 1).delay_ms, 30);
        assert_eq!(plan.send_fate(0, 0, 1, None, 1).delay_ms, 0);
    }

    #[test]
    fn drop_coin_is_deterministic_and_calibrated() {
        let plan = FaultPlan::default()
            .with_seed(7)
            .with_fault(Fault::Drop { sel: MsgSel::any(), p: 0.25 });
        let mut dropped = 0;
        for seq in 1..=4000u64 {
            let a = plan.send_fate(0, 0, 1, None, seq);
            let b = plan.send_fate(0, 0, 1, None, seq);
            assert_eq!(a, b, "fate must be deterministic");
            if a.delay_ms > 0 {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mk = |seed| {
            FaultPlan::default()
                .with_seed(seed)
                .with_fault(Fault::Drop { sel: MsgSel::any(), p: 0.5 })
        };
        let (a, b) = (mk(1), mk(2));
        let differs = (1..=64u64)
            .any(|seq| a.send_fate(0, 0, 1, None, seq) != b.send_fate(0, 0, 1, None, seq));
        assert!(differs);
    }

    #[test]
    fn selector_scopes_epoch_and_channel() {
        let sel = MsgSel { kind: KindSel::Any, epoch: Some(3), src: Some(0), dst: Some(2) };
        let plan = FaultPlan::default().with_fault(Fault::Delay { sel, delay_ms: 10 });
        assert_eq!(plan.send_fate(3, 0, 2, None, 1).delay_ms, 10);
        assert_eq!(plan.send_fate(2, 0, 2, None, 1).delay_ms, 0);
        assert_eq!(plan.send_fate(3, 1, 2, None, 1).delay_ms, 0);
        assert_eq!(plan.send_fate(3, 0, 1, None, 1).delay_ms, 0);
    }

    #[test]
    fn kind_selector_filters_typed_messages() {
        let sel = MsgSel { kind: KindSel::Rows, epoch: None, src: None, dst: None };
        let plan = FaultPlan::default().with_fault(Fault::Delay { sel, delay_ms: 10 });
        let rows = MessageKind::Rows { layer: 0, ids: vec![1], cols: 1, data: vec![0.0] };
        let ctl = MessageKind::Control(1.0);
        assert_eq!(plan.send_fate(0, 0, 1, Some(&rows), 1).delay_ms, 10);
        assert_eq!(plan.send_fate(0, 0, 1, Some(&ctl), 1).delay_ms, 0);
        // Untyped (simulator) transfers match any kind filter.
        assert_eq!(plan.send_fate(0, 0, 1, None, 1).delay_ms, 10);
    }

    #[test]
    fn parses_issue_example_specs() {
        assert_eq!(
            parse_fault("kill:w2@e3").unwrap(),
            Fault::Kill { worker: 2, epoch: 3 }
        );
        assert_eq!(
            parse_fault("drop:rows:0.01").unwrap(),
            Fault::Drop {
                sel: MsgSel { kind: KindSel::Rows, epoch: None, src: None, dst: None },
                p: 0.01
            }
        );
        assert_eq!(
            parse_fault("straggle:w1:25ms").unwrap(),
            Fault::Straggle { worker: 1, delay_ms: 25 }
        );
        assert_eq!(
            parse_fault("delay:any:15@e2@w0-w3").unwrap(),
            Fault::Delay {
                sel: MsgSel {
                    kind: KindSel::Any,
                    epoch: Some(2),
                    src: Some(0),
                    dst: Some(3)
                },
                delay_ms: 15
            }
        );
        assert_eq!(
            parse_fault("dup:allreduce:1.0").unwrap(),
            Fault::Duplicate {
                sel: MsgSel { kind: KindSel::AllReduce, epoch: None, src: None, dst: None },
                p: 1.0
            }
        );
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(parse_fault("kill").unwrap_err().contains("expected <type>"));
        assert!(parse_fault("kill:2@3").unwrap_err().contains("w<id>"));
        assert!(parse_fault("drop:rows:1.5").unwrap_err().contains("[0, 1]"));
        assert!(parse_fault("drop:frames:0.1").unwrap_err().contains("unknown message kind"));
        assert!(parse_fault("meteor:w0@e1").unwrap_err().contains("unknown fault type"));
        assert!(parse_fault("drop:rows:0.1@x9").unwrap_err().contains("qualifier"));
    }

    #[test]
    fn parses_corrupt_specs() {
        assert_eq!(
            parse_fault("corrupt:any:0.2").unwrap(),
            Fault::Corrupt { sel: MsgSel::any(), p: 0.2 }
        );
        assert_eq!(
            parse_fault("corrupt:rows:0.1@e2@w0-w3").unwrap(),
            Fault::Corrupt {
                sel: MsgSel {
                    kind: KindSel::Rows,
                    epoch: Some(2),
                    src: Some(0),
                    dst: Some(3)
                },
                p: 0.1
            }
        );
        assert_eq!(
            parse_fault("corrupt:ckpt:1.0@e4").unwrap(),
            Fault::CorruptCkpt { epoch: Some(4), p: 1.0 }
        );
        assert_eq!(
            parse_fault("corrupt:ckpt:0.5").unwrap(),
            Fault::CorruptCkpt { epoch: None, p: 0.5 }
        );
        assert!(parse_fault("corrupt:ckpt:0.5@w0-w1").unwrap_err().contains("e<n>"));
        assert!(parse_fault("corrupt:rows:1.5").unwrap_err().contains("[0, 1]"));
    }

    #[test]
    fn specs_round_trip_through_to_spec() {
        let faults = [
            Fault::Kill { worker: 2, epoch: 3 },
            Fault::Straggle { worker: 1, delay_ms: 25 },
            Fault::Drop { sel: MsgSel::any(), p: 0.125 },
            Fault::Delay {
                sel: MsgSel {
                    kind: KindSel::AllReduce,
                    epoch: Some(2),
                    src: Some(0),
                    dst: Some(3),
                },
                delay_ms: 15,
            },
            Fault::Duplicate {
                sel: MsgSel { kind: KindSel::Control, epoch: None, src: None, dst: None },
                p: 1.0,
            },
            Fault::Corrupt {
                sel: MsgSel { kind: KindSel::Grads, epoch: Some(1), src: None, dst: None },
                p: 0.25,
            },
            Fault::CorruptCkpt { epoch: Some(4), p: 1.0 },
            Fault::CorruptCkpt { epoch: None, p: 0.5 },
            Fault::Partition { a: 1, b: 2, from_epoch: 2, heal_epoch: 4 },
            Fault::AsymPartition { src: 0, dst: 3, from_epoch: 1, heal_epoch: 5 },
            Fault::Flap { a: 0, b: 1, period_ms: 40, duty: 0.6 },
            Fault::DiskFull { from_epoch: 2, heal_epoch: 6 },
            Fault::SlowDisk { factor: 2.5 },
            Fault::MemPressure { cap_bytes: 1 << 20, from_epoch: 1, heal_epoch: 4 },
            Fault::Hang { worker: 1, epoch: 3 },
        ];
        for f in faults {
            let spec = f.to_spec();
            assert_eq!(parse_fault(&spec).unwrap(), f, "round-trip of {spec:?}");
        }
    }

    #[test]
    fn parses_partition_and_flap_specs() {
        assert_eq!(
            parse_fault("partition:w1-w2@e2-e4").unwrap(),
            Fault::Partition { a: 1, b: 2, from_epoch: 2, heal_epoch: 4 }
        );
        assert_eq!(
            parse_fault("partition:w0->w2@e1-e3").unwrap(),
            Fault::AsymPartition { src: 0, dst: 2, from_epoch: 1, heal_epoch: 3 }
        );
        assert_eq!(
            parse_fault("flap:w0-w1:40ms:0.5").unwrap(),
            Fault::Flap { a: 0, b: 1, period_ms: 40, duty: 0.5 }
        );
        assert!(parse_fault("partition:w1-w2").unwrap_err().contains("expected"));
        assert!(parse_fault("partition:w1-w2@e4-e2").unwrap_err().contains("heal"));
        assert!(parse_fault("partition:w1-w1@e1-e2").unwrap_err().contains("differ"));
        assert!(parse_fault("flap:w0-w1:0ms:0.5").unwrap_err().contains("> 0"));
        assert!(parse_fault("flap:w0-w1:40ms:1.5").unwrap_err().contains("[0, 1]"));
        assert!(parse_fault("flap:w0:40ms:0.5").unwrap_err().contains("w<a>-w<b>"));
    }

    #[test]
    fn partition_severs_both_directions_inside_its_window() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Partition { a: 1, b: 2, from_epoch: 2, heal_epoch: 4 });
        let kind = MessageKind::Control(1.0);
        for epoch in [2, 3] {
            assert!(plan.send_fate(epoch, 1, 2, Some(&kind), 1).severed);
            assert!(plan.send_fate(epoch, 2, 1, Some(&kind), 1).severed);
            assert!(plan.link_severed(epoch, 1, 2, 0));
        }
        // Outside the window and off the link: untouched.
        for epoch in [0, 1, 4, 5] {
            assert!(!plan.send_fate(epoch, 1, 2, Some(&kind), 1).severed);
            assert!(!plan.link_severed(epoch, 1, 2, 0));
        }
        assert!(!plan.send_fate(3, 0, 2, Some(&kind), 1).severed);
        // The simulator sees retransmission inflation, not a black hole.
        let sim = plan.send_fate(3, 1, 2, None, 1);
        assert!(!sim.severed);
        assert_eq!(sim.delay_ms, plan.retransmit_ms);
    }

    #[test]
    fn asym_partition_severs_one_direction_only() {
        let plan = FaultPlan::default().with_fault(Fault::AsymPartition {
            src: 0,
            dst: 2,
            from_epoch: 1,
            heal_epoch: 3,
        });
        let kind = MessageKind::Control(1.0);
        assert!(plan.send_fate(1, 0, 2, Some(&kind), 1).severed);
        assert!(!plan.send_fate(1, 2, 0, Some(&kind), 1).severed, "reverse flows");
        assert!(plan.link_severed(2, 0, 2, 0));
        assert!(!plan.link_severed(2, 2, 0, 0));
    }

    #[test]
    fn flap_holds_messages_until_the_next_up_window() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Flap { a: 0, b: 1, period_ms: 40, duty: 0.5 });
        let kind = MessageKind::Control(1.0);
        // Down for the first 20ms of every 40ms window: a send at 5ms is
        // held 15ms, a send at 25ms goes straight through.
        let down = plan.send_fate_at(0, 0, 1, Some(&kind), 1, 5);
        assert!(!down.severed, "flapped messages are delayed, never lost");
        assert_eq!(down.delay_ms, 15);
        let up = plan.send_fate_at(0, 1, 0, Some(&kind), 1, 25);
        assert_eq!(up.delay_ms, 0);
        // The next period flaps again.
        assert_eq!(plan.send_fate_at(0, 0, 1, Some(&kind), 1, 41).delay_ms, 19);
        assert!(plan.link_severed(0, 0, 1, 5));
        assert!(!plan.link_severed(0, 0, 1, 25));
        // Off the link: untouched at any time.
        assert_eq!(plan.send_fate_at(0, 0, 2, Some(&kind), 1, 5).delay_ms, 0);
    }

    #[test]
    fn flap_sim_fate_charges_a_duty_fraction_of_transfers() {
        let plan = FaultPlan::default()
            .with_seed(5)
            .with_fault(Fault::Flap { a: 0, b: 1, period_ms: 40, duty: 0.4 });
        let mut hit = 0;
        for seq in 1..=4000u64 {
            let fate = plan.send_fate(0, 0, 1, None, seq);
            assert_eq!(fate, plan.send_fate(0, 0, 1, None, seq));
            if fate.delay_ms > 0 {
                // Expected residual down-time: (40 * 0.4) / 2 = 8ms.
                assert_eq!(fate.delay_ms, 8);
                hit += 1;
            }
        }
        let rate = hit as f64 / 4000.0;
        assert!((rate - 0.4).abs() < 0.05, "flap sim rate {rate}");
    }

    #[test]
    fn retire_links_cures_only_the_departed_worker() {
        let mut plan = FaultPlan::default()
            .with_fault(Fault::Partition { a: 0, b: 1, from_epoch: 0, heal_epoch: 9 })
            .with_fault(Fault::Flap { a: 1, b: 2, period_ms: 40, duty: 0.5 })
            .with_fault(Fault::AsymPartition {
                src: 0,
                dst: 2,
                from_epoch: 0,
                heal_epoch: 9,
            })
            .with_fault(Fault::Straggle { worker: 1, delay_ms: 5 });
        plan.retire_links(1);
        assert_eq!(plan.faults.len(), 2, "both links touching w1 retire");
        assert!(plan.link_severed(1, 0, 2, 0), "w0-w2 link fault survives");
        assert_eq!(
            plan.send_fate(0, 1, 0, None, 1).delay_ms,
            5,
            "non-link faults are untouched"
        );
        plan.retire_links(2);
        assert!(!plan.link_severed(1, 0, 2, 0), "the last link fault retires with w2");
    }

    #[test]
    fn corrupt_fate_is_deterministic_and_calibrated() {
        let plan = FaultPlan::default()
            .with_seed(11)
            .with_fault(Fault::Corrupt { sel: MsgSel::any(), p: 0.3 });
        let kind = MessageKind::Control(1.0);
        let mut hits = 0;
        for seq in 1..=4000u64 {
            let a = plan.send_fate(0, 0, 1, Some(&kind), seq);
            assert_eq!(a, plan.send_fate(0, 0, 1, Some(&kind), seq));
            assert_eq!(a.delay_ms, 0, "typed corrupt does not delay the logical send");
            if a.corrupt {
                hits += 1;
            }
        }
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.3).abs() < 0.05, "corrupt rate {rate}");
        // Untyped (simulator) transfers see the retransmission delay instead.
        let sim_fate_hits = (1..=4000u64)
            .filter(|&seq| plan.send_fate(0, 0, 1, None, seq).delay_ms > 0)
            .count();
        assert!(sim_fate_hits > 0);
    }

    #[test]
    fn ckpt_fate_scopes_by_epoch_and_is_deterministic() {
        let plan = FaultPlan::default()
            .with_seed(3)
            .with_fault(Fault::CorruptCkpt { epoch: Some(4), p: 1.0 });
        let hit = plan.ckpt_fate(4).expect("p=1.0 must fire");
        assert_eq!(plan.ckpt_fate(4), Some(hit), "bit draw must be deterministic");
        assert_eq!(plan.ckpt_fate(2), None, "other boundaries untouched");
        assert_eq!(FaultPlan::default().ckpt_fate(4), None);
    }

    #[test]
    fn parses_resource_specs() {
        assert_eq!(
            parse_fault("diskfull:e2-e4").unwrap(),
            Fault::DiskFull { from_epoch: 2, heal_epoch: 4 }
        );
        assert_eq!(parse_fault("slowdisk:3").unwrap(), Fault::SlowDisk { factor: 3.0 });
        assert_eq!(
            parse_fault("mempressure:1048576@e1-e5").unwrap(),
            Fault::MemPressure { cap_bytes: 1 << 20, from_epoch: 1, heal_epoch: 5 }
        );
        assert_eq!(
            parse_fault("hang:w1@e3").unwrap(),
            Fault::Hang { worker: 1, epoch: 3 }
        );
        assert!(parse_fault("diskfull:e4-e2").unwrap_err().contains("heal"));
        assert!(parse_fault("slowdisk:0.5").unwrap_err().contains(">= 1"));
        assert!(parse_fault("mempressure:0@e1-e2").unwrap_err().contains("> 0"));
        assert!(parse_fault("mempressure:4096").unwrap_err().contains("expected"));
        assert!(parse_fault("hang:w1").unwrap_err().contains("w<id>@e<epoch>"));
    }

    #[test]
    fn resource_faults_never_touch_message_fates() {
        let plan = FaultPlan::default()
            .with_fault(Fault::DiskFull { from_epoch: 0, heal_epoch: 9 })
            .with_fault(Fault::SlowDisk { factor: 4.0 })
            .with_fault(Fault::MemPressure {
                cap_bytes: 4096,
                from_epoch: 0,
                heal_epoch: 9,
            })
            .with_fault(Fault::Hang { worker: 1, epoch: 3 });
        let kind = MessageKind::Control(1.0);
        for epoch in 0..6 {
            assert_eq!(plan.send_fate(epoch, 0, 1, Some(&kind), 1), SendFate::default());
        }
    }

    #[test]
    fn disk_and_mem_windows_scope_by_epoch() {
        let plan = FaultPlan::default()
            .with_fault(Fault::DiskFull { from_epoch: 2, heal_epoch: 4 })
            .with_fault(Fault::MemPressure {
                cap_bytes: 8192,
                from_epoch: 1,
                heal_epoch: 3,
            })
            .with_fault(Fault::MemPressure {
                cap_bytes: 4096,
                from_epoch: 2,
                heal_epoch: 5,
            });
        assert!(!plan.disk_full_at(1));
        assert!(plan.disk_full_at(2) && plan.disk_full_at(3));
        assert!(!plan.disk_full_at(4));
        assert_eq!(plan.mem_cap_at(0), None);
        assert_eq!(plan.mem_cap_at(1), Some(8192));
        assert_eq!(plan.mem_cap_at(2), Some(4096), "tightest overlapping cap wins");
        assert_eq!(plan.mem_cap_at(4), Some(4096));
        assert_eq!(plan.mem_cap_at(5), None);
        assert_eq!(plan.slow_disk_factor(), 1.0, "no slowdisk fault: unit factor");
        let slow = FaultPlan::default()
            .with_fault(Fault::SlowDisk { factor: 2.0 })
            .with_fault(Fault::SlowDisk { factor: 3.0 });
        assert_eq!(slow.slow_disk_factor(), 6.0, "factors compose");
    }

    #[test]
    fn retire_hang_removes_only_the_fired_hang() {
        let mut plan = FaultPlan::default()
            .with_fault(Fault::Hang { worker: 1, epoch: 2 })
            .with_fault(Fault::Hang { worker: 1, epoch: 5 });
        assert_eq!(plan.hang_epoch(1), Some(2));
        assert_eq!(plan.hang_epoch(0), None);
        plan.retire_hang(1, 2);
        assert_eq!(plan.hang_epoch(1), Some(5));
        plan.retire_hang(1, 5);
        assert!(plan.is_empty());
    }

    #[test]
    fn push_spec_accumulates() {
        let mut plan = FaultPlan::default();
        plan.push_spec("kill:w1@e2").unwrap();
        plan.push_spec("drop:any:0.1").unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert!(plan.push_spec("bogus").is_err());
    }
}
