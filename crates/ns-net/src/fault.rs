//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] is a seeded, declarative description of everything that
//! goes wrong during a run: workers that crash at a given epoch, stragglers
//! that delay every message they send, per-message drop / delay /
//! duplicate faults selected at `(epoch, src, dst)` granularity, and
//! link-level faults — epoch-bounded partitions (full or one-way) that
//! black-hole a link, and flaps that oscillate one on a duty cycle. Message
//! faults act only in the real [`fabric`](crate::fabric), where a dropped
//! message becomes a retransmission delay and a duplicate becomes a second
//! physical delivery; worker, store and pool faults act in the runtime.
//!
//! Every probabilistic decision is a pure function of
//! `(plan seed, fault index, epoch, src, dst, seq)` — re-running a plan
//! reproduces the exact same fault schedule, which is what makes the
//! recovery-determinism tests possible.
//!
//! Every fault is also one line of text. The spec grammar is written once,
//! here: [`GRAMMAR`] lists the forms, [`parse_fault`] reads them,
//! `Display for Fault` prints the canonical text back, and the pieces the
//! forms share — [`Window`], [`Link`], [`KindSel`], [`MsgSel`] — each parse,
//! print and match in one place.

use std::fmt;
use std::str::FromStr;

use crate::fabric::{MessageKind, KIND_NAMES};

/// Every `--fault` spec form as `(syntax, one-line effect)`. The CLI help,
/// the unknown-type error and `docs/FAULTS.md` (by a drift test) all read
/// this table; `<kind>` is a [`KindSel`] name, `<ms>` takes an optional
/// `ms` suffix.
pub const GRAMMAR: [(&str, &str); 14] = [
    ("kill:w<id>@e<epoch>", "crash the worker at the top of the epoch"),
    ("straggle:w<id>:<ms>", "delay every message the worker sends"),
    ("drop:<kind>:<p>[@e<n>][@w<src>-w<dst>]", "lose + retransmit (charged as a delay)"),
    ("delay:<kind>:<ms>[@e<n>][@w<src>-w<dst>]", "fixed extra latency"),
    ("dup:<kind>:<p>[@e<n>][@w<src>-w<dst>]", "deliver twice; receivers dedup"),
    ("corrupt:<kind>:<p>[@e<n>][@w<src>-w<dst>]", "flip a payload bit; CRC catches it"),
    ("corrupt:ckpt:<p>[@e<n>]", "flip a bit in the generation saved at boundary n"),
    ("partition:w<a>-w<b>@e<from>-e<heal>", "sever the link both ways for [from, heal)"),
    ("partition:w<a>->w<b>@e<from>-e<heal>", "sever the a -> b direction only"),
    ("flap:w<a>-w<b>:<period>ms:<duty>", "link down the first duty fraction of each period"),
    ("diskfull:e<from>-e<heal>", "saves hit ENOSPC at boundaries in [from, heal)"),
    ("slowdisk:<factor>", "durable writes take factor x as long (>= 1)"),
    ("mempressure:<bytes>@e<from>-e<heal>", "cap the tensor pool at <bytes> for [from, heal)"),
    ("hang:w<id>@e<epoch>", "go silent until peers' receive budgets run out"),
];

/// The distinct fault types of [`GRAMMAR`] (the text before the first
/// `:`), in table order.
fn heads() -> Vec<&'static str> {
    let mut heads: Vec<_> =
        GRAMMAR.iter().map(|(syntax, _)| syntax.split(':').next().unwrap_or(syntax)).collect();
    heads.dedup();
    heads
}

/// An epoch window `e<from>-e<heal>`: active for `from <= epoch < heal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First epoch inside the window (inclusive).
    pub from: usize,
    /// Epoch at which the fault heals (exclusive; always `> from`).
    pub heal: usize,
}

impl Window {
    /// True while the window is active.
    pub fn contains(&self, epoch: usize) -> bool {
        (self.from..self.heal).contains(&epoch)
    }
}

impl FromStr for Window {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (from_s, heal_s) = split(s, "-", "e<from>-e<heal>")?;
        let (from, heal) = (parse_epoch(from_s)?, parse_epoch(heal_s)?);
        if heal <= from {
            return Err(format!("window e{from}-e{heal}: heal epoch must come after the start"));
        }
        Ok(Window { from, heal })
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}-e{}", self.from, self.heal)
    }
}

/// A link between two distinct workers: `w<a>-w<b>` carries both
/// directions, `w<a>->w<b>` only `a -> b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One end (the sending side when `one_way`).
    pub a: usize,
    /// The other end (the receiving side when `one_way`).
    pub b: usize,
    /// Only the `a -> b` direction is meant; `b -> a` still flows — the
    /// asymmetric-route failure that defeats "ping works" health checks.
    pub one_way: bool,
}

impl Link {
    /// True when a `src -> dst` message travels over this link.
    pub fn carries(&self, src: usize, dst: usize) -> bool {
        (src == self.a && dst == self.b) || (!self.one_way && src == self.b && dst == self.a)
    }

    /// True when `worker` is one of the two ends.
    pub fn touches(&self, worker: usize) -> bool {
        self.a == worker || self.b == worker
    }
}

impl FromStr for Link {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let one_way = s.contains("->");
        let (a_s, b_s) = split(s, if one_way { "->" } else { "-" }, "w<a>-w<b>")?;
        let (a, b) = (parse_worker(a_s)?, parse_worker(b_s)?);
        if a == b {
            return Err(format!("link {s:?}: endpoints must differ"));
        }
        Ok(Link { a, b, one_way })
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}{}w{}", self.a, if self.one_way { "->" } else { "-" }, self.b)
    }
}

/// Which message kinds a selector applies to. The typed variants are
/// declared in [`MessageKind::kind_index`] order, so a selector's
/// discriminant is the index it matches and its name is
/// [`KIND_NAMES`]`[index]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindSel {
    /// Forward dependency rows (`GetFromDepNbr`).
    Rows,
    /// Backward gradient rows (`PostToDepNbr`).
    Grads,
    /// Ring all-reduce gradient chunks.
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
    /// The typed selectors by discriminant, i.e. parallel to [`KIND_NAMES`].
    const TYPED: [KindSel; 6] = [
        KindSel::Rows,
        KindSel::Grads,
        KindSel::AllReduce,
        KindSel::Control,
        KindSel::Query,
        KindSel::Reply,
    ];

    /// Every name `<kind>` accepts, `|`-separated, for help and error text.
    pub fn names() -> String {
        format!("{}|any", KIND_NAMES.join("|"))
    }

    fn matches(self, kind: &MessageKind) -> bool {
        self == KindSel::Any || kind.kind_index() == self as usize
    }
}

impl FromStr for KindSel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "any" || s == "*" {
            return Ok(KindSel::Any);
        }
        let typed = KIND_NAMES.iter().position(|name| *name == s);
        typed
            .map(|i| Self::TYPED[i])
            .ok_or_else(|| format!("unknown message kind {s:?} ({})", Self::names()))
    }
}

impl fmt::Display for KindSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(KIND_NAMES.get(*self as usize).unwrap_or(&"any"))
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

    fn matches(&self, epoch: usize, src: usize, dst: usize, kind: &MessageKind) -> bool {
        self.kind.matches(kind)
            && self.epoch.is_none_or(|e| e == epoch)
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }

    /// Parses `<value>[@e<n>][@w<src>-w<dst>]` into a selector of `kind`
    /// and the still-unparsed `<value>` text. Unlike a [`Link`], the pair
    /// may name a worker's channel to itself.
    fn scoped(kind: KindSel, s: &str) -> Result<(Self, &str), String> {
        let mut parts = s.split('@');
        let value = parts.next().unwrap_or_default();
        let mut sel = MsgSel { kind, ..Self::any() };
        for q in parts {
            if q.starts_with('e') {
                sel.epoch = Some(parse_epoch(q)?);
            } else if q.starts_with('w') {
                let (src, dst) = split(q, "-", "w<src>-w<dst>")?;
                sel.src = Some(parse_worker(src)?);
                sel.dst = Some(parse_worker(dst)?);
            } else {
                return Err(format!("unknown qualifier {q:?} (e<n> or w<s>-w<d>)"));
            }
        }
        Ok((sel, value))
    }

    /// The `[@e<n>][@w<src>-w<dst>]` suffix this selector prints as (the
    /// grammar names `src` and `dst` only as a pair).
    fn qualifiers(&self) -> String {
        let mut s = String::new();
        if let Some(e) = self.epoch {
            s += &format!("@e{e}");
        }
        if let (Some(src), Some(dst)) = (self.src, self.dst) {
            s += &format!("@w{src}-w{dst}");
        }
        s
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
    /// copy.
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
    /// `link` is severed for the epochs in `window` — both directions, or
    /// only `a -> b` when the link is one-way (replies still flow back).
    /// The fabric black-holes severed sends: the call succeeds (the
    /// sender cannot tell), the message is never delivered, and only
    /// receive deadlines (and serving's circuit breakers) surface the
    /// outage — the honest network-partition failure mode.
    Partition {
        /// The severed link (or direction).
        link: Link,
        /// Epochs with the link down.
        window: Window,
    },
    /// `link` oscillates: within every `period_ms` window it is down for
    /// the first `duty` fraction and up for the rest. A message sent
    /// while the link is down is held and delivered at the next up-window
    /// (the transport retransmits once the link returns), so a flap
    /// inflates tail latency — by up to `duty * period_ms` per message —
    /// without losing messages.
    Flap {
        /// The flapping link (never one-way).
        link: Link,
        /// Oscillation period, milliseconds (must be > 0).
        period_ms: u64,
        /// Fraction of each period the link is down, in `[0, 1]`.
        duty: f64,
    },
    /// The filesystem under the durable checkpoint store reports ENOSPC
    /// for every write attempted at a boundary epoch in `window`. The
    /// store degrades instead of aborting: it squeezes retention toward
    /// keep-last-1 to free space, retries, and if the disk is still full
    /// defers the generation to the next cadence (`ckpt.enospc` /
    /// `ckpt.retention_squeezed` meter the degradation).
    DiskFull {
        /// Boundary epochs with the disk full.
        window: Window,
    },
    /// Every durable-store write takes `factor` times as long — a
    /// saturated or throttled device. Pure latency: no write fails, but
    /// the inflated fsync time is metered (`ckpt.slow_disk_penalty_ns`)
    /// and visible in checkpoint-phase spans.
    SlowDisk {
        /// fsync-time multiplier (must be >= 1).
        factor: f64,
    },
    /// The tensor-pool budget shrinks to `cap_bytes` for the epochs in
    /// `window` — a co-tenant eating the machine's memory. The pool sheds
    /// parked buffers and the serve cache drops cold rows to stay under
    /// the cap instead of OOMing; `alloc.peak_bytes` proves the budget
    /// held.
    MemPressure {
        /// Enforced pool budget while the pressure window is active.
        cap_bytes: usize,
        /// Epochs under pressure.
        window: Window,
    },
    /// Worker `worker` wedges at the top of epoch `epoch`: it sends
    /// nothing more but keeps its endpoint open, so no peer sees a
    /// disconnect. Every epoch ends in an all-reduce that waits on every
    /// worker, so some peer exhausts its receive budget on the silent
    /// worker and drops out; the disconnects cascade through the mesh, and
    /// the hung worker returns once every peer not hung with it is gone.
    Hang {
        /// Worker that wedges.
        worker: usize,
        /// Epoch at which it wedges, counted from the start of the run.
        epoch: usize,
    },
}

/// Canonical CLI spec text: the only formatter of faults. [`parse_fault`]
/// accepts the output verbatim (round-trip identity, covered by tests).
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Kill { worker, epoch } => write!(f, "kill:w{worker}@e{epoch}"),
            Fault::Straggle { worker, delay_ms } => write!(f, "straggle:w{worker}:{delay_ms}ms"),
            Fault::Drop { sel, p } => write!(f, "drop:{}:{p}{}", sel.kind, sel.qualifiers()),
            Fault::Delay { sel, delay_ms } => {
                write!(f, "delay:{}:{delay_ms}ms{}", sel.kind, sel.qualifiers())
            }
            Fault::Duplicate { sel, p } => write!(f, "dup:{}:{p}{}", sel.kind, sel.qualifiers()),
            Fault::Corrupt { sel, p } => write!(f, "corrupt:{}:{p}{}", sel.kind, sel.qualifiers()),
            Fault::CorruptCkpt { epoch, p } => {
                let scope = MsgSel { epoch: *epoch, ..MsgSel::any() };
                write!(f, "corrupt:ckpt:{p}{}", scope.qualifiers())
            }
            Fault::Partition { link, window } => write!(f, "partition:{link}@{window}"),
            Fault::Flap { link, period_ms, duty } => write!(f, "flap:{link}:{period_ms}ms:{duty}"),
            Fault::DiskFull { window } => write!(f, "diskfull:{window}"),
            Fault::SlowDisk { factor } => write!(f, "slowdisk:{factor}"),
            Fault::MemPressure { cap_bytes, window } => {
                write!(f, "mempressure:{cap_bytes}@{window}")
            }
            Fault::Hang { worker, epoch } => write!(f, "hang:w{worker}@e{epoch}"),
        }
    }
}

/// Milliseconds until a flapping link comes back up when it is down at
/// `now_ms` (`None` while it is up): each period starts with its down part.
fn flap_wait(period_ms: u64, duty: f64, now_ms: u64) -> Option<u64> {
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

    /// The epoch at which `worker` is scheduled to wedge, if any.
    pub fn hang_epoch(&self, worker: usize) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::Hang { worker: w, epoch } if *w == worker => Some(*epoch),
            _ => None,
        })
    }

    /// Retires everything pinned to the slot of a member that leaves the
    /// cluster at `epoch` (failed, or evicted at that boundary): the
    /// kill/hang that fired at `epoch`, its straggle, and every link fault
    /// with an end on it. The modeled replacement host comes up healthy
    /// with fresh links; without this the survivors, renumbered into the
    /// slot, would inherit the departed member's faults. Worker ids in the
    /// remaining faults refer to the *current* topology.
    pub fn retire_member(&mut self, worker: usize, epoch: usize) {
        self.faults.retain(|f| match f {
            Fault::Kill { worker: w, epoch: e } | Fault::Hang { worker: w, epoch: e } => {
                !(*w == worker && *e == epoch)
            }
            Fault::Straggle { worker: w, .. } => *w != worker,
            Fault::Partition { link, .. } | Fault::Flap { link, .. } => !link.touches(worker),
            _ => true,
        });
    }

    /// Parses and appends a CLI fault spec; [`GRAMMAR`] lists the forms.
    pub fn push_spec(&mut self, spec: &str) -> Result<(), String> {
        self.faults.push(parse_fault(spec)?);
        Ok(())
    }

    /// Decides the fate of one send of `kind`. `now_ms` is milliseconds
    /// on the fabric's link-layer clock and decides where inside a
    /// [`Fault::Flap`] period the send lands. Pure in
    /// `(seed, epoch, src, dst, kind, seq, now_ms)`.
    pub fn send_fate(
        &self,
        epoch: usize,
        src: usize,
        dst: usize,
        kind: &MessageKind,
        seq: u64,
        now_ms: u64,
    ) -> SendFate {
        let mut fate = SendFate::default();
        for (i, f) in self.faults.iter().enumerate() {
            let hit = |sel: &MsgSel| sel.matches(epoch, src, dst, kind);
            let coin = |p: f64| self.coin(i, epoch, src, dst, seq) < p;
            match f {
                Fault::Straggle { worker, delay_ms } if *worker == src => fate.delay_ms += delay_ms,
                Fault::Delay { sel, delay_ms } if hit(sel) => fate.delay_ms += delay_ms,
                Fault::Drop { sel, p } if hit(sel) && coin(*p) => {
                    fate.delay_ms += self.retransmit_ms;
                }
                Fault::Duplicate { sel, p } if hit(sel) && coin(*p) => fate.duplicate = true,
                Fault::Corrupt { sel, p } if hit(sel) && coin(*p) => fate.corrupt = true,
                Fault::Partition { link, window }
                    if link.carries(src, dst) && window.contains(epoch) =>
                {
                    fate.severed = true;
                }
                Fault::Flap { link, period_ms, duty } if link.carries(src, dst) => {
                    // Hold the message until the link comes back up.
                    fate.delay_ms += flap_wait(*period_ms, *duty, now_ms).unwrap_or(0);
                }
                // Kills, hangs and the store/pool faults act on the worker
                // loop, the store and the pool — never on a message in
                // flight; every other fault missed this send.
                _ => {}
            }
        }
        fate
    }

    /// True when the plan severs the `src -> dst` direction at `epoch`
    /// and link-layer time `now_ms`: an active [`Fault::Partition`]
    /// window, or a [`Fault::Flap`] inside the down part of its period.
    /// Circuit-breaker liveness checks use this to tell a breaker that is
    /// *correctly* open (link still severed) from one stuck open after
    /// its link healed.
    pub fn link_severed(&self, epoch: usize, src: usize, dst: usize, now_ms: u64) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::Partition { link, window } => {
                link.carries(src, dst) && window.contains(epoch)
            }
            Fault::Flap { link, period_ms, duty } => {
                link.carries(src, dst) && flap_wait(*period_ms, *duty, now_ms).is_some()
            }
            _ => false,
        })
    }

    /// True when the durable store's disk is full at boundary `epoch`
    /// (an active [`Fault::DiskFull`] window).
    pub fn disk_full_at(&self, epoch: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::DiskFull { window } if window.contains(epoch)))
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
                Fault::MemPressure { cap_bytes, window } if window.contains(epoch) => {
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
        ns_rand::unit(ns_rand::mix64(h))
    }
}

/// `s` cut at the first `sep`, or an error naming the `shape` expected.
fn split<'a>(s: &'a str, sep: &str, shape: &str) -> Result<(&'a str, &'a str), String> {
    s.split_once(sep).ok_or_else(|| format!("expected {shape}, got {s:?}"))
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

/// A probability or duty fraction (`what` names it in errors) in `[0, 1]`.
fn parse_fraction(s: &str, what: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad {what} {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} {p} outside [0, 1]"));
    }
    Ok(p)
}

/// Parses one CLI fault spec ([`GRAMMAR`] lists the forms).
pub fn parse_fault(spec: &str) -> Result<Fault, String> {
    let parsed = split(spec, ":", "<type>:<args>").and_then(|(head, rest)| parse_args(head, rest));
    parsed.map_err(|why| format!("fault spec {spec:?}: {why}"))
}

/// The `<args>` of a spec whose `<type>` is `head`.
fn parse_args(head: &str, rest: &str) -> Result<Fault, String> {
    let prob = |s| parse_fraction(s, "probability");
    Ok(match head {
        "kill" | "hang" => {
            let (w, e) = split(rest, "@", "w<id>@e<epoch>")?;
            let (worker, epoch) = (parse_worker(w)?, parse_epoch(e)?);
            if head == "kill" {
                Fault::Kill { worker, epoch }
            } else {
                Fault::Hang { worker, epoch }
            }
        }
        "straggle" => {
            let (w, ms) = split(rest, ":", "w<id>:<ms>")?;
            Fault::Straggle { worker: parse_worker(w)?, delay_ms: parse_ms(ms)? }
        }
        "corrupt" if rest.starts_with("ckpt:") => {
            let (scope, p) = MsgSel::scoped(KindSel::Any, &rest["ckpt:".len()..])?;
            if scope.src.is_some() {
                return Err("checkpoint corruption only scopes by e<n>".to_string());
            }
            Fault::CorruptCkpt { epoch: scope.epoch, p: prob(p)? }
        }
        "drop" | "delay" | "dup" | "corrupt" => {
            let (kind, scoped) = split(rest, ":", "<kind>:<value>[@e<n>][@w<src>-w<dst>]")?;
            let (sel, value) = MsgSel::scoped(kind.parse()?, scoped)?;
            match head {
                "drop" => Fault::Drop { sel, p: prob(value)? },
                "dup" => Fault::Duplicate { sel, p: prob(value)? },
                "corrupt" => Fault::Corrupt { sel, p: prob(value)? },
                _ => Fault::Delay { sel, delay_ms: parse_ms(value)? },
            }
        }
        "partition" => {
            let (link, window) = split(rest, "@", "w<a>-w<b>@e<from>-e<heal>")?;
            Fault::Partition { window: window.parse()?, link: link.parse()? }
        }
        "flap" => {
            let shape = "w<a>-w<b>:<period>ms:<duty>";
            let (link_s, cycle) = split(rest, ":", shape)?;
            let (period_s, duty_s) = split(cycle, ":", shape)?;
            let link: Link = link_s.parse()?;
            if link.one_way {
                return Err(format!("flap link {link_s:?}: a flap has no direction (w<a>-w<b>)"));
            }
            let period_ms = parse_ms(period_s)?;
            if period_ms == 0 {
                return Err(format!("flap period {period_s:?} must be > 0"));
            }
            Fault::Flap { link, period_ms, duty: parse_fraction(duty_s, "flap duty")? }
        }
        "diskfull" => Fault::DiskFull { window: rest.parse()? },
        "slowdisk" => {
            let factor: f64 =
                rest.parse().map_err(|_| format!("bad slowdisk factor {rest:?}"))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!("slowdisk factor {factor} must be >= 1"));
            }
            Fault::SlowDisk { factor }
        }
        "mempressure" => {
            let (bytes_s, window) = split(rest, "@", "<bytes>@e<from>-e<heal>")?;
            let cap_bytes: usize = bytes_s
                .parse()
                .map_err(|_| format!("bad mempressure byte budget {bytes_s:?}"))?;
            if cap_bytes == 0 {
                return Err("mempressure budget must be > 0 bytes".to_string());
            }
            Fault::MemPressure { cap_bytes, window: window.parse()? }
        }
        other => {
            return Err(format!("unknown fault type {other:?} ({})", heads().join("|")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message the tests that do not select by kind send.
    const CTL: MessageKind = MessageKind::Control(1.0);

    fn link(a: usize, b: usize) -> Link {
        Link { a, b, one_way: false }
    }

    fn one_way(a: usize, b: usize) -> Link {
        Link { a, b, one_way: true }
    }

    #[test]
    fn empty_plan_is_benign() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.send_fate(0, 0, 1, &CTL, 1, 0), SendFate::default());
        assert_eq!(plan.kill_epoch(0), None);
    }

    #[test]
    fn kill_plan_targets_one_worker() {
        let plan = FaultPlan::kill(2, 3);
        assert_eq!(plan.kill_epoch(2), Some(3));
        assert_eq!(plan.kill_epoch(1), None);
        // A crash does not perturb message fates.
        assert_eq!(plan.send_fate(3, 2, 0, &CTL, 1, 0), SendFate::default());
    }

    #[test]
    fn retire_kill_removes_only_the_fired_crash() {
        let mut plan = FaultPlan::kill(1, 2).with_fault(Fault::Kill { worker: 1, epoch: 5 });
        plan.retire_member(1, 2);
        assert_eq!(plan.kill_epoch(1), Some(5));
        plan.retire_member(1, 5);
        assert!(plan.is_empty());
    }

    #[test]
    fn retire_straggle_cures_only_the_target_worker() {
        let mut plan = FaultPlan::default()
            .with_fault(Fault::Straggle { worker: 1, delay_ms: 30 })
            .with_fault(Fault::Straggle { worker: 2, delay_ms: 10 });
        plan.retire_member(1, 0);
        assert_eq!(plan.send_fate(0, 1, 0, &CTL, 1, 0).delay_ms, 0);
        assert_eq!(plan.send_fate(0, 2, 0, &CTL, 1, 0).delay_ms, 10);
    }

    #[test]
    fn straggler_delays_all_its_sends() {
        let plan =
            FaultPlan::default().with_fault(Fault::Straggle { worker: 1, delay_ms: 30 });
        assert_eq!(plan.send_fate(0, 1, 0, &CTL, 1, 0).delay_ms, 30);
        assert_eq!(plan.send_fate(0, 0, 1, &CTL, 1, 0).delay_ms, 0);
    }

    #[test]
    fn drop_coin_is_deterministic_and_calibrated() {
        let plan = FaultPlan::default()
            .with_seed(7)
            .with_fault(Fault::Drop { sel: MsgSel::any(), p: 0.25 });
        let mut dropped = 0;
        for seq in 1..=4000u64 {
            let a = plan.send_fate(0, 0, 1, &CTL, seq, 0);
            let b = plan.send_fate(0, 0, 1, &CTL, seq, 0);
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
        let differs = (1..=64u64).any(|seq| {
            a.send_fate(0, 0, 1, &CTL, seq, 0) != b.send_fate(0, 0, 1, &CTL, seq, 0)
        });
        assert!(differs);
    }

    #[test]
    fn selector_scopes_epoch_and_channel() {
        let sel = MsgSel { kind: KindSel::Any, epoch: Some(3), src: Some(0), dst: Some(2) };
        let plan = FaultPlan::default().with_fault(Fault::Delay { sel, delay_ms: 10 });
        assert_eq!(plan.send_fate(3, 0, 2, &CTL, 1, 0).delay_ms, 10);
        assert_eq!(plan.send_fate(2, 0, 2, &CTL, 1, 0).delay_ms, 0);
        assert_eq!(plan.send_fate(3, 1, 2, &CTL, 1, 0).delay_ms, 0);
        assert_eq!(plan.send_fate(3, 0, 1, &CTL, 1, 0).delay_ms, 0);
    }

    #[test]
    fn kind_selector_filters_typed_messages() {
        let sel = MsgSel { kind: KindSel::Rows, epoch: None, src: None, dst: None };
        let plan = FaultPlan::default().with_fault(Fault::Delay { sel, delay_ms: 10 });
        let rows = MessageKind::Rows { layer: 0, ids: vec![1], cols: 1, data: vec![0.0] };
        let ctl = MessageKind::Control(1.0);
        assert_eq!(plan.send_fate(0, 0, 1, &rows, 1, 0).delay_ms, 10);
        assert_eq!(plan.send_fate(0, 0, 1, &ctl, 1, 0).delay_ms, 0);
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
        let unknown_kind = parse_fault("drop:frames:0.1").unwrap_err();
        assert!(unknown_kind.contains("unknown message kind"));
        for name in KIND_NAMES.iter().chain(&["any"]) {
            assert!(unknown_kind.contains(name), "{unknown_kind:?} does not offer {name}");
        }
        let unknown_type = parse_fault("meteor:w0@e1").unwrap_err();
        assert!(unknown_type.contains("unknown fault type"));
        for (syntax, _) in GRAMMAR {
            let head = syntax.split(':').next().unwrap();
            assert!(unknown_type.contains(head), "{unknown_type:?} does not offer {head}");
        }
        assert!(parse_fault("drop:rows:0.1@x9").unwrap_err().contains("qualifier"));
    }

    #[test]
    fn kind_selectors_follow_the_fabric_kind_table() {
        // `KindSel` keeps no name list of its own: discriminant, name and
        // matched kind index all come from the fabric's table.
        for (i, name) in KIND_NAMES.iter().enumerate() {
            let sel: KindSel = name.parse().unwrap();
            assert_eq!(sel as usize, i);
            assert_eq!(sel.to_string(), *name);
        }
        assert_eq!("any".parse::<KindSel>(), Ok(KindSel::Any));
        assert_eq!("*".parse::<KindSel>(), Ok(KindSel::Any));
        assert_eq!(KindSel::Any.to_string(), "any");
        let reply = MessageKind::Reply { qids: vec![], classes: vec![] };
        assert_eq!(KIND_NAMES[reply.kind_index()], "reply");
        assert!(KindSel::Reply.matches(&reply) && KindSel::Any.matches(&reply));
        assert!(!KindSel::Query.matches(&reply));
    }

    #[test]
    fn grammar_examples_parse_and_print_canonically() {
        // One concrete spec per GRAMMAR row, in table order: each parses,
        // and prints back as itself.
        let examples = [
            "kill:w2@e3",
            "straggle:w1:25ms",
            "drop:rows:0.01@e2@w0-w3",
            "delay:query:15ms@e4",
            "dup:reply:0.5@w1-w1",
            "corrupt:grads:0.25",
            "corrupt:ckpt:1@e4",
            "partition:w1-w2@e2-e4",
            "partition:w1->w2@e2-e4",
            "flap:w0-w1:40ms:0.5",
            "diskfull:e2-e4",
            "slowdisk:2.5",
            "mempressure:1048576@e1-e5",
            "hang:w1@e3",
        ];
        for (spec, (syntax, _)) in examples.iter().zip(GRAMMAR) {
            let prefix_len = syntax.find(['<', 'w', 'e']).unwrap();
            assert!(spec.starts_with(&syntax[..prefix_len]), "{spec} is not a {syntax}");
            assert_eq!(parse_fault(spec).unwrap().to_string(), *spec);
        }
        // A flap has no direction; a wire selector may name a self-channel,
        // a link may not.
        assert!(parse_fault("flap:w0->w1:40ms:0.5").unwrap_err().contains("no direction"));
        assert!(parse_fault("partition:w1->w1@e1-e2").unwrap_err().contains("differ"));
    }

    #[test]
    fn faults_md_lists_every_spec_form() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/FAULTS.md");
        let doc = std::fs::read_to_string(path).expect("docs/FAULTS.md is readable");
        for (syntax, _) in GRAMMAR {
            assert!(doc.contains(syntax), "docs/FAULTS.md does not list `{syntax}`");
        }
        // The other direction: a table row documenting a `head:` the
        // grammar does not have is a stale row.
        let mut rows = 0;
        for line in doc.lines() {
            let Some(cell) = line.strip_prefix("| `").and_then(|l| l.split('`').next()) else {
                continue;
            };
            if cell.ends_with(':') {
                rows += 1;
                assert!(
                    GRAMMAR.iter().any(|(syntax, _)| syntax.starts_with(cell)),
                    "docs/FAULTS.md documents `{cell}`, which no GRAMMAR form starts with"
                );
            }
        }
        assert!(rows >= heads().len(), "only {rows} `head:` rows found in docs/FAULTS.md");
    }

    #[test]
    fn retire_member_takes_everything_pinned_to_the_slot() {
        let mut plan = FaultPlan::default();
        for spec in [
            "kill:w1@e2",
            "kill:w1@e5",
            "hang:w1@e2",
            "straggle:w1:30",
            "straggle:w2:10",
            "partition:w0-w1@e0-e9",
            "partition:w0->w2@e0-e9",
            "flap:w1-w2:40ms:0.5",
        ] {
            plan.push_spec(spec).unwrap();
        }
        plan.retire_member(1, 2);
        let left: Vec<String> = plan.faults.iter().map(Fault::to_string).collect();
        assert_eq!(left, ["kill:w1@e5", "straggle:w2:10ms", "partition:w0->w2@e0-e9"]);
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
    fn specs_round_trip_through_display() {
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
            Fault::Partition { link: link(1, 2), window: Window { from: 2, heal: 4 } },
            Fault::Partition { link: one_way(0, 3), window: Window { from: 1, heal: 5 } },
            Fault::Flap { link: link(0, 1), period_ms: 40, duty: 0.6 },
            Fault::DiskFull { window: Window { from: 2, heal: 6 } },
            Fault::SlowDisk { factor: 2.5 },
            Fault::MemPressure { cap_bytes: 1 << 20, window: Window { from: 1, heal: 4 } },
            Fault::Hang { worker: 1, epoch: 3 },
        ];
        for f in faults {
            let spec = f.to_string();
            assert_eq!(parse_fault(&spec).unwrap(), f, "round-trip of {spec:?}");
        }
    }

    #[test]
    fn parses_partition_and_flap_specs() {
        assert_eq!(
            parse_fault("partition:w1-w2@e2-e4").unwrap(),
            Fault::Partition { link: link(1, 2), window: Window { from: 2, heal: 4 } }
        );
        assert_eq!(
            parse_fault("partition:w0->w2@e1-e3").unwrap(),
            Fault::Partition { link: one_way(0, 2), window: Window { from: 1, heal: 3 } }
        );
        assert_eq!(
            parse_fault("flap:w0-w1:40ms:0.5").unwrap(),
            Fault::Flap { link: link(0, 1), period_ms: 40, duty: 0.5 }
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
            .with_fault(Fault::Partition { link: link(1, 2), window: Window { from: 2, heal: 4 } });
        let kind = MessageKind::Control(1.0);
        for epoch in [2, 3] {
            assert!(plan.send_fate(epoch, 1, 2, &kind, 1, 0).severed);
            assert!(plan.send_fate(epoch, 2, 1, &kind, 1, 0).severed);
            assert!(plan.link_severed(epoch, 1, 2, 0));
        }
        // Outside the window and off the link: untouched.
        for epoch in [0, 1, 4, 5] {
            assert!(!plan.send_fate(epoch, 1, 2, &kind, 1, 0).severed);
            assert!(!plan.link_severed(epoch, 1, 2, 0));
        }
        assert!(!plan.send_fate(3, 0, 2, &kind, 1, 0).severed);
    }

    #[test]
    fn asym_partition_severs_one_direction_only() {
        let plan = FaultPlan::default().with_fault(Fault::Partition {
            link: one_way(0, 2),
            window: Window { from: 1, heal: 3 },
        });
        let kind = MessageKind::Control(1.0);
        assert!(plan.send_fate(1, 0, 2, &kind, 1, 0).severed);
        assert!(!plan.send_fate(1, 2, 0, &kind, 1, 0).severed, "reverse flows");
        assert!(plan.link_severed(2, 0, 2, 0));
        assert!(!plan.link_severed(2, 2, 0, 0));
    }

    #[test]
    fn flap_holds_messages_until_the_next_up_window() {
        let plan = FaultPlan::default()
            .with_fault(Fault::Flap { link: link(0, 1), period_ms: 40, duty: 0.5 });
        let kind = MessageKind::Control(1.0);
        // Down for the first 20ms of every 40ms window: a send at 5ms is
        // held 15ms, a send at 25ms goes straight through.
        let down = plan.send_fate(0, 0, 1, &kind, 1, 5);
        assert!(!down.severed, "flapped messages are delayed, never lost");
        assert_eq!(down.delay_ms, 15);
        let up = plan.send_fate(0, 1, 0, &kind, 1, 25);
        assert_eq!(up.delay_ms, 0);
        // The next period flaps again.
        assert_eq!(plan.send_fate(0, 0, 1, &kind, 1, 41).delay_ms, 19);
        assert!(plan.link_severed(0, 0, 1, 5));
        assert!(!plan.link_severed(0, 0, 1, 25));
        // Off the link: untouched at any time.
        assert_eq!(plan.send_fate(0, 0, 2, &kind, 1, 5).delay_ms, 0);
    }

    #[test]
    fn retire_links_cures_only_the_departed_worker() {
        let all = Window { from: 0, heal: 9 };
        let mut plan = FaultPlan::default()
            .with_fault(Fault::Partition { link: link(0, 1), window: all })
            .with_fault(Fault::Flap { link: link(1, 2), period_ms: 40, duty: 0.5 })
            .with_fault(Fault::Partition { link: one_way(0, 2), window: all })
            .with_fault(Fault::Straggle { worker: 0, delay_ms: 5 });
        plan.retire_member(1, 0);
        assert_eq!(plan.faults.len(), 2, "both links touching w1 retire");
        assert!(plan.link_severed(1, 0, 2, 0), "w0-w2 link fault survives");
        assert_eq!(
            plan.send_fate(0, 0, 1, &CTL, 1, 0).delay_ms,
            5,
            "non-link faults are untouched"
        );
        plan.retire_member(2, 0);
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
            let a = plan.send_fate(0, 0, 1, &kind, seq, 0);
            assert_eq!(a, plan.send_fate(0, 0, 1, &kind, seq, 0));
            assert_eq!(a.delay_ms, 0, "typed corrupt does not delay the logical send");
            if a.corrupt {
                hits += 1;
            }
        }
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.3).abs() < 0.05, "corrupt rate {rate}");
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
            Fault::DiskFull { window: Window { from: 2, heal: 4 } }
        );
        assert_eq!(parse_fault("slowdisk:3").unwrap(), Fault::SlowDisk { factor: 3.0 });
        assert_eq!(
            parse_fault("mempressure:1048576@e1-e5").unwrap(),
            Fault::MemPressure { cap_bytes: 1 << 20, window: Window { from: 1, heal: 5 } }
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
            .with_fault(Fault::DiskFull { window: Window { from: 0, heal: 9 } })
            .with_fault(Fault::SlowDisk { factor: 4.0 })
            .with_fault(Fault::MemPressure { cap_bytes: 4096, window: Window { from: 0, heal: 9 } })
            .with_fault(Fault::Hang { worker: 1, epoch: 3 });
        let kind = MessageKind::Control(1.0);
        for epoch in 0..6 {
            assert_eq!(plan.send_fate(epoch, 0, 1, &kind, 1, 0), SendFate::default());
        }
    }

    #[test]
    fn disk_and_mem_windows_scope_by_epoch() {
        let plan = FaultPlan::default()
            .with_fault(parse_fault("diskfull:e2-e4").unwrap())
            .with_fault(parse_fault("mempressure:8192@e1-e3").unwrap())
            .with_fault(parse_fault("mempressure:4096@e2-e5").unwrap());
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
        plan.retire_member(1, 2);
        assert_eq!(plan.hang_epoch(1), Some(5));
        plan.retire_member(1, 5);
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
