//! Workloads and their seeded, fixed op sequences.
//!
//! A workload is a traffic mix over one shared deployment. Its op
//! sequence is a pure function of `(workload, seed, seconds)`: reads drawn
//! from Zipf distributions over pages and users, writes at fixed positions
//! (every `write_every`-th op). The op *count* is fixed, never the
//! duration, so two runs of one seed leave the caches in the same state
//! no matter how fast the system under test is.

use std::ops::Range;

/// SplitMix64: a small, seedable generator owned by the benchmark, so the
/// inputs do not change when the repository's RNG stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponentially distributed gap with mean `1 / rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(α) over ranks `0..n` (rank 0 hottest), by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One origin data update, replayable on any repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// `paper_site::invalidate_fragment(page, slot)`.
    Fragment { page: u32, slot: u32 },
    /// `datasets::tick_quote(SYM<symbol>)` with an RNG seeded by `seed`,
    /// so the live system and the reference draw the same price move.
    Tick { symbol: u32, seed: u64 },
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// GET `targets[target]`, as `user<user>` or anonymously.
    Read { target: u32, user: Option<u32> },
    /// A data update; `ordinal` is its position among all writes.
    Write { ordinal: u32, write: Write },
}

/// Which update a workload interleaves with its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    None,
    Fragment,
    Tick,
}

/// A traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Script path; the target is `{path}{prefix}{rank}`.
    pub path: &'static str,
    pub param_prefix: &'static str,
    pub targets: usize,
    pub target_alpha: f64,
    /// Share of reads sent with a registered session cookie.
    pub registered_share: f64,
    pub user_alpha: f64,
    pub write_kind: WriteKind,
    /// One write per this many ops (ignored for `WriteKind::None`).
    pub write_every: usize,
    /// Closed-loop ops per requested second of measurement. Fixed, so the
    /// op count never depends on the speed of the build under test.
    pub closed_ops_per_s: f64,
    /// Offered rate of the open-loop phase: a quarter to a fifth of the
    /// throughput the closed loop measured when the benchmark was defined,
    /// low enough that a host stall does not leave a standing queue.
    pub open_rate: f64,
    /// Untimed ops that bring the caches to steady state.
    pub warmup_ops: usize,
}

/// Users in the shared deployment (`DatasetConfig::users`).
pub const USERS: usize = 5000;
/// Paper-site pages in the shared deployment (`PaperSiteParams::pages`).
pub const PAPER_PAGES: usize = 200;
/// Fragments per paper page (Table 2).
pub const PAPER_SLOTS: usize = 4;
/// Catalog categories and ticker symbols (dataset defaults).
pub const CATEGORIES: usize = 10;
pub const SYMBOLS: usize = 20;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "page_hot",
        path: "/paper/page.jsp",
        param_prefix: "?p=",
        targets: PAPER_PAGES,
        target_alpha: 1.0,
        registered_share: 0.0,
        user_alpha: 1.0,
        write_kind: WriteKind::Fragment,
        write_every: 8000,
        closed_ops_per_s: 45_000.0,
        open_rate: 12_000.0,
        warmup_ops: 20_000,
    },
    Workload {
        name: "personal_mix",
        path: "/catalog.jsp",
        param_prefix: "?categoryID=cat",
        targets: CATEGORIES,
        target_alpha: 1.0,
        registered_share: 0.9,
        user_alpha: 0.6,
        write_kind: WriteKind::None,
        write_every: 0,
        closed_ops_per_s: 15_000.0,
        open_rate: 3_500.0,
        warmup_ops: 10_000,
    },
    Workload {
        name: "quote_churn",
        path: "/quote.jsp",
        param_prefix: "?symbol=SYM",
        targets: SYMBOLS,
        target_alpha: 1.0,
        registered_share: 0.5,
        user_alpha: 0.8,
        write_kind: WriteKind::Tick,
        write_every: 50,
        closed_ops_per_s: 15_000.0,
        open_rate: 3_000.0,
        warmup_ops: 10_000,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn target(&self, rank: u32) -> String {
        format!("{}{}{}", self.path, self.param_prefix, rank)
    }
}

/// The session user for a read, as the cookie value the testbed expects.
pub fn user_name(user: u32) -> String {
    format!("user{user}")
}

/// A generated op sequence: warm-up, then the closed-loop phase, then the
/// open-loop phase, as consecutive ranges of one stream.
pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    pub ops: Vec<Op>,
    pub warmup: Range<usize>,
    pub closed: Range<usize>,
    pub open: Range<usize>,
    /// Every write in op order (`writes[w]` has ordinal `w`).
    pub writes: Vec<Write>,
}

/// Share of the requested seconds spent in each of the two timed phases.
const PHASE_SHARE: f64 = 0.5;

impl Plan {
    /// The plan for one pass through both timed phases lasting about
    /// `seconds` at the workload's nominal rates.
    pub fn generate(workload: &'static Workload, seed: u64, seconds: f64) -> Plan {
        let closed_ops = (workload.closed_ops_per_s * seconds * PHASE_SHARE).round() as usize;
        let open_ops = (workload.open_rate * seconds * PHASE_SHARE).round() as usize;
        Plan::with_counts(workload, seed, workload.warmup_ops, closed_ops, open_ops)
    }

    pub fn with_counts(
        workload: &'static Workload,
        seed: u64,
        warmup_ops: usize,
        closed_ops: usize,
        open_ops: usize,
    ) -> Plan {
        let total = warmup_ops + closed_ops + open_ops;
        let mut rng = SplitMix::new(seed ^ 0x5EED_F0B5);
        let targets = Zipf::new(workload.targets, workload.target_alpha);
        let users = Zipf::new(USERS, workload.user_alpha);
        let mut ops = Vec::with_capacity(total);
        let mut writes = Vec::new();
        for i in 0..total {
            let is_write =
                workload.write_kind != WriteKind::None && (i + 1) % workload.write_every == 0;
            if is_write {
                let write = match workload.write_kind {
                    WriteKind::Fragment => Write::Fragment {
                        page: targets.sample(&mut rng) as u32,
                        slot: rng.below(PAPER_SLOTS) as u32,
                    },
                    WriteKind::Tick => Write::Tick {
                        symbol: targets.sample(&mut rng) as u32,
                        seed: rng.next_u64(),
                    },
                    WriteKind::None => unreachable!("guarded above"),
                };
                ops.push(Op::Write {
                    ordinal: writes.len() as u32,
                    write,
                });
                writes.push(write);
            } else {
                let target = targets.sample(&mut rng) as u32;
                let user =
                    (rng.unit() < workload.registered_share).then(|| users.sample(&mut rng) as u32);
                ops.push(Op::Read { target, user });
            }
        }
        Plan {
            workload,
            seed,
            ops,
            warmup: 0..warmup_ops,
            closed: warmup_ops..warmup_ops + closed_ops,
            open: warmup_ops + closed_ops..total,
            writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let w = Workload::by_name("quote_churn").unwrap();
        let a = Plan::with_counts(w, 7, 100, 200, 300);
        let b = Plan::with_counts(w, 7, 100, 200, 300);
        let c = Plan::with_counts(w, 8, 100, 200, 300);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
        assert_eq!(a.writes.len(), 600 / 50);
    }

    #[test]
    fn writes_sit_at_fixed_positions_in_op_order() {
        let w = Workload::by_name("page_hot").unwrap();
        let plan = Plan::with_counts(w, 1, 8000, 8000, 8000);
        let positions: Vec<usize> = plan
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| matches!(op, Op::Write { .. }).then_some(i))
            .collect();
        assert_eq!(positions, vec![7999, 15999, 23999]);
        let ordinals: Vec<u32> = positions
            .iter()
            .map(|&i| match plan.ops[i] {
                Op::Write { ordinal, write } => {
                    assert_eq!(plan.writes[ordinal as usize], write);
                    ordinal
                }
                Op::Read { .. } => unreachable!("filtered to writes"),
            })
            .collect();
        assert_eq!(ordinals, vec![0, 1, 2]);
    }

    #[test]
    fn zipf_puts_rank_zero_first() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix::new(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[99] > 0);
    }
}
