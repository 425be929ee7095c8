//! The correctness check: every read is compared byte-for-byte (through a
//! 64-bit content hash plus length) against an independent reference
//! origin at the data generation it must have seen.
//!
//! A read is *verified* only if no write was in flight at any point
//! between its send and its receive; it must then equal the reference
//! rendering after exactly the writes completed before it was sent. A
//! read that overlapped a write may legitimately carry fragments of both
//! generations, so it is counted as *unverified* and never judged. A
//! verified read that differs is a *stale read*: an error, counted and
//! reported, never a crash.

use bytes::Bytes;
use dpc_appserver::apps::{self, paper_site};
use dpc_appserver::ScriptEngine;
use dpc_core::{Bem, BemConfig};
use dpc_http::Request;
use dpc_repository::datasets::seed_all;
use dpc_repository::Repository;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::deploy::{apply_write, dataset, paper_params};
use crate::ops::{user_name, Op, Plan, Workload};

/// Streaming content hash, independent of how the body is segmented.
#[derive(Debug, Clone)]
pub struct BodyHash {
    h: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

const MIX: u64 = 0x517C_C1B7_2722_0A95;

impl Default for BodyHash {
    fn default() -> Self {
        BodyHash {
            h: 0x243F_6A88_85A3_08D3,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }
}

impl BodyHash {
    fn word(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(MIX);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn finish(mut self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        self.word(u64::from_le_bytes(last));
        self.word(self.len);
        self.h ^ (self.h >> 32)
    }
}

/// Content identity of a response body: hash and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    pub hash: u64,
    pub len: u32,
}

impl Digest {
    pub fn of_segments(segments: &[Bytes]) -> Digest {
        let mut h = BodyHash::default();
        let mut len = 0usize;
        for s in segments {
            h.update(s);
            len += s.len();
        }
        Digest {
            hash: h.finish(),
            len: len as u32,
        }
    }
}

/// Which tier answered, from the proxy's `X-Cache` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    L1,
    L2,
    Assembled,
    Bypass,
    Other,
}

impl ServedBy {
    pub fn from_header(x_cache: Option<&str>) -> ServedBy {
        match x_cache {
            Some("dpc-l1") => ServedBy::L1,
            Some("dpc-l2") => ServedBy::L2,
            Some("dpc-assembled") => ServedBy::Assembled,
            Some("dpc-bypass") => ServedBy::Bypass,
            _ => ServedBy::Other,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            ServedBy::L1 => "dpc-l1",
            ServedBy::L2 => "dpc-l2",
            ServedBy::Assembled => "dpc-assembled",
            ServedBy::Bypass => "dpc-bypass",
            ServedBy::Other => "other",
        }
    }
}

/// What the client saw for one read.
#[derive(Debug, Clone, Copy)]
pub struct ReadRecord {
    /// Index of the op in the plan.
    pub op: u32,
    /// `None` when the read failed: transport error or non-200 status.
    pub body: Option<Digest>,
    pub served_by: ServedBy,
    /// [`Generations`] value read just before sending and just after the
    /// response arrived.
    pub gen_sent: u32,
    pub gen_received: u32,
    /// From the send (closed loop) or from the intended send time (open
    /// loop) to the full response. Failed reads count as `u64::MAX`, so
    /// they miss every latency limit.
    pub latency_ns: u64,
}

/// Seqlock-style write generation shared by the load threads: even while
/// no write is in flight (`2 × writes completed`), odd during one. Writes
/// run strictly in op order: the thread holding write `w` waits until
/// write `w - 1` has completed.
#[derive(Debug, Default)]
pub struct Generations(AtomicU32);

/// A write that waits this long for its predecessor means a load thread
/// died; fail loudly rather than hang.
const WRITE_ORDER_TIMEOUT: Duration = Duration::from_secs(30);

impl Generations {
    pub fn read(&self) -> u32 {
        self.0.load(Ordering::SeqCst)
    }

    /// Run write number `ordinal` (0-based over the whole plan) once every
    /// earlier write has completed, marking it in flight while it runs.
    pub fn write<T>(&self, ordinal: u32, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        while self.0.load(Ordering::SeqCst) != 2 * ordinal {
            assert!(
                started.elapsed() < WRITE_ORDER_TIMEOUT,
                "write {ordinal} never saw its predecessor complete"
            );
            std::thread::yield_now();
        }
        self.0.store(2 * ordinal + 1, Ordering::SeqCst);
        let out = f();
        self.0.store(2 * ordinal + 2, Ordering::SeqCst);
        out
    }
}

/// An independent origin: its own repository and script engine with the
/// BEM switched off, so it renders plain pages from public constructors
/// and shares no state with the system under test.
pub struct Reference {
    engine: ScriptEngine,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let repo = Repository::with_defaults();
        seed_all(&repo, &dataset());
        let bem = Arc::new(Bem::new(BemConfig::default().with_enabled(false)));
        let mut engine = ScriptEngine::new(bem, repo);
        paper_site::install(&mut engine, paper_params());
        apps::install_demo_sites(&mut engine);
        Reference { engine }
    }

    pub fn apply(&self, write: crate::ops::Write) {
        apply_write(self.engine.repo(), write);
    }

    pub fn render(&self, workload: &Workload, target: u32, user: Option<u32>) -> Digest {
        let req = request(workload, target, user);
        let resp = self.engine.serve(&req);
        Digest::of_segments(resp.body.segments())
    }
}

/// The GET a read op sends.
pub fn request(workload: &Workload, target: u32, user: Option<u32>) -> Request {
    let mut req = Request::get(workload.target(target));
    if let Some(u) = user {
        req.headers
            .set("Cookie", format!("session={}", user_name(u)));
    }
    req
}

/// Findings of one check.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub reads: u64,
    pub failed: u64,
    pub unverified: u64,
    pub verified: u64,
    pub stale: u64,
    /// Stale reads whose body equals the reference page of an earlier
    /// generation: old data served after its invalidation completed. The
    /// rest match no rendering the check saw (a wrongly spliced page).
    pub stale_earlier: u64,
    /// Positions of the stale reads in the checked slice.
    pub stale_records: Vec<usize>,
    /// Stale reads by the label of the tier that served them.
    pub stale_by_tier: HashMap<&'static str, u64>,
    /// A few stale reads, described for the log.
    pub examples: Vec<String>,
}

impl Report {
    pub fn unverified_share(&self) -> f64 {
        self.unverified as f64 / self.reads.max(1) as f64
    }
}

const MAX_EXAMPLES: usize = 5;

/// Check `records` against a fresh reference that replays `plan.writes`
/// in op order. Records may arrive in any order.
pub fn verify(plan: &Plan, records: &[ReadRecord]) -> Report {
    let reference = Reference::new();
    let mut report = Report {
        reads: records.len() as u64,
        ..Report::default()
    };
    let mut judged: Vec<(u32, usize, Digest)> = Vec::with_capacity(records.len());
    for (at, r) in records.iter().enumerate() {
        match r.body {
            None => report.failed += 1,
            Some(_) if r.gen_sent != r.gen_received || r.gen_sent % 2 == 1 => {
                report.unverified += 1
            }
            Some(d) => judged.push((r.gen_sent / 2, at, d)),
        }
    }
    judged.sort_by_key(|&(g, at, _)| (g, records[at].op));
    let mut applied = 0u32;
    let mut rendered: HashMap<(u32, Option<u32>), Digest> = HashMap::new();
    // The latest rendering of each read from a generation before the
    // current one.
    let mut earlier: HashMap<(u32, Option<u32>), Digest> = HashMap::new();
    for (generation, at, seen) in judged {
        let r = &records[at];
        while applied < generation {
            reference.apply(plan.writes[applied as usize]);
            applied += 1;
            earlier.extend(rendered.drain());
        }
        let Op::Read { target, user } = plan.ops[r.op as usize] else {
            panic!("record {} points at a write op", r.op);
        };
        let expected = *rendered
            .entry((target, user))
            .or_insert_with(|| reference.render(plan.workload, target, user));
        report.verified += 1;
        if seen != expected {
            report.stale += 1;
            report.stale_records.push(at);
            let old = earlier.get(&(target, user)) == Some(&seen);
            report.stale_earlier += u64::from(old);
            *report.stale_by_tier.entry(r.served_by.label()).or_default() += 1;
            if report.examples.len() < MAX_EXAMPLES {
                report.examples.push(format!(
                    "op {} {} user={:?} generation {} served by {}: {} bytes, expected {}{}",
                    r.op,
                    plan.workload.target(target),
                    user,
                    generation,
                    r.served_by.label(),
                    seen.len,
                    expected.len,
                    if old {
                        " (an earlier generation's page)"
                    } else {
                        ""
                    }
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Workload;

    fn digest(bytes: &[u8]) -> Digest {
        Digest::of_segments(&[Bytes::copy_from_slice(bytes)])
    }

    #[test]
    fn hash_ignores_segmentation_and_sees_every_byte() {
        let page: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = digest(&page);
        for cut in [1, 3, 8, 9, 500, 999] {
            let segs = [
                Bytes::copy_from_slice(&page[..cut]),
                Bytes::new(),
                Bytes::copy_from_slice(&page[cut..]),
            ];
            assert_eq!(Digest::of_segments(&segs), whole, "cut at {cut}");
        }
        for i in [0, 7, 8, 998, 999] {
            let mut other = page.clone();
            other[i] ^= 1;
            assert_ne!(digest(&other), whole, "flip at {i}");
        }
        assert_ne!(digest(&page[..999]), whole);
    }

    /// Two reads of one quote page: one before a tick, one after it.
    fn tick_plan() -> Plan {
        let w = Workload::by_name("quote_churn").unwrap();
        let mut plan = Plan::with_counts(w, 11, 0, 0, 0);
        let write = crate::ops::Write::Tick {
            symbol: 3,
            seed: 99,
        };
        plan.ops = vec![
            Op::Read {
                target: 3,
                user: Some(1),
            },
            Op::Write { ordinal: 0, write },
            Op::Read {
                target: 3,
                user: Some(1),
            },
            Op::Read {
                target: 3,
                user: None,
            },
        ];
        plan.writes = vec![write];
        plan
    }

    fn record(op: u32, body: Option<Digest>, gen_sent: u32, gen_received: u32) -> ReadRecord {
        ReadRecord {
            op,
            body,
            served_by: ServedBy::Assembled,
            gen_sent,
            gen_received,
            latency_ns: 1,
        }
    }

    #[test]
    fn flags_a_body_from_the_previous_generation() {
        let plan = &tick_plan();
        let w = plan.workload;
        let reference = Reference::new();
        let before = reference.render(w, 3, Some(1));
        reference.apply(plan.writes[0]);
        let after = reference.render(w, 3, Some(1));
        assert_ne!(before, after, "the tick must change the page");

        let good = [record(0, Some(before), 0, 0), record(2, Some(after), 2, 2)];
        let report = verify(plan, &good);
        assert_eq!((report.verified, report.stale), (2, 0), "{report:?}");

        // Sent after the write completed, yet carrying the old price.
        let stale = [record(0, Some(before), 0, 0), record(2, Some(before), 2, 2)];
        let report = verify(plan, &stale);
        assert_eq!(report.stale, 1, "{report:?}");
        assert_eq!(report.stale_earlier, 1, "{report:?}");
        assert_eq!(report.stale_by_tier.get("dpc-assembled"), Some(&1));
        assert_eq!(report.examples.len(), 1);
    }

    #[test]
    fn counts_a_missing_response_as_failed_not_verified() {
        let plan = &tick_plan();
        let report = verify(plan, &[record(3, None, 2, 2)]);
        assert_eq!((report.failed, report.verified, report.stale), (1, 0, 0));
    }

    #[test]
    fn never_judges_a_read_that_overlapped_a_write() {
        let plan = &tick_plan();
        let junk = Some(Digest { hash: 1, len: 1 });
        // Sent while the write ran, or sent before and received after.
        let report = verify(plan, &[record(2, junk, 1, 1), record(2, junk, 0, 2)]);
        assert_eq!(
            (report.unverified, report.verified, report.stale),
            (2, 0, 0)
        );
    }

    #[test]
    fn writes_run_in_ordinal_order_across_threads() {
        let gens = Generations::default();
        let log = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for ordinal in (0..8u32).rev() {
                let (gens, log) = (&gens, &log);
                s.spawn(move || gens.write(ordinal, || log.lock().unwrap().push(ordinal)));
            }
        });
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>());
        assert_eq!(gens.read(), 16);
    }
}
