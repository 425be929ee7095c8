//! Load generation: a closed loop of waiting clients and an open loop of
//! Poisson senders, both pulling ops from one shared cursor so the op
//! order (and with it every write's position) is the plan's.

use dpc_http::Client;
use dpc_proxy::testbed::PROXY_ADDR;
use dpc_proxy::Testbed;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check::{request, Digest, Generations, ReadRecord, ServedBy};
use crate::deploy::apply_write;
use crate::ops::{Op, Plan, SplitMix};
use crate::stats::process_cpu_seconds;

/// Progress of a phase, read every [`SAMPLE_EVERY`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    /// Ops completed so far in the phase.
    pub ops: u64,
    /// Process CPU time so far, in seconds.
    pub cpu_s: f64,
}

pub const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub records: Vec<ReadRecord>,
    /// Open loop only: how late each send left against its schedule.
    pub lags_ns: Vec<u64>,
    /// Wall time of each write call on the live testbed.
    pub write_ns: Vec<u64>,
    pub samples: Vec<Sample>,
}

impl PhaseResult {
    fn merge(&mut self, other: PhaseResult) {
        self.records.extend(other.records);
        self.lags_ns.extend(other.lags_ns);
        self.write_ns.extend(other.write_ns);
    }

    pub fn reads(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.body.is_none()).count() as u64
    }
}

/// Shared state of one phase.
struct Phase<'a> {
    tb: &'a Testbed,
    plan: &'a Plan,
    gens: &'a Generations,
    cursor: AtomicUsize,
    end: usize,
    done: AtomicU64,
}

impl<'a> Phase<'a> {
    fn new(tb: &'a Testbed, plan: &'a Plan, ops: Range<usize>, gens: &'a Generations) -> Self {
        Phase {
            tb,
            plan,
            gens,
            cursor: AtomicUsize::new(ops.start),
            end: ops.end,
            done: AtomicU64::new(0),
        }
    }

    fn next_op(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::SeqCst);
        (i < self.end).then_some(i)
    }

    /// Run op `i` on `client`. `due` is the open loop's intended send
    /// time; latency is measured from it when given.
    fn execute(&self, client: &Client, i: usize, due: Option<Instant>, out: &mut PhaseResult) {
        match self.plan.ops[i] {
            Op::Read { target, user } => {
                let req = request(self.plan.workload, target, user);
                let gen_sent = self.gens.read();
                let sent = Instant::now();
                let resp = client.request(PROXY_ADDR, req);
                let received = Instant::now();
                let gen_received = self.gens.read();
                let (body, served_by) = match &resp {
                    Ok(r) if r.status.0 == 200 => (
                        Some(Digest::of_segments(r.body.segments())),
                        ServedBy::from_header(r.headers.get("x-cache")),
                    ),
                    _ => (None, ServedBy::Other),
                };
                let latency_ns = match body {
                    Some(_) => (received - due.unwrap_or(sent)).as_nanos() as u64,
                    None => u64::MAX,
                };
                out.records.push(ReadRecord {
                    op: i as u32,
                    body,
                    served_by,
                    gen_sent,
                    gen_received,
                    latency_ns,
                });
            }
            Op::Write { ordinal, write } => {
                let repo = self.tb.engine().repo();
                let took = self.gens.write(ordinal, || {
                    let start = Instant::now();
                    apply_write(repo, write);
                    start.elapsed()
                });
                out.write_ns.push(took.as_nanos() as u64);
            }
        }
        self.done.fetch_add(1, Ordering::SeqCst);
    }
}

/// One client connection per load thread, on the testbed's network.
fn client(tb: &Testbed) -> Client {
    Client::new(Arc::new(tb.net().connector()))
}

/// `clients` threads, each sending its next op as soon as the previous
/// response arrived.
pub fn closed_loop(
    tb: &Testbed,
    plan: &Plan,
    ops: Range<usize>,
    clients: usize,
    gens: &Generations,
) -> PhaseResult {
    let phase = Phase::new(tb, plan, ops, gens);
    run_threads(&phase, clients, |_| {
        let client = client(tb);
        let mut out = PhaseResult::default();
        while let Some(i) = phase.next_op() {
            phase.execute(&client, i, None, &mut out);
        }
        out
    })
}

/// `senders` threads, each sending on its own seeded Poisson schedule at
/// `rate / senders` ops per second, whether or not earlier responses have
/// arrived on other threads. A sender that falls behind sends late, and
/// the lateness counts in every latency after it.
pub fn open_loop(
    tb: &Testbed,
    plan: &Plan,
    ops: Range<usize>,
    senders: usize,
    rate: f64,
    gens: &Generations,
) -> PhaseResult {
    let phase = Phase::new(tb, plan, ops, gens);
    // A common epoch a little ahead, so every sender's schedule starts
    // together after its connection is up.
    let epoch = Instant::now() + Duration::from_millis(5);
    let per_sender = rate / senders as f64;
    run_threads(&phase, senders, |s| {
        let client = client(tb);
        let mut rng = SplitMix::new(plan.seed ^ 0x0BE7_10AD ^ (s as u64) << 32);
        let mut offset = 0.0f64;
        let mut out = PhaseResult::default();
        loop {
            offset += rng.exp(per_sender);
            let due = epoch + Duration::from_secs_f64(offset);
            wait_until(due);
            let Some(i) = phase.next_op() else { break };
            out.lags_ns
                .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            phase.execute(&client, i, Some(due), &mut out);
        }
        out
    })
}

/// Run `body` on `n` load threads while this thread samples the phase's
/// progress and the process CPU time.
fn run_threads<F>(phase: &Phase<'_>, n: usize, body: F) -> PhaseResult
where
    F: Fn(usize) -> PhaseResult + Sync,
{
    const POLL: Duration = Duration::from_millis(2);
    let mut merged = PhaseResult::default();
    let start = Instant::now();
    let sample = || Sample {
        at_s: start.elapsed().as_secs_f64(),
        ops: phase.done.load(Ordering::SeqCst),
        cpu_s: process_cpu_seconds(),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let body = &body;
                s.spawn(move || body(t))
            })
            .collect();
        merged.samples.push(sample());
        let mut next = SAMPLE_EVERY;
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(POLL);
            if start.elapsed() >= next {
                merged.samples.push(sample());
                next += SAMPLE_EVERY;
            }
        }
        for h in handles {
            merged.merge(h.join().expect("load thread panicked"));
        }
    });
    merged
}

/// Sleep while the deadline is far, then yield until it passes: a plain
/// sleep overshoots by tens of µs, which would read as latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}
