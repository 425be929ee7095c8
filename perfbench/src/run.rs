//! One benchmark run: several independent replicates of set-up and both
//! load phases, one check over all their reads, then the report.

use std::time::Instant;

use crate::check::{verify, Generations, ReadRecord, Report};
use crate::deploy::build_testbed;
use crate::drive::{closed_loop, open_loop, PhaseResult, Sample, SAMPLE_EVERY};
use crate::live::Live;
use crate::ops::{Op, Plan};
use crate::replay::{replay, Layer, ReplayResult};
use crate::stats::{mean, median_f64, peak_rss_mb, quantile};

pub struct Options {
    pub plan: Plan,
    pub trace: bool,
    /// Load threads in both phases (each on its own connection).
    pub clients: usize,
}

/// Independent testbeds per run. Each is built, warmed up and driven
/// through the same plan; a timing or traffic metric is the median over
/// them, so one testbed that drifts into a rare state (or meets a host
/// stall) does not move the run's figure. Failures are summed, never
/// medianed.
pub const REPLICATES: usize = 7;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    /// Every timed read op of every replicate left exactly one record,
    /// and at least half of the reads were verified. Stale and failed reads do not
    /// clear it: they are counted in `success_rate`.
    pub correct: bool,
    pub attempted: u64,
    /// Reads that got no page: a transport error or a non-200 status. A
    /// stale read got a page, a wrong one; it is counted in
    /// `success_rate` and `check.stale_reads`, not here, because which
    /// reads race a write into a stale splice varies from run to run.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub check: Report,
    pub replay: Option<ReplayResult>,
    /// One line per replicate, for the log.
    pub notes: Vec<String>,
}

/// One testbed's set-up and load phases.
struct Replicate {
    setup_s: f64,
    closed: PhaseResult,
    open: PhaseResult,
    live: Live,
}

fn replicate(plan: &Plan, clients: usize) -> Replicate {
    let start = Instant::now();
    let tb = build_testbed();
    let gens = Generations::default();
    closed_loop(&tb, plan, plan.warmup.clone(), clients, &gens);
    let setup_s = start.elapsed().as_secs_f64();
    let before = Live::take(&tb);
    let closed = closed_loop(&tb, plan, plan.closed.clone(), clients, &gens);
    let open = open_loop(
        &tb,
        plan,
        plan.open.clone(),
        clients,
        plan.workload.open_rate,
        &gens,
    );
    let live = Live::take(&tb).since(&before);
    Replicate {
        setup_s,
        closed,
        open,
        live,
    }
}

pub fn run(opts: &Options) -> Outcome {
    let plan = &opts.plan;
    let reps: Vec<Replicate> = (0..REPLICATES)
        .map(|_| replicate(plan, opts.clients))
        .collect();
    let rss_mb = peak_rss_mb();
    let notes = reps
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let reads = r.closed.reads() + r.open.reads();
            format!(
                "replicate {i}: set-up {:.3} s, {reads} reads, {:.1} origin B/read, {} bypass refetches",
                r.setup_s,
                mean(r.live.origin_wire.wire_bytes as f64, reads),
                r.live.bypass_refetches
            )
        })
        .collect();

    // One check over every replicate's reads: they share the plan, so one
    // reference replay of its writes serves them all.
    let mut records: Vec<ReadRecord> = Vec::new();
    let mut closed_spans = Vec::new();
    for r in &reps {
        let start = records.len();
        records.extend_from_slice(&r.closed.records);
        closed_spans.push(start..records.len());
        records.extend_from_slice(&r.open.records);
    }
    let check = verify(plan, &records);

    let reads = records.len() as u64;
    let failed = check.failed;
    let correct = correct(plan, &records, &check);

    let replay = opts
        .trace
        .then(|| replay(plan, plan.warmup.clone(), plan.closed.clone()));
    let metrics = match &replay {
        Some(replay) => per_layer(&reps, &check, replay),
        None => {
            let med = |f: &dyn Fn(usize, &Replicate) -> f64| {
                let values: Vec<f64> = reps.iter().enumerate().map(|(i, r)| f(i, r)).collect();
                median_f64(&values)
            };
            let throughput = |i: usize, r: &Replicate| {
                let stale = check
                    .stale_records
                    .iter()
                    .filter(|at| closed_spans[i].contains(at))
                    .count() as u64;
                let good = r.closed.reads() - r.closed.failed() - stale;
                let (ops_per_s, _) = closed_windows(&r.closed.samples);
                median_f64(&ops_per_s) * mean(good as f64, plan.closed.len() as u64)
            };
            let latency = |q: f64, r: &Replicate| {
                let windows = r.closed.samples.len().saturating_sub(1).max(1);
                let per_window = r.closed.records.len() / windows;
                median_f64(&latency_windows(&r.closed.records, per_window, q)) / 1e3
            };
            let per_read =
                |v: u64, r: &Replicate| mean(v as f64, r.closed.reads() + r.open.reads());
            vec![
                metric("setup_s", med(&|_, r| r.setup_s), "s"),
                metric("throughput_rps", med(&throughput), "1/s"),
                metric("latency_p50_us", med(&|_, r| latency(0.50, r)), "us"),
                metric("latency_p99_us", med(&|_, r| latency(0.99, r)), "us"),
                metric(
                    "success_rate",
                    1.0 - (check.failed + check.stale) as f64 / reads as f64,
                    "ratio",
                ),
                metric(
                    "origin_bytes_per_req",
                    med(&|_, r| per_read(r.live.origin_wire.wire_bytes, r)),
                    "B/req",
                ),
                metric(
                    "origin_reqs_per_req",
                    med(&|_, r| per_read(r.live.origin_requests, r)),
                    "req/req",
                ),
                metric(
                    "cpu_us_per_req",
                    med(&|_, r| median_f64(&closed_windows(&r.closed.samples).1) * 1e6),
                    "us/req",
                ),
                metric("peak_rss_mb", rss_mb, "MiB"),
            ]
        }
    };
    Outcome {
        correct,
        attempted: reads,
        failed,
        metrics,
        check,
        replay,
        notes,
    }
}

/// The check saw every read: each timed read op of the plan has exactly
/// one record per replicate and no record points anywhere else (a
/// dropped, duplicated or misplaced record clears it). And it could
/// verify at least half of them.
fn correct(plan: &Plan, records: &[ReadRecord], check: &Report) -> bool {
    let mut per_op = vec![0usize; plan.ops.len()];
    for r in records {
        match per_op.get_mut(r.op as usize) {
            Some(n) => *n += 1,
            None => return false,
        }
    }
    let every_read_once = per_op.iter().enumerate().all(|(op, &n)| {
        let timed_read = op >= plan.warmup.end && matches!(plan.ops[op], Op::Read { .. });
        n == if timed_read { REPLICATES } else { 0 }
    });
    every_read_once && 2 * check.verified >= check.reads
}

/// Per sampling window of the closed loop: ops per second and CPU
/// seconds per op. A window with a host stall in it is one outlier among
/// many, which the median then ignores.
fn closed_windows(samples: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    samples
        .windows(2)
        .filter_map(|w| {
            let dt = w[1].at_s - w[0].at_s;
            let ops = w[1].ops - w[0].ops;
            (dt >= SAMPLE_EVERY.as_secs_f64() / 2.0 && ops > 0)
                .then(|| (ops as f64 / dt, (w[1].cpu_s - w[0].cpu_s) / ops as f64))
        })
        .unzip()
}

/// Closed-loop latency quantile `q` per window of `per_window`
/// consecutive ops (at least 100, so a p99 has a sample beyond it in
/// every window), about one sampling window's worth each.
fn latency_windows(records: &[ReadRecord], per_window: usize, q: f64) -> Vec<f64> {
    let mut by_op: Vec<(u32, u64)> = records.iter().map(|r| (r.op, r.latency_ns)).collect();
    by_op.sort_unstable();
    let per_window = per_window.max(100);
    by_op
        .chunks(per_window)
        .filter(|c| c.len() * 2 >= per_window)
        .map(|c| {
            let mut l: Vec<u64> = c.iter().map(|&(_, l)| l).collect();
            quantile(&mut l, q) as f64
        })
        .collect()
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer metrics: live counters summed over the replicates, replay
/// timings from the single-threaded traced replay.
fn per_layer(reps: &[Replicate], check: &Report, replay: &ReplayResult) -> Vec<Metric> {
    let live = reps
        .iter()
        .map(|r| r.live)
        .reduce(|a, b| a.plus(&b))
        .expect("at least one replicate");
    let reads: u64 = reps.iter().map(|r| r.closed.reads() + r.open.reads()).sum();
    let per_read = |v: u64| mean(v as f64, reads);
    let ratio = |a: u64, b: u64| mean(a as f64, b);
    let mut write_ns: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.closed.write_ns.iter().chain(&r.open.write_ns))
        .copied()
        .collect();
    let writes = write_ns.len() as u64;
    let mut lags: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.open.lags_ns.iter())
        .copied()
        .collect();
    let mut open_ns: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.open.records.iter().map(|x| x.latency_ns))
        .collect();
    // Closed-loop wall time per read, as one client sees it.
    let (closed_ns, closed_reads) = reps
        .iter()
        .flat_map(|r| &r.closed.records)
        .fold((0.0, 0u64), |(ns, n), r| (ns + r.latency_ns as f64, n + 1));
    let closed_ns_per_read = mean(closed_ns, closed_reads);
    let page = &live.page;
    let dir = &live.dir;
    vec![
        metric("http.parse_ns", replay.mean_ns(Layer::HttpParse), "ns"),
        metric(
            "http.serialize_ns",
            replay.mean_ns(Layer::HttpSerialize),
            "ns",
        ),
        metric("http.parse_errors", live.parse_errors as f64, "count"),
        metric("l1.hit_ratio", per_read(page.l1_hits), "ratio"),
        metric("l1.get_ns", replay.mean_ns(Layer::L1Get), "ns"),
        metric(
            "l1.stale_evictions",
            page.l1_stale_evictions as f64,
            "count",
        ),
        metric(
            "l2.hit_ratio",
            ratio(page.l2_hits, page.l2_hits + page.misses),
            "ratio",
        ),
        metric("l2.get_ns", replay.mean_ns(Layer::L2Get), "ns"),
        metric("l2.put_ns", replay.mean_ns(Layer::L2Put), "ns"),
        metric("l2.evictions", page.evictions as f64, "count"),
        metric("l2.coalesced_waits", page.coalesced_waits as f64, "count"),
        metric(
            "l2.stale_evictions",
            page.l2_stale_evictions as f64,
            "count",
        ),
        metric("front.assembled_share", per_read(live.assembled), "ratio"),
        metric(
            "front.template_bytes_per_req",
            per_read(live.template_bytes),
            "B/req",
        ),
        metric(
            "front.asm_get_bytes_per_req",
            per_read(live.asm_get_bytes),
            "B/req",
        ),
        metric(
            "front.asm_set_bytes_per_req",
            per_read(live.asm_set_bytes),
            "B/req",
        ),
        metric(
            "front.bypass_refetches",
            live.bypass_refetches as f64,
            "count",
        ),
        metric(
            "front.upstream_errors",
            live.upstream_errors as f64,
            "count",
        ),
        metric(
            "firewall.scan_ns",
            replay.mean_ns(Layer::FirewallScan),
            "ns",
        ),
        metric("origin.serve_ns", replay.mean_ns(Layer::OriginServe), "ns"),
        metric(
            "origin.sim_cost_us",
            mean(replay.origin_cost_ns as f64 / 1e3, replay.reads),
            "us/req",
        ),
        metric(
            "directory.hit_ratio",
            ratio(dir.hits, dir.hits + dir.misses + dir.uncacheable),
            "ratio",
        ),
        metric(
            "directory.lock_acquisitions_per_req",
            per_read(live.dir_locks),
            "1/req",
        ),
        metric(
            "directory.invalidations_per_req",
            per_read(dir.invalidations),
            "1/req",
        ),
        metric(
            "directory.dep_shard_scans_per_req",
            per_read(dir.dep_shard_scans),
            "1/req",
        ),
        metric(
            "directory.flight_leaders_per_req",
            per_read(dir.flight_leaders),
            "1/req",
        ),
        metric("store.sets_per_req", per_read(live.store.0), "1/req"),
        metric("store.get_misses", live.store.2 as f64, "count"),
        metric("assemble.ns", replay.mean_ns(Layer::Assemble), "ns"),
        metric(
            "invalidate.write_p50_us",
            quantile(&mut write_ns, 0.50) as f64 / 1e3,
            "us",
        ),
        metric(
            "invalidate.write_p99_us",
            quantile(&mut write_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "invalidate.keys_freed_per_write",
            ratio(dir.invalidations, writes),
            "1/write",
        ),
        metric(
            "net.origin_packets_per_req",
            per_read(live.origin_wire.packets),
            "1/req",
        ),
        metric(
            "net.client_bytes_per_req",
            per_read(live.client_wire.wire_bytes),
            "B/req",
        ),
        metric("trace.spans_per_req", per_read(live.spans), "1/req"),
        metric(
            "trace.ring_overwrites",
            live.ring_overwrites as f64,
            "count",
        ),
        metric(
            "gen.lag_p99_us",
            quantile(&mut lags, 0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "gen.open_p50_us",
            quantile(&mut open_ns, 0.50) as f64 / 1e3,
            "us",
        ),
        metric(
            "gen.open_p99_us",
            quantile(&mut open_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "replay.unattributed_share",
            1.0 - replay.attributed_ns_per_read() / closed_ns_per_read,
            "ratio",
        ),
        metric("check.unverified_share", check.unverified_share(), "ratio"),
        metric("check.stale_reads", check.stale as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{verify, Reference, ServedBy};
    use crate::ops::Workload;

    #[test]
    fn a_dropped_or_duplicated_record_clears_correct() {
        let w = Workload::by_name("personal_mix").unwrap();
        let plan = Plan::with_counts(w, 3, 10, 20, 10);
        let reference = Reference::new();
        let mut records = Vec::new();
        for _ in 0..REPLICATES {
            for op in plan.warmup.end..plan.ops.len() {
                let Op::Read { target, user } = plan.ops[op] else {
                    continue;
                };
                records.push(ReadRecord {
                    op: op as u32,
                    body: Some(reference.render(w, target, user)),
                    served_by: ServedBy::Assembled,
                    gen_sent: 0,
                    gen_received: 0,
                    latency_ns: 1,
                });
            }
        }
        let judge = |records: &[ReadRecord]| {
            let check = verify(&plan, records);
            (correct(&plan, records, &check), check.stale)
        };
        assert_eq!(judge(&records), (true, 0));

        let last = records.len() - 1;
        assert_eq!(judge(&records[..last]), (false, 0), "one record dropped");

        let mut twice = records.clone();
        twice[last] = twice[0];
        assert_eq!(judge(&twice), (false, 0), "one op recorded twice");

        let mut warm = records.clone();
        warm[0].op = 0;
        assert_eq!(judge(&warm).0, false, "a warm-up op recorded");
    }
}
