//! The traced replay: per-layer wall time.
//!
//! The testbed's own span recorder is stamped with the testbed's
//! *virtual* clock, so its span durations are not wall time. Per-layer
//! time therefore comes from here: the plan's ops are replayed
//! single-threaded through each layer's public function, on instances the
//! benchmark owns, with one span per call (layer, start, end, parent op)
//! recorded by the benchmark itself. The replay follows the DPC front's
//! tiered path (L1 → L2 → origin → firewall → assembly → L2 install) but
//! none of its networking, so what the live path spends outside these
//! calls shows up as the unattributed share.

use dpc_appserver::apps::{self, paper_site};
use dpc_appserver::context::COST_HEADER;
use dpc_appserver::ScriptEngine;
use dpc_core::{assemble_rope, Bem, BemConfig, CoherencyEpoch, FragmentStore};
use dpc_firewall::Firewall;
use dpc_http::parse::try_parse_request;
use dpc_http::serialize::{write_request, write_response};
use dpc_http::{Body, Response};
use dpc_net::Clock;
use dpc_proxy::l1::{page_key, session_of, PROMOTE_AFTER};
use dpc_proxy::{L1Cache, PageCache};
use dpc_repository::datasets::seed_all;
use dpc_repository::Repository;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::check::request;
use crate::deploy::{apply_write, dataset, paper_params, testbed_config, L1_BUDGET_BYTES};
use crate::ops::{Op, Plan};

/// The layer calls the replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    HttpParse,
    L1Get,
    L1Insert,
    L2Get,
    L2Put,
    OriginServe,
    FirewallScan,
    Assemble,
    HttpSerialize,
}

/// Number of [`Layer`] variants (the per-layer arrays' length).
const LAYER_COUNT: usize = 9;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::HttpParse => "http.parse",
            Layer::L1Get => "l1.get",
            Layer::L1Insert => "l1.insert",
            Layer::L2Get => "l2.get",
            Layer::L2Put => "l2.put",
            Layer::OriginServe => "origin.serve",
            Layer::FirewallScan => "firewall.scan",
            Layer::Assemble => "assemble",
            Layer::HttpSerialize => "http.serialize",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// ns since the replay started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Parent: the op being replayed.
    pub op: u32,
}

/// Spans of the first ops are kept for the span dump; the rest are only
/// aggregated.
const KEPT_OPS: usize = 2000;

#[derive(Debug, Default)]
pub struct ReplayResult {
    pub reads: u64,
    /// Per layer, indexed by `Layer as usize`: calls and summed self time.
    pub calls: [u64; LAYER_COUNT],
    pub self_ns: [u64; LAYER_COUNT],
    /// Simulated origin cost (`X-Origin-Cost-Nanos`) summed over calls.
    pub origin_cost_ns: u64,
    pub kept: Vec<Span>,
}

impl ReplayResult {
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        crate::stats::mean(self.self_ns[i] as f64, self.calls[i])
    }

    /// Summed self time of every layer span, per replayed read.
    pub fn attributed_ns_per_read(&self) -> f64 {
        crate::stats::mean(self.self_ns.iter().sum::<u64>() as f64, self.reads)
    }

    /// Span dump, one JSON object per line.
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.kept {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        Ok(())
    }
}

/// Benchmark-owned instances of every replayed layer, configured like the
/// testbed's.
struct World {
    engine: ScriptEngine,
    firewall: Firewall,
    store: FragmentStore,
    l2: Arc<PageCache>,
    l1: L1Cache,
}

impl World {
    fn new() -> World {
        let cfg = testbed_config();
        let (clock, _) = Clock::virtual_clock();
        let repo = Repository::with_defaults();
        seed_all(&repo, &dataset());
        let bem = Arc::new(Bem::new(
            BemConfig::default()
                .with_capacity(cfg.capacity)
                .with_replace(cfg.replace)
                .with_clock(clock.clone())
                .with_seed(cfg.seed)
                .with_shards(cfg.shards),
        ));
        let mut engine = ScriptEngine::new(bem, repo);
        paper_site::install(&mut engine, paper_params());
        apps::install_demo_sites(&mut engine);
        engine.connect_invalidation();
        let epoch = CoherencyEpoch::new();
        let l2 = Arc::new(
            PageCache::new(clock, cfg.page_cache_ttl, cfg.capacity).with_coherence(epoch.clone()),
        );
        engine.repo().bus().subscribe(move |_dep| {
            epoch.bump();
        });
        World {
            engine,
            firewall: Firewall::with_default_rules(),
            store: FragmentStore::with_shards(cfg.capacity, cfg.shards),
            l2,
            l1: L1Cache::new(L1_BUDGET_BYTES, cfg.page_cache_ttl),
        }
    }
}

struct Recorder {
    epoch: Instant,
    result: ReplayResult,
    op: u32,
    /// False during warm-up: calls run untimed.
    measure: bool,
    keep: bool,
}

impl Recorder {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.measure {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let i = layer as usize;
        self.result.calls[i] += 1;
        self.result.self_ns[i] += (end - start).as_nanos() as u64;
        if self.keep {
            self.result.kept.push(Span {
                layer,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                op: self.op,
            });
        }
        out
    }
}

/// Replay `warmup` untimed, then time every op of `timed`.
pub fn replay(plan: &Plan, warmup: Range<usize>, timed: Range<usize>) -> ReplayResult {
    let mut world = World::new();
    let mut rec = Recorder {
        epoch: Instant::now(),
        result: ReplayResult::default(),
        op: 0,
        measure: false,
        keep: false,
    };
    for i in warmup {
        replay_op(&mut world, plan, i, &mut rec);
    }
    rec.measure = true;
    for i in timed.clone() {
        rec.op = i as u32;
        rec.keep = i - timed.start < KEPT_OPS;
        replay_op(&mut world, plan, i, &mut rec);
    }
    rec.result
}

fn replay_op(world: &mut World, plan: &Plan, i: usize, rec: &mut Recorder) {
    let (target, user) = match plan.ops[i] {
        Op::Read { target, user } => (target, user),
        Op::Write { write, .. } => {
            apply_write(world.engine.repo(), write);
            return;
        }
    };
    if rec.measure {
        rec.result.reads += 1;
    }
    let mut wire = Vec::with_capacity(256);
    write_request(&mut wire, &request(plan.workload, target, user)).expect("write to Vec");
    let (req, _) = rec
        .time(Layer::HttpParse, || try_parse_request(&wire))
        .expect("benchmark request parses")
        .expect("benchmark request is complete");
    let key = page_key(&req.target, session_of(&req));
    let resp = match rec.time(Layer::L1Get, || world.l1.get(&key)) {
        Some((body, _, _)) => Response::html(body),
        None => match rec.time(Layer::L2Get, || world.l2.get_page(&key)) {
            Some(hit) => {
                if let Some(stamp) = hit.stamp.filter(|_| hit.entry_hits >= PROMOTE_AFTER) {
                    let l2 = Arc::clone(&world.l2);
                    let body = hit.body.clone();
                    rec.time(Layer::L1Insert, || {
                        world.l1.insert(
                            &key,
                            body,
                            hit.content_type.clone(),
                            hit.etag.clone(),
                            stamp,
                            hit.ttl_remaining,
                            l2,
                        )
                    });
                }
                Response::html(hit.body)
            }
            None => {
                let stamp = world.l2.coherence_stamp();
                let origin = rec.time(Layer::OriginServe, || world.engine.serve(&req));
                let cost = origin
                    .headers
                    .get(COST_HEADER)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                if rec.measure {
                    rec.result.origin_cost_ns += cost;
                }
                let template = origin.body.flatten();
                let verdict = rec.time(Layer::FirewallScan, || world.firewall.scan(&template));
                assert!(verdict.allowed, "firewall blocked a benchmark page");
                let rope = rec
                    .time(Layer::Assemble, || assemble_rope(&template, &world.store))
                    .expect("single-threaded replay assembles every template");
                let body = Body::Rope(rope.segments);
                // The front flattens the rope as part of its L2 install.
                rec.time(Layer::L2Put, || {
                    world
                        .l2
                        .put_stamped(&key, body.flatten(), "text/html", stamp)
                });
                Response::html(body)
            }
        },
    };
    rec.time(Layer::HttpSerialize, || {
        write_response(&mut std::io::sink(), &resp).expect("write to sink")
    });
}
