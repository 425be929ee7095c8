//! Live counters: public stats accessors of the running testbed, read
//! before and after a phase and reported as deltas.

use dpc_core::directory::DirectoryStats;
use dpc_net::MeterSnapshot;
use dpc_proxy::{PageCacheStats, Testbed};
use std::sync::atomic::Ordering;

#[derive(Debug, Clone, Copy, Default)]
pub struct Live {
    pub assembled: u64,
    pub bypass_refetches: u64,
    pub upstream_errors: u64,
    pub template_bytes: u64,
    pub asm_get_bytes: u64,
    pub asm_set_bytes: u64,
    pub page: PageCacheStats,
    pub dir: DirectoryStats,
    pub dir_locks: u64,
    /// Slot store `(sets, gets, gets on empty slots)`.
    pub store: (u64, u64, u64),
    pub origin_wire: MeterSnapshot,
    pub client_wire: MeterSnapshot,
    pub origin_requests: u64,
    pub spans: u64,
    pub ring_overwrites: u64,
    pub parse_errors: u64,
}

impl Live {
    pub fn take(tb: &Testbed) -> Live {
        let p = tb.proxy().stats();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let directory = tb.engine().bem().directory();
        // Read the lock counter first: `stats()` itself takes shard locks.
        let dir_locks = directory.lock_acquisitions();
        let (spans, ring_overwrites) = tb
            .tracer()
            .recorder()
            .map(|r| {
                let s = r.stats();
                (s.spans_total, s.ring_overwrites.iter().sum())
            })
            .unwrap_or_default();
        Live {
            assembled: load(&p.assembled),
            bypass_refetches: load(&p.bypass_refetches),
            upstream_errors: load(&p.upstream_errors),
            template_bytes: load(&p.asm_template_bytes),
            asm_get_bytes: load(&p.asm_get_bytes),
            asm_set_bytes: load(&p.asm_set_bytes),
            page: tb.proxy().page_cache().stats(),
            dir: directory.stats(),
            dir_locks,
            store: tb.proxy().store().counters(),
            origin_wire: tb.origin_wire(),
            client_wire: tb.client_wire(),
            origin_requests: tb.engine().counters().0,
            spans,
            ring_overwrites,
            parse_errors: scrape_parse_errors(tb),
        }
    }

    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &Live) -> Live {
        self.zip(earlier, |a, b| a - b)
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &Live) -> Live {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, o: &Live, f: impl Fn(u64, u64) -> u64) -> Live {
        let (p, q) = (&self.page, &o.page);
        let (d, e) = (&self.dir, &o.dir);
        let (w, x) = (&self.origin_wire, &o.origin_wire);
        let (c, k) = (&self.client_wire, &o.client_wire);
        Live {
            assembled: f(self.assembled, o.assembled),
            bypass_refetches: f(self.bypass_refetches, o.bypass_refetches),
            upstream_errors: f(self.upstream_errors, o.upstream_errors),
            template_bytes: f(self.template_bytes, o.template_bytes),
            asm_get_bytes: f(self.asm_get_bytes, o.asm_get_bytes),
            asm_set_bytes: f(self.asm_set_bytes, o.asm_set_bytes),
            page: PageCacheStats {
                hits: f(p.hits, q.hits),
                l1_hits: f(p.l1_hits, q.l1_hits),
                l2_hits: f(p.l2_hits, q.l2_hits),
                misses: f(p.misses, q.misses),
                purges: f(p.purges, q.purges),
                evictions: f(p.evictions, q.evictions),
                l1_stale_evictions: f(p.l1_stale_evictions, q.l1_stale_evictions),
                l2_stale_evictions: f(p.l2_stale_evictions, q.l2_stale_evictions),
                admission_rejections: f(p.admission_rejections, q.admission_rejections),
                flight_leaders: f(p.flight_leaders, q.flight_leaders),
                coalesced_waits: f(p.coalesced_waits, q.coalesced_waits),
                flight_retries: f(p.flight_retries, q.flight_retries),
            },
            dir: DirectoryStats {
                hits: f(d.hits, e.hits),
                misses: f(d.misses, e.misses),
                uncacheable: f(d.uncacheable, e.uncacheable),
                invalidations: f(d.invalidations, e.invalidations),
                dep_shard_scans: f(d.dep_shard_scans, e.dep_shard_scans),
                flight_leaders: f(d.flight_leaders, e.flight_leaders),
                evictions: f(d.evictions, e.evictions),
                ..DirectoryStats::default()
            },
            dir_locks: f(self.dir_locks, o.dir_locks),
            store: (
                f(self.store.0, o.store.0),
                f(self.store.1, o.store.1),
                f(self.store.2, o.store.2),
            ),
            origin_wire: MeterSnapshot {
                payload_bytes: f(w.payload_bytes, x.payload_bytes),
                wire_bytes: f(w.wire_bytes, x.wire_bytes),
                packets: f(w.packets, x.packets),
                messages: f(w.messages, x.messages),
            },
            client_wire: MeterSnapshot {
                payload_bytes: f(c.payload_bytes, k.payload_bytes),
                wire_bytes: f(c.wire_bytes, k.wire_bytes),
                packets: f(c.packets, k.packets),
                messages: f(c.messages, k.messages),
            },
            origin_requests: f(self.origin_requests, o.origin_requests),
            spans: f(self.spans, o.spans),
            ring_overwrites: f(self.ring_overwrites, o.ring_overwrites),
            parse_errors: f(self.parse_errors, o.parse_errors),
        }
    }
}

/// `dpc_server_parse_errors_total` of the proxy front, summed over its
/// event loops, from the metrics registry's text exposition.
fn scrape_parse_errors(tb: &Testbed) -> u64 {
    let Some(registry) = tb.metrics_registry() else {
        return 0;
    };
    registry
        .render()
        .lines()
        .filter(|l| {
            l.starts_with("dpc_server_parse_errors_total{") && l.contains("server=\"proxy\"")
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}
