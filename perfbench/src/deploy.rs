//! The one deployment every workload runs against, and the data updates
//! the workloads apply to it.

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_proxy::{ProxyMode, Testbed, TestbedConfig};
use dpc_repository::datasets::{tick_quote, DatasetConfig};
use dpc_repository::Repository;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::ops::{Write, CATEGORIES, PAPER_PAGES, PAPER_SLOTS, SYMBOLS, USERS};

/// Per-event-loop L1 budget: holds every paper-site page, and the Zipf
/// head of the personalized ones.
pub const L1_BUDGET_BYTES: usize = 4 << 20;

pub fn paper_params() -> PaperSiteParams {
    PaperSiteParams {
        pages: PAPER_PAGES,
        fragments_per_page: PAPER_SLOTS,
        ..PaperSiteParams::default()
    }
}

pub fn dataset() -> DatasetConfig {
    DatasetConfig {
        users: USERS,
        categories: CATEGORIES,
        symbols: SYMBOLS,
        ..DatasetConfig::default()
    }
}

/// `TestbedConfig` defaults with DPC mode, the page tier on, and the demo
/// sites mounted; only the dataset sizes differ from the defaults.
pub fn testbed_config() -> TestbedConfig {
    TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: paper_params(),
        dataset: dataset(),
        demo_sites: true,
        l1_budget_bytes: L1_BUDGET_BYTES,
        ..TestbedConfig::default()
    }
}

pub fn build_testbed() -> Testbed {
    Testbed::build(testbed_config())
}

/// Apply one write to `repo`; the update bus carries the invalidation.
pub fn apply_write(repo: &Arc<Repository>, write: Write) {
    match write {
        Write::Fragment { page, slot } => {
            paper_site::invalidate_fragment(repo, page as usize, slot as usize)
        }
        Write::Tick { symbol, seed } => tick_quote(
            repo,
            &format!("SYM{symbol}"),
            &mut StdRng::seed_from_u64(seed),
        ),
    }
}
