//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). A
//! human-readable account goes to standard error.

use dpc_perfbench::ops::{Plan, Workload, WORKLOADS};
use dpc_perfbench::run::{run, Options, Outcome, REPLICATES};
use std::process::ExitCode;

/// Load threads in both phases, each on its own connection: one per vCPU
/// of the 2-vCPU host the workloads were sized on.
const CLIENTS: usize = 2;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("not a whole number"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Options {
        // The measured seconds are shared by the replicates, which each
        // drive the plan's phases once.
        plan: Plan::generate(workload, seed, seconds / REPLICATES as f64),
        trace,
        clients: CLIENTS,
    })
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn report(opts: &Options, outcome: &Outcome) {
    let c = &outcome.check;
    eprintln!(
        "perfbench {} seed {} clients {}: {} reads, {} failed, {} verified, {} unverified ({:.4}), {} stale ({} of them an earlier generation's page)",
        opts.plan.workload.name,
        opts.plan.seed,
        opts.clients,
        c.reads,
        c.failed,
        c.verified,
        c.unverified,
        c.unverified_share(),
        c.stale,
        c.stale_earlier
    );
    for n in &outcome.notes {
        eprintln!("  {n}");
    }
    let mut tiers: Vec<_> = c.stale_by_tier.iter().collect();
    tiers.sort();
    for (tier, n) in tiers {
        eprintln!("  stale reads served by {tier}: {n}");
    }
    for e in &c.examples {
        eprintln!("  stale: {e}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    report(&opts, &outcome);
    if let Some(replay) = &outcome.replay {
        let path = format!("perfbench/out/spans-{}.jsonl", opts.plan.workload.name);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|_| std::fs::File::create(&path))
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                replay.write_spans(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        match written {
            Ok(()) => eprintln!("  replay spans of the first timed ops: {path}"),
            Err(e) => eprintln!("  could not write {path}: {e}"),
        }
    }
    println!("{}", json(&outcome));
    ExitCode::SUCCESS
}
