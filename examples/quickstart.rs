//! Quickstart: run one workload on the baseline and on Avatar, and print
//! the headline numbers the paper reports — speedup, speculation accuracy
//! and coverage, and the Fig 16 outcome mix.
//!
//! Usage: `cargo run --release --example quickstart [ABBR] [SCALE]`
//! (default: SSSP at scale 0.25 on a reduced 16-SM GPU so it finishes in
//! seconds).

use avatar_gpu::core::policy::PolicySelection;
use avatar_gpu::core::system::{run_policy, speedup, RunOptions};
use avatar_gpu::workloads::Workload;

fn main() {
    let mut args = std::env::args().skip(1);
    let abbr = args.next().unwrap_or_else(|| "SSSP".to_string());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.25);

    let workload = Workload::by_abbr(&abbr).unwrap_or_else(|| {
        eprintln!("unknown workload '{abbr}'; known: Table III + ML abbreviations");
        std::process::exit(1);
    });
    let opts = RunOptions { scale, sms: Some(16), warps: Some(32), ..RunOptions::default() };

    println!(
        "workload {} ({}, class {:?}, {:.0}MB working set at scale {scale})",
        workload.abbr,
        workload.name,
        workload.class,
        workload.scaled_working_set(scale) as f64 / (1 << 20) as f64,
    );

    let [baseline_policy, avatar_policy] =
        ["baseline", "avatar"].map(|name| PolicySelection::parse(name).expect("registry name"));

    let base = run_policy(&workload, baseline_policy, &opts);
    println!(
        "baseline: {} cycles, {} loads, L1 TLB miss rate {:.1}%, {} page walks",
        base.cycles,
        base.loads,
        base.l1_tlb_miss_rate() * 100.0,
        base.page_walks
    );

    let avatar = run_policy(&workload, avatar_policy, &opts);
    let o = &avatar.outcomes;
    println!(
        "avatar:   {} cycles  =>  speedup {:.3}x",
        avatar.cycles,
        speedup(&base, &avatar)
    );
    println!(
        "  speculation: accuracy {:.1}%, coverage {:.1}% ({} attempts)",
        avatar.spec_accuracy() * 100.0,
        avatar.spec_coverage() * 100.0,
        avatar.speculations
    );
    println!(
        "  outcomes: Fast_Translation {:.1}%  L1D_hit {:.1}%  L1D_merge {:.1}%  L1D_miss {:.1}%",
        o.fraction(o.fast_translation) * 100.0,
        o.fraction(o.l1d_hit) * 100.0,
        o.fraction(o.l1d_merge) * 100.0,
        o.fraction(o.l1d_miss) * 100.0
    );
    println!(
        "  EAF: {} fills, {} early releases, {} aborted walks, {} cross-SM fills",
        avatar.eaf_fills, avatar.eaf_releases, avatar.walks_aborted, avatar.eaf_cross_sm_fills
    );
    println!(
        "  page walks {} (baseline {}), DRAM traffic {:.1}MB (baseline {:.1}MB)",
        avatar.page_walks,
        base.page_walks,
        avatar.dram_bytes() as f64 / (1 << 20) as f64,
        base.dram_bytes() as f64 / (1 << 20) as f64
    );
}
