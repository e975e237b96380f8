//! Memory oversubscription (paper §IV-B6): size GPU memory below the
//! working set and watch chunk evictions erode the prior techniques'
//! TLB reach while Avatar's speculation stays effective.
//!
//! Usage: `cargo run --release --example oversubscription [ABBR] [FACTOR]`
//! (default SPMV at 130%).

use avatar_gpu::core::policy::PolicySelection;
use avatar_gpu::core::system::{run_policy, speedup, RunOptions};
use avatar_gpu::workloads::Workload;

fn main() {
    let mut args = std::env::args().skip(1);
    let abbr = args.next().unwrap_or_else(|| "SPMV".to_string());
    let factor: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.3);

    let workload = Workload::by_abbr(&abbr).unwrap_or_else(|| {
        eprintln!("unknown workload '{abbr}'");
        std::process::exit(1);
    });
    let base_opts = RunOptions { scale: 0.5, sms: Some(16), warps: Some(32), ..RunOptions::default() };
    let over_opts = RunOptions { oversubscription: Some(factor), ..base_opts.clone() };

    println!(
        "workload {} ({:.0}MB working set, {}% oversubscription)\n",
        workload.abbr,
        workload.scaled_working_set(base_opts.scale) as f64 / (1 << 20) as f64,
        (factor * 100.0) as u32
    );

    let policies =
        PolicySelection::parse_list("baseline,promotion,colt,avatar").expect("registry names");
    let (baseline_policy, contenders) = policies.split_first().expect("non-empty list");

    for (label, opts) in [("fits in memory", &base_opts), ("oversubscribed", &over_opts)] {
        let baseline = run_policy(&workload, *baseline_policy, opts);
        println!(
            "--- {label}: baseline {} cycles, {} chunk evictions, {} TLB shootdowns",
            baseline.cycles, baseline.chunks_evicted, baseline.tlb_shootdowns
        );
        for &cfg in contenders {
            let s = run_policy(&workload, cfg, opts);
            println!(
                "    {:<10} speedup {:.3}x  (promotions {}, splinters {}, spec accuracy {:.0}%)",
                cfg.label(),
                speedup(&baseline, &s),
                s.promotions,
                s.splinters,
                s.spec_accuracy() * 100.0
            );
        }
    }
    println!("\npaper: under oversubscription Avatar keeps a >=14.3% lead over prior techniques");
}
