//! Fig 20: average memory access latency per configuration, (a) without
//! and (b) with 130% memory oversubscription, on the class-H workloads.
//!
//! Paper: Promotion and CoLT reduce latency by easing TLB pressure;
//! SnakeByte pays for recursive merging; Avatar's immediate (speculative)
//! translation gives the lowest latency, and its advantage grows under
//! oversubscription.

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario, ScenarioResult};
use avatar_bench::{mean, obj, print_table, policy_set, HarnessArgs};
use avatar_core::system::RunOptions;
use avatar_workloads::{Class, Workload};

/// (mean, p99) per configuration, averaged over the class-H workloads.
fn summarize(results: &[ScenarioResult], n_workloads: usize, n_configs: usize) -> Vec<(f64, f64)> {
    let mut per_config = vec![(Vec::new(), Vec::new()); n_configs];
    for wi in 0..n_workloads {
        for i in 0..n_configs {
            let s = results[wi * n_configs + i].expect_stats();
            per_config[i].0.push(s.sector_latency.value());
            per_config[i].1.push(s.sector_latency_hist.percentile(0.99) as f64);
        }
    }
    per_config.iter().map(|(m, p)| (mean(m), mean(p))).collect()
}

fn main() {
    let opts = HarnessArgs::parse();
    let class_h: Vec<Workload> = Workload::all().into_iter().filter(|w| w.class == Class::H).collect();
    let configs: [_; 5] = policy_set("baseline,promotion,colt,snakebyte,avatar");
    let labels = configs.map(|p| p.label());
    let regimes = [
        ("(a) no oversubscription", "normal", opts.run_options()),
        (
            "(b) 130% oversubscription",
            "oversub130",
            RunOptions { oversubscription: Some(1.3), ..opts.run_options() },
        ),
    ];

    let mut scenarios = Vec::new();
    for (_, _, ro) in &regimes {
        for w in &class_h {
            for cfg in configs {
                scenarios.push(Scenario::new(cfg.label(), w, cfg, ro.clone()));
            }
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let per_regime = class_h.len() * configs.len();

    let mut rows = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    for (ri, (label, key, _)) in regimes.iter().enumerate() {
        let data = summarize(
            &results[ri * per_regime..(ri + 1) * per_regime],
            class_h.len(),
            configs.len(),
        );
        let mut cells = vec![label.to_string()];
        cells.extend(data.iter().map(|(m, p)| format!("{m:.0} (p99 {p:.0})")));
        rows.push(cells);
        let latencies: Vec<Json> = labels
            .iter()
            .zip(data.iter())
            .map(|(label, (m, _))| obj! { "config": label.clone(), "latency": *m })
            .collect();
        json.push(obj! { "scenario": *key, "latencies": Json::Arr(latencies) });
    }

    let mut headers = vec!["Scenario"];
    headers.extend(labels.iter().map(String::as_str));
    println!("\nFig 20: mean memory access latency, class-H workloads (cycles)");
    print_table(&headers, &rows);
    print_breakdown(&results[..per_regime], &class_h, &labels);
    println!("\npaper: Avatar lowest in both scenarios; prior techniques degrade more under oversubscription");
    opts.dump_json(&json);
}

/// Latency-breakdown cross-check (`probes` builds): per-phase attribution
/// shares for the no-oversubscription regime, with the conservation
/// invariant — phase sums equal the end-to-end sector latency sum exactly
/// — re-verified on every cell before anything is printed.
#[cfg(feature = "probes")]
fn print_breakdown(results: &[ScenarioResult], class_h: &[Workload], labels: &[String]) {
    use avatar_sim::probe::{LatencyBreakdown, Phase};
    let mut rows = Vec::new();
    for (ci, label) in labels.iter().enumerate() {
        let mut agg = LatencyBreakdown::default();
        for wi in 0..class_h.len() {
            let s = results[wi * labels.len() + ci].expect_stats();
            assert_eq!(
                s.latency_breakdown.total_cycles(),
                s.sector_latency.sum(),
                "fig20 {} / {}: latency breakdown violates cycle conservation",
                label,
                class_h[wi].abbr,
            );
            for ph in Phase::ALL {
                agg.add(ph, s.latency_breakdown.of(ph));
            }
            agg.sectors += s.latency_breakdown.sectors;
        }
        let mut cells = vec![label.clone()];
        cells.extend(Phase::ALL.iter().map(|&ph| format!("{:.1}%", 100.0 * agg.fraction(ph))));
        rows.push(cells);
    }
    let mut headers = vec!["Config"];
    headers.extend(Phase::ALL.iter().map(|p| p.label()));
    println!("\nLatency breakdown, regime (a) — share of attributed sector cycles");
    println!("(conservation-checked per cell: phase sums == end-to-end latency sum)");
    print_table(&headers, &rows);
}

/// Probes compiled out: the breakdown fields are all zero; print nothing.
#[cfg(not(feature = "probes"))]
fn print_breakdown(_results: &[ScenarioResult], _class_h: &[Workload], _labels: &[String]) {}
