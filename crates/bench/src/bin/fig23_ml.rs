//! Fig 23: ML workloads — (a) compressibility and (b) performance.
//!
//! Paper: average BPC ratio 1.38×, 28.4% of sectors fit 22 bytes (FP32
//! compresses better than FP16); Avatar still beats CoLT (the best prior
//! technique) by 7.1% on average because CAST's fetch/translation overlap
//! does not depend on compressibility.

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{geomean, mean, obj, print_table, policy_set, HarnessArgs};
use avatar_bpc::embed::PAYLOAD_BITS;
use avatar_workloads::Workload;

/// (a) compressibility, measured with the real codec.
fn compressibility(w: &Workload, samples: u64) -> (f64, f64) {
    let content = w.content();
    let mut bits = 0usize;
    let mut fit = 0u64;
    for i in 0..samples {
        let b = content.compressed_bits(i * 977);
        bits += b.min(256);
        if b <= PAYLOAD_BITS {
            fit += 1;
        }
    }
    (256.0 * samples as f64 / bits as f64, fit as f64 / samples as f64)
}

fn main() {
    let opts = HarnessArgs::parse();
    let ro = opts.run_options();
    let samples = 20_000u64;
    let workloads = Workload::ml_suite();
    let [baseline, configs @ ..] = policy_set::<5>("baseline,promotion,colt,cast,avatar");
    let labels = configs.map(|p| p.label());

    let mut scenarios = Vec::new();
    for w in &workloads {
        scenarios.push(Scenario::new("Baseline", w, baseline, ro.clone()));
        for cfg in configs {
            scenarios.push(Scenario::new(cfg.label(), w, cfg, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = configs.len() + 1;

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let (mut ratios, mut fits) = (Vec::new(), Vec::new());

    for (wi, w) in workloads.iter().enumerate() {
        let (ratio, fit22) = compressibility(w, samples);
        ratios.push(ratio);
        fits.push(fit22);

        // (b) performance.
        let base = &results[wi * stride];
        let mut cells = vec![
            w.abbr.to_string(),
            format!("{ratio:.2}"),
            format!("{:.1}%", fit22 * 100.0),
        ];
        let mut speedups = Vec::new();
        for (i, label) in labels.iter().enumerate() {
            let x = speedup_cell(base, &results[wi * stride + 1 + i]);
            if let Some(x) = x {
                per_config[i].push(x);
            }
            cells.push(fmt_cell(x, 3));
            speedups.push(obj! { "config": label.clone(), "speedup": x });
        }
        json_rows.push(obj! {
            "workload": w.abbr,
            "bpc_ratio": ratio,
            "fit22": fit22,
            "speedups": Json::Arr(speedups),
        });
        rows.push(cells);
    }

    let mut footer = vec![
        "MEAN".to_string(),
        format!("{:.2}", mean(&ratios)),
        format!("{:.1}%", mean(&fits) * 100.0),
    ];
    for xs in &per_config {
        footer.push(format!("{:.3}", geomean(xs)));
    }
    rows.push(footer);

    let mut headers = vec!["Workload", "BPC ratio", "<=22B"];
    headers.extend(labels.iter().map(String::as_str));
    println!("\nFig 23: ML workloads — compressibility and speedup over baseline");
    print_table(&headers, &rows);
    println!("\npaper: ratio 1.38x avg, 28.4% fit 22B; Avatar beats CoLT by ~7.1% despite low compressibility");
    opts.dump_json(&json_rows);
}
