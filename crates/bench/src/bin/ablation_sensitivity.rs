//! Ablation and sensitivity studies for Avatar's design choices (beyond
//! the paper's figures): EAF on/off, MOD sizing, confidence threshold,
//! CAVA decompression latency, and the §III-D VIPT/PIPT cache arrangement.
//!
//! `--abbr <ABBR>` selects the workload (default SSSP).

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{obj, print_table, policy_set, ExtraFlag, HarnessArgs};
use avatar_core::system::speedup;
use avatar_sim::config::CacheArrangement;
use avatar_sim::Stats;
use avatar_workloads::Workload;

const MOD_ENTRIES: [usize; 5] = [4, 8, 16, 32, 64];
const THRESHOLDS: [u8; 3] = [1, 2, 3];
const DECOMP_LATENCIES: [u64; 4] = [0, 7, 14, 28];
const MIGRATE_THRESHOLDS: [u32; 3] = [1, 2, 4];
const ARRANGEMENTS: [(&str, CacheArrangement); 2] =
    [("VIPT", CacheArrangement::Vipt), ("PIPT", CacheArrangement::Pipt)];

fn main() {
    let opts = HarnessArgs::parse_with(&[ExtraFlag {
        flag: "--abbr",
        value_name: Some("WL"),
        help: "workload abbreviation to study (default SSSP)",
    }]);
    let abbr = opts.extra_value("--abbr").unwrap_or("SSSP").to_string();
    let w = Workload::by_abbr(&abbr).unwrap_or_else(|| {
        eprintln!("unknown workload {abbr}");
        std::process::exit(1);
    });
    let ro = opts.run_options();
    let [baseline, cast, avatar_noeaf, avatar] = policy_set("baseline,cast,avatar-noeaf,avatar");

    // The whole study is one flat grid of independent cells; every sweep
    // variant is a tweak on top of the Avatar configuration.
    let mut scenarios = vec![Scenario::new("Baseline", &w, baseline, ro.clone())];
    for (variant, policy) in
        [("CAST only", cast), ("CAST+CAVA (no EAF)", avatar_noeaf), ("full Avatar", avatar)]
    {
        scenarios.push(Scenario::new(variant, &w, policy, ro.clone()));
    }
    for entries in MOD_ENTRIES {
        scenarios.push(
            Scenario::new(format!("mod-{entries}"), &w, avatar, ro.clone())
                .with_tweak(move |c| c.spec.mod_entries = entries),
        );
    }
    for threshold in THRESHOLDS {
        scenarios.push(
            Scenario::new(format!("thr-{threshold}"), &w, avatar, ro.clone())
                .with_tweak(move |c| c.spec.confidence_threshold = threshold),
        );
    }
    for lat in DECOMP_LATENCIES {
        scenarios.push(
            Scenario::new(format!("decomp-{lat}"), &w, avatar, ro.clone())
                .with_tweak(move |c| c.spec.decompression_latency = lat),
        );
    }
    for threshold in MIGRATE_THRESHOLDS {
        scenarios.push(
            Scenario::new(format!("migrate-{threshold}"), &w, avatar, ro.clone())
                .with_tweak(move |c| c.uvm.migration_threshold = threshold),
        );
    }
    for (name, arr) in ARRANGEMENTS {
        scenarios.push(
            Scenario::new(format!("{name}-avatar"), &w, avatar, ro.clone())
                .with_tweak(move |c| c.l1_arrangement = arr),
        );
        scenarios.push(
            Scenario::new(format!("{name}-base"), &w, baseline, ro.clone())
                .with_tweak(move |c| c.l1_arrangement = arr),
        );
    }

    let results = run_scenarios(opts.threads, scenarios);
    let mut it = results.iter();
    let base = it.next().expect("baseline cell").expect_stats();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    let mut record = |study: &str, variant: &str, x: f64, s: &Stats, starred: bool| {
        rows.push(vec![
            study.to_string(),
            variant.to_string(),
            format!("{:.3}{}", x, if starred { "*" } else { "" }),
            format!("{:.1}%", s.spec_accuracy() * 100.0),
            format!("{:.1}%", s.spec_coverage() * 100.0),
        ]);
        json.push(obj! {
            "study": study,
            "variant": variant,
            "speedup": x,
            "accuracy": s.spec_accuracy(),
            "coverage": s.spec_coverage(),
        });
    };

    // 1) Component ablation.
    for variant in ["CAST only", "CAST+CAVA (no EAF)", "full Avatar"] {
        let s = it.next().expect("components cell").expect_stats();
        record("components", variant, speedup(base, s), s, false);
    }
    // 2) MOD capacity sweep (paper fixes 32).
    for entries in MOD_ENTRIES {
        let s = it.next().expect("mod-entries cell").expect_stats();
        record("mod-entries", &entries.to_string(), speedup(base, s), s, false);
    }
    // 3) Confidence threshold sweep (paper fixes 2).
    for threshold in THRESHOLDS {
        let s = it.next().expect("threshold cell").expect_stats();
        record("threshold", &threshold.to_string(), speedup(base, s), s, false);
    }
    // 4) Decompression latency sweep (paper assumes 7 cycles).
    for lat in DECOMP_LATENCIES {
        let s = it.next().expect("decomp cell").expect_stats();
        record("decomp-latency", &lat.to_string(), speedup(base, s), s, false);
    }
    // 5) Access-counter migration threshold (§III-D): cold pages are
    //    served remotely until they prove hot; MOD only trains on
    //    GPU-mapped regions.
    for threshold in MIGRATE_THRESHOLDS {
        let s = it.next().expect("migrate cell").expect_stats();
        record("migrate-threshold", &threshold.to_string(), speedup(base, s), s, false);
    }
    // 6) Cache arrangement (§III-D): Avatar works under VIPT and PIPT;
    //    speedup is vs the same-arrangement baseline.
    for (name, _) in ARRANGEMENTS {
        let s = it.next().expect("arrangement avatar cell").expect_stats();
        let b = it.next().expect("arrangement baseline cell").expect_stats();
        let rel = b.cycles as f64 / s.cycles as f64;
        record("l1-arrangement", name, rel, s, true);
    }

    println!("\nAblation & sensitivity: {} (speedup vs baseline; * = vs same-arrangement baseline)", w.abbr);
    print_table(&["Study", "Variant", "Speedup", "Accuracy", "Coverage"], &rows);
    opts.dump_json(&json);
}
