//! Codec-choice ablation: CAVA with BPC (the paper's pick) versus FPC and
//! BDI, the alternative cache-compression schemes the paper cites.
//!
//! For each codec: the fraction of sectors meeting the 22-byte budget
//! (which bounds CAVA's validation opportunities) and the resulting Avatar
//! speedup.

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{geomean, mean, obj, print_table, policy_set, HarnessArgs};
use avatar_core::system::{speedup, RunOptions};
use avatar_workloads::{ContentModel, Workload};

const SAMPLE_WORKLOADS: [&str; 5] = ["GEMM", "PAF", "GC", "SSSP", "XSB"];

fn main() {
    let opts = HarnessArgs::parse();
    let [baseline, avatar] = policy_set("baseline,avatar");

    // codec × workload × {Baseline, Avatar}: one flat grid.
    let mut scenarios = Vec::new();
    for codec in avatar_bpc::Codec::ALL {
        for abbr in SAMPLE_WORKLOADS {
            let w = Workload::by_abbr(abbr).expect("known workload");
            let ro = RunOptions {
                codec,
                scale: opts.scale,
                sms: Some(opts.sms),
                warps: Some(opts.warps),
                ..RunOptions::default()
            };
            scenarios.push(Scenario::new("Baseline", &w, baseline, ro.clone()));
            scenarios.push(Scenario::new("Avatar", &w, avatar, ro));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = SAMPLE_WORKLOADS.len() * 2;

    let mut rows = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    for (ci, codec) in avatar_bpc::Codec::ALL.into_iter().enumerate() {
        let mut fits = Vec::new();
        let mut speedups = Vec::new();
        for (wi, abbr) in SAMPLE_WORKLOADS.into_iter().enumerate() {
            let w = Workload::by_abbr(abbr).expect("known workload");
            // Budget-fit fraction under this codec, measured on real bytes.
            let model = ContentModel::with_codec(w, codec);
            let fit = (0..4000u64)
                .filter(|i| model.compressed_bits(i * 977) <= avatar_bpc::embed::PAYLOAD_BITS)
                .count();
            fits.push(fit as f64 / 4000.0);

            let base = results[ci * stride + wi * 2].expect_stats();
            let avatar = results[ci * stride + wi * 2 + 1].expect_stats();
            speedups.push(speedup(base, avatar));
        }
        let (fit22_avg, avatar_gmean) = (mean(&fits), geomean(&speedups));
        rows.push(vec![
            codec.name().to_string(),
            format!("{:.1}%", fit22_avg * 100.0),
            format!("{avatar_gmean:.3}"),
        ]);
        json.push(obj! {
            "codec": codec.name(),
            "fit22_avg": fit22_avg,
            "avatar_gmean": avatar_gmean,
        });
    }

    println!("\nCodec ablation: CAVA budget fit and Avatar speedup per compression scheme");
    print_table(&["Codec", "Sectors <= 22B (avg)", "Avatar speedup (gmean)"], &rows);
    println!("\npaper: BPC chosen for its strength on homogeneous GPU data; weaker codecs shrink CAVA's validation window");
    opts.dump_json(&json);
}
