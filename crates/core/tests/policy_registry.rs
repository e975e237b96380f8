//! Every system is named through the policy registry, so each entry's
//! simulated result is pinned.
//!
//! Two properties gate the registry:
//!
//! * **Pinned digests** — every registry entry, assembled from its
//!   parsed name, reproduces a recorded `Stats` digest at two seeds. A
//!   change that perturbs any entry's simulated behaviour fails here and
//!   must re-pin deliberately.
//! * **New policies live** — Revelator actually speculates and rapid-
//!   validates on a real workload (not a stub that compiles and idles),
//!   and the dead-entry modifier runs to completion on top of Avatar.

use avatar_core::policy::{PolicySelection, REGISTRY};
use avatar_core::system::{run_policy, RunOptions};
use avatar_workloads::Workload;

/// `Stats::digest()` of SSSP under each registry entry at seeds 7 and 8.
const PINNED: [(&str, [u64; 2]); 11] = [
    ("baseline", [0x0ab9_35f5_d125_1d5f, 0x5930_198f_45a4_69da]),
    ("ideal", [0x4747_83c5_8066_2fe0, 0x2068_dfc8_ef41_b55b]),
    ("promotion", [0x0ab9_35f5_d125_1d5f, 0x5930_198f_45a4_69da]),
    ("colt", [0x973d_c16d_20f1_837c, 0x9fe9_e82f_05a8_aa40]),
    ("snakebyte", [0x66ee_12df_b9e1_8566, 0x4198_65ff_2262_0a0c]),
    ("cast", [0x07fc_62d5_fd52_6d35, 0x45e1_b42d_da50_cba8]),
    ("avatar", [0x037f_c221_cdda_0a1d, 0x91b7_f93a_99ec_09b5]),
    ("avatar-noeaf", [0x1509_e810_d9c7_4669, 0x8f5d_6351_dfcf_8c14]),
    ("cast-ideal", [0x7322_43f8_1dae_0a13, 0xe7b9_6c08_ceb1_d5c6]),
    ("avatar-vpnt", [0xa12a_9968_535b_09cb, 0x4091_81a0_4035_e5ea]),
    ("revelator", [0x1c53_f73c_54dc_0d7e, 0x9b74_1dfe_32fa_82f7]),
];

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), seed, ..RunOptions::default() }
}

#[test]
fn registry_entries_reproduce_pinned_digests() {
    let names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
    assert_eq!(names, PINNED.map(|(name, _)| name), "every registry entry is pinned, in order");
    let w = Workload::by_abbr("SSSP").expect("workload table contains SSSP");
    for (name, digests) in PINNED {
        let sel = PolicySelection::parse(name).unwrap_or_else(|e| panic!("'{name}' must parse: {e}"));
        for (seed, want) in [7u64, 8].into_iter().zip(digests) {
            let got = run_policy(&w, sel, &opts(seed)).digest();
            assert_eq!(got, want, "'{name}' seed {seed}: digest {got:#018x} != pinned {want:#018x}");
        }
    }
}

#[test]
fn revelator_speculates_and_rapid_validates() {
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    let sel = PolicySelection::parse("revelator").expect("registry name");
    let stats = run_policy(&w, sel, &opts(7));
    assert!(stats.speculations > 0, "Revelator never fired a speculation");
    assert!(
        stats.rapid_validations > 0,
        "correct Revelator speculations must resolve through rapid validation"
    );
    assert!(stats.policy_installs > 0, "seed-table installs must be counted");
    // The seed table seeds from resolved translations, so hits lag
    // installs but must appear on a reuse-heavy workload.
    assert!(stats.policy_hits > 0, "seed-table lookups never hit");
}

#[test]
fn dead_entry_modifier_runs_and_diverges_from_base_policy() {
    let w = Workload::by_abbr("SSSP").expect("workload table contains SSSP");
    let plain = run_policy(&w, PolicySelection::parse("avatar").expect("name"), &opts(7));
    let dead =
        run_policy(&w, PolicySelection::parse("avatar+dead").expect("name"), &opts(7));
    // The modifier is a real policy change, not a label: on an irregular
    // workload the transient-fill hints reshape L1 TLB contents.
    assert!(dead.cycles > 0 && dead.loads == plain.loads);
    assert_ne!(
        plain.digest(),
        dead.digest(),
        "avatar+dead must not be digest-identical to avatar on SSSP"
    );
}

#[test]
fn dead_modifier_rejected_where_unsupported() {
    for name in ["ideal+dead", "colt+dead", "snakebyte+dead"] {
        let err = PolicySelection::parse(name)
            .expect_err("+dead requires the base TLB's priority support");
        assert!(err.contains("dead"), "error must name the modifier: {err}");
    }
}
