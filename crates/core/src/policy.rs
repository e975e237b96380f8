//! The name-keyed translation-policy registry.
//!
//! Every evaluated system is a [`PolicySelection`]: one registry entry
//! (a [`PolicyDef`] naming the TLB family, memory-manager behaviour, and
//! speculation policy to assemble) plus optional policy *modifiers*
//! (currently the dead-entry-aware replacement hint, spelled `+dead`).
//! Harnesses parse selections from strings (`--policy avatar+dead`),
//! sweep over [`PolicySelection::all_base`], and key result-cache cells
//! on [`PolicySelection::key_digest`].
//!
//! The registry is the only way to name a system: harnesses, tests, the
//! `avatar` CLI and the benchmark all spell their policy sets as registry
//! names. Adding a contender is one [`PolicyDef`] row (plus its policy
//! type), not edits to every assembly function.

use crate::cast::AvatarPolicy;
use crate::dead_entry::DeadEntryPolicy;
use crate::revelator::RevelatorPolicy;
use avatar_baselines::{ColtTlb, SnakeByteTlb};
use avatar_sim::config::GpuConfig;
use avatar_sim::hooks::{NoSpeculation, TranslationPolicy};
use avatar_sim::invariant::Fnv64;
use avatar_sim::tlb::{BaseTlb, TlbModel};

/// Which TLB-model family a policy's L1/L2 hierarchy is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbKind {
    /// The set-associative base+large two-array design (paper Table II).
    Base,
    /// CoLT coalesced TLBs.
    Colt,
    /// SnakeByte recursive-merging TLBs.
    SnakeByte,
}

/// One registry entry: everything needed to assemble a full system for a
/// named policy.
#[derive(Debug)]
pub struct PolicyDef {
    /// Canonical CLI name (`--policy` spelling), lowercase.
    pub name: &'static str,
    /// Table/figure label (matches the paper's configuration names).
    pub label: &'static str,
    /// One-line description for usage text and docs.
    pub summary: &'static str,
    /// Whether the memory manager promotes fully-resident 2MB chunks.
    pub uses_promotion: bool,
    /// Whether migrated data is compressed with embedded page info (CAVA).
    pub embeds_page_info: bool,
    /// Whether every lookup resolves instantly (translation oracle).
    pub ideal_tlb: bool,
    /// TLB-model family for both levels.
    pub tlb: TlbKind,
    /// Whether the `+dead` replacement modifier may wrap this policy.
    /// Requires the base TLB family (the prior-work TLB models do not
    /// implement prioritized fills) and a real TLB path.
    pub supports_dead_entry: bool,
    build: fn(&GpuConfig) -> Box<dyn TranslationPolicy>,
}

fn build_none(_cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(NoSpeculation)
}

fn build_cast_only(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::cast_only(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_avatar(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::avatar(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_avatar_no_eaf(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::avatar_no_eaf(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_cast_ideal(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::cast_ideal(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_avatar_vpnt(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::avatar_vpnt(cfg.num_sms, cfg.spec.mod_entries))
}

fn build_revelator(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(RevelatorPolicy::new(cfg.spec.seed_entries, cfg.spec.rapid_latency))
}

/// The registry: every assemblable policy, in presentation order.
/// Append-only by convention — reordering or renaming entries would
/// change `--policy` spellings and result-cache keys.
pub const REGISTRY: &[PolicyDef] = &[
    PolicyDef {
        name: "baseline",
        label: "Baseline",
        summary: "UVM baseline: base TLBs, TBN prefetcher, no promotion",
        uses_promotion: false,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_none,
    },
    PolicyDef {
        name: "ideal",
        label: "Ideal-TLB",
        summary: "translation oracle: every lookup resolves instantly (Fig 3 bound)",
        uses_promotion: false,
        embeds_page_info: false,
        ideal_tlb: true,
        tlb: TlbKind::Base,
        supports_dead_entry: false,
        build: build_none,
    },
    PolicyDef {
        name: "promotion",
        label: "Promotion",
        summary: "Mosaic-style 2MB page promotion (adopted by all contenders)",
        uses_promotion: true,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_none,
    },
    PolicyDef {
        name: "colt",
        label: "CoLT",
        summary: "CoLT coalesced TLBs + promotion",
        uses_promotion: true,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::Colt,
        supports_dead_entry: false,
        build: build_none,
    },
    PolicyDef {
        name: "snakebyte",
        label: "SnakeByte",
        summary: "SnakeByte recursive merging + promotion",
        uses_promotion: true,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::SnakeByte,
        supports_dead_entry: false,
        build: build_none,
    },
    PolicyDef {
        name: "cast",
        label: "CAST-only",
        summary: "CAST speculation without validation support",
        uses_promotion: true,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_cast_only,
    },
    PolicyDef {
        name: "avatar",
        label: "Avatar",
        summary: "full Avatar: CAST + CAVA in-cache validation + EAF",
        uses_promotion: true,
        embeds_page_info: true,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_avatar,
    },
    PolicyDef {
        name: "avatar-noeaf",
        label: "Avatar-noEAF",
        summary: "Avatar without the Early-TLB-Fill path (ablation)",
        uses_promotion: true,
        embeds_page_info: true,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_avatar_no_eaf,
    },
    PolicyDef {
        name: "cast-ideal",
        label: "CAST+Ideal-Valid",
        summary: "CAST with oracle validation (validation upper bound)",
        uses_promotion: true,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_cast_ideal,
    },
    PolicyDef {
        name: "avatar-vpnt",
        label: "Avatar-VPNT",
        summary: "Avatar with the VPN-T predictor instead of MOD (Fig 22)",
        uses_promotion: true,
        embeds_page_info: true,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_avatar_vpnt,
    },
    PolicyDef {
        name: "revelator",
        label: "Revelator",
        summary: "hash-based speculative translation from SW-guided seed tables \
                  with rapid validation-on-use (no compressed sectors needed)",
        uses_promotion: true,
        embeds_page_info: false,
        ideal_tlb: false,
        tlb: TlbKind::Base,
        supports_dead_entry: true,
        build: build_revelator,
    },
];

/// The paper's Fig 15 column set, in plot order (the Baseline reference
/// column is implicit). A [`PolicySelection::parse_list`] input.
pub const FIG15: &str = "promotion,colt,snakebyte,cast,avatar,cast-ideal";

/// Looks up a registry entry by canonical name.
pub fn find(name: &str) -> Option<&'static PolicyDef> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// Comma-joined canonical names, for error messages and usage text.
pub fn names() -> String {
    REGISTRY.iter().map(|d| d.name).collect::<Vec<_>>().join(", ")
}

/// A concrete, assemblable policy choice: one registry entry plus
/// modifiers. Parsed from strings like `avatar` or `revelator+dead`.
#[derive(Debug, Clone, Copy)]
pub struct PolicySelection {
    /// The base policy.
    pub def: &'static PolicyDef,
    /// Wrap the policy in the dead-entry-aware L1 replacement modifier.
    pub dead_entry: bool,
}

impl PartialEq for PolicySelection {
    fn eq(&self, other: &Self) -> bool {
        self.def.name == other.def.name && self.dead_entry == other.dead_entry
    }
}

impl Eq for PolicySelection {}

impl PolicySelection {
    /// The unmodified selection of a registry entry.
    pub fn base(def: &'static PolicyDef) -> Self {
        Self { def, dead_entry: false }
    }

    /// Every registry entry as an unmodified selection, in registry order.
    pub fn all_base() -> impl Iterator<Item = PolicySelection> {
        REGISTRY.iter().map(Self::base)
    }

    /// Parses `name[+modifier…]`. Accepted modifiers: `dead` (the
    /// dead-entry-aware replacement hint). Unknown names list the
    /// registry; unsupported combinations (e.g. `colt+dead` — the CoLT
    /// TLB model has no prioritized-fill path) are rejected here, at the
    /// API boundary, rather than silently ignored at assembly.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut parts = text.trim().split('+');
        let base = parts.next().unwrap_or("").trim().to_ascii_lowercase();
        let def = find(&base)
            .ok_or_else(|| format!("unknown policy '{base}' (known: {})", names()))?;
        let mut sel = Self::base(def);
        for m in parts {
            match m.trim().to_ascii_lowercase().as_str() {
                "dead" => {
                    if !def.supports_dead_entry {
                        return Err(format!(
                            "policy '{}' does not support the +dead modifier \
                             (needs the base TLB family with prioritized fills)",
                            def.name
                        ));
                    }
                    sel.dead_entry = true;
                }
                other => {
                    return Err(format!(
                        "unknown policy modifier '+{other}' (known modifiers: +dead)"
                    ))
                }
            }
        }
        Ok(sel)
    }

    /// Parses a comma-separated selection list (`--policies` values).
    pub fn parse_list(text: &str) -> Result<Vec<Self>, String> {
        text.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect()
    }

    /// The canonical spelling (`parse` round-trips it).
    pub fn name(&self) -> String {
        if self.dead_entry {
            format!("{}+dead", self.def.name)
        } else {
            self.def.name.to_string()
        }
    }

    /// Table/figure label; modifiers append to the base label.
    pub fn label(&self) -> String {
        if self.dead_entry {
            format!("{}+DoA", self.def.label)
        } else {
            self.def.label.to_string()
        }
    }

    /// Canonical digest of the selection for result-cache keys. The
    /// exhaustive destructuring (no `..`) makes adding a modifier field
    /// without deciding its cache-key role a compile error; the def
    /// contributes its registry name — the stable identity every
    /// assembly decision hangs off.
    pub fn key_digest(&self) -> u64 {
        let PolicySelection { def, dead_entry } = self;
        let mut h = Fnv64::new();
        h.write_u64(def.name.len() as u64);
        for b in def.name.bytes() {
            h.write_u64(u64::from(b));
        }
        h.write_u64(u64::from(*dead_entry));
        h.finish()
    }

    /// Sets the [`GpuConfig`] switches this selection's entry owns:
    /// the translation oracle, 2MB promotion, and CAVA's embedded page
    /// info.
    pub fn configure(&self, cfg: &mut GpuConfig) {
        cfg.ideal_tlb = self.def.ideal_tlb;
        cfg.uvm.promotion = self.def.uses_promotion;
        cfg.uvm.embed_page_info = self.def.embeds_page_info;
    }

    /// Builds the L1 (per-SM) and L2 TLB models for this selection.
    pub fn build_tlbs(&self, cfg: &GpuConfig) -> (Vec<Box<dyn TlbModel>>, Box<dyn TlbModel>) {
        let base_pages = cfg.uvm.base_page.pages();
        let l1 = |_i: usize| -> Box<dyn TlbModel> {
            match self.def.tlb {
                TlbKind::Colt => Box::new(ColtTlb::new(
                    cfg.l1_tlb.base_entries,
                    cfg.l1_tlb.large_entries,
                    cfg.l1_tlb.assoc,
                )),
                TlbKind::SnakeByte => Box::new(SnakeByteTlb::new(
                    cfg.l1_tlb.base_entries + cfg.l1_tlb.large_entries,
                )),
                TlbKind::Base => Box::new(BaseTlb::new(
                    cfg.l1_tlb.base_entries,
                    cfg.l1_tlb.large_entries,
                    cfg.l1_tlb.assoc,
                    base_pages,
                )),
            }
        };
        let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms).map(l1).collect();
        let l2: Box<dyn TlbModel> = match self.def.tlb {
            TlbKind::Colt => Box::new(ColtTlb::new(
                cfg.l2_tlb.base_entries,
                cfg.l2_tlb.large_entries,
                cfg.l2_tlb.assoc,
            )),
            TlbKind::SnakeByte => {
                Box::new(SnakeByteTlb::new(cfg.l2_tlb.base_entries + cfg.l2_tlb.large_entries))
            }
            TlbKind::Base => Box::new(BaseTlb::new(
                cfg.l2_tlb.base_entries,
                cfg.l2_tlb.large_entries,
                cfg.l2_tlb.assoc,
                base_pages,
            )),
        };
        (l1s, l2)
    }

    /// Builds the translation policy object, applying modifiers.
    pub fn build_policy(&self, cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
        let inner = (self.def.build)(cfg);
        if self.dead_entry {
            Box::new(DeadEntryPolicy::new(cfg.num_sms, inner))
        } else {
            inner
        }
    }
}

impl std::fmt::Display for PolicySelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_parses_back_to_itself() {
        for def in REGISTRY {
            let sel = PolicySelection::parse(def.name).expect("registry name parses");
            assert_eq!(sel.def.name, def.name);
            assert!(!sel.dead_entry);
            assert_eq!(sel.name(), def.name);
            assert_eq!(sel.label(), def.label);
        }
    }

    #[test]
    fn names_are_unique_and_canonical() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert_eq!(a.name, a.name.to_ascii_lowercase(), "names are lowercase");
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate policy name");
                assert_ne!(a.label, b.label, "duplicate policy label");
            }
        }
    }

    #[test]
    fn dead_modifier_parses_where_supported() {
        let sel = PolicySelection::parse("avatar+dead").expect("avatar supports +dead");
        assert!(sel.dead_entry);
        assert_eq!(sel.name(), "avatar+dead");
        assert_eq!(sel.label(), "Avatar+DoA");
        // Round trip through the canonical spelling.
        assert_eq!(PolicySelection::parse(&sel.name()).expect("round trip"), sel);
    }

    #[test]
    fn dead_modifier_rejected_on_unsupported_families() {
        for name in ["colt+dead", "snakebyte+dead", "ideal+dead"] {
            let err = PolicySelection::parse(name).expect_err("must reject");
            assert!(err.contains("+dead"), "error names the modifier: {err}");
        }
    }

    #[test]
    fn unknown_names_and_modifiers_error_with_catalog() {
        let err = PolicySelection::parse("warpdrive").expect_err("unknown policy");
        assert!(err.contains("revelator"), "error lists the registry: {err}");
        let err = PolicySelection::parse("avatar+warp").expect_err("unknown modifier");
        assert!(err.contains("+warp"), "{err}");
    }

    #[test]
    fn parse_list_splits_and_trims() {
        let sels = PolicySelection::parse_list(" baseline, avatar+dead ,revelator ")
            .expect("list parses");
        assert_eq!(sels.len(), 3);
        assert_eq!(sels[0].name(), "baseline");
        assert_eq!(sels[1].name(), "avatar+dead");
        assert_eq!(sels[2].name(), "revelator");
        assert!(PolicySelection::parse_list("avatar,bogus").is_err());
    }

    #[test]
    fn key_digest_separates_selections() {
        let mut seen = std::collections::BTreeMap::new();
        for def in REGISTRY {
            for dead in [false, true] {
                if dead && !def.supports_dead_entry {
                    continue;
                }
                let sel = PolicySelection { def, dead_entry: dead };
                if let Some(prev) = seen.insert(sel.key_digest(), sel.name()) {
                    panic!("digest collision between {prev} and {}", sel.name());
                }
            }
        }
    }

    #[test]
    fn fig15_set_parses_in_plot_order() {
        let sels = PolicySelection::parse_list(FIG15).expect("registry names");
        let labels: Vec<String> = sels.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["Promotion", "CoLT", "SnakeByte", "CAST-only", "Avatar", "CAST+Ideal-Valid"]
        );
    }

    #[test]
    fn case_insensitive_parse() {
        let sel = PolicySelection::parse("Avatar+DEAD").expect("case folded");
        assert_eq!(sel.name(), "avatar+dead");
    }
}
