//! Shared command-line parsing for every figure/table harness binary.
//!
//! [`HarnessArgs`] replaces the per-binary ad-hoc `std::env::args` loops
//! with one strict parser. Flags common to all harnesses:
//!
//! * `--quick` / `--full` — CI-sized (4 SMs × 8 warps, scale 0.05) or
//!   paper-scale (46 × 48, scale 1.0) presets
//! * `--scale <f>`, `--sms <n>`, `--warps <n>` — individual geometry knobs
//! * `--threads <n>` — worker threads for the scenario grid (default:
//!   `AVATAR_THREADS`, else available parallelism)
//! * `--seed <n>` — extra seed mixed into allocation randomness
//! * `--json <path>` — dump rows as machine-readable JSON
//! * `--trace-out <path>` — Chrome-trace destination (`probes` builds;
//!   falls back to the `AVATAR_TRACE_OUT` environment variable)
//! * `--cache <dir>` / `--no-cache` — result-cache directory override /
//!   kill switch. The cache is **on by default** (`AVATAR_CACHE` env,
//!   else `target/avatar-cache`): repeat sweeps replay digest-verified
//!   results instead of re-simulating — see [`crate::cache`].
//!
//! Binaries with bespoke flags declare them as [`ExtraFlag`]s; anything
//! else is a **hard error**: the binary prints its usage text and exits
//! with status 2 instead of silently ignoring a typo (`--warsp 48` used
//! to run the default geometry and *look* like a paper-scale result).
//! The same holds for [`POLICY_FLAGS`] (`--policy <name>` /
//! `--policies <list>`, registry names): only the harnesses whose
//! column set is a free choice declare them, so a fixed-set figure
//! rejects `--policy revelator` instead of printing its usual columns.

use crate::json::Json;
use avatar_core::policy::PolicySelection;
use avatar_core::system::RunOptions;
use std::path::PathBuf;

/// A binary-specific flag, declared so the shared parser can accept it,
/// list it in usage text, and reject everything undeclared.
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// The flag spelling, including dashes (`"--abbr"`).
    pub flag: &'static str,
    /// `Some("NAME")` if the flag takes a value (shown in usage);
    /// `None` for a boolean switch.
    pub value_name: Option<&'static str>,
    /// One-line description for the usage text.
    pub help: &'static str,
}

/// `--policy NAME` (repeatable) / `--policies LIST`: restrict a harness
/// to registry selections (see [`avatar_core::policy::REGISTRY`]).
/// Unknown names are hard errors listing the catalog. Declared through
/// [`HarnessArgs::parse_with`] by harnesses that honour
/// [`HarnessArgs::policies`]; undeclared, they are unknown flags.
pub const POLICY_FLAGS: [ExtraFlag; 2] = [
    ExtraFlag {
        flag: "--policy",
        value_name: Some("NAME"),
        help: "restrict to a registry policy (repeatable; e.g. avatar, revelator, avatar+dead)",
    },
    ExtraFlag {
        flag: "--policies",
        value_name: Some("LIST"),
        help: "comma-separated policy names (appends to --policy)",
    },
];

/// Parsed command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Workload scale factor.
    pub scale: f64,
    /// SM count.
    pub sms: usize,
    /// Warps per SM.
    pub warps: usize,
    /// Extra seed mixed into allocation randomness.
    pub seed: u64,
    /// Optional JSON dump path.
    pub json: Option<PathBuf>,
    /// Worker threads for the scenario grid.
    pub threads: usize,
    /// Chrome-trace destination (`--trace-out` / `AVATAR_TRACE_OUT`).
    pub trace_out: Option<PathBuf>,
    /// Result-cache directory override (`--cache`); `None` falls back to
    /// `AVATAR_CACHE`, then [`crate::cache::DEFAULT_DIR`].
    pub cache_dir: Option<PathBuf>,
    /// Disables the result cache entirely (`--no-cache`).
    pub no_cache: bool,
    /// Policy selections accumulated from `--policy` / `--policies`,
    /// in occurrence order. Empty means "the harness's default set" —
    /// query via [`policies`](Self::policies).
    policy_list: Vec<PolicySelection>,
    /// Values captured for declared [`ExtraFlag`]s, in occurrence order.
    extras: Vec<(&'static str, Option<String>)>,
}

/// Default thread count: `AVATAR_THREADS` if set and parsable, else the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("AVATAR_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("warning: AVATAR_THREADS='{v}' is not a positive integer; ignoring"),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 1.0,
            sms: 16,
            warps: 32,
            seed: RunOptions::default().seed,
            json: None,
            threads: default_threads(),
            trace_out: None,
            cache_dir: None,
            no_cache: false,
            policy_list: Vec::new(),
            extras: Vec::new(),
        }
    }
}

/// Usage text for a binary and its declared extra flags.
pub fn usage(bin: &str, extras: &[ExtraFlag]) -> String {
    let mut s = format!(
        "usage: {bin} [--quick | --full] [--scale F] [--sms N] [--warps N]\n       \
         [--threads N] [--seed N] [--json PATH]\n       \
         [--trace-out PATH] [--cache DIR | --no-cache]"
    );
    for e in extras {
        match e.value_name {
            Some(v) => s.push_str(&format!(" [{} {v}]", e.flag)),
            None => s.push_str(&format!(" [{}]", e.flag)),
        }
    }
    s.push_str(
        "\n\n  --quick            CI-sized run: 4 SMs x 8 warps, scale 0.05\n  \
         --full             paper-scale run: 46 SMs x 48 warps, scale 1.0\n  \
         --scale F          workload working-set scale (default 1.0)\n  \
         --sms N            SM count (default 16)\n  \
         --warps N          warps per SM (default 32)\n  \
         --threads N        worker threads (default: AVATAR_THREADS, else all cores)\n  \
         --seed N           extra allocation seed (default 7)\n  \
         --json PATH        dump rows as JSON\n  \
         --trace-out PATH   write a Chrome/Perfetto trace (probes builds;\n                     \
         env fallback: AVATAR_TRACE_OUT)\n  \
         --cache DIR        result-cache directory (default: AVATAR_CACHE,\n                     \
         else target/avatar-cache; repeat sweeps replay\n                     \
         digest-verified results instead of re-simulating)\n  \
         --no-cache         disable the result cache for this run",
    );
    for e in extras {
        let head = match e.value_name {
            Some(v) => format!("{} {v}", e.flag),
            None => e.flag.to_string(),
        };
        s.push_str(&format!("\n  {head:<18} {}", e.help));
    }
    s
}

impl HarnessArgs {
    /// Parses the process arguments; on any error prints the usage text
    /// and exits with status 2.
    pub fn parse() -> Self {
        Self::parse_with(&[])
    }

    /// Like [`parse`](Self::parse) for binaries with bespoke flags.
    pub fn parse_with(extras: &[ExtraFlag]) -> Self {
        let mut argv = std::env::args();
        let bin = argv
            .next()
            .as_deref()
            .map(|p| {
                std::path::Path::new(p)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.to_string())
            })
            .unwrap_or_else(|| "harness".to_string());
        match Self::try_parse(argv, extras) {
            Ok(mut args) => {
                if args.trace_out.is_none() {
                    args.trace_out = std::env::var_os("AVATAR_TRACE_OUT").map(PathBuf::from);
                }
                args.configure_cache();
                args
            }
            Err(e) => {
                eprintln!("{bin}: error: {e}\n");
                eprintln!("{}", usage(&bin, extras));
                std::process::exit(2);
            }
        }
    }

    /// The testable parsing core: no process exit, no environment reads.
    /// `args` excludes the program name.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
        extras: &[ExtraFlag],
    ) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            next: Option<String>,
        ) -> Result<T, String> {
            let v = next.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag} value '{v}' is not valid"))
        }
        let declared = |flag: &str| extras.iter().any(|e| e.flag == flag);
        let mut opts = Self::default();
        let mut args = args.into_iter();
        'next_arg: while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => opts.scale = value("--scale", args.next())?,
                "--sms" => opts.sms = value("--sms", args.next())?,
                "--warps" => opts.warps = value("--warps", args.next())?,
                "--seed" => opts.seed = value("--seed", args.next())?,
                "--threads" => opts.threads = value::<usize>("--threads", args.next())?.max(1),
                "--full" => {
                    opts.scale = 1.0;
                    opts.sms = 46;
                    opts.warps = 48;
                }
                "--quick" => {
                    opts.scale = 0.05;
                    opts.sms = 4;
                    opts.warps = 8;
                }
                "--json" => {
                    opts.json =
                        Some(PathBuf::from(value::<String>("--json", args.next())?))
                }
                "--trace-out" => {
                    opts.trace_out =
                        Some(PathBuf::from(value::<String>("--trace-out", args.next())?))
                }
                "--cache" => {
                    opts.cache_dir =
                        Some(PathBuf::from(value::<String>("--cache", args.next())?))
                }
                "--no-cache" => opts.no_cache = true,
                "--policy" if declared("--policy") => {
                    let name = value::<String>("--policy", args.next())?;
                    opts.policy_list.push(PolicySelection::parse(&name)?);
                }
                "--policies" if declared("--policies") => {
                    let list = value::<String>("--policies", args.next())?;
                    opts.policy_list.extend(PolicySelection::parse_list(&list)?);
                }
                other => {
                    for e in extras {
                        if e.flag == other {
                            let v = match e.value_name {
                                Some(_) => Some(value::<String>(e.flag, args.next())?),
                                None => None,
                            };
                            opts.extras.push((e.flag, v));
                            continue 'next_arg;
                        }
                    }
                    return Err(format!("unknown flag '{other}'"));
                }
            }
        }
        Ok(opts)
    }

    /// Installs the process-global result cache from the resolved
    /// `--cache` / `--no-cache` / `AVATAR_CACHE` knobs (default: enabled
    /// at [`crate::cache::DEFAULT_DIR`]). First configuration wins, so a
    /// harness that must never replay cached results (the throughput
    /// timing bin) pins the cache off by calling
    /// `cache::configure(None)` *before* parsing.
    pub fn configure_cache(&self) {
        let cache = if self.no_cache {
            None
        } else {
            let dir = self
                .cache_dir
                .clone()
                .or_else(|| std::env::var_os("AVATAR_CACHE").map(PathBuf::from))
                .unwrap_or_else(|| PathBuf::from(crate::cache::DEFAULT_DIR));
            Some(crate::cache::ResultCache::new(dir))
        };
        crate::cache::configure(cache);
    }

    /// The policy selections given via `--policy` / `--policies`, in
    /// occurrence order, or `None` when the user gave neither — the
    /// harness then runs its own default set.
    pub fn policies(&self) -> Option<&[PolicySelection]> {
        if self.policy_list.is_empty() {
            None
        } else {
            Some(&self.policy_list)
        }
    }

    /// The captured value of a declared value-taking extra flag (last
    /// occurrence wins), or `None` if it was not given.
    pub fn extra_value(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether a declared boolean extra flag was given.
    pub fn extra_present(&self, flag: &str) -> bool {
        self.extras.iter().any(|(f, _)| *f == flag)
    }

    /// Converts to simulator run options.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            scale: self.scale,
            sms: Some(self.sms),
            warps: Some(self.warps),
            seed: self.seed,
            trace_out: self.trace_out.clone(),
            ..RunOptions::default()
        }
    }

    /// Writes rows to the `--json` path, if given.
    pub fn dump_json(&self, rows: &[Json]) {
        if let Some(path) = &self.json {
            self.dump_json_to(path.clone(), rows);
        }
    }

    /// Writes rows to an explicit path (used by harnesses with a default
    /// dump location, e.g. `throughput`).
    ///
    /// When the result cache is active, a trailing `"section": "cache"`
    /// object records the process-wide hit/miss/memoized counters and
    /// the wall time replays skipped, so a dump can never be quoted
    /// without disclosing how much of it was replayed. CI's warm-sweep
    /// gate strips this section (it legitimately differs between the
    /// cold and warm pass) and byte-diffs the rest.
    pub fn dump_json_to(&self, path: PathBuf, rows: &[Json]) {
        let mut rows = rows.to_vec();
        if crate::cache::global().is_some() {
            let t = crate::cache::tally();
            rows.push(crate::obj! {
                "section": "cache",
                "cache_hits": t.hits,
                "cache_misses": t.misses,
                "cache_memoized": t.memoized,
                "cache_skipped_wall_s": t.skipped_wall_s,
            });
        }
        let doc = Json::Arr(rows);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("failed to write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(args(list), &[])
    }

    #[test]
    fn default_args_reasonable() {
        let o = HarnessArgs::default();
        assert!(o.scale > 0.0 && o.sms > 0 && o.warps > 0 && o.threads >= 1);
        let ro = o.run_options();
        assert_eq!(ro.sms, Some(16));
        assert_eq!(ro.seed, RunOptions::default().seed);
    }

    #[test]
    fn known_flags_parse() {
        let o = parse(&[
            "--scale", "0.5", "--sms", "8", "--warps", "16", "--threads", "3", "--seed", "42",
        ])
        .expect("valid args");
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.sms, 8);
        assert_eq!(o.warps, 16);
        assert_eq!(o.threads, 3);
        assert_eq!(o.seed, 42);
        assert_eq!(o.run_options().seed, 42);
    }

    #[test]
    fn unknown_flag_is_a_hard_error() {
        let err = parse(&["--warsp", "48"]).expect_err("typo must not be ignored");
        assert!(err.contains("--warsp"), "error names the flag: {err}");
    }

    #[test]
    fn bad_value_is_a_hard_error() {
        let err = parse(&["--sms", "lots"]).expect_err("bad value must not default");
        assert!(err.contains("--sms") && err.contains("lots"));
        let err = parse(&["--scale"]).expect_err("missing value must error");
        assert!(err.contains("--scale"));
    }

    #[test]
    fn quick_and_full_presets() {
        let q = parse(&["--quick"]).expect("preset parses");
        assert_eq!((q.sms, q.warps), (4, 8));
        assert_eq!(q.scale, 0.05);
        let f = parse(&["--full"]).expect("preset parses");
        assert_eq!((f.sms, f.warps), (46, 48));
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        let o = parse(&["--threads", "0"]).expect("valid args");
        assert_eq!(o.threads, 1);
    }

    #[test]
    fn trace_out_flows_into_run_options() {
        let o = parse(&["--trace-out", "t.json"]).expect("valid args");
        assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(
            o.run_options().trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
    }

    #[test]
    fn extra_flags_must_be_declared() {
        let extras = [
            ExtraFlag { flag: "--abbr", value_name: Some("WL"), help: "workload" },
            ExtraFlag { flag: "--measure", value_name: None, help: "measure MPMIs" },
        ];
        let o = HarnessArgs::try_parse(args(&["--abbr", "SSSP", "--measure"]), &extras)
            .expect("declared extras parse");
        assert_eq!(o.extra_value("--abbr"), Some("SSSP"));
        assert!(o.extra_present("--measure"));
        assert!(!o.extra_present("--other"));
        // Undeclared: hard error even though another binary declares it.
        assert!(parse(&["--measure"]).is_err());
        // Last occurrence wins for repeated value flags.
        let o2 = HarnessArgs::try_parse(args(&["--abbr", "SSSP", "--abbr", "KM"]), &extras)
            .expect("repeats parse");
        assert_eq!(o2.extra_value("--abbr"), Some("KM"));
    }

    #[test]
    fn policy_flags_parse() {
        let parse = |list: &[&str]| HarnessArgs::try_parse(args(list), &POLICY_FLAGS);
        // Default: no restriction — harnesses run their own set.
        let d = parse(&[]).expect("valid args");
        assert!(d.policies().is_none());
        // Repeatable --policy accumulates in order.
        let o = parse(&["--policy", "avatar", "--policy", "revelator"]).expect("valid args");
        let sels = o.policies().expect("two selections");
        assert_eq!(sels.len(), 2);
        assert_eq!(sels[0].label(), "Avatar");
        assert_eq!(sels[1].label(), "Revelator");
        // --policies takes a comma list and appends after --policy.
        let m = parse(&["--policy", "baseline", "--policies", "colt, avatar+dead"])
            .expect("valid args");
        let sels = m.policies().expect("three selections");
        assert_eq!(sels.len(), 3);
        assert_eq!(sels[2].label(), "Avatar+DoA");
        // Unknown names are hard errors that list the catalog.
        let err = parse(&["--policy", "warpspeed"]).expect_err("unknown policy");
        assert!(err.contains("warpspeed") && err.contains("avatar"), "{err}");
        let err = parse(&["--policies", "colt,ideal+dead"]).expect_err("bad modifier combo");
        assert!(err.contains("ideal"), "{err}");
    }

    #[test]
    fn policy_flags_are_unknown_unless_declared() {
        // A fixed-set harness must not run its usual columns under a
        // policy restriction it would ignore.
        for flag in ["--policy", "--policies"] {
            let err = parse(&[flag, "revelator"]).expect_err("undeclared policy flag");
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        assert!(!usage("fig17_eaf", &[]).contains("--polic"));
        let u = usage("policy_sweep", &POLICY_FLAGS);
        assert!(u.contains("--policy NAME") && u.contains("--policies LIST"), "{u}");
    }

    #[test]
    fn cache_flags_parse() {
        let d = parse(&[]).expect("valid args");
        assert_eq!(d.cache_dir, None);
        assert!(!d.no_cache, "cache defaults to enabled");
        let o = parse(&["--cache", "/tmp/c"]).expect("valid args");
        assert_eq!(o.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/c")));
        let n = parse(&["--no-cache"]).expect("valid args");
        assert!(n.no_cache);
        assert!(parse(&["--cache"]).is_err(), "--cache requires a directory");
    }

    #[test]
    fn usage_lists_extras() {
        let extras =
            [ExtraFlag { flag: "--abbr", value_name: Some("WL"), help: "workload abbr" }];
        let u = usage("fig99_demo", &extras);
        assert!(u.contains("fig99_demo"));
        assert!(u.contains("--abbr WL"));
        assert!(u.contains("--trace-out"));
        assert!(u.contains("workload abbr"));
    }
}
