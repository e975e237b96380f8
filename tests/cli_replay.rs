//! `avatar replay` assembles the system its `--config` names through the
//! policy registry: each registry entry replays under its own TLB family
//! and speculation policy, not a stand-in that merely prints the
//! requested label.

use avatar_gpu::core::policy::REGISTRY;
use std::path::{Path, PathBuf};
use std::process::Command;

fn avatar(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_avatar")).args(args).output().expect("avatar runs");
    assert!(out.status.success(), "avatar {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// An SSSP trace at scale 0.05 on 4 SMs x 8 warps, written once per test.
fn sssp_trace(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("avatar_replay_{}_{tag}.trace", std::process::id()));
    let p = path.to_str().expect("utf-8 temp path");
    avatar(&["trace", "SSSP", "--scale", "0.05", "--sms", "4", "--warps", "8", "--out", p]);
    path
}

fn replay(trace: &Path, config: &str) -> String {
    let t = trace.to_str().expect("utf-8 temp path");
    avatar(&["replay", t, "--config", config, "--sms", "4", "--warps", "8"])
}

/// The summary line without its leading label.
fn body(line: &str) -> &str {
    line.split_once(": ").expect("label: summary").1
}

#[test]
fn replay_assembles_every_registry_entry() {
    let trace = sssp_trace("registry");
    let lines: Vec<(&str, String)> =
        REGISTRY.iter().map(|def| (def.name, replay(&trace, def.name))).collect();
    let _ = std::fs::remove_file(&trace);
    let line = |name: &str| &lines.iter().find(|(n, _)| *n == name).expect("registry name").1;
    for def in REGISTRY {
        assert!(line(def.name).starts_with(&format!("{}: ", def.label)), "{}", line(def.name));
    }

    // Replay summaries on the SSSP trace; any change to the replay
    // assembly of these four systems shows here.
    let pinned = [
        ("baseline", "Baseline: 32868 cycles | 2816 loads, 256 stores | L1 TLB miss 18.7% | 497 walks | spec acc 0.0% cov 0.0% | DRAM 19.3MB"),
        ("ideal", "Ideal-TLB: 22699 cycles | 2816 loads, 256 stores | L1 TLB miss 0.0% | 0 walks | spec acc 0.0% cov 0.0% | DRAM 19.3MB"),
        ("promotion", "Promotion: 32868 cycles | 2816 loads, 256 stores | L1 TLB miss 18.7% | 497 walks | spec acc 0.0% cov 0.0% | DRAM 19.3MB"),
        ("avatar", "Avatar: 29729 cycles | 2816 loads, 256 stores | L1 TLB miss 18.1% | 253 walks | spec acc 100.0% cov 75.3% | DRAM 19.3MB"),
    ];
    for (name, want) in pinned {
        assert_eq!(line(name).trim_end(), want, "{name}");
    }

    // The TLB family and the policy variant both reach the engine.
    assert_ne!(body(line("colt")), body(line("promotion")), "CoLT must replay CoLT TLBs");
    assert_ne!(body(line("avatar-noeaf")), body(line("avatar")), "noEAF must drop Early-TLB-Fill");
}

#[test]
fn config_names_are_registry_spellings() {
    let listing = avatar(&["list"]);
    for def in REGISTRY {
        assert!(listing.contains(def.summary), "`avatar list` omits {}", def.name);
    }
    // The CLI shares the registry's parser: modifiers parse, and names the
    // registry does not know are rejected with its catalog.
    let trace = sssp_trace("names");
    let dead = replay(&trace, "avatar+dead");
    assert!(dead.starts_with("Avatar+DoA: "), "{dead}");
    let out = Command::new(env!("CARGO_BIN_EXE_avatar"))
        .args(["replay", trace.to_str().expect("utf-8 temp path"), "--config", "ideal-valid"])
        .output()
        .expect("avatar runs");
    let _ = std::fs::remove_file(&trace);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown policy 'ideal-valid'") && err.contains("cast-ideal"), "{err}");
}
