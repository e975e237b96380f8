//! `avatar-lint` CLI: scan the workspace sources and report rule
//! violations as `file:line: [rule-id] message` (and optionally a JSON
//! report).
//!
//! ```text
//! cargo run -p avatar-lint                  # text report, exit 1 on findings
//! cargo run -p avatar-lint -- --json o.json # also write the CI report
//! AVATAR_LINT_ALLOW=vec-vec cargo run -p avatar-lint   # downgrade a rule
//! ```

#![forbid(unsafe_code)]

use avatar_lint::{lint_sources, read_workspace_sources, Config, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: avatar-lint [--root <dir>] [--json <path>] [--allow <rule,rule>] [--show-allowed]\n\
     \u{20}                  [--list-rules] [--quiet]\n\
     \n\
     Scans <root>/src and <root>/crates/*/src with the local rules, then\n\
     the workspace-semantic rules (item graph + call graph). Exit code 1\n\
     if any deny finding remains. AVATAR_LINT_ALLOW=<rule,rule> (or `all`)\n\
     downgrades rules, same as --allow; `// lint:allow(<rule>)` on or above\n\
     a line suppresses a single local-rule site; semantic rules need a\n\
     reasoned `// lint:exempt(<rule>: <reason>)` marker instead."
}

/// Walks upward from the current directory to the first directory that
/// contains a `crates/` subdirectory (the workspace root).
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = Config::from_env();
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut show_allowed = false;
    let mut quiet = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => root = argv.next().map(PathBuf::from),
            "--json" => json_path = argv.next().map(PathBuf::from),
            "--allow" => {
                if let Some(list) = argv.next() {
                    cfg.allow_list(&list);
                }
            }
            "--show-allowed" => show_allowed = true,
            "--quiet" | "-q" => quiet = true,
            "--list-rules" => {
                for r in RULES {
                    println!("{:<26} [{}] {}", r.id, r.scope, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("avatar-lint: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    // Wall-clock timing is reporting-only: it never influences findings,
    // ordering, or exit status, so determinism is preserved.
    // lint:allow(nondeterminism)
    let t0 = std::time::Instant::now();

    let root = root.unwrap_or_else(find_root);
    let sources = match read_workspace_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("avatar-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut report = lint_sources(&sources, &cfg);
    // lint:allow(nondeterminism)
    report.wall_ms = t0.elapsed().as_millis() as u64;

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("avatar-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let text = report.to_text(show_allowed);
    if !text.is_empty() {
        print!("{text}");
    }
    if !quiet {
        eprintln!(
            "avatar-lint: scanned {} files, {} deny finding(s), {} allowed, {} ms",
            report.files_scanned,
            report.deny_count(),
            report.allowed_count(),
            report.wall_ms,
        );
    }
    if report.deny_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
