//! The `bp-lint` binary.
//!
//! ```text
//! bp-lint check [--root PATH] [--sarif FILE] [--audit-allowlist]
//!                               # exit 0 clean, 1 violations/stale allows, 2 usage/io
//! bp-lint rules                 # list the rule set
//! ```

use bp_lint::engine::Engine;
use bp_lint::sarif::{self, RuleMeta};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "check" => match CheckArgs::parse(&args[1..]) {
            Ok(a) => run_check(&a),
            Err(msg) => fail_usage(&msg),
        },
        "rules" => {
            for r in rule_metas() {
                println!("{}  {}", r.id, r.description);
            }
            ExitCode::SUCCESS
        }
        other => fail_usage(&format!("unknown subcommand `{other}`")),
    }
}

/// Metadata for every rule, per-file and whole-program alike, in id
/// order — shared by `rules` and the SARIF driver block.
fn rule_metas() -> Vec<RuleMeta> {
    let mut out: Vec<RuleMeta> = bp_lint::rules::all_rules()
        .iter()
        .map(|r| RuleMeta {
            id: r.id(),
            description: r.description().to_string(),
        })
        .collect();
    out.extend(bp_lint::rules::all_global_rules().iter().map(|r| RuleMeta {
        id: r.id(),
        description: r.description().to_string(),
    }));
    out.sort_by_key(|r| r.id);
    out
}

fn usage() {
    eprintln!(
        "bp-lint: repo-specific static analysis for the provenance store\n\
         \n\
         usage:\n\
         \x20 bp-lint check [--root PATH] [--sarif FILE] [--audit-allowlist]\n\
         \x20                               check the workspace (exit 1 on violations)\n\
         \x20 bp-lint rules                 list the rule set\n\
         \n\
         check flags:\n\
         \x20 --sarif FILE   also write findings as SARIF 2.1.0 to FILE\n\
         \x20 --audit-allowlist  fail when an allow directive suppresses nothing\n\
         \n\
         Suppress a finding with `// bp-lint: allow(L00X): <reason>` on or\n\
         above the offending line; the reason is mandatory."
    );
}

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("bp-lint: {msg}");
    usage();
    ExitCode::from(2)
}

/// Parsed `check` arguments.
struct CheckArgs {
    root: PathBuf,
    sarif: Option<PathBuf>,
    audit_allowlist: bool,
}

impl CheckArgs {
    fn parse(args: &[String]) -> Result<CheckArgs, String> {
        let mut it = args.iter();
        let mut root: Option<PathBuf> = None;
        let mut sarif = None;
        let mut audit_allowlist = false;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--root" => {
                    let p = it.next().ok_or("--root needs a path")?;
                    root = Some(PathBuf::from(p));
                }
                "--sarif" => {
                    let p = it.next().ok_or("--sarif needs a file path")?;
                    sarif = Some(PathBuf::from(p));
                }
                "--audit-allowlist" => audit_allowlist = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let root = match root {
            Some(r) => r,
            None => find_workspace_root()
                .ok_or_else(|| "could not locate workspace root; pass --root".to_string())?,
        };
        Ok(CheckArgs {
            root,
            sarif,
            audit_allowlist,
        })
    }
}

/// The workspace root: the nearest ancestor containing a top-level
/// `Cargo.toml` with `[workspace]`, so the tool works from any crate
/// directory.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_check(args: &CheckArgs) -> ExitCode {
    match Engine::new().check_tree(&args.root) {
        Ok(report) => {
            for v in &report.violations {
                println!("{v}");
            }
            if let Some(path) = &args.sarif {
                let doc = sarif::render(&report.violations, &rule_metas());
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("bp-lint: io error writing {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            let stale = if args.audit_allowlist {
                for s in &report.stale_allows {
                    println!("{s}");
                }
                report.stale_allows.len()
            } else {
                0
            };
            let n = report.violations.len();
            let s = report.suppressions.len();
            if n == 0 && stale > 0 {
                println!(
                    "bp-lint: FAILED — {} files, 0 violations, {} allowlisted, {} stale allow{}",
                    report.files,
                    s,
                    stale,
                    if stale == 1 { "" } else { "s" }
                );
                ExitCode::from(1)
            } else if n == 0 {
                println!(
                    "bp-lint: clean — {} files, 0 violations, {} allowlisted",
                    report.files, s
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "bp-lint: FAILED — {} files, {} violation{}, {} allowlisted",
                    report.files,
                    n,
                    if n == 1 { "" } else { "s" },
                    s
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("bp-lint: io error: {e}");
            ExitCode::from(2)
        }
    }
}
