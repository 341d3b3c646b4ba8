//! Golden-output tests for bp-lint: fixture trees with known violations,
//! exact spans and exit codes.
//!
//! The fixtures live in `crates/lint/fixtures/` — a directory name the
//! checker skips, so fixture files (which violate rules on purpose) never
//! pollute a real workspace run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bp-lint"))
}

#[test]
fn violations_fixture_matches_golden_spans() {
    let report = bp_lint::check_root(&fixtures().join("violations")).unwrap();
    let got: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    let golden = std::fs::read_to_string(fixtures().join("violations.expected")).unwrap();
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with("bp-lint:"))
        .collect();
    assert_eq!(got, want);
    // The justified directive suppresses exactly one finding, with its
    // reason carried through to the report.
    assert_eq!(report.suppressions.len(), 1);
    assert_eq!(report.suppressions[0].rule, "L005");
    assert!(
        report.suppressions[0]
            .reason
            .contains("justified suppression"),
        "{:?}",
        report.suppressions[0].reason
    );
    assert_eq!(report.files, 2);
}

#[test]
fn check_stdout_and_exit_code_on_violations() {
    let out = bin()
        .args(["check", "--root"])
        .arg(fixtures().join("violations"))
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = std::fs::read_to_string(fixtures().join("violations.expected")).unwrap();
    assert_eq!(stdout, golden);
}

#[test]
fn check_exits_zero_on_clean_tree() {
    let out = bin()
        .args(["check", "--root"])
        .arg(fixtures().join("clean"))
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("bp-lint: clean — 1 files, 0 violations, 0 allowlisted"),
        "{stdout}"
    );
}

#[test]
fn exit_code_two_on_usage_and_io_errors() {
    let out = bin().args(["frobnicate"]).output().expect("run bp-lint");
    assert_eq!(out.status.code(), Some(2), "unknown subcommand");
    let out = bin()
        .args(["check", "--root", "/nonexistent/bp-lint-golden"])
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(2), "unreadable root");
    let out = bin()
        .args(["check", "--bogus-flag"])
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(2), "unknown flag");
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = bin().args(["rules"]).output().expect("run bp-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(
        ids,
        ["L004", "L005", "L007", "L008", "L009", "L010"],
        "{stdout}"
    );
}

// ---------------------------------------------------------------------------
// Interprocedural tier (L007–L010)
// ---------------------------------------------------------------------------

#[test]
fn interproc_fixture_matches_golden() {
    let out = bin()
        .args(["check", "--root"])
        .arg(fixtures().join("interproc"))
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = std::fs::read_to_string(fixtures().join("interproc.expected")).unwrap();
    assert_eq!(stdout, golden);
    // The L007 diagnostic must carry the full call path of the bypass.
    assert!(
        stdout.contains("ProvenanceStore::touch_title -> ProvenanceStore::annotate"),
        "{stdout}"
    );
}

#[test]
fn interproc_allowed_fixture_is_clean() {
    let out = bin()
        .args(["check", "--root"])
        .arg(fixtures().join("interproc_allowed"))
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("bp-lint: clean — 4 files, 0 violations, 5 allowlisted"),
        "{stdout}"
    );
}

#[test]
fn sarif_export_contains_every_finding() {
    let scratch = std::env::temp_dir().join(format!(
        "bp-lint-sarif-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let sarif_path = scratch.join("findings.sarif");
    let out = bin()
        .args(["check", "--root"])
        .arg(fixtures().join("interproc"))
        .arg("--sarif")
        .arg(&sarif_path)
        .output()
        .expect("run bp-lint");
    assert_eq!(out.status.code(), Some(1));
    let doc = std::fs::read_to_string(&sarif_path).unwrap();
    assert!(doc.contains("\"version\": \"2.1.0\""), "{doc}");
    // One result per golden violation, same rules.
    assert_eq!(doc.matches("\"ruleId\"").count(), 6, "{doc}");
    for id in ["L007", "L008", "L009", "L010"] {
        assert!(
            doc.contains(&format!("\"ruleId\": \"{id}\"")),
            "missing {id}: {doc}"
        );
    }
    // Driver metadata advertises the whole rule set.
    for id in ["L004", "L005", "L010"] {
        assert!(doc.contains(&format!("\"id\": \"{id}\"")), "{doc}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
