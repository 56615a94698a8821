//! Both binaries reject bad command lines with exit 2 and the usage line,
//! before rendering, timing or writing anything.

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|error| panic!("cannot run {bin}: {error}"))
}

/// Asserts exit 2, the usage line on stderr and nothing on stdout.
fn assert_rejected(bin: &str, args: &[&str], dir: &Path) {
    let output = run(bin, args, dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn figures_rejects_unknown_flags_targets_and_bad_jobs() {
    let bin = env!("CARGO_BIN_EXE_figures");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for args in [
        &["--bogus", "table1"][..],
        &["--quick", "nosuch"],
        &["--scenario", "nosuch"],
        &["--scenario=nosuch"],
        &["--jobs", "abc", "table1"],
        &["--jobs=abc", "table1"],
        &["--jobs", "0", "table1"],
        &["--jobs", "-1", "table1"],
        &["--jobs", "fig1"],
        &["table1", "--jobs"],
        &["--quick=1", "table1"],
        &["table1", "--trace-out"],
        &["--trace-out", "--quick", "table1"],
    ] {
        assert_rejected(bin, args, dir);
    }
}

#[test]
fn figures_accepts_both_value_forms() {
    let bin = env!("CARGO_BIN_EXE_figures");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let output = run(
        bin,
        &["--no-timing", "--jobs=1", "--scenario", "table1", "table2"],
        dir,
    );
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let table1 = stdout.find("Table 1").expect("table1 rendered");
    let table2 = stdout.find("Table 2").expect("table2 rendered");
    assert!(table1 < table2, "targets render in command-line order");
}

#[test]
fn substrate_baseline_rejects_other_arguments_without_writing() {
    let bin = env!("CARGO_BIN_EXE_substrate_baseline");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("substrate_baseline_cli");
    // Start from an empty directory, so any file the binary writes shows.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    for args in [
        &["--bogus"][..],
        &["--stdout", "extra"],
        &["--check", "a.json", "b.json"],
        &["--check", "--stdout"],
        &["--stdout", "--check"],
    ] {
        assert_rejected(bin, args, &dir);
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the scratch directory")
        .collect();
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}
