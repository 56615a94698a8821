//! Rule-level self-tests driven by the fixture corpus in `fixtures/`.
//!
//! Each fixture is linted under synthetic workspace-relative paths so the
//! tests pin scoping (which crates a rule applies to), test-code exemption,
//! and suppression reach — without compiling the deliberately-bad code.

use kyoto_lint::{extract_run_slots_reference, lint_source, Diagnostic};

const NONDET: &str = include_str!("../fixtures/nondet.rs");
const WALL_CLOCK: &str = include_str!("../fixtures/wall_clock.rs");
const UNSAFE_BLOCKS: &str = include_str!("../fixtures/unsafe_blocks.rs");
const CLUSTER_PANIC: &str = include_str!("../fixtures/cluster_panic.rs");
const ALLOW_SYNTAX: &str = include_str!("../fixtures/allow_syntax.rs");
const FROZEN_REGION: &str = include_str!("../fixtures/frozen_region.rs");

/// One-based line of the (unique) line containing `marker`.
fn line_of(src: &str, marker: &str) -> usize {
    let mut hits = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(marker))
        .map(|(i, _)| i + 1);
    let line = hits
        .next()
        .unwrap_or_else(|| panic!("marker {marker} not found"));
    assert!(hits.next().is_none(), "marker {marker} is not unique");
    line
}

fn lines_for(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn nondet_iter_flags_method_calls_and_for_loops() {
    let diags = lint_source("crates/sim/src/fixture.rs", NONDET);
    assert_eq!(
        lines_for(&diags, "nondet-iter"),
        vec![
            line_of(NONDET, "MARK: flagged-iter"),
            line_of(NONDET, "MARK: flagged-for"),
        ]
    );
    assert_eq!(lines_for(&diags, "bad-allow"), Vec::<usize>::new());
}

#[test]
fn nondet_iter_spares_btreemap_lookups_tests_and_reasoned_allows() {
    let diags = lint_source("crates/sim/src/fixture.rs", NONDET);
    let lines = lines_for(&diags, "nondet-iter");
    for spared in [
        "MARK: allowed-values",
        "MARK: btree-iter",
        "MARK: keyed-lookup",
        "MARK: test-iter",
    ] {
        assert!(
            !lines.contains(&line_of(NONDET, spared)),
            "{spared} must not be flagged"
        );
    }
}

#[test]
fn nondet_iter_is_scoped_to_determinism_critical_crates() {
    // Out-of-scope crate: rule does not run.
    let diags = lint_source("crates/metrics/src/fixture.rs", NONDET);
    assert_eq!(lines_for(&diags, "nondet-iter"), Vec::<usize>::new());
    // Integration-test path of an in-scope crate: whole file is test code.
    let diags = lint_source("crates/sim/tests/fixture.rs", NONDET);
    assert_eq!(lines_for(&diags, "nondet-iter"), Vec::<usize>::new());
}

#[test]
fn wall_clock_flags_instant_now_and_system_time() {
    let diags = lint_source("crates/experiments/src/fixture.rs", WALL_CLOCK);
    assert_eq!(
        lines_for(&diags, "wall-clock"),
        vec![
            line_of(WALL_CLOCK, "MARK: flagged-instant"),
            line_of(WALL_CLOCK, "MARK: flagged-systemtime"),
        ]
    );
}

#[test]
fn wall_clock_spares_bench_crate_and_plain_instant_types() {
    let diags = lint_source("crates/bench/src/fixture.rs", WALL_CLOCK);
    assert_eq!(lines_for(&diags, "wall-clock"), Vec::<usize>::new());
    let diags = lint_source("crates/experiments/src/fixture.rs", WALL_CLOCK);
    let lines = lines_for(&diags, "wall-clock");
    assert!(!lines.contains(&line_of(WALL_CLOCK, "MARK: allowed-instant")));
    assert!(!lines.contains(&line_of(WALL_CLOCK, "MARK: instant-type")));
}

#[test]
fn unsafe_requires_a_safety_comment() {
    let diags = lint_source("crates/sim/src/fixture.rs", UNSAFE_BLOCKS);
    assert_eq!(
        lines_for(&diags, "unsafe-safety-comment"),
        vec![line_of(UNSAFE_BLOCKS, "MARK: undocumented-unsafe")]
    );
}

#[test]
fn unsafe_in_comments_and_strings_is_ignored() {
    let diags = lint_source("crates/sim/src/fixture.rs", UNSAFE_BLOCKS);
    let lines = lines_for(&diags, "unsafe-safety-comment");
    assert!(!lines.contains(&line_of(UNSAFE_BLOCKS, "MARK: unsafe-string")));
    assert!(!lines.contains(&line_of(UNSAFE_BLOCKS, "MARK: documented-unsafe")));
}

#[test]
fn crate_roots_must_forbid_unsafe_code() {
    let bare = "pub fn nothing() {}\n";
    let diags = lint_source("crates/foo/src/lib.rs", bare);
    assert_eq!(lines_for(&diags, "unsafe-safety-comment"), vec![1]);
    // The same file off the crate root is not required to declare it.
    let diags = lint_source("crates/foo/src/util.rs", bare);
    assert_eq!(
        lines_for(&diags, "unsafe-safety-comment"),
        Vec::<usize>::new()
    );
    // Declaring the invariant satisfies the rule.
    let declared = "#![forbid(unsafe_code)]\npub fn nothing() {}\n";
    let diags = lint_source("crates/foo/src/lib.rs", declared);
    assert_eq!(
        lines_for(&diags, "unsafe-safety-comment"),
        Vec::<usize>::new()
    );
}

#[test]
fn cluster_no_panic_flags_panicking_constructs() {
    let diags = lint_source("crates/cluster/src/fixture.rs", CLUSTER_PANIC);
    assert_eq!(
        lines_for(&diags, "cluster-no-panic"),
        vec![
            line_of(CLUSTER_PANIC, "MARK: flagged-unwrap"),
            line_of(CLUSTER_PANIC, "MARK: flagged-expect"),
            line_of(CLUSTER_PANIC, "MARK: flagged-panic"),
            line_of(CLUSTER_PANIC, "MARK: flagged-unreachable"),
        ]
    );
}

#[test]
fn cluster_no_panic_covers_service_and_trace() {
    for path in [
        "crates/service/src/fixture.rs",
        "crates/trace/src/fixture.rs",
    ] {
        let diags = lint_source(path, CLUSTER_PANIC);
        let lines = lines_for(&diags, "cluster-no-panic");
        assert!(
            lines.contains(&line_of(CLUSTER_PANIC, "MARK: flagged-unwrap")),
            "{path}: {diags:?}"
        );
        assert_eq!(lines.len(), 4, "{path}: {diags:?}");
    }
}

#[test]
fn cluster_no_panic_spares_tests_allows_and_other_crates() {
    let diags = lint_source("crates/cluster/src/fixture.rs", CLUSTER_PANIC);
    let lines = lines_for(&diags, "cluster-no-panic");
    assert!(!lines.contains(&line_of(CLUSTER_PANIC, "MARK: allowed-expect")));
    assert!(!lines.contains(&line_of(CLUSTER_PANIC, "MARK: test-unwrap")));
    // The rule is scoped: the same code lints clean under sim.
    let diags = lint_source("crates/sim/src/fixture.rs", CLUSTER_PANIC);
    assert_eq!(lines_for(&diags, "cluster-no-panic"), Vec::<usize>::new());
}

#[test]
fn malformed_allows_are_diagnostics_and_do_not_suppress() {
    let diags = lint_source("crates/cluster/src/fixture.rs", ALLOW_SYNTAX);
    // Each malformed directive sits on the line above its marked call.
    let bad_allow_lines: Vec<usize> = [
        "MARK: missing-reason",
        "MARK: unknown-rule",
        "MARK: unknown-directive",
        "MARK: unclosed",
    ]
    .iter()
    .map(|m| line_of(ALLOW_SYNTAX, m) - 1)
    .collect();
    assert_eq!(lines_for(&diags, "bad-allow"), bad_allow_lines);
    // None of them suppress: every unwrap is still flagged, including the
    // well-formed allow sitting two lines above its call (out of reach).
    assert_eq!(
        lines_for(&diags, "cluster-no-panic"),
        vec![
            line_of(ALLOW_SYNTAX, "MARK: missing-reason"),
            line_of(ALLOW_SYNTAX, "MARK: unknown-rule"),
            line_of(ALLOW_SYNTAX, "MARK: unknown-directive"),
            line_of(ALLOW_SYNTAX, "MARK: unclosed"),
            line_of(ALLOW_SYNTAX, "MARK: far-away"),
        ]
    );
    // Prose mentions of the tool name are not directives.
    assert!(!lines_for(&diags, "bad-allow").contains(&4));
}

#[test]
fn diagnostics_render_as_file_line_rule_message() {
    let diags = lint_source("crates/cluster/src/fixture.rs", CLUSTER_PANIC);
    let first = diags.first().expect("fixture produces diagnostics");
    let rendered = first.to_string();
    assert!(rendered.starts_with(&format!(
        "crates/cluster/src/fixture.rs:{}: [cluster-no-panic]",
        first.line
    )));
}

#[test]
fn frozen_region_extraction_survives_braces_in_strings_and_comments() {
    let body = extract_run_slots_reference(FROZEN_REGION).expect("region found");
    assert!(body.starts_with("fn run_slots_reference"));
    assert!(body.contains("stray brace in a string"));
    assert!(body.contains("total"));
    assert!(
        !body.contains("after_the_region"),
        "extraction ran past the close brace"
    );
    assert!(body.trim_end().ends_with('}'));
}

#[test]
fn frozen_region_extraction_reports_missing_function() {
    assert!(extract_run_slots_reference("fn other() {}").is_none());
}
