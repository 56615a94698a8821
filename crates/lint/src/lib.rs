//! kyoto-lint: an offline static-analysis pass mechanizing the repository's
//! determinism, safety and error-discipline invariants.
//!
//! The analyzer is registry-free and `syn`-free: a hand-rolled lexer
//! ([`lexer`]) produces a blanked code view plus per-line comment text, and
//! five token-pattern rules run over it:
//!
//! * **nondet-iter** — order-dependent iteration over `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in &map`, …) in
//!   non-test code of the determinism-critical crates
//!   (`sim`/`core`/`hypervisor`/`cluster`/`service`/`experiments`), where an unordered
//!   fold breaks byte-determinism of the figure outputs.
//! * **wall-clock** — `Instant::now`/`SystemTime` outside the bench/timing
//!   allowlist (`crates/bench/`), so simulation results can never depend on
//!   the host clock.
//! * **unsafe-safety-comment** — every `unsafe` token must carry a
//!   `// SAFETY:` comment within the three preceding lines, and every
//!   workspace crate root must declare `#![forbid(unsafe_code)]`.
//! * **cluster-no-panic** — `unwrap`/`expect`/`panic!` (plus
//!   `unreachable!`/`todo!`/`unimplemented!`) forbidden in the non-test
//!   code of `crates/cluster/src`, `crates/service/src` and
//!   `crates/trace/src`: every fallible path there returns a typed error
//!   (`ClusterError`, `TraceParseError`, `TraceFormatError`). The rule id
//!   predates the service and trace scope and is kept for existing allows.
//! * **frozen-code** — SHA-256 of normalized source for the frozen
//!   `kyoto_bench::legacy` baseline and the `run_slots_reference` region,
//!   pinned in `ci/frozen_hashes.txt`; any drift fails the build.
//!
//! Diagnostics print as `file:line: [rule-id] message`. A violation can be
//! suppressed with a comment on the flagged line or the line above, of the
//! form `kyoto-lint:` + `allow(<rule>): <reason>` — the reason is mandatory;
//! an allow without one is itself a diagnostic (`bad-allow`).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod sha256;

use lexer::{lex, tokenize, Token};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers accepted in suppression (`allow`) directives.
pub const RULE_IDS: [&str; 5] = [
    "nondet-iter",
    "wall-clock",
    "unsafe-safety-comment",
    "cluster-no-panic",
    "frozen-code",
];

/// Crates whose non-test code must not fold over unordered containers.
const NONDET_SCOPE: [&str; 7] = [
    "crates/sim/src/",
    "crates/core/src/",
    "crates/hypervisor/src/",
    "crates/cluster/src/",
    "crates/experiments/src/",
    "crates/service/src/",
    "crates/trace/src/",
];

/// Crates whose non-test code must not panic (cluster-no-panic).
const NO_PANIC_SCOPE: [&str; 3] = [
    "crates/cluster/src/",
    "crates/service/src/",
    "crates/trace/src/",
];

/// Order-dependent methods on `HashMap`/`HashSet` flagged by nondet-iter.
const NONDET_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// One `file:line: [rule-id] message` diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// One-based source line.
    pub line: usize,
    /// Rule id (one of [`RULE_IDS`], or `bad-allow` for a malformed
    /// suppression).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed, well-formed suppression comment.
struct Suppression {
    /// Zero-based line the comment sits on.
    line: usize,
    rule: String,
}

/// Parses `kyoto-lint:` directives out of per-line comment text. Returns
/// the valid suppressions plus `bad-allow` diagnostics for malformed ones
/// (missing reason, unknown rule, unknown directive). A `kyoto-lint:`
/// mention whose next word does not look like a directive (no parentheses)
/// is treated as prose and ignored, so documentation can talk about the
/// tool without tripping it.
fn parse_suppressions(rel_path: &str, comments: &[String]) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for (line, comment) in comments.iter().enumerate() {
        let Some(pos) = comment.find("kyoto-lint:") else {
            continue;
        };
        let rest = comment[pos + "kyoto-lint:".len()..].trim_start();
        if !rest
            .split_whitespace()
            .next()
            .is_some_and(|word| word.contains('('))
        {
            continue;
        }
        let bad = |message: String| Diagnostic {
            file: rel_path.to_string(),
            line: line + 1,
            rule: "bad-allow",
            message,
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            diags.push(bad(format!(
                "unknown kyoto-lint directive `{}` — only `allow(rule-id): <reason>` is supported",
                rest.split_whitespace().next().unwrap_or("")
            )));
            continue;
        };
        let Some(close) = args.find(')') else {
            diags.push(bad("unclosed `allow(` directive".to_string()));
            continue;
        };
        let rule = args[..close].trim();
        if !RULE_IDS.contains(&rule) {
            diags.push(bad(format!(
                "allow names unknown rule `{rule}` (known: {})",
                RULE_IDS.join(", ")
            )));
            continue;
        }
        let after = args[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diags.push(bad(format!(
                "allow({rule}) requires a written reason: `kyoto-lint: allow({rule}): <why>`"
            )));
            continue;
        }
        sups.push(Suppression {
            line,
            rule: rule.to_string(),
        });
    }
    (sups, diags)
}

/// Marks the lines covered by `#[cfg(test)]`/`#[test]` items (and the whole
/// file for an inner `#![cfg(test)]`). The span of a test attribute runs to
/// the matching close brace of the next item, or to the terminating `;` for
/// brace-less items.
fn test_line_mask(tokens: &[Token], total_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; total_lines.max(1)];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < tokens.len() && tokens[j].text == "!";
        if inner {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].text != "[" {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens to its matching `]`.
        let mut depth = 0usize;
        let mut attr: Vec<&str> = Vec::new();
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                t => attr.push(t),
            }
            k += 1;
        }
        let is_test_attr = (attr == ["test"])
            || (attr.contains(&"cfg") && attr.contains(&"test") && !attr.contains(&"not"));
        if !is_test_attr {
            i = k + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            mask.fill(true);
            return mask;
        }
        // Find the end of the annotated item: the matching close brace of
        // its first `{`, or a `;` met before any brace.
        let start_line = tokens[i].line;
        let mut m = k + 1;
        let mut end_line = start_line;
        let mut brace_depth = 0usize;
        let mut entered = false;
        while m < tokens.len() {
            match tokens[m].text.as_str() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        end_line = tokens[m].line;
                        break;
                    }
                }
                ";" if !entered => {
                    end_line = tokens[m].line;
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        if m >= tokens.len() {
            end_line = total_lines.saturating_sub(1);
        }
        for flag in mask.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        i = m + 1;
    }
    mask
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type or
/// initialized from a `HashMap::`/`HashSet::` constructor on the same
/// statement.
fn collect_hash_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.text != "HashMap" && tok.text != "HashSet" {
            continue;
        }
        // Declaration by type annotation: `name: [&[mut]] [path::]Hash…<`.
        let mut j = i;
        // Walk back over a `std::collections::` style path prefix.
        while j >= 2 && tokens[j - 1].text == "::" {
            j -= 2;
        }
        // Skip reference/mutability/lifetime tokens in the type position.
        while j >= 1 {
            let t = tokens[j - 1].text.as_str();
            if t == "&" || t == "mut" || t == "'" {
                j -= 1;
            } else if j >= 2
                && tokens[j - 2].text == "'"
                && tokens[j - 1].text.chars().all(char::is_alphanumeric)
            {
                j -= 1; // named lifetime after `&'a`
            } else {
                break;
            }
        }
        if j >= 2 && tokens[j - 1].text == ":" && is_ident(&tokens[j - 2].text) {
            names.insert(tokens[j - 2].text.clone());
            continue;
        }
        // Binding by constructor: `let [mut] name = … Hash…::…`.
        if i + 1 < tokens.len() && tokens[i + 1].text == "::" {
            let mut b = i;
            let mut saw_eq = false;
            while b > 0 {
                let t = tokens[b - 1].text.as_str();
                if t == ";" || t == "{" || t == "}" {
                    break;
                }
                if t == "=" {
                    saw_eq = true;
                }
                if t == "let" {
                    if saw_eq {
                        let name_idx = if tokens[b].text == "mut" { b + 1 } else { b };
                        if name_idx < tokens.len() && is_ident(&tokens[name_idx].text) {
                            names.insert(tokens[name_idx].text.clone());
                        }
                    }
                    break;
                }
                b -= 1;
            }
        }
    }
    names
}

fn is_ident(text: &str) -> bool {
    let mut chars = text.chars();
    chars.next().is_some_and(|c| c.is_alphabetic() || c == '_') && text != "mut" && text != "let"
}

/// nondet-iter: order-dependent iteration over hash containers.
fn rule_nondet_iter(rel_path: &str, tokens: &[Token], test_mask: &[bool]) -> Vec<Diagnostic> {
    let names = collect_hash_names(tokens);
    if names.is_empty() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let mut push = |line: usize, name: &str, how: &str| {
        diags.push(Diagnostic {
            file: rel_path.to_string(),
            line: line + 1,
            rule: "nondet-iter",
            message: format!(
                "{how} over hash container `{name}` — std HashMap/HashSet iteration order is \
                 nondeterministic; use BTreeMap/BTreeSet, sort before folding, or justify with \
                 an allow"
            ),
        });
    };
    for (i, tok) in tokens.iter().enumerate() {
        // `name.iter()` style method calls.
        if names.contains(&tok.text)
            && i + 3 < tokens.len()
            && tokens[i + 1].text == "."
            && NONDET_METHODS.contains(&tokens[i + 2].text.as_str())
            && tokens[i + 3].text == "("
        {
            let line = tokens[i + 2].line;
            if !test_mask.get(line).copied().unwrap_or(false) {
                push(line, &tok.text, &format!(".{}()", tokens[i + 2].text));
            }
        }
        // `for … in [&[mut]] [path.]name {` direct loops.
        if tok.text == "in" {
            let mut j = i + 1;
            while j < tokens.len() && (tokens[j].text == "&" || tokens[j].text == "mut") {
                j += 1;
            }
            while j + 1 < tokens.len() && is_ident(&tokens[j].text) && tokens[j + 1].text == "." {
                if names.contains(&tokens[j].text) && j + 2 < tokens.len() {
                    // `name.method()` chains are handled above.
                    break;
                }
                j += 2;
            }
            if j + 1 < tokens.len() && names.contains(&tokens[j].text) && tokens[j + 1].text == "{"
            {
                let line = tokens[j].line;
                if !test_mask.get(line).copied().unwrap_or(false) {
                    push(line, &tokens[j].text, "`for` loop");
                }
            }
        }
    }
    diags
}

/// wall-clock: `Instant::now`/`SystemTime` outside the bench allowlist.
fn rule_wall_clock(rel_path: &str, tokens: &[Token]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let hit = match tok.text.as_str() {
            "SystemTime" => true,
            "Instant" => {
                i + 2 < tokens.len() && tokens[i + 1].text == "::" && tokens[i + 2].text == "now"
            }
            _ => false,
        };
        if hit {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: tok.line + 1,
                rule: "wall-clock",
                message: format!(
                    "`{}` reads the host clock — simulation results must be a pure function of \
                     their inputs; timing belongs in crates/bench or behind a reasoned allow",
                    if tok.text == "Instant" {
                        "Instant::now"
                    } else {
                        "SystemTime"
                    }
                ),
            });
        }
    }
    diags
}

/// unsafe-safety-comment: every `unsafe` token needs a nearby `// SAFETY:`;
/// crate roots must forbid unsafe code outright.
fn rule_unsafe_safety(
    rel_path: &str,
    tokens: &[Token],
    comments: &[String],
    is_crate_root: bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for tok in tokens {
        if tok.text != "unsafe" {
            continue;
        }
        let line = tok.line;
        let documented = (line.saturating_sub(3)..=line)
            .any(|l| comments.get(l).is_some_and(|c| c.contains("SAFETY:")));
        if !documented {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: line + 1,
                rule: "unsafe-safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment stating the aliasing/validity \
                          argument (within the three preceding lines)"
                    .to_string(),
            });
        }
    }
    if is_crate_root {
        let mut declared = false;
        for (i, tok) in tokens.iter().enumerate() {
            if (tok.text == "forbid" || tok.text == "deny")
                && tokens.get(i + 1).is_some_and(|t| t.text == "(")
                && tokens.get(i + 2).is_some_and(|t| t.text == "unsafe_code")
            {
                declared = true;
                break;
            }
        }
        if !declared {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: 1,
                rule: "unsafe-safety-comment",
                message: "crate root must declare `#![forbid(unsafe_code)]` — the workspace is \
                          unsafe-free by invariant; a crate that needs unsafe must carry a \
                          reasoned allow here"
                    .to_string(),
            });
        }
    }
    diags
}

/// cluster-no-panic: panicking constructs forbidden in the non-test code of
/// [`NO_PANIC_SCOPE`].
fn rule_cluster_no_panic(rel_path: &str, tokens: &[Token], test_mask: &[bool]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut push = |line: usize, what: &str| {
        if test_mask.get(line).copied().unwrap_or(false) {
            return;
        }
        diags.push(Diagnostic {
            file: rel_path.to_string(),
            line: line + 1,
            rule: "cluster-no-panic",
            message: format!(
                "`{what}` in no-panic non-test code — every fallible path returns a typed error; \
                 prove the invariant in an allow reason or convert to an error"
            ),
        });
    };
    for (i, tok) in tokens.iter().enumerate() {
        match tok.text.as_str() {
            "unwrap" | "expect"
                if i >= 1
                    && tokens[i - 1].text == "."
                    && tokens.get(i + 1).is_some_and(|t| t.text == "(") =>
            {
                push(tok.line, &format!(".{}()", tok.text));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if tokens.get(i + 1).is_some_and(|t| t.text == "!") =>
            {
                push(tok.line, &format!("{}!", tok.text));
            }
            _ => {}
        }
    }
    diags
}

/// Whether the rel path is a whole-file test/example context (exempt from
/// nondet-iter and cluster-no-panic).
fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/benches/")
}

/// Whether the rel path is a workspace crate root (`src/lib.rs` of the
/// facade or of a `crates/*` member).
fn is_crate_root(rel_path: &str) -> bool {
    if rel_path == "src/lib.rs" {
        return true;
    }
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((_, tail)) = rest.split_once('/') {
            return tail == "src/lib.rs";
        }
    }
    false
}

/// Lints one file's source under its workspace-relative path; applies rule
/// scoping, test exemptions and `allow` suppressions.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let tokens = tokenize(&lexed.code);
    let total_lines = lexed.comments.len();
    let whole_file_test = is_test_path(rel_path);
    let mut test_mask = test_line_mask(&tokens, total_lines);
    if whole_file_test {
        test_mask.fill(true);
    }
    let (sups, mut diags) = parse_suppressions(rel_path, &lexed.comments);

    let mut findings = Vec::new();
    if NONDET_SCOPE.iter().any(|p| rel_path.starts_with(p)) {
        findings.extend(rule_nondet_iter(rel_path, &tokens, &test_mask));
    }
    if !rel_path.starts_with("crates/bench/") {
        findings.extend(rule_wall_clock(rel_path, &tokens));
    }
    findings.extend(rule_unsafe_safety(
        rel_path,
        &tokens,
        &lexed.comments,
        is_crate_root(rel_path),
    ));
    if NO_PANIC_SCOPE.iter().any(|p| rel_path.starts_with(p)) {
        findings.extend(rule_cluster_no_panic(rel_path, &tokens, &test_mask));
    }

    // A well-formed allow on the flagged line or the line above suppresses.
    findings.retain(|d| {
        !sups
            .iter()
            .any(|s| s.rule == d.rule && (s.line + 1 == d.line || s.line + 2 == d.line))
    });
    diags.extend(findings);
    diags.sort();
    diags
}

/// The two frozen regions: `(region-id, source file)`.
const FROZEN_REGIONS: [(&str, &str); 2] = [
    ("kyoto-bench-legacy", "crates/bench/src/legacy.rs"),
    ("run-slots-reference", "crates/sim/src/engine.rs"),
];

/// Normalizes source for hashing: trailing whitespace and `\r` stripped,
/// lines joined with `\n`. Whitespace-only edits do not count as drift.
fn normalize(source: &str) -> String {
    source
        .lines()
        .map(str::trim_end)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Extracts the `run_slots_reference` function (signature line through its
/// matching close brace) from engine source. Brace matching runs on the
/// blanked code view so braces in strings/comments cannot derail it.
pub fn extract_run_slots_reference(engine_source: &str) -> Option<String> {
    let lexed = lex(engine_source);
    let tokens = tokenize(&lexed.code);
    let mut start_line = None;
    let mut end_line = None;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.text == "fn"
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.text == "run_slots_reference")
        {
            start_line = Some(tok.line);
            let mut depth = 0usize;
            let mut entered = false;
            for t in &tokens[i..] {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        entered = true;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            end_line = Some(t.line);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            break;
        }
    }
    let (start, end) = (start_line?, end_line?);
    let lines: Vec<&str> = engine_source.lines().collect();
    Some(lines.get(start..=end)?.join("\n"))
}

/// Computes the current frozen-region hashes for the tree at `root`.
/// Returns `(region-id, sha256-hex, source-path)` triples, or a diagnostic
/// description of what could not be hashed.
pub fn compute_frozen_hashes(root: &Path) -> Result<Vec<(String, String, String)>, String> {
    let mut out = Vec::new();
    for (region, rel) in FROZEN_REGIONS {
        let path = root.join(rel);
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {rel} for frozen region '{region}': {e}"))?;
        let body = match region {
            "run-slots-reference" => extract_run_slots_reference(&source).ok_or_else(|| {
                format!("cannot locate `fn run_slots_reference` in {rel} for frozen hashing")
            })?,
            _ => source,
        };
        let hash = sha256::digest_hex(normalize(&body).as_bytes());
        out.push((region.to_string(), hash, rel.to_string()));
    }
    Ok(out)
}

/// frozen-code: compares current region hashes against `ci/frozen_hashes.txt`.
pub fn check_frozen(root: &Path) -> Vec<Diagnostic> {
    let pin_rel = "ci/frozen_hashes.txt";
    let mut diags = Vec::new();
    let pinned = match std::fs::read_to_string(root.join(pin_rel)) {
        Ok(text) => text,
        Err(_) => {
            diags.push(Diagnostic {
                file: pin_rel.to_string(),
                line: 1,
                rule: "frozen-code",
                message: "missing pin file — regenerate deliberately with \
                          `cargo run -p kyoto-lint -- --pin`"
                    .to_string(),
            });
            return diags;
        }
    };
    let current = match compute_frozen_hashes(root) {
        Ok(hashes) => hashes,
        Err(message) => {
            diags.push(Diagnostic {
                file: pin_rel.to_string(),
                line: 1,
                rule: "frozen-code",
                message,
            });
            return diags;
        }
    };
    for (region, hash, source_rel) in current {
        let pinned_hash = pinned.lines().find_map(|line| {
            let line = line.trim();
            if line.starts_with('#') {
                return None;
            }
            let mut parts = line.split_whitespace();
            (parts.next() == Some(region.as_str())).then(|| parts.next().unwrap_or("").to_string())
        });
        match pinned_hash {
            None => diags.push(Diagnostic {
                file: pin_rel.to_string(),
                line: 1,
                rule: "frozen-code",
                message: format!(
                    "no pinned hash for frozen region '{region}' — regenerate with --pin"
                ),
            }),
            Some(expected) if expected != hash => diags.push(Diagnostic {
                file: source_rel,
                line: 1,
                rule: "frozen-code",
                message: format!(
                    "frozen region '{region}' drifted: pinned {expected}, current {hash} — this \
                     code is the cross-PR baseline; revert, or re-pin deliberately with --pin \
                     and justify in the PR"
                ),
            }),
            Some(_) => {}
        }
    }
    diags
}

/// Renders the pin file contents for the tree at `root`.
pub fn render_pin_file(root: &Path) -> Result<String, String> {
    let hashes = compute_frozen_hashes(root)?;
    let mut out = String::new();
    out.push_str(
        "# Pinned SHA-256 hashes of frozen source regions, checked by kyoto-lint's\n\
         # frozen-code rule (normalized: trailing whitespace stripped).\n\
         # Regenerate DELIBERATELY — re-pinning is a baseline change and must be\n\
         # justified in the PR:\n\
         #   cargo run -p kyoto-lint -- --pin\n",
    );
    for (region, hash, rel) in hashes {
        out.push_str(&format!("{region} {hash} {rel}\n"));
    }
    Ok(out)
}

/// Directories never linted: build output, VCS, vendored registry stand-ins
/// (external API surface, not ours) and the linter's deliberately-bad
/// fixture corpus.
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel == ".git"
        || rel == ".github"
        || rel == "crates/compat"
        || rel == "crates/lint/fixtures"
}

/// Every workspace `.rs` file under `root`, as sorted workspace-relative
/// paths with forward slashes.
pub fn workspace_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(rel_os) = path.strip_prefix(root) else {
                continue;
            };
            let rel = rel_os.to_string_lossy().replace('\\', "/");
            if path.is_dir() {
                if !skip_dir(&rel) && !rel.starts_with('.') {
                    stack.push(path);
                }
            } else if rel.ends_with(".rs") {
                files.push(rel);
            }
        }
    }
    files.sort();
    files
}

/// Lints the whole workspace at `root`: every source file plus the
/// frozen-code check. Diagnostics come back sorted.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for rel in workspace_files(root) {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(source) => diags.extend(lint_source(&rel, &source)),
            Err(e) => diags.push(Diagnostic {
                file: rel,
                line: 1,
                rule: "frozen-code",
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    diags.extend(check_frozen(root));
    diags.sort();
    diags
}
