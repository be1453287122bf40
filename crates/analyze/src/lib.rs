//! # stretch-analyze
//!
//! The static half of the workspace's determinism contract.  Every
//! load-bearing guarantee of this reproduction is a *bit-identity*
//! guarantee — warm vs. cold solves, incremental vs. rebuild, journal replay,
//! thread counts — and a single stray `partial_cmp().unwrap()`, hash-map
//! iteration, raw environment read or wall-clock read can break it
//! silently.  This crate walks the workspace's Rust sources with a
//! hand-rolled token/line-level analyzer (dependency-free by design: the
//! offline container has no syn/proc-macro stack, and a lint this simple
//! should not need one) and enforces the contract as named rules:
//!
//! | rule | name              | contract                                               |
//! |------|-------------------|--------------------------------------------------------|
//! | D1   | `float-ord`       | no `partial_cmp` on float keys — use `total_cmp`       |
//! | D2   | `hash-collections`| no `HashMap`/`HashSet` in solver/serve/sim state — use `FastMap`/`BTreeMap`/indexed vecs |
//! | D3   | `env-read`        | no raw `std::env::var` outside the sanctioned config readers |
//! | D4   | `wall-clock`      | no `Instant::now`/`SystemTime` in replay-reachable layers |
//! | D5   | `ingest-panic`    | no `unwrap`/`expect`/`unreachable!` in the serve ingestion path |
//!
//! Violations are reported with `rule file:line` diagnostics (and as
//! machine-readable JSON for CI).  Known-good exceptions live in a
//! checked-in allowlist (`crates/analyze/allow.toml`) where **every entry
//! must carry a one-line justification**; entries are matched by rule,
//! file and exact (trimmed) line content, so they survive unrelated edits
//! but go *stale* — and fail the pass — as soon as the line they excuse
//! disappears.
//!
//! The scanner strips comments and string literals before matching (a
//! panic message may mention `unwrap`, a doc comment may mention
//! `HashMap`), and rules that only govern production code skip
//! `#[cfg(test)]` regions.  `crates/vendor/` (offline API stubs) and this
//! crate itself (whose sources quote the patterns as data) are excluded
//! from the walk.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub mod sanitize;

use sanitize::Sanitizer;

/// One lint rule of the determinism contract.
pub struct Rule {
    /// Stable identifier (`D1` … `D5`), the key allowlist entries use.
    pub id: &'static str,
    /// Short human name.
    pub name: &'static str,
    /// One-line statement of the contract the rule enforces.
    pub summary: &'static str,
    /// What a violating line should be changed to.
    pub fix: &'static str,
    /// Substring patterns that flag a (sanitized) source line.
    patterns: &'static [&'static str],
    /// Returns `true` when the rule applies to this workspace-relative
    /// path (forward slashes).
    in_scope: fn(&str) -> bool,
    /// Skip `#[cfg(test)]` regions: rules that only govern production
    /// paths (env reads, wall clocks, ingest panics) ignore test code;
    /// the hygiene rules (float ordering, hash collections) do not.
    skip_test_regions: bool,
}

/// Paths the walker never descends into, relative to the workspace root:
/// vendored stand-ins for external crates (not our code) and this crate
/// itself (its sources and fixtures quote the banned patterns as data).
const EXCLUDED_PREFIXES: &[&str] = &["crates/vendor/", "crates/analyze/"];

/// Files where raw environment reads are sanctioned: the config readers
/// every other knob must route through.  (`campaign::read_env`, the
/// experiment binaries' strict parser, is excused line by line in
/// `allow.toml` instead.)
const ENV_SANCTIONED: &[&str] = &[
    // `ServeConfig::from_env` and its strict parsers, the serve layer's
    // single env site.
    "crates/serve/src/config.rs",
];

fn any_path(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

fn d1_scope(_rel: &str) -> bool {
    true
}

fn d2_scope(rel: &str) -> bool {
    // Solver, serve and simulation layers: state or iteration order here
    // feeds the bit-identity contracts.  (The experiment harness may hash
    // for uniqueness asserts; its outputs are sorted before emission.)
    any_path(
        rel,
        &[
            "crates/flow/",
            "crates/core/",
            "crates/serve/",
            "crates/sim/",
        ],
    )
}

fn d3_scope(rel: &str) -> bool {
    // Production sources only (integration tests may probe env behaviour),
    // minus the sanctioned config readers.
    rel.starts_with("crates/") && rel.contains("/src/") && !ENV_SANCTIONED.contains(&rel)
}

fn d4_scope(rel: &str) -> bool {
    // The layers reachable from replay/recovery: flow solvers and the
    // serve state machine.  Timestamps there are journalled, never read.
    any_path(rel, &["crates/flow/src/", "crates/serve/src/"])
}

fn d5_scope(rel: &str) -> bool {
    // The serve ingestion path: submission, journalling, dead-lettering,
    // event decoding, the bus and the replay of recorded journals.
    // Submissions must dead-letter, never panic — a panicking ingest turns
    // one malformed request into an outage for every queued request behind
    // it; likewise a panicking replay turns one torn recording into an
    // unreplayable run instead of a typed refusal.
    any_path(
        rel,
        &[
            "crates/serve/src/service.rs",
            "crates/serve/src/journal.rs",
            "crates/serve/src/dlq.rs",
            "crates/serve/src/event.rs",
            "crates/serve/src/bus.rs",
            "crates/serve/src/trace.rs",
        ],
    )
}

/// The determinism-contract rule table (order is reporting order).
pub const RULES: &[Rule] = &[
    Rule {
        id: "D1",
        name: "float-ord",
        summary: "no partial_cmp on float keys: NaN-tolerant comparisons make \
                  sort order input-dependent",
        fix: "use f64::total_cmp (or derive an integer key)",
        patterns: &[".partial_cmp("],
        in_scope: d1_scope,
        skip_test_regions: false,
    },
    Rule {
        id: "D2",
        name: "hash-collections",
        summary: "no std HashMap/HashSet in solver/serve/sim layers: \
                  RandomState iteration order differs per process",
        fix: "use stretch_flow::FastMap, BTreeMap, or indexed vectors",
        patterns: &["HashMap", "HashSet"],
        in_scope: d2_scope,
        skip_test_regions: false,
    },
    Rule {
        id: "D3",
        name: "env-read",
        summary: "no raw std::env::var outside the sanctioned config \
                  readers: ad-hoc reads silently swallow malformed values",
        fix: "route through the ServeConfig/read_env strict parsers",
        patterns: &["env::var"],
        in_scope: d3_scope,
        skip_test_regions: true,
    },
    Rule {
        id: "D4",
        name: "wall-clock",
        summary: "no Instant::now/SystemTime in replay-reachable layers: \
                  replay must reproduce the original bytes at any wall time",
        fix: "journal timestamps on the live path; never read the clock on replay",
        patterns: &["Instant::now", "SystemTime"],
        in_scope: d4_scope,
        skip_test_regions: true,
    },
    Rule {
        id: "D5",
        name: "ingest-panic",
        summary: "no unwrap/expect/unreachable in the serve ingestion path: \
                  malformed submissions must dead-letter, never panic",
        fix: "return an error (reject/DLQ); reserve panics for corrupted internal state",
        patterns: &[".unwrap()", ".expect(", "unreachable!"],
        in_scope: d5_scope,
        skip_test_regions: true,
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One flagged source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1` … `D5`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed (the raw source, not the sanitized
    /// form — this is what allowlist entries match against).
    pub snippet: String,
}

/// One `[[allow]]` entry of `allow.toml`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative file the entry applies to.
    pub file: String,
    /// Exact trimmed line content the entry matches (line *numbers* would
    /// go stale on every unrelated edit; content survives them).
    pub line: String,
    /// Mandatory one-line justification; an empty one is a parse error.
    pub justification: String,
}

/// Result of reconciling findings with the allowlist.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowlist entry — the failures.
    pub violations: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub allowed: Vec<Finding>,
    /// Allowlist entries that matched no finding: stale, and an error —
    /// a dead entry would silently excuse the next violation that happens
    /// to land on the same line content.
    pub stale: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the pass should exit zero.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Scans one file's contents as `rel` (workspace-relative path) and
/// appends findings.  Exposed for the fixture tests; [`scan_tree`] is the
/// production entry point.
pub fn scan_source(rel: &str, source: &str, out: &mut Vec<Finding>) {
    let active: Vec<&Rule> = RULES.iter().filter(|r| (r.in_scope)(rel)).collect();
    if active.is_empty() {
        return;
    }
    let mut sanitizer = Sanitizer::new();
    // cfg(test)-region tracking: brace depth of the skipped item, if any.
    let mut pending_cfg_test = false;
    let mut skip_depth: i32 = 0;
    let mut in_test_region = false;

    for (idx, raw) in source.lines().enumerate() {
        let code = sanitizer.strip(raw);
        let trimmed_code = code.trim();
        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;

        if in_test_region {
            skip_depth += opens - closes;
            if skip_depth <= 0 {
                in_test_region = false;
            }
        } else if pending_cfg_test {
            if trimmed_code.starts_with("#[") {
                // Another attribute between #[cfg(test)] and the item.
            } else if opens > closes {
                // The item opens a block (`mod tests {`): skip to its end.
                pending_cfg_test = false;
                in_test_region = true;
                skip_depth = opens - closes;
            } else {
                // Single-line item (`use …;` or a one-line fn): skip it.
                pending_cfg_test = false;
            }
        } else if trimmed_code.starts_with("#[cfg(test)") {
            pending_cfg_test = true;
        } else {
            for r in &active {
                if in_test_region || (r.skip_test_regions && pending_cfg_test) {
                    continue;
                }
                if r.patterns.iter().any(|p| code.contains(p)) {
                    out.push(Finding {
                        rule: r.id,
                        file: rel.to_string(),
                        line: idx + 1,
                        snippet: raw.trim().to_string(),
                    });
                }
            }
            continue;
        }

        // Lines inside (or opening) a test region still feed the rules
        // that do not skip test code.
        for r in &active {
            if r.skip_test_regions {
                continue;
            }
            if r.patterns.iter().any(|p| code.contains(p)) {
                out.push(Finding {
                    rule: r.id,
                    file: rel.to_string(),
                    line: idx + 1,
                    snippet: raw.trim().to_string(),
                });
            }
        }
    }
}

/// Recursively collects the `.rs` files under `root` (sorted, so runs are
/// deterministic), excluding `target/`, hidden directories and
/// [`EXCLUDED_PREFIXES`].
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            let rel = relative(root, &path);
            if path.is_dir() {
                if name.starts_with('.')
                    || name == "target"
                    || any_path(&format!("{rel}/"), EXCLUDED_PREFIXES)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans the workspace tree under `root`, returning every finding (before
/// allowlisting) and the number of files read.
pub fn scan_tree(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut findings = Vec::new();
    let files = collect_sources(root)?;
    let count = files.len();
    for (rel, path) in files {
        let source = std::fs::read_to_string(&path)?;
        scan_source(&rel, &source, &mut findings);
    }
    Ok((findings, count))
}

/// Parses `allow.toml`: a sequence of `[[allow]]` tables with `rule`,
/// `file`, `line` and `justification` string keys.  The parser accepts
/// exactly that shape and nothing else — an allowlist is a contract
/// document, not a config language.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<[Option<String>; 4]> = None;
    const KEYS: [&str; 4] = ["rule", "file", "line", "justification"];

    fn finish(
        fields: [Option<String>; 4],
        entries: &mut Vec<AllowEntry>,
        at: usize,
    ) -> Result<(), String> {
        let [rule_id, file, line, justification] = fields;
        let entry = AllowEntry {
            rule: rule_id.ok_or(format!("allow entry before line {at}: missing `rule`"))?,
            file: file.ok_or(format!("allow entry before line {at}: missing `file`"))?,
            line: line.ok_or(format!("allow entry before line {at}: missing `line`"))?,
            justification: justification.ok_or(format!(
                "allow entry before line {at}: missing `justification`"
            ))?,
        };
        if rule(&entry.rule).is_none() {
            return Err(format!(
                "allow entry for {}: unknown rule `{}`",
                entry.file, entry.rule
            ));
        }
        if entry.justification.trim().is_empty() {
            return Err(format!(
                "allow entry for {} ({}): empty justification — every \
                 exception must say why it is sound",
                entry.file, entry.rule
            ));
        }
        entries.push(entry);
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(fields) = current.take() {
                finish(fields, &mut entries, idx + 1)?;
            }
            current = Some([None, None, None, None]);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "allow.toml line {}: expected `key = \"value\"`",
                idx + 1
            ));
        };
        let key = key.trim();
        let Some(slot) = KEYS.iter().position(|k| *k == key) else {
            return Err(format!("allow.toml line {}: unknown key `{key}`", idx + 1));
        };
        let value = value.trim();
        let inner = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or(format!(
                "allow.toml line {}: `{key}` must be a double-quoted string",
                idx + 1
            ))?;
        let unescaped = inner.replace("\\\"", "\"").replace("\\\\", "\\");
        let Some(fields) = current.as_mut() else {
            return Err(format!(
                "allow.toml line {}: `{key}` outside an [[allow]] table",
                idx + 1
            ));
        };
        if fields[slot].is_some() {
            return Err(format!("allow.toml line {}: duplicate `{key}`", idx + 1));
        }
        fields[slot] = Some(unescaped);
    }
    if let Some(fields) = current.take() {
        finish(fields, &mut entries, text.lines().count())?;
    }
    Ok(entries)
}

/// Reconciles raw findings with the allowlist: a finding is suppressed by
/// an entry with the same rule id and file whose `line` content equals the
/// finding's trimmed snippet; entries that suppress nothing are stale.
pub fn reconcile(findings: Vec<Finding>, allowlist: &[AllowEntry], files_scanned: usize) -> Report {
    let mut used = vec![false; allowlist.len()];
    let mut report = Report {
        files_scanned,
        ..Report::default()
    };
    for finding in findings {
        let matched = allowlist.iter().enumerate().find(|(_, e)| {
            e.rule == finding.rule && e.file == finding.file && e.line == finding.snippet
        });
        match matched {
            Some((i, _)) => {
                used[i] = true;
                report.allowed.push(finding);
            }
            None => report.violations.push(finding),
        }
    }
    for (entry, used) in allowlist.iter().zip(used) {
        if !used {
            report.stale.push(entry.clone());
        }
    }
    report
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report for CI: one JSON object, violations first.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, f) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"snippet\": \"{}\"}}",
            f.rule,
            rule(f.rule).map_or("?", |r| r.name),
            json_escape(&f.file),
            f.line,
            json_escape(&f.snippet)
        );
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"stale_allow\": [");
    for (i, e) in report.stale.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": \"{}\"}}",
            json_escape(&e.rule),
            json_escape(&e.file),
            json_escape(&e.line)
        );
    }
    if !report.stale.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"allowed\": {},\n  \"files_scanned\": {},\n  \"clean\": {}\n}}",
        report.allowed.len(),
        report.files_scanned,
        report.clean()
    );
    out
}

/// Human-readable report: `rule file:line` diagnostics with the rule's
/// summary and suggested fix, then stale-allowlist errors.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.violations {
        let r = rule(f.rule).expect("finding carries a known rule");
        let _ = writeln!(
            out,
            "{} [{}] {}:{}\n    {}\n    contract: {}\n    fix: {}",
            f.rule, r.name, f.file, f.line, f.snippet, r.summary, r.fix
        );
    }
    for e in &report.stale {
        let _ = writeln!(
            out,
            "stale-allow [{}] {}: no source line matches \"{}\" — remove \
             the entry (or fix it) so it cannot excuse a future violation",
            e.rule, e.file, e.line
        );
    }
    let _ = writeln!(
        out,
        "stretch-analyze: {} file(s), {} violation(s), {} allowed, {} stale \
         allow entr{}",
        report.files_scanned,
        report.violations.len(),
        report.allowed.len(),
        report.stale.len(),
        if report.stale.len() == 1 { "y" } else { "ies" }
    );
    out
}

/// Runs the full pass: scan `root`, reconcile against the allowlist text
/// (empty string for none).  Returns the report or a configuration error.
pub fn run_check(root: &Path, allow_text: &str) -> Result<Report, String> {
    let allowlist = parse_allowlist(allow_text)?;
    let (findings, files_scanned) =
        scan_tree(root).map_err(|e| format!("cannot scan {}: {e}", root.display()))?;
    Ok(reconcile(findings, &allowlist, files_scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_lookup_roundtrips() {
        for r in RULES {
            assert_eq!(rule(r.id).unwrap().name, r.name);
        }
        assert!(rule("D9").is_none());
    }

    #[test]
    fn comments_and_strings_do_not_flag() {
        let mut out = Vec::new();
        scan_source(
            "crates/core/src/x.rs",
            "// a.partial_cmp(b) in a comment\nlet m = \"HashMap in a string\";\n",
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn partial_cmp_is_flagged_anywhere() {
        let mut out = Vec::new();
        scan_source(
            "crates/metrics/src/y.rs",
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "D1");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn test_regions_are_skipped_for_production_rules() {
        let src = "\
fn live() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { let _ = std::env::var(\"X\"); }\n\
}\n";
        let mut out = Vec::new();
        scan_source("crates/experiments/src/z.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_regions_still_feed_hygiene_rules() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn t(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
}\n";
        let mut out = Vec::new();
        scan_source("crates/core/src/z.rs", src, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "D1");
    }

    #[test]
    fn allowlist_requires_justification() {
        let err = parse_allowlist(
            "[[allow]]\nrule = \"D1\"\nfile = \"f.rs\"\nline = \"x\"\njustification = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn allowlist_rejects_unknown_rules_and_keys() {
        assert!(parse_allowlist("[[allow]]\nrule = \"D7\"\n").is_err());
        assert!(parse_allowlist("[[allow]]\nseverity = \"high\"\n").is_err());
    }

    #[test]
    fn reconcile_matches_by_content_and_reports_stale() {
        let findings = vec![Finding {
            rule: "D1",
            file: "crates/core/src/a.rs".into(),
            line: 10,
            snippet: "a.partial_cmp(b)".into(),
        }];
        let allow = vec![
            AllowEntry {
                rule: "D1".into(),
                file: "crates/core/src/a.rs".into(),
                line: "a.partial_cmp(b)".into(),
                justification: "proven NaN-free".into(),
            },
            AllowEntry {
                rule: "D1".into(),
                file: "crates/core/src/gone.rs".into(),
                line: "no such line".into(),
                justification: "stale".into(),
            },
        ];
        let report = reconcile(findings, &allow, 1);
        assert!(report.violations.is_empty());
        assert_eq!(report.allowed.len(), 1);
        assert_eq!(report.stale.len(), 1);
        assert!(!report.clean());
    }

    #[test]
    fn json_is_well_formed_for_empty_and_nonempty_reports() {
        let empty = Report {
            files_scanned: 3,
            ..Report::default()
        };
        let j = render_json(&empty);
        assert!(j.contains("\"clean\": true"), "{j}");
        let busy = reconcile(
            vec![Finding {
                rule: "D5",
                file: "crates/serve/src/service.rs".into(),
                line: 7,
                snippet: "x.unwrap()".into(),
            }],
            &[],
            1,
        );
        let j = render_json(&busy);
        assert!(
            j.contains("\"rule\": \"D5\"") && j.contains("\"clean\": false"),
            "{j}"
        );
    }
}
