//! Golden corpus for the token analyzer: every fixture under
//! `tests/corpus/` carries a `.golden` companion listing exactly the
//! violations it must reproduce (`<line> <rule-id>` per line, with the
//! synthetic in-scope path on a `path ` header line). The whole corpus is
//! analyzed as one workspace so the cross-file lock-order cycle fixtures
//! exercise the real graph, not a per-file shortcut.
//!
//! A final test runs the analyzer over its *own* source tree (which is
//! deliberately outside the default scope) under a widened config and
//! asserts it comes back clean — the linter holds itself to its rules.

use std::collections::BTreeSet;
use std::path::PathBuf;

use xtask::{check_locks, check_source, Config};

type Finding = (String, usize, String);

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Load `(synthetic_path, source)` pairs and the expected finding set.
fn load_corpus() -> (Vec<(String, String)>, BTreeSet<Finding>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "golden"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus is empty");

    let mut sources = Vec::new();
    let mut expected = BTreeSet::new();
    for golden in entries {
        let text = std::fs::read_to_string(&golden).expect("golden readable");
        let mut lines = text.lines();
        let synth = lines
            .next()
            .and_then(|l| l.strip_prefix("path "))
            .unwrap_or_else(|| panic!("{golden:?}: first line must be `path <synthetic>`"))
            .trim()
            .to_string();
        let src = std::fs::read_to_string(golden.with_extension("rs")).expect("fixture readable");
        sources.push((synth.clone(), src));
        for l in lines {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let (line, rule) = l.split_once(' ').expect("`<line> <rule>` format");
            expected.insert((
                synth.clone(),
                line.parse().expect("line number"),
                rule.into(),
            ));
        }
    }
    (sources, expected)
}

#[test]
fn corpus_reproduces_exactly_the_golden_violations() {
    let (sources, expected) = load_corpus();
    let cfg = Config::default();
    let mut actual: BTreeSet<Finding> = BTreeSet::new();
    for (path, src) in &sources {
        for v in check_source(path, src, &cfg) {
            actual.insert((v.file.clone(), v.line, v.rule.id().to_string()));
        }
    }
    for v in check_locks(&sources, &cfg) {
        actual.insert((v.file.clone(), v.line, v.rule.id().to_string()));
    }
    let missing: Vec<_> = expected.difference(&actual).collect();
    let spurious: Vec<_> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && spurious.is_empty(),
        "corpus drift — missing: {missing:?}, spurious: {spurious:?}"
    );
}

#[test]
fn corpus_covers_every_new_rule_family() {
    let (_, expected) = load_corpus();
    let covered: BTreeSet<&str> = expected.iter().map(|(_, _, r)| r.as_str()).collect();
    for rule in [
        "lock-order",
        "lock-across-par",
        "raw-lock",
        "hash-iter",
        "wall-clock",
        "trunc-cast",
        "panic",
        "raw-spawn",
        "chaos-site",
        "ptr-identity",
    ] {
        assert!(covered.contains(rule), "no fixture exercises `{rule}`");
    }
}

#[test]
fn tscheck_is_clean_on_its_own_source() {
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut cfg = Config::default();
    cfg.scoped_crates.push("xtask".to_string());
    // the CLI's --timing flag is the one legitimate clock consumer here
    cfg.clock_paths.push("crates/xtask/src/main.rs".to_string());

    let mut sources = Vec::new();
    for name in ["lib.rs", "lexer.rs", "locks.rs", "main.rs"] {
        let src = std::fs::read_to_string(src_dir.join(name)).expect("own source readable");
        sources.push((format!("crates/xtask/src/{name}"), src));
    }
    let mut violations = Vec::new();
    for (path, src) in &sources {
        violations.extend(check_source(path, src, &cfg));
    }
    violations.extend(check_locks(&sources, &cfg));
    assert!(
        violations.is_empty(),
        "tscheck flags its own source:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
