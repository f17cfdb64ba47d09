//! CLI driver for the `tscheck` static-analysis pass.
//!
//! Usage: `cargo run -p xtask -- check [--strict] [--json] [--timing]`
//!
//! Walks the workspace (rooted two levels above this crate's manifest, so
//! the command works from any cwd), runs the token-based per-file rules on
//! every `.rs` file, the cross-file lock-order graph over all sources, and
//! [`xtask::check_manifest`] on every `Cargo.toml`, prints each violation
//! as `path:line [rule] message`, and exits non-zero when anything fired.
//!
//! * `--strict` additionally holds the hot-path files (the T-Daub execution
//!   engine, the parallel work queue, the stat-model fit loops and their
//!   Nelder–Mead core, and the registry/cache layers) to the strict rule family.
//! * `--json` emits the violation list as a JSON array on stdout instead of
//!   the human format, for tooling.
//! * `--timing` reports per-phase wall time (walk / lex+scan / lock graph /
//!   manifests) on stderr so `scripts/check.sh` can hold the pass to a
//!   wall-time budget.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use xtask::{check_locks, check_manifest, check_source, Config, Violation, ALLOWED_EXTERNAL};

const USAGE: &str = "tscheck: usage: cargo run -p xtask -- check [--strict] [--json] [--timing]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => {
            let rest = args.get(1..).unwrap_or_default();
            let strict = rest.iter().any(|a| a == "--strict");
            let json = rest.iter().any(|a| a == "--json");
            let timing = rest.iter().any(|a| a == "--timing");
            if let Some(unknown) = rest
                .iter()
                .find(|a| *a != "--strict" && *a != "--json" && *a != "--timing")
            {
                eprintln!("tscheck: unknown flag `{unknown}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            run_check(strict, json, timing)
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Repo root: two levels above `crates/xtask`.
fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Collect every file under `dir` (recursively) whose name passes `keep`,
/// skipping `target` and hidden directories.
fn walk(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, keep, out);
        } else if keep(&path) {
            out.push(path);
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_json(violations: &[Violation]) {
    println!("[");
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 == violations.len() { "" } else { "," };
        println!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{comma}",
            json_escape(&v.file),
            v.line,
            v.rule.id(),
            json_escape(&v.message)
        );
    }
    println!("]");
}

fn run_check(strict: bool, json: bool, timing: bool) -> ExitCode {
    let started = Instant::now();
    let root = repo_root();
    let cfg = Config {
        strict,
        ..Config::default()
    };
    let mut violations: Vec<Violation> = Vec::new();

    let mut source_paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(
            &root.join(top),
            &|p| p.extension().is_some_and(|e| e == "rs"),
            &mut source_paths,
        );
    }
    source_paths.sort();

    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    walk(
        &root.join("crates"),
        &|p| p.file_name().is_some_and(|n| n == "Cargo.toml"),
        &mut manifests,
    );
    manifests.sort();

    let rel = |p: &Path| -> String {
        p.strip_prefix(&root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let t_walk = started.elapsed();

    let mut unreadable = 0usize;
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &source_paths {
        match std::fs::read_to_string(path) {
            Ok(src) => sources.push((rel(path), src)),
            Err(e) => {
                eprintln!("tscheck: cannot read {}: {e}", rel(path));
                unreadable += 1;
            }
        }
    }
    for (path, src) in &sources {
        violations.extend(check_source(path, src, &cfg));
    }
    let t_scan = started.elapsed();

    violations.extend(check_locks(&sources, &cfg));
    let t_locks = started.elapsed();

    for path in &manifests {
        match std::fs::read_to_string(path) {
            Ok(src) => violations.extend(check_manifest(&rel(path), &src, ALLOWED_EXTERNAL)),
            Err(e) => {
                eprintln!("tscheck: cannot read {}: {e}", rel(path));
                unreadable += 1;
            }
        }
    }
    let t_total = started.elapsed();

    violations.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));

    if timing {
        eprintln!(
            "tscheck: timing walk={}ms scan={}ms locks={}ms manifests={}ms total={}ms",
            t_walk.as_millis(),
            (t_scan - t_walk).as_millis(),
            (t_locks - t_scan).as_millis(),
            (t_total - t_locks).as_millis(),
            t_total.as_millis()
        );
    }

    if json {
        print_json(&violations);
        return if violations.is_empty() && unreadable == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() && unreadable == 0 {
        println!(
            "tscheck: ok{} ({} source files, {} manifests)",
            if strict { " [strict]" } else { "" },
            sources.len(),
            manifests.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "tscheck: {} violation(s) across {} source files and {} manifests",
            violations.len(),
            sources.len(),
            manifests.len()
        );
        ExitCode::FAILURE
    }
}
