//! Doc-drift guards on the living docs and the CI workflow: no
//! `BENCH_<n>` snapshot reference remains, every `--bin <name>` names a
//! binary that exists, every backticked allocation entry point names a
//! `pub fn` that exists in `ccra-regalloc`, and every backticked
//! `<Type>::<name>` for a type of [`MEMBER_TYPES`] names a field or
//! method that type has.
//!
//! History files (CHANGES.md, ROADMAP.md, ISSUE.md) legitimately mention
//! retired snapshot names, deleted binaries and deleted entry points and
//! are exempt; the files checked here describe the *current* interface,
//! where a stale name means a reader runs the wrong command, calls a
//! function that is gone, or CI calls a binary that no longer exists.

use std::collections::BTreeSet;
use std::path::Path;

/// Repo-root-relative files that describe the current commands.
const LIVING_DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
];

/// Repo-root-relative docs whose entry-point names must exist.
const ENTRY_POINT_DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The binary of the repository benchmark, which lives outside
/// `crates/eval/src/bin`.
const BENCHMARK_BIN: &str = "benchmark";

fn repo_root() -> std::path::PathBuf {
    // crates/eval -> crates -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root exists")
        .to_path_buf()
}

fn read_doc(root: &Path, doc: &str) -> String {
    let path = root.join(doc);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every `BENCH_<digits>` occurrence in `text`, with its line number.
fn bench_refs(text: &str) -> Vec<(usize, u32)> {
    let mut refs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut i = 0;
        while let Some(pos) = line[i..].find("BENCH_") {
            let start = i + pos + "BENCH_".len();
            let digits: String = line[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(v) = digits.parse::<u32>() {
                refs.push((lineno + 1, v));
            }
            i = start.min(bytes.len());
        }
    }
    refs
}

#[test]
fn living_docs_reference_no_bench_snapshot() {
    let root = repo_root();
    let mut stale = Vec::new();
    for doc in LIVING_DOCS {
        for (line, version) in bench_refs(&read_doc(&root, doc)) {
            stale.push(format!("{doc}:{line}: BENCH_{version}"));
        }
    }
    assert!(
        stale.is_empty(),
        "the BENCH_<n> snapshot is retired; these references remain:\n{}",
        stale.join("\n")
    );
}

#[test]
fn bench_ref_extraction_is_exact() {
    let refs = bench_refs("see BENCH_6.json and BENCH_12_par.json\nBENCH_ alone\nBENCH_3");
    assert_eq!(refs, vec![(1, 6), (1, 12), (3, 3)]);
}

/// Every binary name following `--bin` in `text`, with its line number.
fn bin_refs(text: &str) -> Vec<(usize, String)> {
    let mut refs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut words = line.split_whitespace();
        while let Some(word) = words.next() {
            if word.trim_start_matches('`') == "--bin" {
                if let Some(name) = words.next() {
                    refs.push((lineno + 1, ident(name).to_string()));
                }
            }
        }
    }
    refs
}

#[test]
fn living_docs_name_only_existing_binaries() {
    let root = repo_root();
    let bin_dir = root.join("crates/eval/src/bin");
    assert!(
        bin_dir.join("trace.rs").is_file(),
        "no trace.rs in {} — the guard is reading the wrong directory",
        bin_dir.display()
    );
    let mut stale = Vec::new();
    let mut total = 0;
    for doc in LIVING_DOCS {
        for (line, name) in bin_refs(&read_doc(&root, doc)) {
            total += 1;
            if name != BENCHMARK_BIN && !bin_dir.join(format!("{name}.rs")).is_file() {
                stale.push(format!("{doc}:{line}: --bin {name}"));
            }
        }
    }
    assert!(
        total > 0,
        "no --bin references found in {LIVING_DOCS:?} — \
         the guard is grepping the wrong files"
    );
    assert!(
        stale.is_empty(),
        "--bin names a binary that does not exist — update the docs or CI \
         alongside the binaries:\n{}",
        stale.join("\n")
    );
}

#[test]
fn bin_ref_extraction_is_exact() {
    let refs = bin_refs(
        "cargo run --bin perf -- --iters 3\n--bin\n  cargo run -p x --bin trace`, `--bin quality --",
    );
    assert_eq!(
        refs,
        vec![
            (1, "perf".to_string()),
            (3, "trace".to_string()),
            (3, "quality".to_string())
        ]
    );
}

/// The leading Rust identifier of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Every `pub fn` name declared in the `.rs` files under `dir`.
fn pub_fns(dir: &Path, names: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            pub_fns(&path, names);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file is readable");
            for line in text.lines() {
                if let Some(rest) = line.trim_start().strip_prefix("pub fn ") {
                    names.insert(ident(rest).to_string());
                }
            }
        }
    }
}

/// Every entry-point name inside a backticked span of `text`, with its
/// line number: identifiers starting with `allocate_`, and the method
/// named after `ParallelDriver::`.
fn entry_point_refs(text: &str) -> Vec<(usize, String)> {
    let mut refs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            for (i, _) in span.match_indices("allocate_") {
                let inside_ident =
                    span[..i].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
                if !inside_ident {
                    refs.push((lineno + 1, ident(&span[i..]).to_string()));
                }
            }
            for (i, m) in span.match_indices("ParallelDriver::") {
                refs.push((lineno + 1, ident(&span[i + m.len()..]).to_string()));
            }
        }
    }
    // `ParallelDriver::allocate_x` matches both patterns.
    refs.sort();
    refs.dedup();
    refs
}

#[test]
fn living_docs_name_only_existing_entry_points() {
    let root = repo_root();
    let mut names = BTreeSet::new();
    pub_fns(&root.join("crates/regalloc/src"), &mut names);
    assert!(
        names.contains("allocate_program"),
        "no `pub fn allocate_program` found — the guard is reading the wrong sources"
    );
    let mut stale = Vec::new();
    let mut total = 0;
    for doc in ENTRY_POINT_DOCS {
        for (line, name) in entry_point_refs(&read_doc(&root, doc)) {
            total += 1;
            if !names.contains(&name) {
                stale.push(format!(
                    "{doc}:{line}: `{name}` is not a pub fn of ccra-regalloc"
                ));
            }
        }
    }
    assert!(
        total > 0,
        "no entry-point references found in {ENTRY_POINT_DOCS:?} — \
         the guard is grepping the wrong files"
    );
    assert!(
        stale.is_empty(),
        "stale entry-point references — update the docs alongside the API:\n{}",
        stale.join("\n")
    );
}

#[test]
fn entry_point_extraction_is_exact() {
    let refs = entry_point_refs(
        "call `allocate_program(&p)` or `ParallelDriver::new`\n`reallocate_x`, allocate_y",
    );
    assert_eq!(
        refs,
        vec![(1, "allocate_program".to_string()), (1, "new".to_string())]
    );
}

/// The types whose backticked `Type::<name>` references must name a
/// field or method that exists: the serving configuration and the
/// driver's report, where a doc naming a removed knob misleads most.
const MEMBER_TYPES: [&str; 5] = [
    "BatchConfig",
    "DriverReport",
    "ObsvConfig",
    "AdmissionConfig",
    "FlightRecorder",
];

/// The `.rs` files under `dir`, concatenated.
fn sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("source file is readable"));
            out.push('\n');
        }
    }
}

/// The field and method names of `ty` in rustfmt-formatted `src`: the
/// `pub` fields of `pub struct ty` and every `fn` of an `impl` block for
/// it, each item running from its unindented header to its unindented
/// closing brace.
fn members(src: &str, ty: &str) -> BTreeSet<String> {
    let headers = [
        format!("pub struct {ty} {{"),
        format!("impl {ty} {{"),
        format!(" for {ty} {{"),
    ];
    let mut names = BTreeSet::new();
    let mut inside = false;
    for line in src.lines() {
        if !inside {
            inside = !line.starts_with(' ')
                && (line == headers[0] || line == headers[1] || line.ends_with(&headers[2]));
            continue;
        }
        if line == "}" {
            inside = false;
            continue;
        }
        let Some(item) = line.strip_prefix("    ") else {
            continue;
        };
        let item = item.strip_prefix("pub ").unwrap_or(item);
        let name = ident(item);
        if let Some(rest) = item.strip_prefix("fn ") {
            names.insert(ident(rest).to_string());
        } else if !name.is_empty() && item[name.len()..].starts_with(':') {
            names.insert(name.to_string());
        }
    }
    names
}

/// Every `<ty>::<name>` inside a backticked span of `text` for a type of
/// [`MEMBER_TYPES`], with its line number.
fn member_refs(text: &str) -> Vec<(usize, String, String)> {
    let mut refs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            for ty in MEMBER_TYPES {
                let pat = format!("{ty}::");
                for (i, _) in span.match_indices(&pat) {
                    let inside_ident =
                        span[..i].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
                    let name = ident(&span[i + pat.len()..]);
                    if !inside_ident && !name.is_empty() {
                        refs.push((lineno + 1, ty.to_string(), name.to_string()));
                    }
                }
            }
        }
    }
    refs
}

#[test]
fn living_docs_name_only_existing_config_and_report_members() {
    let root = repo_root();
    let mut src = String::new();
    sources(&root.join("crates/regalloc/src"), &mut src);
    let known: Vec<BTreeSet<String>> = MEMBER_TYPES.iter().map(|ty| members(&src, ty)).collect();
    for (ty, names) in MEMBER_TYPES.iter().zip(&known) {
        assert!(
            !names.is_empty(),
            "no member of `{ty}` found — the guard is reading the wrong sources"
        );
    }
    let mut stale = Vec::new();
    let mut total = 0;
    for doc in ENTRY_POINT_DOCS {
        for (line, ty, name) in member_refs(&read_doc(&root, doc)) {
            total += 1;
            let at = MEMBER_TYPES
                .iter()
                .position(|t| *t == ty)
                .expect("a member type");
            if !known[at].contains(&name) {
                stale.push(format!(
                    "{doc}:{line}: `{ty}::{name}` is neither a field nor a method"
                ));
            }
        }
    }
    assert!(
        total > 0,
        "no {MEMBER_TYPES:?} references found in {ENTRY_POINT_DOCS:?} — \
         the guard is grepping the wrong files"
    );
    assert!(
        stale.is_empty(),
        "stale field or method references — update the docs alongside the types:\n{}",
        stale.join("\n")
    );
}

#[test]
fn member_extraction_is_exact() {
    let src = "pub struct BatchConfig {\n    /// Docs: not a field.\n    pub workers: usize,\n    \
               pub cache: Option<Arc<AllocCache>>,\n}\n\nimpl Default for BatchConfig {\n    \
               fn default() -> Self {\n        BatchConfig { workers: 2 }\n    }\n}\n\n\
               impl Other {\n    pub fn stray(&self) {}\n}\n";
    let names: Vec<String> = members(src, "BatchConfig").into_iter().collect();
    assert_eq!(names, ["cache", "default", "workers"]);
    let refs = member_refs(
        "`BatchConfig::workers` and `DriverReport::steals()`\nnot `MyBatchConfig::x`, BatchConfig::y\n\
         `ObsvConfig::rules`, `FlightRecorder::with_capacity(2, 4)`",
    );
    assert_eq!(
        refs,
        vec![
            (1, "BatchConfig".to_string(), "workers".to_string()),
            (1, "DriverReport".to_string(), "steals".to_string()),
            (3, "ObsvConfig".to_string(), "rules".to_string()),
            (3, "FlightRecorder".to_string(), "with_capacity".to_string()),
        ]
    );
}

/// Every `series=<name>` query in `text` (a `/history` request), with its
/// line number; `<placeholder>` names are skipped.
fn series_refs(text: &str) -> Vec<(usize, String)> {
    let mut refs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        for (i, _) in line.match_indices("series=") {
            let name: String = line[i + "series=".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | ':'))
                .collect();
            if !name.is_empty() {
                refs.push((lineno + 1, name));
            }
        }
    }
    refs
}

#[test]
fn series_ref_extraction_is_exact() {
    let refs = series_refs(
        "curl '/history?series=rate:x_total&tier=ds'\n`?series=<name>`\n\
         /history?series=derived:a /history?series=gauge:b`",
    );
    assert_eq!(
        refs,
        vec![
            (1, "rate:x_total".to_string()),
            (3, "derived:a".to_string()),
            (3, "gauge:b".to_string()),
        ]
    );
}

/// Every `series=<name>` the living docs query names a series a live
/// observatory has: a service with an observatory and a memo cache runs
/// one job and ticks once, and its series inventory is the reference.
#[test]
fn living_docs_query_only_existing_series() {
    use std::sync::Arc;

    use ccra_machine::RegisterFile;
    use ccra_regalloc::{
        AllocCache, AllocatorConfig, BatchConfig, BatchJob, BatchService, ObsvConfig,
    };
    use ccra_workloads::{random_program, FuzzConfig};

    let service = BatchService::start(BatchConfig {
        workers: 1,
        cache: Some(Arc::new(AllocCache::default())),
        obsv: Some(ObsvConfig::default()),
        ..BatchConfig::default()
    });
    let program = random_program(
        7,
        &FuzzConfig {
            functions: 2,
            stmts_per_fn: 8,
            max_loop_depth: 1,
            max_trips: 3,
        },
    );
    service
        .submit(BatchJob::new(
            "docdrift",
            program,
            RegisterFile::mips_full(),
            AllocatorConfig::improved(),
        ))
        .expect("submit accepted");
    let handle = service.handle();
    assert_eq!(service.shutdown().len(), 1);
    handle.obsv_tick();
    let known: BTreeSet<String> = handle
        .observatory()
        .expect("observatory configured")
        .series_names()
        .into_iter()
        .collect();
    assert!(
        known.contains("rate:batch_jobs_completed_total"),
        "the reference inventory is missing the completion counter: {known:?}"
    );

    let root = repo_root();
    let mut stale = Vec::new();
    let mut total = 0;
    for doc in LIVING_DOCS {
        for (line, name) in series_refs(&read_doc(&root, doc)) {
            total += 1;
            if !known.contains(&name) {
                stale.push(format!("{doc}:{line}: series `{name}` does not exist"));
            }
        }
    }
    assert!(
        total > 0,
        "no series= queries found in {LIVING_DOCS:?} — the guard is grepping the wrong files"
    );
    assert!(
        stale.is_empty(),
        "docs query series no observatory samples (known: {known:?}):\n{}",
        stale.join("\n")
    );
}
