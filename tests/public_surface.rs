//! The library crates export only what the rest of the system names.
//!
//! A `pub fn` that nothing outside its crate calls hides from the
//! compiler: `dead_code` does not look at public items, so such a function
//! can lose its last caller and live on. This test keeps the census that
//! cut them: for each library crate under `crates/` (every crate but the
//! `bench` and `rocverify` harnesses), every `pub fn` in its `src/`,
//! counting each file only up to its first `#[cfg(test)]`, must be named
//! as a whole word in some `.rs` file outside that crate's `src/`: another
//! crate (the harnesses included), the crate's own `tests/`, the root
//! package's `src/`, `tests/` and `examples/`, or the benchmark's
//! `perf/src` and `perf/tests`. A function only its own crate calls is
//! `pub(crate)` (or private), where the compiler sees it.
//!
//! `unreachable_pub` cannot hold this: every library module is `pub mod`,
//! so every `pub fn` in one is reachable and the lint reports none.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates under `crates/` that are harnesses, not library: their `pub`
/// items are not counted, but what they name keeps a library item alive.
const HARNESSES: [&str; 2] = ["bench", "rocverify"];

/// Where, besides the crates, a library name may be used.
const OUTSIDE_DIRS: [&str; 5] = ["src", "tests", "examples", "perf/src", "perf/tests"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Each whole word of `text`, as the identifier-byte runs between other
/// bytes.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a `pub fn` line declares, if the line is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub fn ")?;
    let end = rest
        .bytes()
        .position(|b| !is_ident_byte(b))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

struct PubFn {
    krate: usize,
    path: PathBuf,
    line: usize,
    name: String,
}

/// Every library `pub fn` no file outside its crate's `src/` names, as
/// `path:line name`, paths relative to `root`.
fn unnamed(root: &Path) -> Vec<String> {
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    // Which sources may keep a word alive: bit `i` for library crate `i`'s
    // `src/`, bit 63 for everything else searched.
    const OUTSIDE: u64 = 1 << 63;
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut note = |path: &Path, origin: u64| {
        let text = fs::read_to_string(path).expect("source is readable");
        for w in words(&text) {
            *seen.entry(w.to_owned()).or_default() |= origin;
        }
    };

    let mut pub_fns = Vec::new();
    let mut libraries = 0usize;
    for dir in &crate_dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let mut src = Vec::new();
        rust_files(&dir.join("src"), &mut src);
        let mut rest = Vec::new();
        rust_files(&dir.join("tests"), &mut rest);
        rust_files(&dir.join("benches"), &mut rest);
        rust_files(&dir.join("examples"), &mut rest);
        for path in &rest {
            note(path, OUTSIDE);
        }
        if HARNESSES.contains(&name) {
            for path in &src {
                note(path, OUTSIDE);
            }
            continue;
        }
        let krate = libraries;
        libraries += 1;
        assert!(krate < 63, "more library crates than the census has bits");
        for path in &src {
            note(path, 1 << krate);
            let text = fs::read_to_string(path).expect("source is readable");
            for (i, line) in text.lines().enumerate() {
                if line.trim_start().starts_with("#[cfg(test)]") {
                    break;
                }
                if let Some(name) = pub_fn_name(line) {
                    pub_fns.push(PubFn {
                        krate,
                        path: path.clone(),
                        line: i + 1,
                        name: name.to_owned(),
                    });
                }
            }
        }
    }
    for dir in OUTSIDE_DIRS {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        for path in &files {
            note(path, OUTSIDE);
        }
    }

    assert!(
        pub_fns.len() > 100,
        "the census found only {} library pub fns: is the tree where it expects?",
        pub_fns.len()
    );
    pub_fns
        .iter()
        .filter(|f| seen.get(&f.name).copied().unwrap_or(0) & !(1 << f.krate) == 0)
        .map(|f| {
            let rel = f.path.strip_prefix(root).unwrap_or(&f.path);
            format!("{}:{} {}", rel.display(), f.line, f.name)
        })
        .collect()
}

#[test]
fn every_library_pub_fn_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = unnamed(root);
    assert!(
        found.is_empty(),
        "{} library pub fn(s) named nowhere outside their crate; make each pub(crate) \
         (and delete what the compiler then finds unused):\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn the_census_reads_declarations_and_whole_words() {
    assert_eq!(pub_fn_name("    pub fn census_probe(&self) {"), Some("census_probe"));
    assert_eq!(pub_fn_name("pub fn f<T>(t: T)"), Some("f"));
    assert_eq!(pub_fn_name("    pub(crate) fn hidden()"), None);
    assert_eq!(pub_fn_name("    fn private()"), None);
    assert_eq!(pub_fn_name("// pub fn in_a_comment()"), None);
    let w: Vec<&str> = words("a.census_probe(); census_probe_2 x::y").collect();
    assert_eq!(w, ["a", "census_probe", "census_probe_2", "x", "y"]);
}
