//! `roclock`: workspace lock-discipline analysis.
//!
//! The multi-tenant service direction turns today's single-job lock set
//! (fabric state, each file system's store, the trace sink) into
//! hot shared state. `rocsched` can only witness deadlocks dynamically,
//! one scenario at a time; this module gives a *static* guarantee about
//! the whole workspace, validated by a dynamic lockdep witness.
//!
//! Four layers:
//!
//! 1. **Declared lock registry** (`roclock.order` at the workspace
//!    root): every `Mutex`/`RwLock` *field* in workspace crates must be
//!    declared with a name and a **level** in an explicit partial order.
//!    Higher level = acquired first (outer). A field the registry does
//!    not cover is denied by default (`lock-unregistered`); a declared
//!    member that no longer matches a field is stale and also denied.
//! 2. **Intra-function guard tracking** over the token stream: while a
//!    registered guard is provably held, flag blocking fabric calls
//!    (`send*`/`recv*`/`probe*`/`wait_match`/`settle_at`/collectives —
//!    `lock-blocking`), virtual-time charging (`charge_read`/
//!    `charge_write` — `lock-charge`), thread wakes (`unpark` —
//!    `lock-wake`: the woken thread's first act is to take the lock its
//!    waker still holds), and acquisition of another registered lock
//!    whose level is not strictly lower (`lock-order`).
//! 3. **Workspace lock graph**: nodes are registered locks; edges are
//!    every *observed* nested acquisition plus the registry's declared
//!    cross-function edges (nestings the intra-function pass cannot
//!    see, e.g. the fabric calling a schedule oracle under its state
//!    lock). Any cycle is reported; `--dot` exports the graph.
//! 4. **Dynamic witness** (see `rocio_core::lockdep`): a tier-1 test
//!    run with `--features rocio-core/lockdep` records the acquisition
//!    edges that actually happened; [`check_witness`] fails on any edge
//!    absent from the static graph, and on any declared edge the run
//!    never observed, so the static story is validated against reality
//!    instead of merely trusted.
//!
//! What "held" means here is a syntactic over-approximation: a
//! `let`-bound guard — bare, or wrapped by the constructor call it is
//! the sole argument of (`let g = Locked::new(self.state.lock());`) —
//! lives to the end of its enclosing brace scope (or an explicit
//! `drop(var)`); a temporary guard lives to the end of the
//! enclosing statement *including any attached block* — Rust's
//! pre-2024 `match`/`if let` temporary semantics, and a safe
//! over-approximation for plain `if` conditions. Local (non-field)
//! locks are out of scope: the registry governs the long-lived shared
//! state where ordering matters.
//!
//! Findings deny by default; an intentional exception is one
//! `rule | path | needle | reason` line in `roclock.allow`, and an entry
//! that stops matching is stale and fails the run, so the file cannot
//! rot silently. Everything under `#[cfg(test)]` / `#[test]` is exempt.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::lexer::{tokenize, Tok};

// ---------------------------------------------------------------------------
// Rules, findings, allowlist, token helpers.
// ---------------------------------------------------------------------------

/// The lock-discipline rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    LockUnregistered,
    LockOrder,
    LockBlocking,
    LockCharge,
    LockWake,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockUnregistered => "lock-unregistered",
            Rule::LockOrder => "lock-order",
            Rule::LockBlocking => "lock-blocking",
            Rule::LockCharge => "lock-charge",
            Rule::LockWake => "lock-wake",
        }
    }

    pub fn all() -> [Rule; 5] {
        [
            Rule::LockUnregistered,
            Rule::LockOrder,
            Rule::LockBlocking,
            Rule::LockCharge,
            Rule::LockWake,
        ]
    }

    fn from_name(name: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.name() == name)
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub line: usize,
    /// The full source line, for messages and allowlist matching.
    pub snippet: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message,
            self.snippet.trim()
        )
    }
}

/// Minimal JSON string escaping for `--json` output (no dependency on a
/// serializer; findings are flat string/number records).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Finding {
    /// One flat JSON object per finding, for `--json` output.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            self.rule.name(),
            json_escape(&self.path),
            self.line,
            json_escape(&self.message),
            json_escape(self.snippet.trim())
        )
    }
}

/// One `roclock.allow` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: Rule,
    pub path: String,
    /// Substring that must appear on the flagged source line.
    pub needle: String,
    pub reason: String,
    pub lineno: usize,
}

/// Parse the allowlist file content. Lines: `rule | path | needle | reason`;
/// `#` comments and blank lines ignored.
pub fn parse_allowlist(content: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
        if parts.len() != 4 {
            return Err(format!(
                "roclock.allow:{}: expected `rule | path | needle | reason`",
                i + 1
            ));
        }
        let rule = Rule::from_name(parts[0])
            .ok_or_else(|| format!("roclock.allow:{}: unknown rule '{}'", i + 1, parts[0]))?;
        if parts[3].is_empty() {
            return Err(format!("roclock.allow:{}: empty reason", i + 1));
        }
        out.push(AllowEntry {
            rule,
            path: parts[1].to_string(),
            needle: parts[2].to_string(),
            reason: parts[3].to_string(),
            lineno: i + 1,
        });
    }
    Ok(out)
}

/// Remove tokens belonging to `#[cfg(test)]` / `#[test]` items: the rules
/// only govern production code.
fn strip_test_items(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_test_attr(toks, i) {
            // Consume this and any further attribute groups, then the item.
            while toks.get(i).map(|t| t.text.as_str()) == Some("#")
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[")
            {
                i = skip_balanced(toks, i + 1); // past the `]`
            }
            i = skip_item(toks, i);
        } else {
            out.push(toks[i].clone());
            i += 1;
        }
    }
    out
}

/// Does an attribute group starting at `i` (`#`) mark test-only code?
fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    if toks.get(i).map(|t| t.text.as_str()) != Some("#")
        || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[")
    {
        return false;
    }
    let end = skip_balanced(toks, i + 1);
    let inner: Vec<&str> = toks[i + 2..end.saturating_sub(1)]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    inner == ["test"] || inner == ["cfg", "(", "test", ")"]
}

/// `i` points at an opening bracket token; return the index just past its
/// matching closer.
fn skip_balanced(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// `i` points at the first token of an item (after its attributes);
/// return the index just past the item: through the matching `}` of its
/// first top-level `{`, or past a top-level `;` for braceless items.
fn skip_item(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 && toks[j].text == "}" {
                    return j + 1;
                }
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

fn t(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Is `toks[i..]` the path-separator `::`?
fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    t(toks, i) == ":" && t(toks, i + 1) == ":"
}

/// Apply the allowlist: returns `(kept, suppressed, stale)`. A finding
/// is suppressed by the first entry with the same rule and path whose
/// needle appears in the flagged line; entries that suppress nothing are
/// stale and reported so the allowlist tracks reality.
pub fn apply_allowlist(
    findings: Vec<Finding>,
    allow: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<AllowEntry>) {
    let mut used = vec![false; allow.len()];
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = allow
            .iter()
            .position(|a| a.rule == f.rule && a.path == f.path && f.snippet.contains(&a.needle));
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed.push(f);
            }
            None => kept.push(f),
        }
    }
    let stale = allow
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.clone())
        .collect();
    (kept, suppressed, stale)
}

/// Recursively list `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The `(crate_dir, src_dir)` pairs a workspace scan visits: every
/// crate's `src/` plus the root package `src/`.
fn workspace_targets(workspace_root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut targets: Vec<(String, PathBuf)> = Vec::new();
    let crates = workspace_root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map_err(|e| format!("reading {}: {e}", crates.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for d in dirs {
        let name = d.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        let src = d.join("src");
        if src.is_dir() {
            targets.push((name, src));
        }
    }
    let root_src = workspace_root.join("src");
    if root_src.is_dir() {
        targets.push(("genx-repro".into(), root_src));
    }
    Ok(targets)
}

/// Read and parse `roclock.allow`; a missing file allows nothing.
fn read_allowlist(workspace_root: &Path) -> Result<Vec<AllowEntry>, String> {
    match std::fs::read_to_string(workspace_root.join("roclock.allow")) {
        Ok(content) => parse_allowlist(&content),
        Err(_) => Ok(Vec::new()),
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// One declared lock class from `roclock.order`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Lock-class name, e.g. `rocstore.store` — the same string the
    /// `rocio_core::lockdep` constructor is given.
    pub name: String,
    /// Position in the partial order. Higher = outer = acquired first;
    /// a nested acquisition is legal only if the inner level is
    /// strictly lower.
    pub level: u32,
    /// `crate_dir/Struct.field` member keys this class covers. One
    /// class may span several fields when they alias one lock object
    /// (e.g. the rocobs sink `Arc` shared by collector and handles).
    pub members: Vec<String>,
    pub reason: String,
    pub lineno: usize,
}

/// A declared cross-function edge: `from` is (legitimately) held while
/// `to` is acquired somewhere the intra-function pass cannot see.
#[derive(Debug, Clone)]
pub struct DeclEdge {
    pub from: String,
    pub to: String,
    pub reason: String,
    pub lineno: usize,
}

/// The parsed `roclock.order` registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub locks: Vec<LockDecl>,
    pub edges: Vec<DeclEdge>,
}

impl Registry {
    pub fn level(&self, name: &str) -> Option<u32> {
        self.locks.iter().find(|l| l.name == name).map(|l| l.level)
    }

    /// field name → lock class, for members of `crate_dir`.
    fn field_map(&self, crate_dir: &str) -> HashMap<String, String> {
        let mut out = HashMap::new();
        let prefix = format!("{crate_dir}/");
        for l in &self.locks {
            for m in &l.members {
                if let Some(rest) = m.strip_prefix(&prefix) {
                    if let Some((_, field)) = rest.rsplit_once('.') {
                        out.insert(field.to_string(), l.name.clone());
                    }
                }
            }
        }
        out
    }
}

/// Parse `roclock.order`. Lines (besides `#` comments and blanks):
///
/// ```text
/// lock | <name> | <level> | <crate/Struct.field>[, <member>…] | <reason>
/// edge | <from> | <to> | <reason>
/// ```
///
/// Declared edges must themselves respect the partial order
/// (`level(from) > level(to)`), so the registry cannot sanction an
/// inversion the lint would reject in source.
pub fn parse_registry(content: &str) -> Result<Registry, String> {
    let mut reg = Registry::default();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split('|').map(str::trim).collect();
        match parts.first().copied() {
            Some("lock") => {
                if parts.len() != 5 {
                    return Err(format!(
                        "roclock.order:{lineno}: expected `lock | name | level | members | reason`"
                    ));
                }
                let name = parts[1].to_string();
                let level: u32 = parts[2]
                    .parse()
                    .map_err(|_| format!("roclock.order:{lineno}: bad level '{}'", parts[2]))?;
                if parts[4].is_empty() {
                    return Err(format!("roclock.order:{lineno}: empty reason"));
                }
                if reg.locks.iter().any(|l| l.name == name) {
                    return Err(format!("roclock.order:{lineno}: duplicate lock '{name}'"));
                }
                let members: Vec<String> =
                    parts[3].split(',').map(|m| m.trim().to_string()).collect();
                for m in &members {
                    let ok = m.split_once('/').is_some_and(|(c, rest)| {
                        !c.is_empty() && rest.split_once('.').is_some_and(|(s, f)| {
                            !s.is_empty() && !f.is_empty()
                        })
                    });
                    if !ok {
                        return Err(format!(
                            "roclock.order:{lineno}: member '{m}' is not `crate/Struct.field`"
                        ));
                    }
                    if reg.locks.iter().any(|l| l.members.iter().any(|o| o == m)) {
                        return Err(format!("roclock.order:{lineno}: duplicate member '{m}'"));
                    }
                }
                reg.locks.push(LockDecl {
                    name,
                    level,
                    members,
                    reason: parts[4].to_string(),
                    lineno,
                });
            }
            Some("edge") => {
                if parts.len() != 4 {
                    return Err(format!(
                        "roclock.order:{lineno}: expected `edge | from | to | reason`"
                    ));
                }
                if parts[3].is_empty() {
                    return Err(format!("roclock.order:{lineno}: empty reason"));
                }
                reg.edges.push(DeclEdge {
                    from: parts[1].to_string(),
                    to: parts[2].to_string(),
                    reason: parts[3].to_string(),
                    lineno,
                });
            }
            other => {
                return Err(format!(
                    "roclock.order:{lineno}: unknown entry kind '{}'",
                    other.unwrap_or("")
                ));
            }
        }
    }
    // Edges may be declared before the locks they reference, so resolve
    // after the full pass.
    for e in &reg.edges {
        let (Some(from), Some(to)) = (reg.level(&e.from), reg.level(&e.to)) else {
            return Err(format!(
                "roclock.order:{}: edge references undeclared lock '{}'",
                e.lineno,
                if reg.level(&e.from).is_none() { &e.from } else { &e.to }
            ));
        };
        if from <= to {
            return Err(format!(
                "roclock.order:{}: declared edge {} (level {from}) -> {} (level {to}) \
                 inverts the partial order",
                e.lineno, e.from, e.to
            ));
        }
    }
    // A field name must map to one class per crate, or call-site
    // resolution would be ambiguous.
    for l in &reg.locks {
        for m in &l.members {
            let (c, rest) = m.split_once('/').unwrap_or(("", m));
            let field = rest.rsplit_once('.').map(|(_, f)| f).unwrap_or(rest);
            for o in &reg.locks {
                if o.name == l.name {
                    continue;
                }
                for om in &o.members {
                    let (oc, orest) = om.split_once('/').unwrap_or(("", om));
                    let of = orest.rsplit_once('.').map(|(_, f)| f).unwrap_or(orest);
                    if c == oc && field == of {
                        return Err(format!(
                            "roclock.order:{}: field '{field}' in crate '{c}' maps to both \
                             '{}' and '{}'",
                            l.lineno, l.name, o.name
                        ));
                    }
                }
            }
        }
    }
    Ok(reg)
}

// ---------------------------------------------------------------------------
// Lock graph.
// ---------------------------------------------------------------------------

/// Directed lock-order graph: an edge `a → b` means `b` was (or may be)
/// acquired while `a` is held.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// node → level, from the registry.
    pub levels: BTreeMap<String, u32>,
    /// edge → provenance (a source path, or "declared").
    pub edges: BTreeMap<(String, String), String>,
}

impl LockGraph {
    /// Build a bare graph from edges alone (used by the property tests).
    pub fn from_edges(edges: &[(String, String)]) -> Self {
        let mut g = LockGraph::default();
        for (a, b) in edges {
            g.add_edge(a.clone(), b.clone(), "test");
        }
        g
    }

    pub fn add_edge(&mut self, from: String, to: String, provenance: &str) {
        self.edges.entry((from, to)).or_insert_with(|| provenance.to_string());
    }

    pub fn contains_edge(&self, from: &str, to: &str) -> bool {
        self.edges.contains_key(&(from.to_string(), to.to_string()))
    }

    fn nodes(&self) -> BTreeSet<&str> {
        let mut n: BTreeSet<&str> = self.levels.keys().map(String::as_str).collect();
        for (a, b) in self.edges.keys() {
            n.insert(a);
            n.insert(b);
        }
        n
    }

    /// Find a directed cycle, returned as a closed walk
    /// `[a, b, …, a]`; `None` if the graph is acyclic. A self-edge
    /// yields `[a, a]`.
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        let nodes = self.nodes();
        let succ = |n: &str| -> Vec<&str> {
            self.edges
                .keys()
                .filter(|(a, _)| a == n)
                .map(|(_, b)| b.as_str())
                .collect()
        };
        let mut done: BTreeSet<&str> = BTreeSet::new();
        for start in &nodes {
            if done.contains(start) {
                continue;
            }
            // Iterative DFS with an explicit path stack.
            let mut path: Vec<&str> = vec![start];
            let mut iters: Vec<Vec<&str>> = vec![succ(start)];
            let mut on_path: BTreeSet<&str> = BTreeSet::from([*start]);
            while let Some(frontier) = iters.last_mut() {
                match frontier.pop() {
                    Some(next) => {
                        if on_path.contains(next) {
                            // Close the walk at `next`.
                            let from = path.iter().position(|n| *n == next).unwrap_or(0);
                            let mut cycle: Vec<String> =
                                path[from..].iter().map(|s| s.to_string()).collect();
                            cycle.push(next.to_string());
                            return Some(cycle);
                        }
                        if done.contains(next) {
                            continue;
                        }
                        path.push(next);
                        on_path.insert(next);
                        iters.push(succ(next));
                    }
                    None => {
                        iters.pop();
                        if let Some(n) = path.pop() {
                            on_path.remove(n);
                            done.insert(n);
                        }
                    }
                }
            }
        }
        None
    }

    /// Graphviz export for docs: nodes annotated with their level,
    /// declared edges dashed.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph roclock {\n  rankdir=TB;\n  node [shape=box];\n");
        for n in self.nodes() {
            let label = match self.levels.get(n) {
                Some(lv) => format!("{n}\\nlevel {lv}"),
                None => n.to_string(),
            };
            let _ = writeln!(out, "  \"{n}\" [label=\"{label}\"];");
        }
        for ((a, b), prov) in &self.edges {
            let attrs = if prov == "declared" {
                " [style=dashed label=\"declared\"]".to_string()
            } else {
                format!(" [label=\"{prov}\"]")
            };
            let _ = writeln!(out, "  \"{a}\" -> \"{b}\"{attrs};");
        }
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Per-file analysis: field inventory + guard tracking.
// ---------------------------------------------------------------------------

/// Method names that block on the fabric (or run a collective). A guard
/// held across one of these holds its lock for unbounded virtual time —
/// and across other ranks' scheduling decisions. A clock move
/// (`advance`, `advance_to`, `compute`) counts too: one that crosses a
/// parked gate bound takes `rocnet.fabric_state` to wake the waiter.
/// `wait` is deliberately absent: condvar waits *release* the mutex.
fn is_blocking_call(name: &str) -> bool {
    const PREFIXES: [&str; 10] = [
        "send", "recv", "probe", "allreduce", "barrier", "bcast", "alltoall", "allgather",
        "scatter", "advance",
    ];
    const EXACT: [&str; 4] = ["gather", "wait_match", "settle_at", "compute"];
    PREFIXES.iter().any(|p| name.starts_with(p)) || EXACT.contains(&name)
}

/// Calls that wake another thread. Issued under a guard, the woken
/// thread runs straight into the lock its waker still holds; wakes are
/// decided under the lock and issued after it is released.
fn is_wake_call(name: &str) -> bool {
    name == "unpark"
}

fn is_charge_call(name: &str) -> bool {
    matches!(name, "charge_read" | "charge_write")
}

fn is_acquire_call(name: &str) -> bool {
    matches!(name, "lock" | "try_lock" | "read" | "write")
}

/// A guard the tracker currently considers held.
struct Held {
    /// `let`-bound variable name, or `None` for a temporary.
    var: Option<String>,
    lock: String,
    /// Brace depth at acquisition; the guard dies when this scope does.
    depth: usize,
}

/// Walking back from the `.` before a call at token `call - 1`: skip one
/// `[…]` index group if present and return the index of the receiver
/// field token.
fn receiver_field(toks: &[Tok], call: usize) -> Option<usize> {
    if t(toks, call.wrapping_sub(1)) != "." {
        return None;
    }
    let mut j = call.checked_sub(2)?;
    if t(toks, j) == "]" {
        let mut depth = 1usize;
        while depth > 0 {
            j = j.checked_sub(1)?;
            match t(toks, j) {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
        }
        j = j.checked_sub(1)?;
    }
    let f = t(toks, j);
    let is_ident = f
        .chars()
        .all(|c| c.is_alphanumeric() || c == '_')
        && !f.is_empty();
    is_ident.then_some(j)
}

/// Walk a `a.b[i].c`-style receiver chain backwards from the field at
/// `field`; return the index of the chain's first token.
fn chain_start(toks: &[Tok], field: usize) -> usize {
    let mut j = field;
    loop {
        let Some(prev) = j.checked_sub(1) else { return j };
        if t(toks, prev) != "." {
            return j;
        }
        let Some(mut k) = prev.checked_sub(1) else { return j };
        if t(toks, k) == "]" {
            let mut depth = 1usize;
            while depth > 0 {
                let Some(kk) = k.checked_sub(1) else { return j };
                k = kk;
                match t(toks, k) {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            }
            let Some(kk) = k.checked_sub(1) else { return j };
            k = kk;
        }
        j = k;
    }
}

/// If the chain starting at `start` is the sole argument of a
/// constructor call — `Path::new(chain.lock())` — return the index of
/// the path's first token: the guard lives in the constructed value.
fn wrapper_start(toks: &[Tok], start: usize) -> Option<usize> {
    if t(toks, start.wrapping_sub(1)) != "(" {
        return None;
    }
    let mut j = start.checked_sub(2)?;
    let is_ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    if !is_ident(t(toks, j)) {
        return None;
    }
    while j >= 3 && is_path_sep(toks, j - 2) && is_ident(t(toks, j - 3)) {
        j -= 3;
    }
    Some(j)
}

/// If the chain starting at `start` is the right-hand side of a
/// `let [mut] var =` (or `var =`) binding, return the variable name.
fn binding_var(toks: &[Tok], start: usize) -> Option<String> {
    if t(toks, start.wrapping_sub(1)) != "=" {
        return None;
    }
    let v = t(toks, start.wrapping_sub(2));
    let is_ident =
        !v.is_empty() && v.chars().all(|c| c.is_alphanumeric() || c == '_') && v != "mut";
    is_ident.then(|| v.to_string())
}

/// Scan one file: inventory lock fields against the registry, track
/// guards, and emit findings plus observed nested-acquisition edges and
/// the set of registry members seen.
pub fn lock_source(
    reg: &Registry,
    crate_dir: &str,
    path: &str,
    src: &str,
) -> (Vec<Finding>, Vec<(String, String)>, Vec<String>) {
    let lines: Vec<&str> = src.lines().collect();
    let snippet =
        |line: usize| -> String { lines.get(line.saturating_sub(1)).unwrap_or(&"").to_string() };
    let raw = tokenize(src);
    let toks = strip_test_items(&raw);
    let fields = reg.field_map(crate_dir);
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let mut members_seen = Vec::new();
    let push = |rule: Rule, line: usize, message: String, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            snippet: snippet(line),
            message,
        });
    };

    // --- Pass 1: struct-field inventory. ---------------------------------
    let mut i = 0;
    while i < toks.len() {
        if t(&toks, i) != "struct" {
            i += 1;
            continue;
        }
        let sname = t(&toks, i + 1).to_string();
        let mut j = i + 2;
        // Skip generic parameters.
        if t(&toks, j) == "<" {
            let mut depth = 1usize;
            j += 1;
            while j < toks.len() && depth > 0 {
                match t(&toks, j) {
                    "<" => depth += 1,
                    ">" if t(&toks, j.wrapping_sub(1)) != "-" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Skip a where-clause up to the body.
        while j < toks.len() && !matches!(t(&toks, j), "{" | "(" | ";") {
            j += 1;
        }
        let open = t(&toks, j);
        if open == ";" {
            i = j + 1;
            continue;
        }
        let end = skip_balanced(&toks, j);
        // Split the body into fields at top-level commas.
        let body = &toks[j + 1..end.saturating_sub(1)];
        let mut field_start = 0usize;
        let mut depth = 0isize;
        let mut idx = 0usize; // tuple-field index
        let mut k = 0;
        while k <= body.len() {
            let at_end = k == body.len();
            let tk = if at_end { "," } else { body[k].text.as_str() };
            match tk {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ">" if k > 0 && body[k - 1].text != "-" => depth -= 1,
                "," if depth == 0 => {
                    let field = &body[field_start..k];
                    let has_lock = field.windows(2).any(|w| {
                        matches!(w[0].text.as_str(), "Mutex" | "RwLock") && w[1].text == "<"
                    });
                    if has_lock {
                        let (fname, line) = if open == "{" {
                            let colon =
                                field.iter().position(|t| t.text == ":").unwrap_or(0);
                            let name = field
                                .get(colon.wrapping_sub(1))
                                .map(|t| t.text.clone())
                                .unwrap_or_default();
                            let line = field.first().map(|t| t.line).unwrap_or(1);
                            (name, line)
                        } else {
                            (idx.to_string(), field.first().map(|t| t.line).unwrap_or(1))
                        };
                        let member = format!("{crate_dir}/{sname}.{fname}");
                        if fields.contains_key(&fname)
                            && reg.locks.iter().any(|l| l.members.contains(&member))
                        {
                            members_seen.push(member);
                        } else {
                            push(
                                Rule::LockUnregistered,
                                line,
                                format!(
                                    "lock field `{member}` is not declared in roclock.order \
                                     — register it with a level"
                                ),
                                &mut findings,
                            );
                        }
                    }
                    field_start = k + 1;
                    idx += 1;
                }
                _ => {}
            }
            k += 1;
        }
        i = end;
    }

    // --- Pass 2: guard tracking. -----------------------------------------
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    for i in 0..toks.len() {
        let w = t(&toks, i);
        match w {
            "{" => depth += 1,
            "}" => {
                held.retain(|h| h.depth < depth);
                depth = depth.saturating_sub(1);
            }
            ";" => held.retain(|h| !(h.var.is_none() && h.depth == depth)),
            "drop" if t(&toks, i + 1) == "(" && t(&toks, i + 3) == ")" => {
                let var = t(&toks, i + 2);
                held.retain(|h| h.var.as_deref() != Some(var));
            }
            _ => {}
        }
        if t(&toks, i + 1) != "(" || t(&toks, i.wrapping_sub(1)) != "." {
            continue;
        }
        // `w` is a method call.
        if is_acquire_call(w) {
            let Some(fidx) = receiver_field(&toks, i) else { continue };
            let Some(lock) = fields.get(t(&toks, fidx)).cloned() else { continue };
            let line = toks[i].line;
            let level = reg.level(&lock).unwrap_or(0);
            for h in &held {
                if h.lock == lock {
                    push(
                        Rule::LockOrder,
                        line,
                        format!(
                            "acquiring `{lock}` while a `{lock}` guard is already held \
                             — same-class nesting can deadlock"
                        ),
                        &mut findings,
                    );
                } else {
                    edges.push((h.lock.clone(), lock.clone()));
                    let hlevel = reg.level(&h.lock).unwrap_or(0);
                    if level >= hlevel {
                        push(
                            Rule::LockOrder,
                            line,
                            format!(
                                "acquiring `{lock}` (level {level}) while holding `{}` \
                                 (level {hlevel}) — the inner lock's level must be \
                                 strictly lower",
                                h.lock
                            ),
                            &mut findings,
                        );
                    }
                }
            }
            // The guard is `let`-bound only when the acquisition is the
            // whole right-hand side (`let g = chain.lock();`). If the
            // call is further chained (`.lock().get(..)`), the guard is
            // a temporary that dies with the statement.
            let after_call = skip_balanced(&toks, i + 1);
            let chain = chain_start(&toks, fidx);
            let var = if t(&toks, after_call) == ";" {
                binding_var(&toks, chain)
            } else if t(&toks, after_call) == ")" && t(&toks, after_call + 1) == ";" {
                wrapper_start(&toks, chain).and_then(|w| binding_var(&toks, w))
            } else {
                None
            };
            held.push(Held { var, lock, depth });
        } else if is_blocking_call(w) {
            for h in &held {
                push(
                    Rule::LockBlocking,
                    toks[i].line,
                    format!(
                        "guard for `{}` held across blocking call `.{w}(..)` — release \
                         it before fabric operations",
                        h.lock
                    ),
                    &mut findings,
                );
            }
        } else if is_wake_call(w) {
            for h in &held {
                push(
                    Rule::LockWake,
                    toks[i].line,
                    format!(
                        "`.{w}()` while the guard for `{}` is held — the woken thread \
                         collides with its waker; collect the wake and issue it after \
                         the guard is dropped",
                        h.lock
                    ),
                    &mut findings,
                );
            }
        } else if is_charge_call(w) {
            for h in &held {
                push(
                    Rule::LockCharge,
                    toks[i].line,
                    format!(
                        "guard for `{}` held across `.{w}(..)` — charging takes the \
                         per-server locks and advances virtual time",
                        h.lock
                    ),
                    &mut findings,
                );
            }
        }
    }

    (findings, edges, members_seen)
}

// ---------------------------------------------------------------------------
// Workspace driver + witness check.
// ---------------------------------------------------------------------------

/// The result of a whole-workspace roclock run.
pub struct LockReport {
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned allow entry (for `--stats`).
    pub suppressed: Vec<Finding>,
    pub stale_allow: Vec<AllowEntry>,
    /// The `lock-*` allow entries (for `--stats`).
    pub allow: Vec<AllowEntry>,
    pub files_scanned: usize,
    pub registry: Registry,
    pub graph: LockGraph,
}

impl LockReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allow.is_empty()
    }
}

/// Run the full static analysis: registry, per-file scan, allowlist,
/// graph assembly, cycle check.
pub fn lock_workspace(workspace_root: &Path) -> Result<LockReport, String> {
    let reg_path = workspace_root.join("roclock.order");
    let registry = match std::fs::read_to_string(&reg_path) {
        Ok(content) => parse_registry(&content)?,
        // No registry: every lock field will be denied as unregistered.
        Err(_) => Registry::default(),
    };
    let allow = read_allowlist(workspace_root)?;
    let targets = workspace_targets(workspace_root)?;

    let mut findings = Vec::new();
    let mut all_edges: Vec<(String, String, String)> = Vec::new(); // from, to, path
    let mut members_seen: BTreeSet<String> = BTreeSet::new();
    let mut files_scanned = 0;
    for (crate_dir, src_dir) in &targets {
        let mut files = Vec::new();
        rs_files(src_dir, &mut files).map_err(|e| format!("walking {}: {e}", src_dir.display()))?;
        for f in files {
            let rel = f
                .strip_prefix(workspace_root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&f)
                .map_err(|e| format!("reading {}: {e}", f.display()))?;
            let (fnd, edges, seen) = lock_source(&registry, crate_dir, &rel, &src);
            findings.extend(fnd);
            all_edges.extend(edges.into_iter().map(|(a, b)| (a, b, rel.clone())));
            members_seen.extend(seen);
            files_scanned += 1;
        }
    }

    // Registry staleness: a declared member that matches no field means
    // the registry has drifted from the code.
    for l in &registry.locks {
        for m in &l.members {
            if !members_seen.contains(m) {
                findings.push(Finding {
                    rule: Rule::LockUnregistered,
                    path: "roclock.order".into(),
                    line: l.lineno,
                    snippet: format!("lock | {} | {} | …", l.name, l.level),
                    message: format!(
                        "declared member `{m}` matches no Mutex/RwLock field — prune or fix"
                    ),
                });
            }
        }
    }

    let (findings, suppressed, stale_allow) = apply_allowlist(findings, &allow);
    let mut findings = findings;

    // Assemble the graph and reject cycles. The cycle check is not
    // allowlistable: a cyclic order is a design error, not an exception.
    let mut graph = LockGraph::default();
    for l in &registry.locks {
        graph.levels.insert(l.name.clone(), l.level);
    }
    for e in &registry.edges {
        graph.add_edge(e.from.clone(), e.to.clone(), "declared");
    }
    for (a, b, path) in all_edges {
        graph.add_edge(a, b, &path);
    }
    if let Some(cycle) = graph.find_cycle() {
        findings.push(Finding {
            rule: Rule::LockOrder,
            path: "roclock.order".into(),
            line: 1,
            snippet: String::new(),
            message: format!("the workspace lock graph has a cycle: {}", cycle.join(" -> ")),
        });
    }

    Ok(LockReport {
        findings,
        suppressed,
        stale_allow,
        allow,
        files_scanned,
        registry,
        graph,
    })
}

/// Check a witness file (`from\tto` lines appended by
/// `rocio_core::lockdep` during a `--features rocio-core/lockdep` test
/// run) against the static graph. Every observed edge must connect
/// registered locks, appear in the static graph, and descend the
/// partial order — otherwise the static analysis missed something and
/// the run fails. Every declared edge must have been observed — one that
/// was not is stale, a nesting the registry claims and no run vouches
/// for, and fails the run like an allowlist entry that matches nothing.
pub fn check_witness(registry: &Registry, graph: &LockGraph, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let Some((from, to)) = line.split_once('\t') else {
            findings.push(Finding {
                rule: Rule::LockOrder,
                path: "witness".into(),
                line: i + 1,
                snippet: line.to_string(),
                message: "malformed witness line (expected `from\\tto`)".into(),
            });
            continue;
        };
        if !seen.insert((from.to_string(), to.to_string())) {
            continue;
        }
        let mut push = |message: String| {
            findings.push(Finding {
                rule: Rule::LockOrder,
                path: "witness".into(),
                line: i + 1,
                snippet: line.to_string(),
                message,
            });
        };
        let (flv, tlv) = (registry.level(from), registry.level(to));
        if flv.is_none() || tlv.is_none() {
            let unknown = if flv.is_none() { from } else { to };
            push(format!("witnessed edge touches unregistered lock `{unknown}`"));
            continue;
        }
        if !graph.contains_edge(from, to) {
            push(format!(
                "witnessed acquisition edge `{from}` -> `{to}` is absent from the static \
                 lock graph — declare it in roclock.order or fix the nesting"
            ));
            continue;
        }
        if flv <= tlv {
            push(format!(
                "witnessed edge `{from}` -> `{to}` climbs the partial order \
                 ({:?} <= {:?})",
                flv.unwrap_or(0),
                tlv.unwrap_or(0)
            ));
        }
    }
    for e in &registry.edges {
        if !seen.contains(&(e.from.clone(), e.to.clone())) {
            findings.push(Finding {
                rule: Rule::LockOrder,
                path: "roclock.order".into(),
                line: e.lineno,
                snippet: format!("edge | {} | {} | …", e.from, e.to),
                message: "stale declared edge: the witness never observed it — cover it \
                          with a test or prune it"
                    .into(),
            });
        }
    }
    findings
}
