//! `roclint`: deny-by-default workspace lint rules with an allowlist.
//!
//! The rules encode project invariants the compiler cannot see:
//!
//! * **wall-clock** — simulation crates must live entirely in virtual
//!   time; `Instant::now` / `SystemTime::now` would leak host timing into
//!   results that are asserted bit-identical across runs.
//! * **rand** — simulation crates must not draw ambient randomness;
//!   stochastic behaviour belongs to seeded generators outside the
//!   simulation core (e.g. rocmesh's seeded partitioner).
//! * **thread-spawn** — OS threads may only be created in the registered
//!   lanes (the rank harness and the T-Rochdf background writer); a rogue
//!   thread would invalidate the fabric's stable-state reasoning.
//! * **unwrap-panic** — library crates return [`rocio_core::RocError`]
//!   instead of panicking; `.unwrap()` / `.expect()` / `panic!` in
//!   non-test library code must be either fixed or allowlisted with a
//!   reason.
//! * **span-category** — every `rocobs` span is recorded under a known
//!   [`rocobs::SpanCategory`] constant, so trace queries never silently
//!   miss a category.
//! * **forbid-unsafe** — every crate root carries `#![forbid(unsafe_code)]`.
//! * **owned-payload** — the zero-copy data path keeps wire payloads in
//!   shared `bytes::Bytes`; an owned `payload: Vec<u8>` field or a
//!   `ds.clone()` on the send path reintroduces a deep copy per message,
//!   and so does flattening a segment list (`segments_to_vec`) in any
//!   crate but `rocio-core`, which defines it: a list travels and lands as
//!   a `Rope`. Outside `rocio-core` and `rocsdf` a header is not an owned
//!   `Vec` of its own either (`Segment::Owned(..)`, a `SegmentPool` to
//!   recycle them): an encoder writes its header runs into one staging
//!   buffer per message.
//! * **block-on-data-path** — the I/O modules (`rochdf`, `rocpanda`,
//!   `genx`) hold no `DataBlock` between a pane and a file: a writer
//!   encodes a pane's records straight from its window
//!   (`roccom::convert::plan`), and a reader applies a block read where it
//!   lies (`rocsdf::BlockView`). Building one to encode
//!   (`window_to_blocks`, `pane_to_block`) or to apply
//!   (`block_from_records`, `read_block_shared`, `read_blocks_sieved`,
//!   `read_all_blocks`, `BlockMsg::decode`) puts a map, a `String` and a
//!   `Vec` per dataset back on every block of every snapshot or restart.
//! * **std-sync** — workspace locks are parking_lot-backed through the
//!   named `rocio_core::lockdep` wrappers; a `std::sync::Mutex`/`RwLock`/
//!   `Condvar` has a different guard shape and escapes the lock-discipline
//!   witness (`roclock`).
//!
//! Everything under `#[cfg(test)]` / `#[test]` is exempt. Intentional
//! exceptions live in `roclint.allow` (one `rule | path | needle | reason`
//! per line); stale entries fail the lint so the allowlist cannot rot.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{tokenize, Tok};

/// The lint rules, in reporting order. The `Lock*` rules are checked by
/// `roclock` (see [`crate::lock`]); the rest by `roclint`. Both tools
/// share the `roclint.allow` file, each applying only its own rules'
/// entries (so neither reports the other's entries as stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    WallClock,
    Rand,
    ThreadSpawn,
    UnwrapPanic,
    SpanCategory,
    ForbidUnsafe,
    OwnedPayload,
    RawSend,
    BlockOnDataPath,
    StdSync,
    LockUnregistered,
    LockOrder,
    LockBlocking,
    LockCharge,
    LockWake,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::Rand => "rand",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::UnwrapPanic => "unwrap-panic",
            Rule::SpanCategory => "span-category",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::OwnedPayload => "owned-payload",
            Rule::RawSend => "raw-send",
            Rule::BlockOnDataPath => "block-on-data-path",
            Rule::StdSync => "std-sync",
            Rule::LockUnregistered => "lock-unregistered",
            Rule::LockOrder => "lock-order",
            Rule::LockBlocking => "lock-blocking",
            Rule::LockCharge => "lock-charge",
            Rule::LockWake => "lock-wake",
        }
    }

    pub fn all() -> [Rule; 15] {
        [
            Rule::WallClock,
            Rule::Rand,
            Rule::ThreadSpawn,
            Rule::UnwrapPanic,
            Rule::SpanCategory,
            Rule::ForbidUnsafe,
            Rule::OwnedPayload,
            Rule::RawSend,
            Rule::BlockOnDataPath,
            Rule::StdSync,
            Rule::LockUnregistered,
            Rule::LockOrder,
            Rule::LockBlocking,
            Rule::LockCharge,
            Rule::LockWake,
        ]
    }

    /// Rules owned by `roclock` rather than `roclint`.
    pub fn is_lock(self) -> bool {
        matches!(
            self,
            Rule::LockUnregistered
                | Rule::LockOrder
                | Rule::LockBlocking
                | Rule::LockCharge
                | Rule::LockWake
        )
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
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
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

/// Which rules apply where. Lanes are workspace-relative file paths that
/// are *designed* to do the otherwise-forbidden thing.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates that must be wall-clock- and rand-free (by directory name
    /// under `crates/`).
    pub sim_crates: Vec<String>,
    /// Files allowed to use wall-clock time.
    pub wallclock_lanes: Vec<String>,
    /// Files allowed to use `rand`.
    pub rand_lanes: Vec<String>,
    /// Files allowed to create OS threads: the M:N rank scheduler
    /// (one thread per rank) and the T-Rochdf background writer.
    pub thread_lanes: Vec<String>,
    /// Crates exempt from the unwrap/expect/panic rule (operator-facing
    /// harnesses whose panics are deliberate).
    pub unwrap_exempt_crates: Vec<String>,
    /// Valid `SpanCategory::` suffixes (variant names plus `all`).
    pub known_categories: Vec<String>,
    /// Files inside rocpanda allowed to hold raw `Comm` sends: the
    /// `PandaNet` shim itself, which is the one place the raw/reliable
    /// split is decided.
    pub rawsend_lanes: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut known: Vec<String> = rocobs::SpanCategory::all()
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        known.push("all".into());
        LintConfig {
            sim_crates: ["rocnet", "rocpanda", "rochdf", "genx"]
                .map(String::from)
                .to_vec(),
            wallclock_lanes: vec![],
            rand_lanes: vec![],
            thread_lanes: vec![
                "crates/rocnet/src/sched.rs".into(),
                "crates/rochdf/src/trochdf.rs".into(),
            ],
            // bench: operator-facing measurement harness. rocverify:
            // exploration scenarios use panics as the per-schedule
            // assertion channel (caught by the explorer), and the sched
            // assertion helpers panic by design.
            unwrap_exempt_crates: vec!["bench".into(), "rocverify".into()],
            known_categories: known,
            rawsend_lanes: vec!["crates/rocpanda/src/net.rs".into()],
        }
    }
}

/// One `roclint.allow` entry.
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
                "roclint.allow:{}: expected `rule | path | needle | reason`",
                i + 1
            ));
        }
        let rule = Rule::from_name(parts[0])
            .ok_or_else(|| format!("roclint.allow:{}: unknown rule '{}'", i + 1, parts[0]))?;
        if parts[3].is_empty() {
            return Err(format!("roclint.allow:{}: empty reason", i + 1));
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
pub(crate) fn strip_test_items(toks: &[Tok]) -> Vec<Tok> {
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
pub(crate) fn skip_balanced(toks: &[Tok], i: usize) -> usize {
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

pub(crate) fn t(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Is `toks[i..]` the path-separator `::`?
pub(crate) fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    t(toks, i) == ":" && t(toks, i + 1) == ":"
}

/// Lint one file's source. `path` is workspace-relative; `crate_dir` is
/// the directory name under `crates/` (or the package name for the root
/// `src/`).
pub fn lint_source(cfg: &LintConfig, crate_dir: &str, path: &str, src: &str) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: usize| -> String {
        lines.get(line.saturating_sub(1)).unwrap_or(&"").to_string()
    };
    let raw = tokenize(src);
    let toks = strip_test_items(&raw);
    let mut out = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        out.push(Finding {
            rule,
            path: path.to_string(),
            line,
            snippet: snippet(line),
            message,
        });
    };

    let is_sim = cfg.sim_crates.iter().any(|c| c == crate_dir);
    let in_lane = |lanes: &[String]| lanes.iter().any(|l| l == path);
    let is_bin = path.contains("/src/bin/") || path.ends_with("/main.rs");
    let unwrap_applies =
        !cfg.unwrap_exempt_crates.iter().any(|c| c == crate_dir) && !is_bin;

    for i in 0..toks.len() {
        let w = t(&toks, i);
        // wall-clock: `Instant::now` / `SystemTime::now`.
        if is_sim
            && !in_lane(&cfg.wallclock_lanes)
            && (w == "Instant" || w == "SystemTime")
            && is_path_sep(&toks, i + 1)
            && t(&toks, i + 3) == "now"
        {
            push(
                Rule::WallClock,
                toks[i].line,
                format!("wall-clock `{w}::now` in a simulation crate (virtual time only)"),
            );
        }
        // rand: any use of the rand crate in a simulation crate.
        if is_sim
            && !in_lane(&cfg.rand_lanes)
            && w == "rand"
            && (is_path_sep(&toks, i + 1) || t(&toks, i.wrapping_sub(1)) == "use")
        {
            push(
                Rule::Rand,
                toks[i].line,
                "ambient randomness (`rand`) in a simulation crate".into(),
            );
        }
        // thread-spawn: OS threads outside the registered lanes.
        if !in_lane(&cfg.thread_lanes)
            && w == "thread"
            && is_path_sep(&toks, i + 1)
            && matches!(t(&toks, i + 3), "spawn" | "Builder" | "scope")
        {
            push(
                Rule::ThreadSpawn,
                toks[i].line,
                format!(
                    "`thread::{}` outside the registered harness/T-Rochdf lanes",
                    t(&toks, i + 3)
                ),
            );
        }
        // unwrap-panic: `.unwrap()` / `.expect(` / `panic!` in library code.
        if unwrap_applies {
            if (w == "unwrap" || w == "expect")
                && t(&toks, i.wrapping_sub(1)) == "."
                && t(&toks, i + 1) == "("
            {
                push(
                    Rule::UnwrapPanic,
                    toks[i].line,
                    format!("`.{w}()` in library code — return a `RocError` instead"),
                );
            }
            if w == "panic" && t(&toks, i + 1) == "!" {
                push(
                    Rule::UnwrapPanic,
                    toks[i].line,
                    "`panic!` in library code — return a `RocError` instead".into(),
                );
            }
        }
        // owned-payload: wire payloads are shared `Bytes`; declaring an
        // owned `payload: Vec<u8>` field in a simulation crate reopens a
        // deep copy per message.
        if is_sim
            && w == "payload"
            && t(&toks, i + 1) == ":"
            && t(&toks, i + 2) == "Vec"
            && t(&toks, i + 3) == "<"
            && t(&toks, i + 4) == "u8"
        {
            push(
                Rule::OwnedPayload,
                toks[i].line,
                "owned `payload: Vec<u8>` — wire payloads are shared `Bytes`".into(),
            );
        }
        // owned-payload: cloning a whole dataset on the send path. The
        // encoder takes a name override precisely so callers never need
        // a rename-copy before encoding.
        if is_sim
            && w == "ds"
            && t(&toks, i + 1) == "."
            && t(&toks, i + 2) == "clone"
            && t(&toks, i + 3) == "("
        {
            push(
                Rule::OwnedPayload,
                toks[i].line,
                "`ds.clone()` deep-copies the dataset — encode with a name override instead"
                    .into(),
            );
        }
        // owned-payload: flattening a segment list. A message carries its
        // list as a `Rope` and the store adopts it as extents, so outside
        // `rocio-core` (which defines the function) only tests and the
        // benchmark have a reason to assemble one.
        if crate_dir != "core" && w == "segments_to_vec" && t(&toks, i + 1) == "(" {
            push(
                Rule::OwnedPayload,
                toks[i].line,
                "`segments_to_vec` copies every payload byte — send the rope or append the \
                 segments instead"
                    .into(),
            );
        }
        // owned-payload: a header run held as a `Vec` of its own, to be
        // staged into a message again later. Only the record encoder's
        // crate (and `rocio-core`, which defines the type) builds one.
        if !matches!(crate_dir, "core" | "rocsdf")
            && matches!((w, t(&toks, i + 3)), ("SegmentPool", "new") | ("Segment", "Owned"))
            && is_path_sep(&toks, i + 1)
            && t(&toks, i + 4) == "("
        {
            push(
                Rule::OwnedPayload,
                toks[i].line,
                format!(
                    "`{w}::{}(..)` stages a header in a `Vec` of its own — write it into \
                     the message's one staging buffer and send the rope",
                    t(&toks, i + 3)
                ),
            );
        }
        // raw-send: inside rocpanda, protocol traffic must route through
        // the `PandaNet` shim (receiver named `net`) so the reliability
        // layer covers it when the fabric is degraded. A send on any
        // other receiver silently bypasses retransmission.
        if crate_dir == "rocpanda"
            && !in_lane(&cfg.rawsend_lanes)
            && matches!(w, "send" | "send_bytes" | "send_rope")
            && t(&toks, i.wrapping_sub(1)) == "."
            && t(&toks, i + 1) == "("
            && t(&toks, i.wrapping_sub(2)) != "net"
        {
            push(
                Rule::RawSend,
                toks[i].line,
                format!(
                    "raw `.{w}(..)` in rocpanda — route through `PandaNet` (`net.{w}`) \
                     so the reliability layer covers it"
                ),
            );
        }
        // block-on-data-path: the writers lay a pane out from its window,
        // the readers apply a block where it lies; a built block is the
        // tests' and the benchmark's reference.
        if matches!(crate_dir, "rochdf" | "rocpanda" | "genx") {
            let call = match w {
                "BlockMsg" if is_path_sep(&toks, i + 1) && t(&toks, i + 3) == "decode" => {
                    (t(&toks, i + 4) == "(").then_some("BlockMsg::decode")
                }
                _ => (t(&toks, i + 1) == "(").then_some(w),
            };
            let instead = match call {
                Some("window_to_blocks" | "pane_to_block") => {
                    "encode the pane where it lies \
                     (`roccom::convert::plan` + `rocsdf::encode_block`)"
                }
                Some(
                    "block_from_records" | "read_block_shared" | "read_blocks_sieved"
                    | "read_all_blocks" | "BlockMsg::decode",
                ) => {
                    "apply the block where it lies (`rocsdf::BlockView`: `view_block`, \
                     `view_blocks_sieved`, `view_all_blocks`, `BlockMsgView::decode`)"
                }
                _ => "",
            };
            if let (Some(call), false) = (call, instead.is_empty()) {
                push(
                    Rule::BlockOnDataPath,
                    toks[i].line,
                    format!("`{call}(..)` builds a `DataBlock` on a data path — {instead}"),
                );
            }
        }
        // std-sync: workspace locks are parking_lot-backed (via the
        // `rocio_core::lockdep` named wrappers). A `std::sync` lock has
        // a different guard shape — poison Results, guard-consuming
        // condvar waits — and is invisible to the lockdep witness.
        if w == "std" && is_path_sep(&toks, i + 1) && t(&toks, i + 3) == "sync"
            && is_path_sep(&toks, i + 4)
        {
            let forbidden = |n: &str| matches!(n, "Mutex" | "RwLock" | "Condvar");
            let target = t(&toks, i + 6);
            let hit = if target == "{" {
                let end = skip_balanced(&toks, i + 6);
                toks[i + 6..end].iter().find(|tk| forbidden(&tk.text)).map(|tk| tk.text.clone())
            } else if forbidden(target) {
                Some(target.to_string())
            } else {
                None
            };
            if let Some(name) = hit {
                push(
                    Rule::StdSync,
                    toks[i].line,
                    format!(
                        "`std::sync::{name}` — use the named `rocio_core::lockdep` wrappers \
                         (parking_lot semantics) so the lock-discipline witness sees it"
                    ),
                );
            }
        }
        // span-category: `SpanCategory::X` must name a known constant.
        if crate_dir != "rocobs" && w == "SpanCategory" && is_path_sep(&toks, i + 1) {
            let variant = t(&toks, i + 3);
            if !cfg.known_categories.iter().any(|k| k == variant) {
                push(
                    Rule::SpanCategory,
                    toks[i].line,
                    format!("unknown span category `SpanCategory::{variant}`"),
                );
            }
        }
        // span-category: `rocobs::record(` calls must pass a literal
        // category path as their first argument.
        if crate_dir != "rocobs"
            && w == "rocobs"
            && is_path_sep(&toks, i + 1)
            && t(&toks, i + 3) == "record"
            && t(&toks, i + 4) == "("
        {
            let first = t(&toks, i + 5);
            let literal = (first == "rocobs"
                && is_path_sep(&toks, i + 6)
                && t(&toks, i + 8) == "SpanCategory")
                || first == "SpanCategory";
            if !literal {
                push(
                    Rule::SpanCategory,
                    toks[i].line,
                    "`rocobs::record` must be called with a literal `SpanCategory::…`".into(),
                );
            }
        }
    }

    // forbid-unsafe: crate roots must carry the attribute (checked on the
    // raw stream — the attribute sits above any cfg handling).
    if path.ends_with("src/lib.rs") {
        let has = (0..raw.len()).any(|i| {
            t(&raw, i) == "#"
                && t(&raw, i + 1) == "!"
                && t(&raw, i + 2) == "["
                && t(&raw, i + 3) == "forbid"
                && t(&raw, i + 4) == "("
                && t(&raw, i + 5) == "unsafe_code"
        });
        if !has {
            out.push(Finding {
                rule: Rule::ForbidUnsafe,
                path: path.to_string(),
                line: 1,
                snippet: lines.first().unwrap_or(&"").to_string(),
                message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
            });
        }
    }
    out
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
pub(crate) fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
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
pub(crate) fn workspace_targets(workspace_root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
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

/// Read and parse `roclint.allow`, keeping only the entries owned by one
/// tool: `lock_rules` selects roclock's entries, `!lock_rules` roclint's.
/// Each tool applies (and stale-checks) only its own slice.
pub(crate) fn read_allowlist(
    workspace_root: &Path,
    lock_rules: bool,
) -> Result<Vec<AllowEntry>, String> {
    let allow_path = workspace_root.join("roclint.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(content) => parse_allowlist(&content)?,
        Err(_) => Vec::new(),
    };
    Ok(allow.into_iter().filter(|a| a.rule.is_lock() == lock_rules).collect())
}

/// The result of linting the whole workspace.
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned allow entry (for `--stats`).
    pub suppressed: Vec<Finding>,
    pub stale_allow: Vec<AllowEntry>,
    /// The allow entries this tool owns (for `--stats`).
    pub allow: Vec<AllowEntry>,
    pub files_scanned: usize,
}

impl WorkspaceReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allow.is_empty()
    }
}

/// Lint every crate's `src/` plus the root package `src/` under
/// `workspace_root`, applying the roclint-owned slice of
/// `workspace_root/roclint.allow` if present.
pub fn lint_workspace(workspace_root: &Path, cfg: &LintConfig) -> Result<WorkspaceReport, String> {
    let targets = workspace_targets(workspace_root)?;
    let allow = read_allowlist(workspace_root, false)?;

    let mut findings = Vec::new();
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
            findings.extend(lint_source(cfg, crate_dir, &rel, &src));
            files_scanned += 1;
        }
    }
    let (findings, suppressed, stale_allow) = apply_allowlist(findings, &allow);
    Ok(WorkspaceReport {
        findings,
        suppressed,
        stale_allow,
        allow,
        files_scanned,
    })
}
