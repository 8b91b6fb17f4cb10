//! One failing fixture per roclint rule, plus the meta-test that the
//! workspace itself is lint-clean — the same invocation CI runs.

use rocverify::lint::{
    apply_allowlist, lint_source, lint_workspace, parse_allowlist, LintConfig, Rule,
};

fn rules_fired(crate_dir: &str, path: &str, src: &str) -> Vec<Rule> {
    let cfg = LintConfig::default();
    let mut rules: Vec<Rule> = lint_source(&cfg, crate_dir, path, src)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn wallclock_fires_in_sim_crates_only() {
    let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }";
    assert_eq!(
        rules_fired("rocnet", "crates/rocnet/src/x.rs", src),
        vec![Rule::WallClock]
    );
    // The same code is legal outside the deterministic-simulation crates.
    assert_eq!(rules_fired("rocmesh", "crates/rocmesh/src/x.rs", src), vec![]);
}

#[test]
fn systemtime_also_counts_as_wallclock() {
    let src = "pub fn t() { let _ = std::time::SystemTime::now(); }";
    assert_eq!(
        rules_fired("rochdf", "crates/rochdf/src/x.rs", src),
        vec![Rule::WallClock]
    );
}

#[test]
fn rand_fires_in_sim_crates_only() {
    let src = "use rand::Rng;\npub fn r() -> u64 { rand::random() }";
    assert_eq!(
        rules_fired("genx", "crates/genx/src/x.rs", src),
        vec![Rule::Rand]
    );
    // rocmesh's jittered partitioner owns a seeded StdRng legitimately.
    assert_eq!(rules_fired("rocmesh", "crates/rocmesh/src/x.rs", src), vec![]);
}

#[test]
fn thread_spawn_fires_outside_registered_lanes() {
    let src = "pub fn go() { std::thread::spawn(|| {}); }";
    assert_eq!(
        rules_fired("rocpanda", "crates/rocpanda/src/x.rs", src),
        vec![Rule::ThreadSpawn]
    );
    // The two registered lanes: the M:N rank scheduler and the T-Rochdf
    // writer. The harness facade is NOT a lane anymore — all spawns live
    // in sched.rs.
    assert_eq!(rules_fired("rocnet", "crates/rocnet/src/sched.rs", src), vec![]);
    assert_eq!(
        rules_fired("rocnet", "crates/rocnet/src/harness.rs", src),
        vec![Rule::ThreadSpawn]
    );
    assert_eq!(rules_fired("rochdf", "crates/rochdf/src/trochdf.rs", src), vec![]);
}

#[test]
fn unwrap_expect_panic_fire_in_library_code() {
    assert_eq!(
        rules_fired("rocsdf", "crates/rocsdf/src/x.rs", "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
        vec![Rule::UnwrapPanic]
    );
    assert_eq!(
        rules_fired("rocsdf", "crates/rocsdf/src/x.rs", "pub fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }"),
        vec![Rule::UnwrapPanic]
    );
    assert_eq!(
        rules_fired("rocsdf", "crates/rocsdf/src/x.rs", "pub fn f() { panic!(\"boom\"); }"),
        vec![Rule::UnwrapPanic]
    );
}

#[test]
fn unwrap_is_fine_in_tests_and_bins() {
    let test_src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}";
    assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/x.rs", test_src), vec![]);
    let src = "fn main() { std::env::args().next().unwrap(); }";
    assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/bin/tool.rs", src), vec![]);
}

#[test]
fn unknown_span_category_fires() {
    let src = "pub fn f() { let _ = rocobs::SpanCategory::Chrono; }";
    assert_eq!(
        rules_fired("rocpanda", "crates/rocpanda/src/x.rs", src),
        vec![Rule::SpanCategory]
    );
    // Every real variant passes — this is the test that keeps roclint's
    // category list in sync with rocobs::SpanCategory::all().
    for cat in rocobs::SpanCategory::all() {
        let src = format!("pub fn f() {{ let _ = rocobs::SpanCategory::{cat:?}; }}");
        assert_eq!(
            rules_fired("rocpanda", "crates/rocpanda/src/x.rs", &src),
            vec![],
            "variant {cat:?} should be known to roclint"
        );
    }
}

#[test]
fn missing_forbid_unsafe_fires_on_lib_root_only() {
    let src = "//! A crate.\npub fn f() {}";
    assert_eq!(
        rules_fired("rocsdf", "crates/rocsdf/src/lib.rs", src),
        vec![Rule::ForbidUnsafe]
    );
    assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/other.rs", src), vec![]);
    let ok = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}";
    assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/lib.rs", ok), vec![]);
}

#[test]
fn owned_payload_fires_in_sim_crates_only() {
    let field = "pub struct Msg { pub payload: Vec<u8> }";
    assert_eq!(
        rules_fired("rocnet", "crates/rocnet/src/x.rs", field),
        vec![Rule::OwnedPayload]
    );
    // Non-simulation crates may stage owned buffers freely.
    assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/x.rs", field), vec![]);

    let clone = "pub fn send(ds: &Dataset) -> Vec<u8> { let d = ds.clone(); encode(&d) }";
    assert_eq!(
        rules_fired("rocpanda", "crates/rocpanda/src/x.rs", clone),
        vec![Rule::OwnedPayload]
    );
    // A shared-Bytes payload field is the sanctioned form.
    let ok = "pub struct Msg { pub payload: Bytes }";
    assert_eq!(rules_fired("rocnet", "crates/rocnet/src/x.rs", ok), vec![]);
}

#[test]
fn flattening_a_segment_list_fires_everywhere_but_in_core_and_tests() {
    let flatten = "pub fn send(s: &[Segment]) -> Bytes { Bytes::from(segments_to_vec(s)) }";
    for (krate, path) in [
        ("rocnet", "crates/rocnet/src/comm.rs"),
        ("rocstore", "crates/rocstore/src/fs.rs"),
        ("rocsdf", "crates/rocsdf/src/writer.rs"),
    ] {
        assert_eq!(rules_fired(krate, path, flatten), vec![Rule::OwnedPayload], "{path}");
    }
    let qualified = "fn f(s: &[Segment]) -> Vec<u8> { rocio_core::segments_to_vec(s) }";
    assert_eq!(rules_fired("rochdf", "crates/rochdf/src/x.rs", qualified), vec![Rule::OwnedPayload]);
    // The defining crate, a re-export, and test code are not flattening.
    assert_eq!(rules_fired("core", "crates/core/src/segment.rs", flatten), vec![]);
    let reexport = "pub use rocio_core::{segments_len, segments_to_vec, Segment};";
    assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/x.rs", reexport), vec![]);
    let in_test = format!("#[cfg(test)]\nmod tests {{ {flatten} }}");
    assert_eq!(rules_fired("rocnet", "crates/rocnet/src/comm.rs", &in_test), vec![]);
}

#[test]
fn a_header_in_a_vec_of_its_own_fires_outside_core_and_rocsdf() {
    for src in [
        "pub fn f(h: Vec<u8>) -> Vec<Segment> { vec![Segment::Owned(h)] }",
        "pub fn f() { let mut pool = rocsdf::SegmentPool::new(); }",
    ] {
        for (krate, path) in [("rocpanda", "crates/rocpanda/src/client.rs"), ("rochdf", "crates/rochdf/src/x.rs")] {
            assert_eq!(rules_fired(krate, path, src), vec![Rule::OwnedPayload], "{path}: {src}");
        }
        // The encoder's crate and the defining one, and test code, may.
        assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/format.rs", src), vec![], "{src}");
        assert_eq!(rules_fired("core", "crates/core/src/rope.rs", src), vec![], "{src}");
        let in_test = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert_eq!(rules_fired("rocpanda", "crates/rocpanda/src/wire.rs", &in_test), vec![]);
    }
    // A shared part, and the rope a message is, are the sanctioned forms.
    let ok = "pub fn f(b: Bytes) -> Rope { let mut r = Rope::from(b.clone()); r.push(b); r }";
    assert_eq!(rules_fired("rocpanda", "crates/rocpanda/src/wire.rs", ok), vec![]);
    let shared = "pub fn f(b: Bytes) -> Segment { Segment::Shared(b) }";
    assert_eq!(rules_fired("rochdf", "crates/rochdf/src/x.rs", shared), vec![]);
}

#[test]
fn a_block_built_on_a_writers_path_fires_in_the_writers_only() {
    for src in [
        "pub fn f(w: &Window) -> Result<()> { let b = roccom::convert::window_to_blocks(w, &AttrRef::All)?; send(b) }",
        "pub fn f(w: &Window, p: &Pane) -> Result<()> { send(convert::pane_to_block(w, p, &AttrRef::All)?) }",
    ] {
        for (krate, path) in [
            ("rochdf", "crates/rochdf/src/trochdf.rs"),
            ("rocpanda", "crates/rocpanda/src/client.rs"),
            ("genx", "crates/genx/src/rebalance.rs"),
        ] {
            assert_eq!(rules_fired(krate, path, src), vec![Rule::BlockOnDataPath], "{path}: {src}");
        }
        // Roccom defines the builder; test code holds the writers to it.
        assert_eq!(rules_fired("roccom", "crates/roccom/src/convert.rs", src), vec![], "{src}");
        let in_test = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert_eq!(rules_fired("rocpanda", "crates/rocpanda/src/client.rs", &in_test), vec![]);
    }
    // Describing the pane and encoding the description is the sanctioned form.
    let ok = "pub fn f(w: &Window, p: &Pane) -> Result<Rope> { Ok(encode_block(&[], &convert::plan(w, p, &AttrRef::All)?)) }";
    assert_eq!(
        rules_fired("rochdf", "crates/rochdf/src/rochdf.rs", ok),
        vec![]
    );
}

#[test]
fn a_block_built_on_a_readers_path_fires_in_the_io_crates_only() {
    for src in [
        "pub fn f(r: &SdfFileReader, w: &mut Window) -> Result<()> { let (b, _) = r.read_block_shared(BlockId(1), 0.0)?; apply_block(w, &b) }",
        "pub fn f(r: &SdfFileReader) -> Result<usize> { Ok(r.read_blocks_sieved(&[BlockId(1)], 0.0)?.0.len()) }",
        "pub fn f(r: &SdfFileReader) -> Result<usize> { Ok(r.read_all_blocks(0.0)?.0.len()) }",
        "pub fn f(records: Vec<Result<Dataset>>) -> Result<DataBlock> { format::block_from_records(None, records) }",
        "pub fn f(m: &Rope, w: &mut Window) -> Result<()> { let bm = BlockMsg::decode(&mut m.cursor())?; apply_block(w, &bm.block) }",
    ] {
        for (krate, path) in [
            ("rochdf", "crates/rochdf/src/restart.rs"),
            ("rocpanda", "crates/rocpanda/src/client.rs"),
            ("genx", "crates/genx/src/rebalance.rs"),
        ] {
            assert_eq!(rules_fired(krate, path, src), vec![Rule::BlockOnDataPath], "{path}: {src}");
        }
        // The reader defines the built reads; test code holds the views to them.
        assert_eq!(rules_fired("rocsdf", "crates/rocsdf/src/reader.rs", src), vec![], "{src}");
        let in_test = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert_eq!(rules_fired("rochdf", "crates/rochdf/src/twophase.rs", &in_test), vec![]);
    }
    // Reading the block where it lies and applying the view is the sanctioned form.
    for ok in [
        "pub fn f(r: &SdfFileReader, w: &mut Window) -> Result<()> { let (b, _) = r.view_block(BlockId(1), 0.0)?; apply_block(w, &b) }",
        "pub fn f(m: &Rope, w: &mut Window) -> Result<()> { let bm = BlockMsgView::decode(&mut m.cursor())?; apply_block(w, &bm.block) }",
        "impl BlockMsg { pub fn decode_shared(b: &Bytes) -> Result<Self> { Self::decode(&mut b.into()) } }",
    ] {
        assert_eq!(rules_fired("rocpanda", "crates/rocpanda/src/wire.rs", ok), vec![], "{ok}");
    }
}

#[test]
fn raw_send_fires_in_rocpanda_off_the_pandanet_shim() {
    let raw = "impl C<'_> { fn f(&mut self) -> Result<()> { self.world.send(0, 7, &[]) } }";
    assert!(
        rules_fired("rocpanda", "crates/rocpanda/src/x.rs", raw).contains(&Rule::RawSend),
        "a raw Comm send inside rocpanda must fire"
    );
    let raw_rope = "impl C<'_> { fn f(&mut self) { self.comm.send_rope(0, 7, r)?; } }";
    assert!(
        rules_fired("rocpanda", "crates/rocpanda/src/x.rs", raw_rope).contains(&Rule::RawSend),
        "send_rope counts too"
    );
    // Routing through the shim is the sanctioned form.
    let ok = "impl C<'_> { fn f(&mut self) -> Result<()> { self.net.send(0, 7, &[]) } }";
    assert!(!rules_fired("rocpanda", "crates/rocpanda/src/x.rs", ok).contains(&Rule::RawSend));
    // The shim itself is the designed lane for the raw calls it wraps.
    let shim = "impl N<'_> { fn f(&mut self) { self.c.send_bytes(0, 7, b); } }";
    assert!(
        !rules_fired("rocpanda", "crates/rocpanda/src/net.rs", shim).contains(&Rule::RawSend)
    );
    // Other crates talk to the fabric directly by design.
    assert_eq!(rules_fired("rochdf", "crates/rochdf/src/x.rs", raw), vec![]);
}

#[test]
fn string_and_comment_content_never_fires() {
    let src = r#"
        // Instant::now() in a comment
        pub fn f() -> &'static str { "rand::random() and x.unwrap() and panic!" }
    "#;
    assert_eq!(rules_fired("rocnet", "crates/rocnet/src/x.rs", src), vec![]);
}

#[test]
fn allowlist_suppresses_and_reports_stale() {
    let cfg = LintConfig::default();
    let findings = lint_source(
        &cfg,
        "rocsdf",
        "crates/rocsdf/src/x.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
    );
    assert_eq!(findings.len(), 1);
    let allow = parse_allowlist(
        "unwrap-panic | crates/rocsdf/src/x.rs | x.unwrap() | fixture\n\
         unwrap-panic | crates/rocsdf/src/y.rs | never-matches | fixture\n",
    )
    .expect("valid allowlist");
    let (kept, suppressed, stale) = apply_allowlist(findings, &allow);
    assert!(kept.is_empty(), "entry should suppress the finding");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].path, "crates/rocsdf/src/y.rs");
}

#[test]
fn std_sync_primitives_fire_everywhere() {
    for src in [
        "use std::sync::Mutex;\npub struct S { m: Mutex<u8> }",
        "use std::sync::{Arc, RwLock};\npub struct S { m: RwLock<u8> }",
        "pub struct S { m: std::sync::Mutex<u8> }",
        "use std::sync::Condvar;\npub struct S { cv: Condvar }",
    ] {
        assert!(
            rules_fired("rocmesh", "crates/rocmesh/src/x.rs", src).contains(&Rule::StdSync),
            "std::sync primitive should fire: {src}"
        );
    }
    // Arc, atomics, and guard types stay legal — only the unnamed,
    // unpoisonable-free primitives are banned.
    for src in [
        "use std::sync::Arc;\npub struct S { a: Arc<u8> }",
        "use std::sync::atomic::{AtomicU64, Ordering};",
        "use std::sync::{mpsc, Arc};",
        "pub fn f(g: std::sync::RwLockReadGuard<'_, u8>) {}",
    ] {
        assert_eq!(
            rules_fired("rocmesh", "crates/rocmesh/src/x.rs", src),
            vec![],
            "non-primitive std::sync item should not fire: {src}"
        );
    }
}

#[test]
fn allowlist_rejects_missing_reason() {
    assert!(parse_allowlist("unwrap-panic | a.rs | needle |  \n").is_err());
    assert!(parse_allowlist("no-such-rule | a.rs | needle | why\n").is_err());
}

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &LintConfig::default()).expect("workspace scan");
    let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.clean(),
        "workspace must stay roclint-clean; findings:\n{}\nstale allow entries: {}",
        msgs.join("\n"),
        report.stale_allow.len()
    );
    assert!(report.files_scanned > 50, "scan looks truncated: {} files", report.files_scanned);
}
