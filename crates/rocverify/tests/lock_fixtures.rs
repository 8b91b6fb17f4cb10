//! One failing fixture per roclock rule, registry-parser rejection
//! cases, witness-check cases, and the meta-test that the workspace
//! itself is lock-clean — the same invocation CI runs.

use rocverify::lock::{
    apply_allowlist, check_witness, lock_source, lock_workspace, parse_allowlist, parse_registry,
    LockGraph, Registry, Rule,
};

/// A two-lock registry for fixtures: `t.outer` (level 20) above
/// `t.inner` (level 10), both fields of `tcrate/S`.
fn fixture_registry() -> Registry {
    parse_registry(
        "lock | t.outer | 20 | tcrate/S.outer | fixture\n\
         lock | t.inner | 10 | tcrate/S.inner | fixture\n",
    )
    .expect("fixture registry parses")
}

fn rules_fired(src: &str) -> Vec<Rule> {
    let reg = fixture_registry();
    let (findings, _, _) = lock_source(&reg, "tcrate", "crates/tcrate/src/x.rs", src);
    let mut rules: Vec<Rule> = findings.into_iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

const STRUCT: &str = "pub struct S { outer: Mutex<u32>, inner: Mutex<u32> }\n";

#[test]
fn unregistered_lock_field_fires() {
    let src = "pub struct Rogue { m: Mutex<u8> }";
    assert_eq!(rules_fired(src), vec![Rule::LockUnregistered]);
    // Arc/Vec wrappers and RwLock count as lock fields too.
    let src = "pub struct Rogue { m: Arc<RwLock<Vec<u8>>> }";
    assert_eq!(rules_fired(src), vec![Rule::LockUnregistered]);
    // Tuple structs are inventoried by index.
    let src = "pub struct Rogue(Mutex<u8>);";
    assert_eq!(rules_fired(src), vec![Rule::LockUnregistered]);
    // A registered field is fine, and is reported as seen.
    let reg = fixture_registry();
    let (findings, _, seen) =
        lock_source(&reg, "tcrate", "crates/tcrate/src/x.rs", STRUCT);
    assert!(findings.is_empty());
    assert_eq!(seen, vec!["tcrate/S.outer".to_string(), "tcrate/S.inner".to_string()]);
}

#[test]
fn order_inversion_fires_and_correct_nesting_records_edge() {
    // inner held, then outer acquired: climbs the partial order.
    let bad = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.inner.lock(); \
         let h = self.outer.lock(); }} }}"
    );
    assert_eq!(rules_fired(&bad), vec![Rule::LockOrder]);
    // outer → inner is the declared direction: clean, and the edge is
    // observed for the graph.
    let good = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); \
         let h = self.inner.lock(); }} }}"
    );
    let reg = fixture_registry();
    let (findings, edges, _) =
        lock_source(&reg, "tcrate", "crates/tcrate/src/x.rs", &good);
    assert!(findings.is_empty(), "legal nesting must not fire: {findings:?}");
    assert_eq!(edges, vec![("t.outer".to_string(), "t.inner".to_string())]);
}

#[test]
fn same_class_nesting_fires() {
    let src = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.inner.lock(); \
         let h = self.inner.lock(); }} }}"
    );
    assert_eq!(rules_fired(&src), vec![Rule::LockOrder]);
}

#[test]
fn guard_across_recv_fires() {
    let src = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); \
         self.comm.recv(0, 1); }} }}"
    );
    assert_eq!(rules_fired(&src), vec![Rule::LockBlocking]);
    // Collectives and wildcard takes count too.
    for call in ["barrier()", "send_rope(0, 7, r)", "wait_match(1, &spec, k)", "settle_at(1, &spec, t, k)"] {
        let src = format!(
            "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); \
             self.comm.{call}; }} }}"
        );
        assert_eq!(rules_fired(&src), vec![Rule::LockBlocking], "for {call}");
    }
}

#[test]
fn guard_across_clock_move_fires() {
    // A clock move may take the fabric lock to wake a gate waiter.
    for call in ["advance(dt)", "advance_to(t)", "compute(w)"] {
        let src = format!(
            "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); \
             self.comm.{call}; }} }}"
        );
        assert_eq!(rules_fired(&src), vec![Rule::LockBlocking], "for {call}");
    }
    // Moved once the guard is gone, and a model's `compute_time` (no
    // move): clean.
    let after = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let t = {{ let g = self.outer.lock(); g.t() }}; \
         let w = self.spec.compute_time(t); self.comm.advance_to(w); }} }}"
    );
    assert_eq!(rules_fired(&after), vec![]);
}

#[test]
fn wake_under_guard_fires() {
    let src = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); \
         self.thread.unpark(); }} }}"
    );
    assert_eq!(rules_fired(&src), vec![Rule::LockWake]);
    // A guard handed straight to a wrapper's constructor is as live as
    // a bare one: the wrapper owns it to the end of the scope.
    let wrapped = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let mut g = wake::Locked::new(self.outer.lock()); \
         self.thread.unpark(); }} }}"
    );
    assert_eq!(rules_fired(&wrapped), vec![Rule::LockWake]);
    // Decided under the lock, issued after it: clean.
    let after = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = Locked::new(self.outer.lock()); \
         let t = g.pick(); drop(g); t.unpark(); }} }}"
    );
    assert_eq!(rules_fired(&after), vec![]);
    // The grant decision itself takes no thread handle: only the
    // unpark is a wake.
    let scoped = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let t = {{ let g = self.inner.lock(); g.pick() }}; \
         t.unpark(); }} }}"
    );
    assert_eq!(rules_fired(&scoped), vec![]);
}

#[test]
fn guard_across_charge_fires() {
    let src = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); \
         self.charge_write(p, n, c, t); }} }}"
    );
    assert_eq!(rules_fired(&src), vec![Rule::LockCharge]);
}

#[test]
fn released_guards_do_not_fire() {
    // Explicit drop releases.
    let dropped = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); drop(g); \
         self.comm.recv(0, 1); }} }}"
    );
    assert_eq!(rules_fired(&dropped), vec![]);
    // A scoped block releases at `}`.
    let scoped = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ {{ let g = self.outer.lock(); }} \
         self.comm.recv(0, 1); }} }}"
    );
    assert_eq!(rules_fired(&scoped), vec![]);
    // A temporary guard dies with its statement, even when the lock call
    // is chained.
    let temp = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let n = self.outer.lock().len(); \
         self.comm.recv(0, 1); }} }}"
    );
    assert_eq!(rules_fired(&temp), vec![]);
    // Sibling functions do not leak guards into each other.
    let siblings = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let g = self.outer.lock(); }} \
         fn h(&self) {{ self.comm.recv(0, 1); }} }}"
    );
    assert_eq!(rules_fired(&siblings), vec![]);
}

#[test]
fn condvar_wait_is_not_blocking() {
    // Holding a guard across a condvar wait is the designed pattern —
    // the wait releases the mutex.
    let src = format!(
        "{STRUCT}impl S {{ fn f(&self) {{ let mut g = self.outer.lock(); \
         while *g > 0 {{ self.cv.wait(&mut g); }} }} }}"
    );
    assert_eq!(rules_fired(&src), vec![]);
}

#[test]
fn test_code_is_exempt() {
    let src = format!(
        "{STRUCT}#[cfg(test)]\nmod tests {{ fn f(s: &S) {{ \
         let g = s.inner.lock(); let h = s.outer.lock(); }} }}"
    );
    assert_eq!(rules_fired(&src), vec![]);
}

#[test]
fn allowlist_suppresses_and_reports_stale() {
    let (findings, _, _) = lock_source(
        &fixture_registry(),
        "tcrate",
        "crates/tcrate/src/x.rs",
        "pub struct Rogue { m: Mutex<u8> }",
    );
    assert_eq!(findings.len(), 1);
    let allow = parse_allowlist(
        "lock-unregistered | crates/tcrate/src/x.rs | m: Mutex<u8> | fixture\n\
         lock-unregistered | crates/tcrate/src/y.rs | never-matches | fixture\n",
    )
    .expect("valid allowlist");
    let (kept, suppressed, stale) = apply_allowlist(findings, &allow);
    assert!(kept.is_empty(), "entry should suppress the finding");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].path, "crates/tcrate/src/y.rs");
    assert!(parse_allowlist("unwrap-panic | a.rs | x | no such rule\n").is_err());
}

#[test]
fn registry_rejects_malformed_entries() {
    // Bad level.
    assert!(parse_registry("lock | a | ten | c/S.f | r\n").is_err());
    // Missing reason.
    assert!(parse_registry("lock | a | 1 | c/S.f |  \n").is_err());
    // Member not crate/Struct.field.
    assert!(parse_registry("lock | a | 1 | nodot | r\n").is_err());
    // Duplicate lock name.
    assert!(parse_registry(
        "lock | a | 1 | c/S.f | r\nlock | a | 2 | c/S.g | r\n"
    )
    .is_err());
    // Duplicate member.
    assert!(parse_registry(
        "lock | a | 1 | c/S.f | r\nlock | b | 2 | c/S.f | r\n"
    )
    .is_err());
    // Same field name in one crate mapping to two classes: call-site
    // resolution would be ambiguous.
    assert!(parse_registry(
        "lock | a | 1 | c/S.f | r\nlock | b | 2 | c/T.f | r\n"
    )
    .is_err());
    // Edge referencing an undeclared lock.
    assert!(parse_registry("lock | a | 2 | c/S.f | r\nedge | a | ghost | r\n").is_err());
    // Edge climbing the partial order.
    assert!(parse_registry(
        "lock | a | 1 | c/S.f | r\nlock | b | 2 | c/T.g | r\nedge | a | b | r\n"
    )
    .is_err());
    // Unknown entry kind.
    assert!(parse_registry("lockk | a | 1 | c/S.f | r\n").is_err());
}

#[test]
fn witness_check_accepts_graph_edges_and_rejects_divergence() {
    let reg = fixture_registry();
    let mut graph = LockGraph::default();
    for l in &reg.locks {
        graph.levels.insert(l.name.clone(), l.level);
    }
    graph.add_edge("t.outer".into(), "t.inner".into(), "declared");

    // Observed edge present in the graph: fine. Duplicates collapse.
    let ok = "t.outer\tt.inner\nt.outer\tt.inner\n";
    assert!(check_witness(&reg, &graph, ok).is_empty());
    // An edge the static graph lacks is a divergence.
    let missing = "t.inner\tt.outer\n";
    let findings = check_witness(&reg, &graph, missing);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::LockOrder);
    // Unregistered lock names are rejected.
    let unknown = "t.outer\tt.ghost\n";
    assert_eq!(check_witness(&reg, &graph, unknown).len(), 1);
    // Malformed lines are rejected.
    assert_eq!(check_witness(&reg, &graph, "justoneword\n").len(), 1);
    // Empty witness (no nesting observed at all) is clean while nothing
    // is declared.
    assert!(check_witness(&reg, &graph, "").is_empty());
}

#[test]
fn a_declared_edge_the_witness_never_saw_is_stale() {
    let reg = parse_registry(
        "lock | t.outer | 20 | tcrate/S.outer | fixture\n\
         lock | t.inner | 10 | tcrate/S.inner | fixture\n\
         edge | t.outer | t.inner | fixture\n",
    )
    .expect("fixture registry parses");
    let mut graph = LockGraph::default();
    graph.add_edge("t.outer".into(), "t.inner".into(), "declared");
    assert!(check_witness(&reg, &graph, "t.outer\tt.inner\n").is_empty());
    for unseen in ["", "t.inner\tt.outer\n"] {
        let stale: Vec<_> = check_witness(&reg, &graph, unseen)
            .into_iter()
            .filter(|f| f.path == "roclock.order")
            .collect();
        assert_eq!(stale.len(), 1, "{unseen:?}");
        assert_eq!((stale[0].rule, stale[0].line), (Rule::LockOrder, 3));
        assert!(stale[0].message.contains("stale"), "{}", stale[0].message);
    }
}

#[test]
fn dot_export_carries_nodes_and_provenance() {
    let reg = fixture_registry();
    let mut graph = LockGraph::default();
    for l in &reg.locks {
        graph.levels.insert(l.name.clone(), l.level);
    }
    graph.add_edge("t.outer".into(), "t.inner".into(), "declared");
    let dot = graph.to_dot();
    assert!(dot.contains("\"t.outer\" -> \"t.inner\""));
    assert!(dot.contains("level 20"));
    assert!(dot.contains("style=dashed"));
}

#[test]
fn workspace_is_lock_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lock_workspace(&root).expect("workspace scan");
    let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.clean(),
        "workspace must stay roclock-clean; findings:\n{}\nstale allow entries: {}",
        msgs.join("\n"),
        report.stale_allow.len()
    );
    assert!(
        report.graph.find_cycle().is_none(),
        "workspace lock graph must be acyclic"
    );
    assert!(
        report.registry.locks.len() >= 10,
        "registry looks truncated: {} locks",
        report.registry.locks.len()
    );
    assert!(report.files_scanned > 50, "scan looks truncated: {} files", report.files_scanned);
}
