//! Property tests: the simulated file system stores exactly what a
//! reference model says it should, and server time ledgers are monotone.

use proptest::prelude::*;
use rocstore::SharedFs;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Append(u8, Vec<u8>),
    WriteAt(u8, u8, Vec<u8>),
    Delete(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Create),
        (0u8..4, prop::collection::vec(any::<u8>(), 0..32)).prop_map(|(f, d)| Op::Append(f, d)),
        (0u8..4, 0u8..48, prop::collection::vec(any::<u8>(), 1..16))
            .prop_map(|(f, o, d)| Op::WriteAt(f, o, d)),
        (0u8..4).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contents_match_reference_model(ops in prop::collection::vec(arb_op(), 1..40)) {
        let fs = SharedFs::ideal();
        let mut reference: HashMap<String, Vec<u8>> = HashMap::new();
        let mut now = 0.0;
        for op in &ops {
            match op {
                Op::Create(f) => {
                    let path = format!("f{f}");
                    now = fs.create(&path, 0, now);
                    reference.insert(path, Vec::new());
                }
                Op::Append(f, data) => {
                    let path = format!("f{f}");
                    let r = fs.append(&path, data, 0, now);
                    match reference.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            v.extend_from_slice(data);
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::WriteAt(f, off, data) => {
                    let path = format!("f{f}");
                    let r = fs.write_at(&path, *off as usize, data, 0, now);
                    match reference.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            let end = *off as usize + data.len();
                            if v.len() < end {
                                v.resize(end, 0);
                            }
                            v[*off as usize..end].copy_from_slice(data);
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::Delete(f) => {
                    let path = format!("f{f}");
                    let r = fs.delete(&path);
                    prop_assert_eq!(r.is_ok(), reference.remove(&path).is_some());
                }
            }
        }
        prop_assert_eq!(fs.n_files(), reference.len());
        for (path, expect) in &reference {
            let (data, _) = fs.read_all_shared(path, 0, now).unwrap();
            prop_assert_eq!(data.as_slice(), &expect[..]);
        }
    }

    #[test]
    fn chained_write_completions_are_monotone(
        sizes in prop::collection::vec(1usize..100_000, 1..30),
        start in 0.0f64..10.0,
    ) {
        // A writer chaining ops (next issued at the previous completion)
        // sees strictly advancing completions, regardless of sizes.
        let fs = SharedFs::turing();
        let mut now = fs.create("chain", 0, start);
        prop_assert!(now >= start);
        for &sz in &sizes {
            let t = fs.append("chain", &vec![0u8; sz], 0, now).unwrap();
            prop_assert!(t > now, "completion did not advance: {t} <= {now}");
            now = t;
        }
    }

    #[test]
    fn write_time_is_order_independent(
        sizes in prop::collection::vec(1usize..100_000, 2..10),
    ) {
        // The same set of ops issued at the same virtual instant yields
        // the same completion per op no matter the submission order —
        // the determinism property that motivated processor sharing.
        let forward = {
            let fs = SharedFs::turing();
            fs.create("f", 0, 0.0);
            fs.declare_writers(sizes.len());
            sizes
                .iter()
                .enumerate()
                .map(|(c, &sz)| fs.append("f", &vec![0u8; sz], c as u64, 1.0).unwrap())
                .collect::<Vec<_>>()
        };
        let backward = {
            let fs = SharedFs::turing();
            fs.create("f", 0, 0.0);
            fs.declare_writers(sizes.len());
            let mut ends: Vec<(usize, f64)> = sizes
                .iter()
                .enumerate()
                .rev()
                .map(|(c, &sz)| (c, fs.append("f", &vec![0u8; sz], c as u64, 1.0).unwrap()))
                .collect();
            ends.sort_by_key(|&(c, _)| c);
            ends.into_iter().map(|(_, t)| t).collect::<Vec<_>>()
        };
        for (a, b) in forward.iter().zip(&backward) {
            prop_assert!((a - b).abs() < 1e-9, "order dependence: {a} vs {b}");
        }
    }

    #[test]
    fn shared_windows_outlive_the_file(
        data in prop::collection::vec(any::<u8>(), 1..256),
        offsets in prop::collection::vec((0usize..256, 0usize..64), 1..10),
        mutate_after in any::<bool>(),
    ) {
        // Shared windows keep their bytes after the file is mutated or
        // deleted out from under them.
        let fs = SharedFs::frost();
        fs.create("r", 0, 0.0);
        fs.append("r", &data, 0, 0.0).unwrap();
        let mut windows = Vec::new();
        for &(off, len) in &offsets {
            let off = off % data.len();
            let len = len.min(data.len() - off);
            let (shared, _) = fs.read_shared("r", off, len, 1, 1.0).unwrap();
            windows.push((off, len, shared));
        }
        if mutate_after {
            fs.append("r", b"overwritten!", 0, 9.0).unwrap();
        }
        fs.delete("r").unwrap();
        for (off, len, w) in windows {
            prop_assert_eq!(w.as_slice(), &data[off..off + len]);
        }
    }

    #[test]
    fn reads_never_mutate(
        data in prop::collection::vec(any::<u8>(), 1..256),
        offsets in prop::collection::vec((0usize..256, 0usize..64), 1..10),
    ) {
        let fs = SharedFs::frost();
        fs.create("r", 0, 0.0);
        fs.append("r", &data, 0, 0.0).unwrap();
        for (off, len) in offsets {
            let off = off % data.len();
            let len = len.min(data.len() - off);
            let (got, _) = fs.read_shared("r", off, len, 1, 1.0).unwrap();
            prop_assert_eq!(&got[..], &data[off..off + len]);
        }
        let (full, _) = fs.read_all_shared("r", 2, 2.0).unwrap();
        prop_assert_eq!(full.as_slice(), &data[..]);
    }
}
