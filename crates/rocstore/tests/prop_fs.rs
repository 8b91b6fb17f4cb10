//! Property tests: the simulated file system stores exactly what a
//! reference model says it should, and its charges are monotone and
//! independent of arrival order.

use bytes::Bytes;
use proptest::prelude::*;
use rocio_core::{RocError, Segment, TenantId};
use rocstore::SharedFs;
use std::collections::HashMap;

/// One step of the model test. Files are `f0..f3`; `f0`/`f1` live under a
/// tenant-bound prefix. Offsets, cut points and range picks are reduced
/// modulo the file's current length when the step runs.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Append(u8, Vec<u8>),
    /// `(shared?, bytes)` per segment; empty segments included.
    AppendSegments(u8, Vec<(bool, Vec<u8>)>),
    WriteAt(u8, u8, Vec<u8>),
    /// Cut points and a shuffle seed: a valid permutation of the image.
    Permute(u8, Vec<u8>, u64),
    /// The same, then broken: 0 = a range dropped, 1 = one doubled,
    /// 2 = one stretched past its end.
    PermuteBad(u8, Vec<u8>, u64, u8),
    Read(u8, u8, u8),
    ReadMulti(u8, Vec<(u8, u8)>),
    ReadSieved(u8, Vec<(u8, u8)>, u8),
    Delete(u8),
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn arb_op() -> impl Strategy<Value = Op> {
    let file = 0u8..4;
    let picks = || prop::collection::vec((any::<u8>(), 0u8..24), 0..6);
    prop_oneof![
        file.clone().prop_map(Op::Create),
        (file.clone(), bytes(32)).prop_map(|(f, d)| Op::Append(f, d)),
        (file.clone(), prop::collection::vec((any::<bool>(), bytes(12)), 0..6))
            .prop_map(|(f, s)| Op::AppendSegments(f, s)),
        (file.clone(), 0u8..48, bytes(16)).prop_map(|(f, o, d)| Op::WriteAt(f, o, d)),
        (file.clone(), bytes(6), any::<u64>()).prop_map(|(f, c, s)| Op::Permute(f, c, s)),
        (file.clone(), bytes(6), any::<u64>(), 0u8..3)
            .prop_map(|(f, c, s, k)| Op::PermuteBad(f, c, s, k)),
        (file.clone(), any::<u8>(), 0u8..24).prop_map(|(f, o, l)| Op::Read(f, o, l)),
        (file.clone(), picks()).prop_map(|(f, r)| Op::ReadMulti(f, r)),
        (file.clone(), picks(), 0u8..16).prop_map(|(f, r, g)| Op::ReadSieved(f, r, g)),
        file.prop_map(Op::Delete),
    ]
}

/// How `path` holds its bytes: each extent's address and length.
fn extents(fs: &SharedFs, path: &str) -> Option<Vec<(usize, usize)>> {
    let image = fs.image(path).ok()?;
    Some(image.parts().iter().map(|p| (p.as_ptr() as usize, p.len())).collect())
}

/// In-bounds `(offset, len)` ranges of an image of `len` bytes.
fn clamp(picks: &[(u8, u8)], len: usize) -> Vec<(usize, usize)> {
    picks
        .iter()
        .map(|&(o, l)| {
            let off = o as usize % (len + 1);
            (off, (l as usize).min(len - off))
        })
        .collect()
}

/// The image cut at `cuts` (mod its length) into ranges, shuffled by `seed`.
fn shuffled_partition(cuts: &[u8], seed: u64, len: usize) -> Vec<(usize, usize)> {
    let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
    at.extend([0, len]);
    at.sort_unstable();
    // Repeated cut points stay: they are the zero-length ranges.
    let mut ranges: Vec<(usize, usize)> = at.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
    let mut x = seed | 1;
    for i in (1..ranges.len()).rev() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ranges.swap(i, (x >> 33) as usize % (i + 1));
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The extent-backed store against two references: a flat `Vec<u8>`
    /// per file for the bytes, and a twin store fed the flattened form of
    /// every write for everything that is a function of lengths — returned
    /// times, `FsStats`, sizes, quota charges.
    #[test]
    fn contents_match_reference_model(
        ops in prop::collection::vec((arb_op(), any::<bool>()), 1..48),
    ) {
        let tenant = TenantId(1);
        let (fs, twin) = (SharedFs::turing(), SharedFs::turing());
        for s in [&fs, &twin] {
            s.bind_tenant("t/", tenant);
        }
        let path = |f: u8| format!("{}f{f}", if f < 2 { "t/" } else { "" });
        let mut flat: HashMap<String, Vec<u8>> = HashMap::new();
        // Every window ever handed out, with the bytes it showed then.
        let mut windows: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut now = 0.0;
        for (op, verify) in &ops {
            let touched = match op {
                Op::Create(f) => {
                    let p = path(*f);
                    let t = fs.create(&p, 0, now);
                    prop_assert_eq!(t, twin.create(&p, 0, now));
                    now = t;
                    flat.insert(p.clone(), Vec::new());
                    p
                }
                Op::Append(f, data) => {
                    let p = path(*f);
                    let (r, want) = (fs.append(&p, data, 0, now), twin.append(&p, data, 0, now));
                    prop_assert_eq!(r.is_ok(), flat.contains_key(&p));
                    if let Some(v) = flat.get_mut(&p) {
                        now = r.unwrap();
                        prop_assert_eq!(now, want.unwrap());
                        v.extend_from_slice(data);
                    }
                    p
                }
                Op::AppendSegments(f, parts) => {
                    let p = path(*f);
                    let segs: Vec<Segment> = parts
                        .iter()
                        .map(|(shared, d)| match shared {
                            true => Segment::Shared(Bytes::from(d.clone())),
                            false => Segment::Owned(d.clone()),
                        })
                        .collect();
                    let joined = rocio_core::segments_to_vec(&segs);
                    let r = fs.append_segments(&p, &segs, 0, now);
                    let want = twin.append(&p, &joined, 0, now);
                    prop_assert_eq!(r.is_ok(), flat.contains_key(&p));
                    if let Some(v) = flat.get_mut(&p) {
                        now = r.unwrap();
                        prop_assert_eq!(now, want.unwrap());
                        v.extend_from_slice(&joined);
                    }
                    p
                }
                Op::WriteAt(f, off, data) => {
                    let (p, off) = (path(*f), *off as usize);
                    let r = fs.write_at(&p, off, data, 0, now);
                    let want = twin.write_at(&p, off, data, 0, now);
                    prop_assert_eq!(r.is_ok(), flat.contains_key(&p));
                    if let Some(v) = flat.get_mut(&p) {
                        now = r.unwrap();
                        prop_assert_eq!(now, want.unwrap());
                        let end = off + data.len();
                        if v.len() < end {
                            v.resize(end, 0);
                        }
                        v[off..end].copy_from_slice(data);
                    }
                    p
                }
                Op::Permute(f, cuts, seed) => {
                    let p = path(*f);
                    match flat.get_mut(&p) {
                        None => prop_assert!(fs.permute(&p, &[]).is_err()),
                        Some(v) => {
                            let ranges = shuffled_partition(cuts, *seed, v.len());
                            fs.permute(&p, &ranges).unwrap();
                            *v = ranges.iter().flat_map(|&(o, l)| v[o..o + l].to_vec()).collect();
                        }
                    }
                    p
                }
                Op::PermuteBad(f, cuts, seed, kind) => {
                    let p = path(*f);
                    if let Some(v) = flat.get(&p).filter(|v| !v.is_empty()) {
                        let mut ranges = shuffled_partition(cuts, *seed, v.len());
                        let i = ranges.iter().position(|r| r.1 > 0).unwrap();
                        match kind {
                            0 => drop(ranges.remove(i)),
                            1 => ranges.push(ranges[i]),
                            _ => ranges[i].1 += 1,
                        }
                        let err = fs.permute(&p, &ranges).unwrap_err();
                        prop_assert!(matches!(err, RocError::Storage(_)), "{err:?}");
                    }
                    p
                }
                Op::Read(f, off, len) => {
                    let p = path(*f);
                    let before = extents(&fs, &p);
                    match flat.get(&p) {
                        None => prop_assert!(fs.read_shared(&p, 0, 0, 1, now).is_err()),
                        Some(v) => {
                            let (o, l) = clamp(&[(*off, *len)], v.len())[0];
                            let (w, t) = fs.read_shared(&p, o, l, 1, now).unwrap();
                            prop_assert_eq!(t, twin.read_shared(&p, o, l, 1, now).unwrap().1);
                            now = t;
                            windows.push((w, v[o..o + l].to_vec()));
                        }
                    }
                    prop_assert_eq!(extents(&fs, &p), before, "a read moved the extents");
                    p
                }
                Op::ReadMulti(f, picks) | Op::ReadSieved(f, picks, _) => {
                    let p = path(*f);
                    let before = extents(&fs, &p);
                    if let Some(v) = flat.get(&p) {
                        let ranges = clamp(picks, v.len());
                        let sieve = match op {
                            Op::ReadSieved(_, _, gap) => Some(*gap as usize),
                            _ => None,
                        };
                        let read = |s: &SharedFs| s.read_parts(&p, &ranges, 0.001, sieve, 1, now);
                        let (parts, t) = read(&fs).unwrap();
                        prop_assert_eq!(t, read(&twin).unwrap().1);
                        let picked = ranges.iter().flat_map(|&(o, l)| &v[o..o + l]);
                        let got = parts.iter().flat_map(|p| p.iter());
                        prop_assert!(got.eq(picked), "pieces differ from the ranges");
                        prop_assert!(parts.iter().all(|p| !p.is_empty()));
                        if let Some(gap) = sieve {
                            // The same ranges one buffer each, charged alike.
                            let (ws, t2) = fs.read_sieved(&p, &ranges, 0.001, gap, 1, now).unwrap();
                            let twin_t = twin.read_sieved(&p, &ranges, 0.001, gap, 1, now).unwrap().1;
                            prop_assert_eq!(t2, twin_t);
                            prop_assert_eq!(t2, t);
                            prop_assert_eq!(ws.len(), ranges.len());
                            for (w, &(o, l)) in ws.into_iter().zip(&ranges) {
                                windows.push((w, v[o..o + l].to_vec()));
                            }
                        }
                        now = t;
                        windows.extend(parts.into_iter().map(|part| (part.clone(), part.to_vec())));
                    }
                    prop_assert_eq!(extents(&fs, &p), before, "a read moved the extents");
                    p
                }
                Op::Delete(f) => {
                    let p = path(*f);
                    prop_assert_eq!(fs.delete(&p).is_ok(), flat.remove(&p).is_some());
                    let _ = twin.delete(&p);
                    p
                }
            };
            // After every step: everything that is a function of lengths.
            prop_assert_eq!(fs.stats(), twin.stats());
            prop_assert_eq!(fs.n_files(), flat.len());
            prop_assert_eq!(fs.file_size(&touched).ok(), flat.get(&touched).map(Vec::len));
            for t in [tenant, TenantId::SOLO] {
                prop_assert_eq!(fs.tenant_used(t), twin.tenant_used(t));
            }
            prop_assert_eq!(fs.used_bytes(), flat.values().map(Vec::len).sum::<usize>());
            // On a coin flip, the bytes too, read whole: a read leaves the
            // extents as they were, so whether one happens between two
            // steps may change nothing that follows. Both stores pay it.
            if let (true, Some(v)) = (*verify, flat.get(&touched)) {
                let before = extents(&fs, &touched);
                let (image, t) = fs.read_all_shared(&touched, 2, now).unwrap();
                prop_assert_eq!(t, twin.read_all_shared(&touched, 2, now).unwrap().1);
                prop_assert_eq!(image.as_slice(), &v[..]);
                prop_assert_eq!(extents(&fs, &touched), before, "a read moved the extents");
            }
            for (w, then) in &windows {
                prop_assert_eq!(w.as_slice(), &then[..]);
            }
        }
        for (p, v) in &flat {
            prop_assert_eq!(&fs.read_all_shared(p, 0, now).unwrap().0, v);
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
