//! The layer walk: one thread drives the workload's real block set — one
//! snapshot of the seed's lab-scale problem, laid out in as many files
//! per window as the workload has writers — through each layer's public
//! entry point in data-path order, with a bench-owned span around every
//! call. Host-clock numbers here are per-layer costs of *one* snapshot's
//! data at one thread; the workloads pay them once per snapshot written
//! or restored, spread over their rank threads.
//!
//! Every call into the system goes through an adapter in [`crate::api`].

use bytes::Bytes;
use rocio_core::{segments_to_vec, DataBlock, Segment};
use rocsdf::SegmentPool;

use crate::api;
use crate::harness::{timed, Cost, LayerMetric, Spans};
use crate::metrics::layer;

/// Run `f` as one stage: a parent span plus its host and allocator cost.
fn stage<T>(
    sp: &mut Spans,
    layer: &'static str,
    call: &'static str,
    f: impl FnOnce(&mut Spans) -> T,
) -> (T, Cost) {
    timed(|| sp.span(layer, call, f))
}

/// `name` as payload megabytes per host second.
fn mb_s(name: &str, bytes: u64, cost: Cost) -> LayerMetric {
    layer(name, bytes as f64 / 1e6 / cost.secs)
}

/// One snapshot file of the walk: its path and its blocks, ascending by
/// id as a writer appends them.
struct WalkFile {
    path: String,
    blocks: Vec<DataBlock>,
}

/// Lay `blocks` out as each window's blocks split over `writers` files.
fn layout(blocks: &[DataBlock], writers: usize) -> Vec<WalkFile> {
    let mut files = Vec::new();
    for window in api::WINDOWS {
        let mut of_window: Vec<DataBlock> = blocks
            .iter()
            .filter(|b| b.window == window)
            .cloned()
            .collect();
        of_window.sort_by_key(|b| b.id);
        let per_file = of_window.len().div_ceil(writers).max(1);
        for (w, chunk) in of_window.chunks(per_file).enumerate() {
            files.push(WalkFile {
                path: format!("walk/{window}_w{w:04}.sdf"),
                blocks: chunk.to_vec(),
            });
        }
    }
    files
}

fn write_files(sp: &mut Spans, fs: &rocstore::SharedFs, files: &[WalkFile]) {
    for file in files {
        let mut w = sp.span("rocsdf", "SdfFileWriter::create", |_| {
            api::sdf_create(fs, &file.path)
        });
        for block in &file.blocks {
            sp.span("rocsdf", "append_block", |_| {
                api::sdf_append_block(&mut w, block)
            });
        }
        sp.span("rocsdf", "finish", |_| api::sdf_finish(&mut w));
    }
}

/// The sizes of the store appends behind each file (header, one per
/// block, index + trailer), learnt by writing the files once more,
/// untimed, and watching each file grow.
fn append_sizes(files: &[WalkFile]) -> Vec<Vec<usize>> {
    let fs = api::store_turing();
    files
        .iter()
        .map(|file| {
            let mut sizes = Vec::with_capacity(file.blocks.len() + 2);
            let mut seen = 0;
            let mut grew = |fs: &rocstore::SharedFs| {
                let now = api::store_file_size(fs, &file.path);
                sizes.push(now - seen);
                seen = now;
            };
            let mut w = api::sdf_create(&fs, &file.path);
            grew(&fs);
            for block in &file.blocks {
                api::sdf_append_block(&mut w, block);
                grew(&fs);
            }
            api::sdf_finish(&mut w);
            grew(&fs);
            sizes
        })
        .collect()
}

/// What the block walk found besides its metrics.
pub struct WalkOutcome {
    pub metrics: Vec<LayerMetric>,
    /// Blocks whose restored checksum differs from the original's.
    pub mismatched: u64,
    pub blocks: u64,
}

/// Walk one snapshot of the `(seed, scale)` lab-scale problem through
/// roccom → rocio-core → (rocpanda wire) → rocsdf → rocstore and back.
pub fn block_walk(
    sp: &mut Spans,
    seed: u64,
    scale: f64,
    writers: usize,
    panda: bool,
) -> WalkOutcome {
    let mut m = Vec::new();

    // Inputs, untimed: the panes a 1-rank job would own.
    let windows = sp.span("bench", "lab_scale_windows", |_| {
        api::lab_scale_windows(&api::lab_scale(seed, scale))
    });

    // roccom: panes -> blocks.
    let (blocks, c) = stage(sp, "roccom", "window_to_blocks", |_| {
        let mut all = Vec::new();
        for w in api::WINDOWS {
            all.extend(api::window_to_blocks(
                windows.window(w).expect("declared window"),
            ));
        }
        all
    });
    m.push(layer("roccom.pane_to_block_s", c.secs));
    let payload: u64 = blocks.iter().map(|b| b.payload_bytes() as u64).sum();

    // rocio-core: the checksum restart equality rests on.
    let (sums, c) = stage(sp, "rocio-core", "Checksum::of_block", |_| {
        blocks
            .iter()
            .map(api::checksum_of_block)
            .collect::<Vec<u64>>()
    });
    m.push(mb_s("rocio-core.checksum_mb_s", payload, c));

    // rocpanda: client-side wire encode, server-side shared decode.
    if panda {
        let msgs: Vec<_> = blocks.iter().map(api::panda_msg).collect();
        let mut pool = SegmentPool::new();
        let mut segs: Vec<Segment> = Vec::new();
        let mut wires: Vec<Bytes> = Vec::with_capacity(msgs.len());
        let mut enc = Cost::default();
        sp.span("rocpanda", "wire_encode", |sp| {
            for msg in &msgs {
                let ((), c) = timed(|| {
                    sp.span("rocpanda", "BlockMsg::encode_segments", |_| {
                        api::panda_encode(msg, &mut pool, &mut segs)
                    })
                });
                enc.secs += c.secs;
                // Assembling the wire image is `Comm::send_segments`'
                // job, not the encoder's: untimed.
                wires.push(segments_to_vec(&segs).into());
                pool.recycle(&mut segs);
            }
        });
        m.push(mb_s("rocpanda.wire_encode_mb_s", payload, enc));
        let (decoded, c) = stage(sp, "rocpanda", "wire_decode", |sp| {
            wires
                .iter()
                .map(|w| {
                    sp.span("rocpanda", "BlockMsg::decode_shared", |_| {
                        api::panda_decode(w)
                    })
                })
                .collect::<Vec<_>>()
        });
        m.push(mb_s("rocpanda.wire_decode_mb_s", payload, c));
        drop(decoded);
    }

    // rocsdf: record encode / decode, dataset by dataset.
    let mut pool = SegmentPool::new();
    let mut segs: Vec<Segment> = Vec::new();
    let mut records: Vec<Bytes> = Vec::new();
    let mut enc = Cost::default();
    sp.span("rocsdf", "encode", |sp| {
        for ds in blocks.iter().flat_map(|b| &b.datasets) {
            let ((), c) = timed(|| {
                sp.span("rocsdf", "encode_dataset_segments", |_| {
                    api::sdf_encode(ds, &mut pool, &mut segs)
                })
            });
            enc.secs += c.secs;
            records.push(segments_to_vec(&segs).into());
            pool.recycle(&mut segs);
        }
    });
    m.push(mb_s("rocsdf.encode_mb_s", payload, enc));
    let ((), c) = stage(sp, "rocsdf", "decode", |sp| {
        for r in &records {
            sp.span("rocsdf", "decode_dataset_shared", |_| api::sdf_decode(r));
        }
    });
    m.push(mb_s("rocsdf.decode_mb_s", payload, c));
    drop(records);

    // rocsdf over rocstore: write the snapshot's files.
    let files = layout(&blocks, writers);
    let fs = api::store_turing();
    let ((), write) = stage(sp, "rocsdf", "write", |sp| write_files(sp, &fs, &files));
    m.push(layer("rocsdf.write_s", write.secs));

    // rocstore alone: replay the same append sizes into a fresh store.
    let sizes = append_sizes(&files);
    let prepared: Vec<Vec<[Segment; 1]>> = sizes
        .iter()
        .map(|f| f.iter().map(|&n| [Segment::Owned(vec![0u8; n])]).collect())
        .collect();
    let replay_fs = api::store_turing();
    let ((), append) = stage(sp, "rocstore", "append", |sp| {
        for (file, appends) in files.iter().zip(&prepared) {
            sp.span("rocstore", "create", |_| {
                api::store_create(&replay_fs, &file.path)
            });
            for segs in appends {
                sp.span("rocstore", "append_segments", |_| {
                    api::store_append(&replay_fs, &file.path, segs)
                });
            }
        }
    });
    m.push(layer("rocstore.append_s", append.secs));
    m.push(layer("rocsdf.write_self_s", write.secs - append.secs));
    drop((prepared, replay_fs));

    // rocsdf reads: cold open, warm open, every block, every other block
    // through the sieve.
    let ((), cold) = stage(sp, "rocsdf", "open_cold", |sp| {
        for file in &files {
            sp.span("rocsdf", "SdfFileReader::open", |_| {
                api::sdf_open(&fs, &file.path, 1)
            });
        }
    });
    m.push(layer("rocsdf.open_cold_s", cold.secs));
    let (readers, warm) = stage(sp, "rocsdf", "open_warm", |sp| {
        files
            .iter()
            .map(|file| {
                sp.span("rocsdf", "SdfFileReader::open", |_| {
                    api::sdf_open(&fs, &file.path, 1)
                })
            })
            .collect::<Vec<_>>()
    });
    m.push(layer("rocsdf.open_warm_s", warm.secs));
    let (restored, read) = stage(sp, "rocsdf", "read", |sp| {
        let mut out = Vec::with_capacity(blocks.len());
        for r in &readers {
            for id in api::sdf_block_ids(r) {
                out.push(sp.span("rocsdf", "read_block_shared", |_| {
                    api::sdf_read_block(r, id)
                }));
            }
        }
        out
    });
    m.push(layer("rocsdf.read_s", read.secs));
    // A second client, so that the sieved reads verify record checksums
    // as the per-block reads above just did (the reader remembers, per
    // client, which records it has verified).
    let sieve_readers: Vec<_> = files
        .iter()
        .map(|file| api::sdf_open(&fs, &file.path, 2))
        .collect();
    let (sieved_blocks, sieved) = stage(sp, "rocsdf", "read_sieved", |sp| {
        let mut n = 0;
        for r in &sieve_readers {
            let ids: Vec<_> = api::sdf_block_ids(r).into_iter().step_by(2).collect();
            n += sp
                .span("rocsdf", "read_blocks_sieved", |_| {
                    api::sdf_read_sieved(r, &ids)
                })
                .len();
        }
        n
    });
    m.push(layer("rocsdf.read_sieved_s", sieved.secs));
    let rocsdf_allocs: u64 = [write, cold, warm, read, sieved]
        .iter()
        .map(|c| c.alloc_calls)
        .sum();
    m.push(layer("rocsdf.alloc_kcalls", rocsdf_allocs as f64 / 1e3));
    drop((readers, sieve_readers));

    // rocstore alone: the same extents, per block and sieved.
    let extents: Vec<Vec<(usize, usize)>> = sizes
        .iter()
        .map(|f| {
            let mut off = f[0];
            f[1..f.len() - 1]
                .iter()
                .map(|&len| {
                    let e = (off, len);
                    off += len;
                    e
                })
                .collect()
        })
        .collect();
    let ((), c) = stage(sp, "rocstore", "read", |sp| {
        for (file, ext) in files.iter().zip(&extents) {
            for &(off, len) in ext {
                sp.span("rocstore", "read_shared", |_| {
                    api::store_read(&fs, &file.path, off, len)
                });
            }
        }
    });
    m.push(layer("rocstore.read_shared_s", c.secs));
    let max_gap = api::store_max_gap(&fs);
    let every_other: Vec<Vec<(usize, usize)>> = extents
        .iter()
        .map(|e| e.iter().copied().step_by(2).collect())
        .collect();
    let ((), c) = stage(sp, "rocstore", "read_sieved_all", |sp| {
        for (file, ranges) in files.iter().zip(&every_other) {
            sp.span("rocstore", "read_sieved", |_| {
                api::store_read_sieved(&fs, &file.path, ranges, max_gap)
            });
        }
    });
    m.push(layer("rocstore.read_sieved_s", c.secs));
    let (holes, total) = every_other.iter().fold((0usize, 0usize), |(h, t), ranges| {
        let plan = api::sieve_plan(ranges, max_gap);
        (h + plan.hole_bytes(), t + plan.total_bytes)
    });
    m.push(layer(
        "rocstore.sieve_waste_frac",
        holes as f64 / total.max(1) as f64,
    ));

    // roccom: restored blocks -> panes of fresh windows.
    let mut fresh = api::empty_windows();
    let ((), c) = stage(sp, "roccom", "apply_blocks", |sp| {
        for b in &restored {
            let w = fresh.window_mut(&b.window).expect("declared window");
            sp.span("roccom", "apply_block", |_| api::apply_block(w, b));
        }
    });
    m.push(layer("roccom.apply_block_s", c.secs));

    // Output check: what came back through every layer is what went in.
    let want: std::collections::HashMap<(&str, u64), u64> = blocks
        .iter()
        .map(|b| (b.window.as_str(), b.id.0))
        .zip(sums.iter().copied())
        .collect();
    let mut mismatched = restored
        .iter()
        .filter(|b| want.get(&(b.window.as_str(), b.id.0)) != Some(&api::checksum_of_block(b)))
        .count() as u64;
    mismatched += (blocks.len() - restored.len()) as u64;
    if sieved_blocks
        != files
            .iter()
            .map(|f| f.blocks.len().div_ceil(2))
            .sum::<usize>()
    {
        mismatched += 1;
    }

    WalkOutcome {
        metrics: m,
        mismatched,
        blocks: blocks.len() as u64,
    }
}
