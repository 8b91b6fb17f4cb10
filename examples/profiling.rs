//! Performance analysis with `rocobs`: run a short Rocpanda job with a
//! span collector installed on every rank and print the trace's
//! per-category aggregate (`Trace::summary`) plus each rank's
//! compute-vs-communication split in virtual time.
//!
//! ```text
//! cargo run --release --example profiling
//! ```

use std::sync::Arc;

use genx_repro::core::SnapshotId;
use genx_repro::roccom::{AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocobs::{SpanCategory, TraceCollector, LANE_MAIN};
use genx_repro::rocpanda::{JobSpec, PandaServiceBuilder, ServiceRole};
use genx_repro::rocstore::SharedFs;
use rocio_core::{ArrayData, BlockId, DType};

fn main() {
    let fs = Arc::new(SharedFs::turing());
    // One long-running service: rank 0 serves, ranks 1-4 form one job.
    let svc = PandaServiceBuilder::new(Arc::clone(&fs))
        .servers(&[0])
        .build()
        .unwrap();
    svc.submit(JobSpec::new("profiling", &[1, 2, 3, 4])).unwrap();
    let collector = TraceCollector::new();
    let roles = run_ranks(5, ClusterSpec::turing(5), |comm| {
        let node = comm.cluster().node_of(comm.rank());
        let _recording = collector.handle(comm.rank(), LANE_MAIN, node).install();
        match svc.attach(&comm).unwrap() {
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
                "server"
            }
            ServiceRole::Client { io: mut c, comm: app, .. } => {
                let mut ws = Windows::new();
                let w = ws.create_window("fluid").unwrap();
                w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
                for i in 0..6u64 {
                    let id = BlockId(app.rank() as u64 * 100 + i);
                    w.register_pane(
                        id,
                        PaneMesh::Structured {
                            dims: [8, 8, 8],
                            origin: [0.0; 3],
                            spacing: [1.0; 3],
                        },
                    )
                    .unwrap();
                    w.pane_mut(id)
                        .unwrap()
                        .set_data("p", ArrayData::F64(vec![id.0 as f64; 512]))
                        .unwrap();
                }
                // Compute / snapshot / compute, like one period of GENx.
                comm.compute(0.5);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(10, 0))
                    .unwrap();
                comm.compute(0.5);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(20, 1))
                    .unwrap();
                c.finalize().unwrap();
                "client"
            }
            ServiceRole::Idle => "idle",
        }
    });
    let trace = collector.finish();

    let summary = trace.summary();
    println!("{} spans over {:.3} virtual seconds:", summary.spans, summary.end_time);
    for c in &summary.categories {
        println!(
            "  {:<18} {:>5} spans, busy {:>8.3} s, union {:>8.3} s, max concurrent {}",
            c.category, c.count, c.busy_time, c.union_time, c.max_concurrent
        );
    }

    println!("\nper-rank virtual-time breakdown:");
    for (rank, role) in roles.iter().enumerate() {
        let busy = |cats: &[SpanCategory]| -> f64 {
            let mine = trace.filter(|s| s.rank == rank && cats.contains(&s.category));
            mine.iter().fold(0.0, |busy, s| busy + s.duration())
        };
        println!(
            "  rank {rank} ({role:<6}): compute {:>7.3} s, comm {:>7.3} s, disk {:>7.3} s",
            busy(&[SpanCategory::Compute]),
            busy(&[SpanCategory::Send, SpanCategory::Recv, SpanCategory::ProbeBlocking]),
            busy(&[SpanCategory::DiskWrite, SpanCategory::DiskRead]),
        );
    }
}
