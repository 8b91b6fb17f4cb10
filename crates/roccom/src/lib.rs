//! # roccom
//!
//! A Rust realization of **Roccom**, CSAR's component-integration
//! framework (§5 of the paper): "Roccom organizes data and functions into
//! distributed objects called *windows*. A window encapsulates a number of
//! data members … In a parallel setting, a window is partitioned into
//! *panes*. A pane corresponds to a data block … and is owned by a single
//! process, while a process may own any number of panes. All panes of a
//! window must have the same collection of data members, although the size
//! of each data member may vary."
//!
//! What this crate provides:
//!
//! * [`window::Window`] / [`window::Pane`] — data registration: physics
//!   modules declare attributes once and register their mesh blocks as
//!   panes; the framework allocates and tracks the buffers.
//! * [`windows::Windows`] — the per-process collection of windows (the
//!   "data plane").
//! * [`function::FunctionRegistry`] — `COM_call_function`-style dynamic
//!   function registration and invocation, the mechanism that lets
//!   heterogeneous modules call each other without compile-time coupling.
//! * [`selector::AttrSelector`] — `"fluid.all"` / `"solid.mesh"` /
//!   `"fluid.pressure"` attribute addressing for the I/O interface.
//! * [`service::IoService`] + [`service::IoDispatch`] — the three
//!   high-level, file-format-independent collective operations
//!   (`read_attribute`, `write_attribute`, `sync`) behind which Rocpanda
//!   and Rochdf hide all file handling, and the load-module switchboard
//!   that swaps one for the other at run start.
//! * [`convert`] — pane ⇄ [`rocio_core::DataBlock`] conversion, the bridge
//!   between registered simulation data and the I/O layer.
//!
//! ## Example: register data, serialize a pane
//!
//! ```
//! use rocio_core::{ArrayData, BlockDesc, BlockId, DType};
//! use roccom::{convert, AttrRef, AttrSpec, PaneMesh, Windows};
//!
//! let mut ws = Windows::new();
//! let w = ws.create_window("fluid").unwrap();
//! w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
//! w.register_pane(
//!     BlockId(7),
//!     PaneMesh::Structured { dims: [2, 2, 2], origin: [0.0; 3], spacing: [1.0; 3] },
//! )
//! .unwrap();
//! w.pane_mut(BlockId(7))
//!     .unwrap()
//!     .set_data("pressure", ArrayData::F64(vec![101_325.0; 8]))
//!     .unwrap();
//!
//! // What an I/O module ships or writes: the pane described as a block,
//! // read where it lies (`rocsdf::encode_block` lays it out) ...
//! let fluid = ws.window("fluid").unwrap();
//! let pane = fluid.pane(BlockId(7)).unwrap();
//! let layout = convert::plan(fluid, pane, &AttrRef::All).unwrap();
//! assert_eq!(layout.n_datasets(), 2); // nc, pressure
//! // ... and the same block built, for a caller that wants to hold it.
//! let block = convert::pane_to_block(fluid, pane, &AttrRef::All).unwrap();
//! assert_eq!(block.dataset("pressure").unwrap().len(), 8);
//! ```

pub mod convert;
pub mod function;
pub mod selector;
pub mod service;
pub mod window;
pub mod windows;

pub use function::{ComValue, FunctionRegistry};
pub use selector::{AttrRef, AttrSelector};
pub use service::{IoDispatch, IoService};
pub use window::{AttrSpec, Location, Pane, PaneMesh, Window};
pub use windows::Windows;
