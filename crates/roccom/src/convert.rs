//! Pane ⇄ data-block conversion: the bridge between registered simulation
//! data and the I/O layer.
//!
//! A pane serializes into a [`DataBlock`] whose datasets follow GENx's
//! conventions: mesh coordinates in `"nc"` (nodes × 3), tetrahedral
//! connectivity in `"conn"` (elems × 4), then each declared attribute under
//! its own name. Geometry of structured panes is additionally kept in
//! block attributes so the pane can be reconstructed exactly.
//!
//! This module is where Roccom's line between typed panes and
//! format-independent blocks (§5) is crossed. On the way out one thing is
//! built, the mesh image, once per pane: [`plan`] describes the block a
//! pane serializes into (`rocio_core::BlockDesc`) by pointing into the
//! pane and its window's schema, and a writer has that description laid
//! out (`rocsdf::encode_block`), the attributes' typed arrays encoded to
//! little-endian once, straight into the block's payload image. The mesh
//! does not change from one snapshot to the next, so its datasets are
//! encoded once per pane instead, into an image the pane keeps (built
//! when the first encoder asks for it), and every later block holds that
//! image by refcount; the one code that moves a pane's nodes drops it. A
//! caller that wants a pane's checksum ([`pane_checksum`]) has it hashed
//! where it lies, and builds no image. [`pane_to_block`] builds the same
//! block as a [`DataBlock`], encoding every dataset afresh, for the tests
//! and benchmarks that hold the writers to it. On the way back
//! nothing is built either: [`apply_block`] and [`mesh_from_block`] take a
//! block's description too — a block read where it lies
//! (`rocsdf::BlockView`), as every reader hands one over, or a
//! [`DataBlock`] — and walk its datasets once, each payload decoded from
//! the bytes it arrived in straight into the buffer the pane keeps.
//! Nothing between the two ends — wire, buffers, records, store — holds a
//! typed array.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rocio_core::checksum::Field;
use rocio_core::{
    le, ArrayData, Attr, Attrs, BlockDesc, BlockId, Bytes, Checksum, DType, DataBlock,
    Dataset, DatasetDesc, Payload, Result, RocError, SharedArray,
};
use rocmesh::StructuredBlock;

use crate::selector::AttrRef;
use crate::window::{AttrSpec, HeldImage, Location, Pane, PaneMesh, Window};

/// Where one dataset's elements live before they are encoded.
enum Elems<'a> {
    /// Node coordinates of a structured pane, generated on the fly.
    Nodes(StructuredBlock),
    F64(&'a [f64]),
    I32(&'a [i32]),
    Array(&'a ArrayData),
}

impl Elems<'_> {
    fn dtype(&self) -> DType {
        match self {
            Elems::Nodes(_) | Elems::F64(_) => DType::F64,
            Elems::I32(_) => DType::I32,
            Elems::Array(a) => a.dtype(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Elems::Nodes(sb) => sb.n_nodes() * 3,
            Elems::F64(v) => v.len(),
            Elems::I32(v) => v.len(),
            Elems::Array(a) => a.len(),
        }
    }
}

/// A dataset's payload is its elements' canonical little-endian encoding,
/// made from the pane's own arrays when it is needed.
impl Payload for Elems<'_> {
    fn byte_len(&self) -> usize {
        self.len() * self.dtype().size()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            // Three elements at a time: too short a run for `le::extend`'s
            // resize-then-overwrite to pay (measured 15 % slower here).
            Elems::Nodes(sb) => sb.for_each_node_point(|p| {
                for x in p {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }),
            Elems::F64(v) => le::extend(out, v, f64::to_le_bytes),
            Elems::I32(v) => le::extend(out, v, i32::to_le_bytes),
            Elems::Array(a) => a.to_le_bytes(out),
        }
    }

    /// A stack buffer at a time, so the image `encode` would build is never
    /// held.
    fn absorb(&self, field: &mut Field) {
        match self {
            Elems::Nodes(sb) => {
                // `le::CHUNK` holds a whole number of points.
                let (mut buf, mut at) = ([0u8; le::CHUNK], 0);
                sb.for_each_node_point(|p| {
                    for x in p {
                        buf[at..at + 8].copy_from_slice(&x.to_le_bytes());
                        at += 8;
                    }
                    if at == buf.len() {
                        field.absorb(&buf);
                        at = 0;
                    }
                });
                field.absorb(&buf[..at]);
            }
            Elems::F64(v) => le::chunks(v, f64::to_le_bytes, |run| field.absorb(run)),
            Elems::I32(v) => le::chunks(v, i32::to_le_bytes, |run| field.absorb(run)),
            Elems::Array(a) => a.le_chunks(|run| field.absorb(run)),
        }
    }
}

/// A mesh dataset's payload: sized, encoded and hashed from the pane's
/// mesh like any other, and held as the pane's image of it, which the
/// first encoder to ask builds (`rocsdf::encode_block` asks; a checksum or
/// a size never does), the encoder's checksum of it kept beside it.
struct MeshPayload<'a> {
    elems: Elems<'a>,
    image: &'a HeldImage,
}

impl Payload for MeshPayload<'_> {
    fn byte_len(&self) -> usize {
        self.elems.byte_len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.elems.encode(out);
    }

    fn absorb(&self, field: &mut Field) {
        self.elems.absorb(field);
    }

    fn held(&self) -> Option<&Bytes> {
        Some(self.image.bytes.get_or_init(|| {
            let mut le = Vec::with_capacity(self.elems.byte_len());
            self.elems.encode(&mut le);
            Bytes::from(le)
        }))
    }

    fn held_crc(&self) -> Option<&OnceLock<u32>> {
        Some(&self.image.crc)
    }
}

/// A pane described as the block it serializes into, without the block:
/// [`BlockDesc`] read straight from the pane. The block's own attributes
/// come from the pane's mesh, written in key order with no map; its
/// datasets — mesh arrays (for `All` and `Mesh`; omitted for `Named`),
/// then the selected attributes — are the pane's arrays, each named from
/// the schema, shaped by an inline array and located by a `&'static str`.
/// Making one allocates nothing, and neither does reading it, but for the
/// pane's mesh image, which the first encoder to ask for a mesh payload
/// (`Payload::held`) builds: an encoder (`rocsdf::encode_block`) lays it
/// out, [`pane_checksum`] hashes it and [`pane_to_block`] builds it.
pub struct PaneLayout<'a> {
    window: &'a Window,
    pane: &'a Pane,
    with_mesh: bool,
    /// The selected attributes, in schema order.
    selected: &'a [AttrSpec],
    /// A structured pane's `dims`, as the integers they are stored as.
    dims: [i64; 3],
}

/// Describe the block `pane` of `window` serializes into under `attr`.
pub fn plan<'a>(window: &'a Window, pane: &'a Pane, attr: &AttrRef) -> Result<PaneLayout<'a>> {
    let selected = match attr {
        AttrRef::Mesh => &[][..],
        AttrRef::All => window.schema(),
        AttrRef::Named(name) => std::slice::from_ref(window.attr_spec(name)?),
    };
    // A kernel may have replaced a buffer (`Pane::data_mut`) with one its
    // shape cannot describe; that is refused here, before a header claims
    // a shape its payload does not fill.
    for spec in selected {
        let len = pane.data(&spec.name)?.len();
        if len % spec.ncomp != 0 {
            return Err(RocError::Mismatch(format!(
                "attribute '{}' of pane {}: {len} elements are not whole {}-component tuples",
                spec.name, pane.id, spec.ncomp
            )));
        }
    }
    let dims = match pane.mesh() {
        PaneMesh::Structured { dims, .. } => dims.map(|d| d as i64),
        PaneMesh::Unstructured { .. } => [0; 3],
    };
    let with_mesh = !matches!(attr, AttrRef::Named(_));
    Ok(PaneLayout {
        window,
        pane,
        with_mesh,
        selected,
        dims,
    })
}

/// Hand one dataset of a pane to a reader.
fn describe(
    f: &mut impl FnMut(&DatasetDesc<'_>),
    name: &str,
    shape: &[usize],
    attrs: Attrs<'_>,
    dtype: DType,
    payload: &dyn Payload,
) {
    f(&DatasetDesc {
        name,
        dtype,
        shape,
        attrs,
        payload,
    });
}

/// Hand one mesh dataset of a pane to a reader, held as `image`.
fn describe_mesh(
    f: &mut impl FnMut(&DatasetDesc<'_>),
    name: &str,
    shape: &[usize],
    elems: Elems<'_>,
    image: &HeldImage,
) {
    let dtype = elems.dtype();
    describe(f, name, shape, Attrs::NONE, dtype, &MeshPayload { elems, image });
}

impl BlockDesc for PaneLayout<'_> {
    fn id(&self) -> BlockId {
        self.pane.id
    }

    fn window(&self) -> &str {
        self.window.name()
    }

    fn with_attrs<R>(&self, f: impl FnOnce(Attrs<'_>) -> R) -> R {
        let mesh = self.pane.mesh();
        let n_elems = ("n_elems", Attr::Int(mesh.n_elems() as i64));
        let n_nodes = ("n_nodes", Attr::Int(mesh.n_nodes() as i64));
        match mesh {
            PaneMesh::Structured {
                origin, spacing, ..
            } => f(Attrs::Sorted(&[
                ("dims", Attr::IntVec(&self.dims)),
                ("mesh_kind", Attr::Str("structured")),
                n_elems,
                n_nodes,
                ("origin", Attr::FloatVec(origin)),
                ("spacing", Attr::FloatVec(spacing)),
            ])),
            PaneMesh::Unstructured { .. } => f(Attrs::Sorted(&[
                ("mesh_kind", Attr::Str("unstructured")),
                n_elems,
                n_nodes,
            ])),
        }
    }

    fn n_datasets(&self) -> usize {
        let mesh = match (self.with_mesh, self.pane.mesh()) {
            (false, _) => 0,
            (true, PaneMesh::Structured { .. }) => 1,
            (true, PaneMesh::Unstructured { .. }) => 2,
        };
        mesh + self.selected.len()
    }

    fn for_each_dataset(&self, mut f: impl FnMut(&DatasetDesc<'_>)) {
        let (pane, f) = (self.pane, &mut f);
        if self.with_mesh {
            let (mesh, image) = (pane.mesh(), pane.mesh_image());
            let nc = [mesh.n_nodes(), 3];
            match mesh {
                PaneMesh::Structured {
                    dims,
                    origin,
                    spacing,
                } => {
                    let sb = StructuredBlock::new(pane.id, *dims, *origin, *spacing);
                    describe_mesh(f, "nc", &nc, Elems::Nodes(sb), &image.nc);
                }
                PaneMesh::Unstructured { coords, conn } => {
                    describe_mesh(f, "nc", &nc, Elems::F64(coords), &image.nc);
                    let shape = [mesh.n_elems(), 4];
                    describe_mesh(f, "conn", &shape, Elems::I32(conn), &image.conn);
                }
            }
        }
        for spec in self.selected {
            // `plan` found every selected buffer, whole tuples long.
            let Ok(buf) = pane.data(&spec.name) else {
                continue;
            };
            let shape = [buf.len() / spec.ncomp, spec.ncomp];
            let shape = if spec.ncomp == 1 {
                &shape[..1]
            } else {
                &shape[..]
            };
            let location = match spec.location {
                Location::Node => "node",
                Location::Element => "element",
                Location::Pane => "pane",
            };
            let attrs = Attrs::Sorted(&[("location", Attr::Str(location))]);
            describe(f, &spec.name, shape, attrs, buf.dtype(), &Elems::Array(buf));
        }
    }
}

/// Serialize one pane into a data block carrying the selected attributes:
/// the [`plan`], built.
///
/// The pane's arrays are little-endian encoded **once**, into one
/// exact-capacity buffer per block, and every dataset's payload is a
/// window of it. The write path does not take this road — writers encode
/// the [`plan`] itself — but tests and benchmarks hold it up as the
/// reference: `encode_block` of this block is byte for byte `encode_block`
/// of the plan.
pub fn pane_to_block(window: &Window, pane: &Pane, attr: &AttrRef) -> Result<DataBlock> {
    let layout = plan(window, pane, attr)?;
    // Inserted one by one: `collect` would stage the pairs in a `Vec`.
    let owned = |attrs: Attrs<'_>| {
        let mut map = BTreeMap::new();
        for (k, v) in attrs.iter() {
            map.insert(k.to_owned(), v.to_value());
        }
        map
    };
    let mut block = DataBlock::new(pane.id, window.name());
    block.attrs = layout.with_attrs(owned);
    let mut len = 0;
    layout.for_each_dataset(|ds| len += ds.payload.byte_len());
    let mut image = Vec::with_capacity(len);
    layout.for_each_dataset(|ds| ds.payload.encode(&mut image));
    let image = Bytes::from(image);
    let (mut datasets, mut at) = (Vec::with_capacity(layout.n_datasets()), 0);
    layout.for_each_dataset(|ds| {
        let bytes = image.slice(at..at + ds.payload.byte_len());
        at += bytes.len();
        datasets.push(
            SharedArray::new(ds.dtype, bytes.len() / ds.dtype.size(), bytes)
                .and_then(|data| Dataset::new(ds.name, ds.shape.to_vec(), data))
                .map(|d| Dataset {
                    attrs: owned(ds.attrs),
                    ..d
                }),
        );
    });
    block.datasets = datasets.into_iter().collect::<Result<_>>()?;
    Ok(block)
}

/// `Checksum::of_block(&pane_to_block(window, pane, attr)?)`, bit for bit,
/// without the block: the [`plan`] hashed, the pane's arrays read where
/// they lie and passed through a stack buffer on their way into the hash.
/// For a caller that compares states (restart verification,
/// `RestartReport::state_hash`) and ships nothing.
pub fn pane_checksum(window: &Window, pane: &Pane, attr: &AttrRef) -> Result<Checksum> {
    Ok(Checksum::of_desc(&plan(window, pane, attr)?))
}

/// Serialize the selected attributes of every local pane of a window.
pub fn window_to_blocks(window: &Window, attr: &AttrRef) -> Result<Vec<DataBlock>> {
    window
        .panes()
        .map(|p| pane_to_block(window, p, attr))
        .collect()
}

/// What one walk over a block's datasets took out of it for a pane: the
/// mesh datasets, decoded when the pane needs them (`nc` shaped by the
/// rows of three it holds, so structured geometry can be held to it
/// undecoded), and each declared attribute's buffer, in schema order.
struct Contents {
    /// `Some(rows)` when `nc` is there: its node count if it is shaped
    /// `[rows, 3]`, `None` otherwise.
    nc: Option<Option<usize>>,
    coords: Option<ArrayData>,
    conn: Option<ArrayData>,
    buffers: Vec<Option<ArrayData>>,
}

impl Contents {
    /// Walk `block`'s datasets once, decoding the mesh datasets when
    /// `with_mesh` and each dataset `schema` declares into its slot — the
    /// one LE → typed conversion of the read path, a dataset's payload read
    /// where it lies. A name the block holds twice is read the first time.
    fn of(block: &(impl BlockDesc + ?Sized), schema: &[AttrSpec], with_mesh: bool) -> Contents {
        let mut contents = Contents {
            nc: None,
            coords: None,
            conn: None,
            buffers: std::iter::repeat_with(|| None).take(schema.len()).collect(),
        };
        block.for_each_dataset(|ds| {
            let slot = match ds.name {
                "nc" if contents.nc.is_some() => return,
                "nc" => {
                    contents.nc = Some(match ds.shape {
                        &[rows, 3] => Some(rows),
                        _ => None,
                    });
                    &mut contents.coords
                }
                "conn" => &mut contents.conn,
                name => match schema.iter().position(|spec| spec.name == name) {
                    Some(i) => &mut contents.buffers[i],
                    None => return,
                },
            };
            let wanted = with_mesh || !matches!(ds.name, "nc" | "conn");
            if wanted && slot.is_none() {
                *slot = Some(typed(ds));
            }
        });
        contents
    }
}

/// A dataset's payload as the typed buffer a pane keeps.
fn typed(ds: &DatasetDesc<'_>) -> ArrayData {
    match ds.payload.held() {
        Some(le) => ArrayData::from_le(ds.dtype, le),
        None => {
            let mut le = Vec::with_capacity(ds.payload.byte_len());
            ds.payload.encode(&mut le);
            ArrayData::from_le(ds.dtype, &le)
        }
    }
}

/// Node coordinates out of a block's decoded `nc`.
fn node_coords(id: BlockId, nc: ArrayData) -> Result<Vec<f64>> {
    match nc {
        ArrayData::F64(coords) => Ok(coords),
        other => Err(RocError::Mismatch(format!(
            "block {id}: expected f64 node coordinates, found {}",
            other.dtype().name()
        ))),
    }
}

/// What a block's attributes say of its pane's mesh: a structured mesh
/// whole, or that the mesh is in the block's datasets.
fn mesh_kind(block: &(impl BlockDesc + ?Sized)) -> Result<Option<PaneMesh>> {
    let id = block.id();
    block.with_attrs(|attrs| {
        let get = |k: &str| attrs.iter().find(|&(key, _)| key == k).map(|(_, v)| v);
        let kind = get("mesh_kind")
            .ok_or_else(|| RocError::Corrupt(format!("block {id} missing mesh_kind")))?;
        let not_str =
            || RocError::Mismatch(format!("expected Str attr, got {:?}", kind.to_value()));
        match kind.as_str().ok_or_else(not_str)? {
            "structured" => {
                let missing = |k: &str| RocError::Corrupt(format!("block {id} missing {k}"));
                let not_3d = || {
                    RocError::Corrupt(format!(
                        "block {id}: structured geometry must be 3-D with non-negative dims"
                    ))
                };
                let fvec = |k: &str| match get(k) {
                    Some(v @ (Attr::FloatVec(_) | Attr::FloatVecLe(_))) => {
                        v.float_array::<3>().ok_or_else(not_3d)
                    }
                    _ => Err(missing(k)),
                };
                let dims = match get("dims") {
                    Some(v @ (Attr::IntVec(_) | Attr::IntVecLe(_))) => v
                        .int_array::<3>()
                        .and_then(|dims| {
                            let [i, j, k] = dims.map(|d| usize::try_from(d).ok());
                            Some([i?, j?, k?])
                        })
                        .ok_or_else(not_3d)?,
                    _ => return Err(missing("dims")),
                };
                let (origin, spacing) = (fvec("origin")?, fvec("spacing")?);
                Ok(Some(PaneMesh::Structured { dims, origin, spacing }))
            }
            "unstructured" => Ok(None),
            other => Err(RocError::Corrupt(format!("unknown mesh kind '{other}'"))),
        }
    })
}

/// The pane mesh a block describes, out of its attributes and the mesh
/// datasets one walk took out of it.
///
/// The block came from a file or a message, so nothing it claims sizes
/// anything before it is checked ([`PaneMesh::validate`]), and a structured
/// block's `dims` must agree with the shape of the coordinates it carries
/// — bytes that exist — when it carries them. A failed check is
/// [`RocError::Corrupt`], never a panic.
fn mesh_of(id: BlockId, kind: Option<PaneMesh>, contents: &mut Contents) -> Result<PaneMesh> {
    let missing = |name: &str| RocError::NotFound(format!("dataset '{name}' in block {id}"));
    let mesh = match kind {
        Some(structured) => structured,
        None => {
            let coords = node_coords(id, contents.coords.take().ok_or_else(|| missing("nc"))?)?;
            match contents.conn.take().ok_or_else(|| missing("conn"))? {
                ArrayData::I32(conn) => PaneMesh::Unstructured { coords, conn },
                other => {
                    return Err(RocError::Mismatch(format!(
                        "block {id}: expected i32 connectivity, found {}",
                        other.dtype().name()
                    )))
                }
            }
        }
    };
    mesh.validate()?;
    if let (PaneMesh::Structured { dims, .. }, Some(rows)) = (&mesh, contents.nc) {
        if rows != Some(mesh.n_nodes()) {
            return Err(RocError::Corrupt(format!(
                "block {id}: dims {dims:?} do not describe its node coordinates"
            )));
        }
    }
    Ok(mesh)
}

/// Rebuild a [`PaneMesh`] from a serialized block — a [`DataBlock`], or
/// one read where it lies (`rocsdf::BlockView`) — walking its datasets
/// once. See [`apply_block`] for what is checked.
pub fn mesh_from_block(block: &(impl BlockDesc + ?Sized)) -> Result<PaneMesh> {
    let kind = mesh_kind(block)?;
    let mut contents = Contents::of(block, &[], kind.is_none());
    mesh_of(block.id(), kind, &mut contents)
}

/// Apply a serialized block back onto a window (restart / data exchange):
/// a [`DataBlock`], or a block read where it lies (`rocsdf::BlockView`),
/// whose datasets are walked once, each payload decoded straight from the
/// bytes it arrived in into the buffer the pane keeps — the one
/// allocation per restored attribute.
///
/// A pane the window does not hold yet — reserved by a restart, migrated
/// in, or owned by a different processor count than wrote the snapshot —
/// is built from the block in one go: mesh from the block, each declared
/// attribute decoded once into the buffer the pane keeps, absent ones
/// zero-filled, every length held against schema × mesh. Zero-filling
/// takes its size from the block's geometry alone, so it needs the
/// block's coordinates to vouch for that geometry. On a pane the window
/// already holds, attribute buffers present in the block are installed
/// and the others keep their values.
pub fn apply_block(window: &mut Window, block: &(impl BlockDesc + ?Sized)) -> Result<()> {
    let id = block.id();
    if block.window() != window.name() {
        return Err(RocError::Mismatch(format!(
            "block {id} belongs to window '{}', not '{}'",
            block.window(),
            window.name()
        )));
    }
    // Panes hold typed buffers (solvers mutate them element-wise), so
    // payloads are decoded here — the single typed boundary of the
    // restart path.
    let Some(held) = window.held(id) else {
        let kind = mesh_kind(block)?;
        let mut contents = Contents::of(block, window.schema(), kind.is_none());
        let mesh = mesh_of(id, kind, &mut contents)?;
        let anchored = contents.nc.is_some();
        let mut buffers = contents.buffers.into_iter();
        return window.build_pane(id, mesh, |spec| match buffers.next().flatten() {
            Some(buf) => Ok(Some(buf)),
            None if anchored => Ok(None),
            None => Err(RocError::Corrupt(format!(
                "block {id} carries neither coordinates nor attribute '{}': nothing it holds \
                 gives that buffer's size",
                spec.name
            ))),
        });
    };
    // Mesh may have moved (ALE): an unstructured pane's coordinates are
    // refreshed when present.
    let moving = matches!(held.mesh(), PaneMesh::Unstructured { .. });
    let contents = Contents::of(block, window.schema(), moving);
    let (schema, pane) = window.schema_and_pane_mut(id)?;
    if let Some(nc) = contents.coords {
        pane.move_nodes(node_coords(id, nc)?)?;
    }
    for (spec, buf) in schema.iter().zip(contents.buffers) {
        if let Some(buf) = buf {
            pane.set_data(&spec.name, buf)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::AttrValue;
    use rocmesh::UnstructuredBlock;

    fn fluid_window() -> Window {
        let mut w = Window::new("fluid");
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        w.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        w.register_pane(
            BlockId(4),
            PaneMesh::Structured {
                dims: [2, 2, 1],
                origin: [0.0; 3],
                spacing: [0.5; 3],
            },
        )
        .unwrap();
        w
    }

    fn solid_window() -> Window {
        let mut w = Window::new("solid");
        w.declare_attr(AttrSpec::node("disp", DType::F64, 3)).unwrap();
        let b = UnstructuredBlock::tet_box(BlockId(8), [1, 1, 2], [0.0; 3], [1.0; 3]);
        w.register_pane(BlockId(8), b.into()).unwrap();
        w
    }

    #[test]
    fn all_serializes_mesh_and_attrs() {
        let w = fluid_window();
        let block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        let names: Vec<&str> = block.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["nc", "pressure", "velocity"]);
        assert_eq!(block.dataset("nc").unwrap().shape, vec![18, 3]);
        assert_eq!(block.dataset("velocity").unwrap().shape, vec![18, 3]);
        assert_eq!(block.dataset("pressure").unwrap().shape, vec![4]);
        assert_eq!(block.attrs["mesh_kind"].as_str().unwrap(), "structured");
    }

    #[test]
    fn mesh_selector_serializes_only_mesh() {
        let w = solid_window();
        let block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::Mesh).unwrap();
        let names: Vec<&str> = block.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["nc", "conn"]);
    }

    #[test]
    fn named_selector_serializes_one_attr_without_mesh() {
        let w = fluid_window();
        let block = pane_to_block(
            &w,
            w.pane(BlockId(4)).unwrap(),
            &AttrRef::Named("pressure".into()),
        )
        .unwrap();
        let names: Vec<&str> = block.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["pressure"]);
        assert!(pane_to_block(
            &w,
            w.pane(BlockId(4)).unwrap(),
            &AttrRef::Named("ghost".into())
        )
        .is_err());
    }

    #[test]
    fn blocks_are_windows_of_one_buffer_holding_the_panes_values() {
        let (fluid, solid) = (fluid_window(), solid_window());
        let selectors = |named: &str| [AttrRef::All, AttrRef::Mesh, AttrRef::Named(named.into())];
        for (w, id, named) in [(&fluid, BlockId(4), "velocity"), (&solid, BlockId(8), "disp")] {
            let pane = w.pane(id).unwrap();
            for attr in selectors(named) {
                let block = pane_to_block(w, pane, &attr).unwrap();
                // Every payload is a window of one allocation, laid end to end.
                let windows: Vec<&[u8]> =
                    block.datasets.iter().map(|d| d.data.bytes().as_slice()).collect();
                for pair in windows.windows(2) {
                    assert_eq!(pair[0].as_ptr_range().end, pair[1].as_ptr(), "{attr:?}");
                }
                // Attribute payloads decode to the pane's own arrays.
                for ds in block.datasets.iter().filter(|d| d.attrs.contains_key("location")) {
                    assert_eq!(&ds.data.to_typed(), pane.data(&ds.name).unwrap(), "{attr:?}");
                }
            }
        }
        // Structured coordinates are generated straight into the buffer and
        // must be the mesh generator's own values.
        let block = pane_to_block(&fluid, fluid.pane(BlockId(4)).unwrap(), &AttrRef::Mesh).unwrap();
        let sb = StructuredBlock::new(BlockId(4), [2, 2, 1], [0.0; 3], [0.5; 3]);
        assert_eq!(block.dataset("nc").unwrap().data.to_typed(), ArrayData::F64(sb.node_coords()));
    }

    /// A buffer a kernel replaced with one that is not whole tuples long is
    /// refused on the way out, by the plan every writer encodes, before a
    /// header could claim a shape its payload does not fill.
    #[test]
    fn a_torn_buffer_is_a_mismatch_before_anything_is_encoded() {
        let mut w = fluid_window();
        *w.pane_mut(BlockId(4)).unwrap().data_mut("velocity").unwrap() =
            ArrayData::F64(vec![0.0; 53]);
        let pane = w.pane(BlockId(4)).unwrap();
        for attr in [AttrRef::All, AttrRef::Named("velocity".into())] {
            assert!(matches!(plan(&w, pane, &attr), Err(RocError::Mismatch(_))), "{attr:?}");
            assert!(matches!(pane_checksum(&w, pane, &attr), Err(RocError::Mismatch(_))));
            assert!(matches!(pane_to_block(&w, pane, &attr), Err(RocError::Mismatch(_))));
        }
        // The other selections do not read the torn buffer.
        for attr in [AttrRef::Mesh, AttrRef::Named("pressure".into())] {
            plan(&w, pane, &attr).unwrap();
        }
    }

    #[test]
    fn round_trip_through_apply_block() {
        let mut w = fluid_window();
        w.pane_mut(BlockId(4))
            .unwrap()
            .data_mut("pressure")
            .unwrap()
            .as_f64_mut()
            .unwrap()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();

        // Fresh window (restart): same schema, no panes yet.
        let mut w2 = Window::new("fluid");
        w2.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        w2.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        apply_block(&mut w2, &block).unwrap();
        assert_eq!(
            w2.pane(BlockId(4)).unwrap().data("pressure").unwrap().as_f64().unwrap(),
            &[1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(w2.pane(BlockId(4)).unwrap().mesh(), w.pane(BlockId(4)).unwrap().mesh());
        // Typed after install: element-wise mutation works.
        w2.pane_mut(BlockId(4)).unwrap().data_mut("pressure").unwrap().as_f64_mut().unwrap()[0] = 1.5;
    }

    #[test]
    fn unstructured_round_trip_preserves_connectivity() {
        let w = solid_window();
        let block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        let mesh = mesh_from_block(&block).unwrap();
        assert_eq!(&mesh, w.pane(BlockId(8)).unwrap().mesh());
    }

    #[test]
    fn apply_block_rejects_wrong_window() {
        let w = fluid_window();
        let block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        let mut other = Window::new("solid");
        assert!(matches!(
            apply_block(&mut other, &block),
            Err(RocError::Mismatch(_))
        ));
    }

    #[test]
    fn apply_block_refreshes_moved_coords() {
        let mut w = solid_window();
        let encoded = |w: &Window| {
            let layout = plan(w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
            flat(&rocsdf::encode_block(&[], &layout))
        };
        // The encode builds the mesh image of the coordinates as they were.
        let before = encoded(&w);
        let mut block = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        // Move the mesh in the serialized copy (through the typed form: a
        // block's payloads are immutable windows).
        let nc = &mut block.dataset_mut("nc").unwrap().data;
        let mut coords = nc.to_typed();
        coords.as_f64_mut().unwrap()[0] = 99.0;
        *nc = coords.into();
        apply_block(&mut w, &block).unwrap();
        match w.pane(BlockId(8)).unwrap().mesh() {
            PaneMesh::Unstructured { coords, .. } => assert_eq!(coords[0], 99.0),
            _ => panic!("expected unstructured"),
        }
        // The next encode carries the moved coordinates, not the image of
        // the old ones, and their checksum, not the one kept beside it:
        // every record of it checks.
        let moved = pane_to_block(&w, w.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        let after = encoded(&w);
        assert_ne!(after, before);
        assert_eq!(after, flat(&rocsdf::encode_block(&[], &moved)));
        let (after, n) = (rocio_core::Rope::from(Bytes::from(after)), 1 + moved.datasets.len());
        let checked = rocsdf::BlockView::decode(&mut after.cursor(), n).unwrap().to_block().unwrap();
        assert_eq!(checked.dataset("nc").unwrap().data.to_typed().as_f64().unwrap()[0], 99.0);
    }

    /// All of a rope's bytes, in order.
    fn flat(rope: &rocio_core::Rope) -> Vec<u8> {
        rope.parts().iter().flat_map(|p| p.to_vec()).collect()
    }

    /// A pane's mesh is encoded once: the first encoder builds its image
    /// and every later one holds it by refcount, and the records, the
    /// checksum and the size are byte for byte what they were before the
    /// image existed — the built block's, structured and unstructured, each
    /// record's `__crc32__` included, which the first encode keeps beside
    /// the image. A checksum or a size builds no image.
    #[test]
    fn the_mesh_image_is_built_once_and_moves_no_byte() {
        for (w, id) in [(fluid_window(), BlockId(4)), (solid_window(), BlockId(8))] {
            let pane = w.pane(id).unwrap();
            let block = pane_to_block(&w, pane, &AttrRef::All).unwrap();
            let reference = flat(&rocsdf::encode_block(&[], &block));
            let checksum = Checksum::of_block(&block);
            let layout = plan(&w, pane, &AttrRef::All).unwrap();
            let image = pane.mesh_image();
            let built = || [&image.nc, &image.conn].map(|i| i.bytes.get().is_some());
            let kept = || [&image.nc, &image.conn].map(|i| i.crc.get().copied());
            assert_eq!(pane_checksum(&w, pane, &AttrRef::All).unwrap(), checksum, "{id}");
            assert_eq!(layout.encoded_size(), block.encoded_size(), "{id}");
            assert_eq!(built(), [false, false], "{id}: a checksum or a size built an image");
            let first = rocsdf::encode_block(&[], &layout);
            let unstructured = matches!(pane.mesh(), PaneMesh::Unstructured { .. });
            assert_eq!(built(), [true, unstructured], "{id}");
            let crc = |i: &HeldImage| i.bytes.get().map(|b| rocsdf::format::crc32(b));
            assert_eq!(kept(), [crc(&image.nc), crc(&image.conn)], "{id}");
            let second = rocsdf::encode_block(&[], &plan(&w, pane, &AttrRef::All).unwrap());
            assert_eq!(flat(&first), reference, "{id}");
            assert_eq!(flat(&second), reference, "{id}");
            let n = 1 + layout.n_datasets();
            rocsdf::BlockView::decode(&mut second.cursor(), n).unwrap();
            assert_eq!(pane_checksum(&w, pane, &AttrRef::All).unwrap(), checksum, "{id}");
            // Part 1 is `nc`'s payload, part 3 `conn`'s on an unstructured
            // pane: the same allocation in both encodings.
            let n_mesh = if unstructured { 2 } else { 1 };
            for part in (1..2 * n_mesh).step_by(2) {
                assert_eq!(first.parts()[part].as_ptr(), second.parts()[part].as_ptr(), "{id}");
            }
            // A clone shares the image; equality does not look at it.
            let shared = pane.clone().mesh_image().nc.bytes.get().map(|b| b.as_ptr());
            assert_eq!(shared, Some(first.parts()[1].as_ptr()), "{id}");
            let mut restored = w.clone();
            restored.remove_pane(id).unwrap();
            apply_block(&mut restored, &block).unwrap();
            assert_eq!(restored, w, "{id}");
        }
    }

    /// A pane restored from a block and then checksummed, as a restart
    /// verifies its state, builds no mesh image.
    #[test]
    fn a_restored_pane_checksummed_builds_no_image() {
        for (w, id) in [(fluid_window(), BlockId(4)), (solid_window(), BlockId(8))] {
            let block = pane_to_block(&w, w.pane(id).unwrap(), &AttrRef::All).unwrap();
            let mut restored = Window::new(w.name());
            for spec in w.schema() {
                restored.declare_attr(spec.clone()).unwrap();
            }
            restored.reserve_pane(id).unwrap();
            apply_block(&mut restored, &view_of(&block)).unwrap();
            let pane = restored.pane(id).unwrap();
            let checksum = pane_checksum(&restored, pane, &AttrRef::All).unwrap();
            assert_eq!(checksum, Checksum::of_block(&block), "{id}");
            let image = pane.mesh_image();
            assert!(image.nc.bytes.get().is_none() && image.conn.bytes.get().is_none(), "{id}: {image:?}");
        }
    }

    /// The equalities the write path and `state_hash` rest on: a pane
    /// described where it lies ([`plan`]) is its block — hashed, sized, and
    /// encoded by `rocsdf::encode_block` byte for byte, behind a lead, with
    /// the mesh payloads the pane's mesh image and the attributes' windows
    /// of one buffer laid end to end — for every selector, both mesh kinds,
    /// every dtype, and arrays shorter than, as long as and longer than one
    /// `le::CHUNK` run (503–505 `f64`, 1007–1009 `i32`/`f32`, 4031–4033
    /// `u8`; the structured panes carry 8 to 2 058 nodes of 24 bytes).
    #[test]
    fn a_pane_hashed_in_place_is_its_block_hashed() {
        let lead = b"routing header".as_slice();
        let dtypes = [DType::U8, DType::I32, DType::I64, DType::F32, DType::F64];
        let typed = |dtype: DType, n: usize| -> ArrayData {
            let x = |i: usize| (i * 37 + 11) % 251;
            match dtype {
                DType::U8 => (0..n).map(|i| x(i) as u8).collect::<Vec<_>>().into(),
                DType::I32 => (0..n).map(|i| x(i) as i32 - 99).collect::<Vec<_>>().into(),
                DType::I64 => (0..n).map(|i| x(i) as i64 - 99).collect::<Vec<_>>().into(),
                DType::F32 => (0..n).map(|i| x(i) as f32 * 0.5).collect::<Vec<_>>().into(),
                DType::F64 => (0..n).map(|i| x(i) as f64 * 0.25).collect::<Vec<_>>().into(),
            }
        };
        let tets = |cells: usize| -> PaneMesh {
            UnstructuredBlock::tet_box(BlockId(2), [cells, 1, 1], [0.0; 3], [1.0; 3]).into()
        };
        let meshes = [
            PaneMesh::Structured { dims: [1, 1, 1], origin: [0.5; 3], spacing: [0.25; 3] },
            PaneMesh::Structured { dims: [6, 6, 41], origin: [0.0; 3], spacing: [0.1; 3] },
            tets(1),
            tets(300),
        ];
        for mesh in meshes {
            // `ncomp` of a pane-located attribute is its element count.
            for n in [1, 2, 503, 504, 505, 1007, 1008, 1009, 4031, 4032, 4033] {
                let mut w = Window::new("w");
                for dtype in dtypes {
                    w.declare_attr(AttrSpec::pane(dtype.name(), dtype, n)).unwrap();
                }
                w.declare_attr(AttrSpec::node("on_nodes", DType::F64, 3)).unwrap();
                w.declare_attr(AttrSpec::element("on_elems", DType::I32, 1)).unwrap();
                w.register_pane(BlockId(2), mesh.clone()).unwrap();
                let pane = w.pane_mut(BlockId(2)).unwrap();
                for spec in [("on_nodes", DType::F64), ("on_elems", DType::I32)] {
                    let len = pane.data(spec.0).unwrap().len();
                    pane.set_data(spec.0, typed(spec.1, len)).unwrap();
                }
                for dtype in dtypes {
                    pane.set_data(dtype.name(), typed(dtype, n)).unwrap();
                }
                let pane = w.pane(BlockId(2)).unwrap();
                let named = dtypes.map(|d| AttrRef::Named(d.name().into()));
                for attr in [AttrRef::All, AttrRef::Mesh].iter().chain(&named) {
                    let case = format!("{attr:?}, {n} elements, {} nodes", pane.mesh().n_nodes());
                    let block = pane_to_block(&w, pane, attr).unwrap();
                    assert_eq!(
                        pane_checksum(&w, pane, attr).unwrap(),
                        Checksum::of_block(&block),
                        "{case}"
                    );
                    let layout = plan(&w, pane, attr).unwrap();
                    assert_eq!(layout.encoded_size(), block.encoded_size(), "{case}");
                    let direct = rocsdf::encode_block(lead, &layout);
                    assert_eq!(
                        flat(&direct),
                        flat(&rocsdf::encode_block(lead, &block)),
                        "{case}"
                    );
                    // Header runs and payloads alternate; every payload is
                    // non-empty here. The mesh payloads are the pane's mesh
                    // image, and the attributes' lie end to end in one
                    // buffer.
                    let payloads: Vec<&[u8]> = direct
                        .parts()
                        .iter()
                        .skip(1)
                        .step_by(2)
                        .map(|p| &p[..])
                        .collect();
                    assert_eq!(payloads.len(), block.datasets.len(), "{case}");
                    for (got, ds) in payloads.iter().zip(&block.datasets) {
                        assert_eq!(*got, &ds.data.bytes()[..], "{case}: {}", ds.name);
                    }
                    let image = pane.mesh_image();
                    let images = [&image.nc, &image.conn].map(|i| i.bytes.get().map(|b| b.as_ptr()));
                    let n_mesh = block.datasets.len() - layout.selected.len();
                    let (mesh, attrs) = payloads.split_at(n_mesh);
                    for (got, image) in mesh.iter().zip(images) {
                        assert_eq!(Some(got.as_ptr()), image, "{case}");
                    }
                    for pair in attrs.windows(2) {
                        assert_eq!(pair[0].as_ptr_range().end, pair[1].as_ptr(), "{case}");
                    }
                    // Read back where it lies, the block applies as the
                    // built block does, pane for pane: onto a window that
                    // names the pane and onto one that holds it.
                    let view = view_of(&block);
                    assert_eq!(view.to_block().unwrap(), block, "{case}");
                    let mut named = Window::new("w");
                    for spec in w.schema() {
                        named.declare_attr(spec.clone()).unwrap();
                    }
                    named.reserve_pane(BlockId(2)).unwrap();
                    for target in [&named, &w] {
                        let (mut by_view, mut by_block) = (target.clone(), target.clone());
                        let by_view_verdict = apply_block(&mut by_view, &view);
                        let by_block_verdict = apply_block(&mut by_block, &block);
                        assert_eq!(
                            format!("{by_view_verdict:?}"),
                            format!("{by_block_verdict:?}"),
                            "{case}"
                        );
                        assert_eq!(by_view, by_block, "{case}");
                    }
                    let meshes = (mesh_from_block(&view), mesh_from_block(&block));
                    assert_eq!(format!("{:?}", meshes.0), format!("{:?}", meshes.1), "{case}");
                }
            }
        }
        let w = fluid_window();
        assert!(pane_checksum(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::Named("ghost".into()))
            .is_err());
    }

    /// A pane the window does not hold is built from the block in one go,
    /// and comes out equal — mesh and every buffer — to the pane written.
    #[test]
    fn apply_block_builds_a_reserved_pane_equal_to_the_one_written() {
        for (written, id) in [(fluid_window(), BlockId(4)), (solid_window(), BlockId(8))] {
            let mut written = written;
            for (i, spec) in written.schema().to_vec().iter().enumerate() {
                let buf = written.pane_mut(id).unwrap().data_mut(&spec.name).unwrap();
                buf.as_f64_mut().unwrap().iter_mut().for_each(|x| *x = i as f64 + 0.5);
            }
            let block = pane_to_block(&written, written.pane(id).unwrap(), &AttrRef::All).unwrap();
            let mut restored = Window::new(written.name());
            for spec in written.schema() {
                restored.declare_attr(spec.clone()).unwrap();
            }
            restored.reserve_pane(id).unwrap();
            assert_eq!(restored.pane_ids(), vec![id]);
            assert_eq!(restored.n_panes(), 0);
            apply_block(&mut restored, &block).unwrap();
            assert_eq!(restored, written);
        }
    }

    #[test]
    fn a_new_pane_takes_no_size_on_trust() {
        let w = fluid_window();
        let pane = w.pane(BlockId(4)).unwrap();
        let empty = || {
            let mut e = Window::new("fluid");
            e.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
            e.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
            e
        };
        // A buffer that is not schema x mesh long, or not the declared
        // dtype, is refused and leaves no half-built pane behind.
        for (name, data) in [
            ("pressure", SharedArray::from(vec![0.0f64; 5])),
            ("velocity", SharedArray::from(vec![0.0f32; 54])),
        ] {
            let mut block = pane_to_block(&w, pane, &AttrRef::All).unwrap();
            let ds = block.dataset_mut(name).unwrap();
            (ds.shape, ds.data) = (vec![data.len()], data);
            let mut e = empty();
            assert!(matches!(apply_block(&mut e, &block), Err(RocError::Mismatch(_))), "{name}");
            assert_eq!(e.n_panes(), 0);
        }
        // Attributes the block lacks are zero-filled at the size its
        // coordinates vouch for ...
        let mesh_only = pane_to_block(&w, pane, &AttrRef::Mesh).unwrap();
        let mut e = empty();
        apply_block(&mut e, &mesh_only).unwrap();
        assert_eq!(e.pane(BlockId(4)).unwrap().data("velocity").unwrap().len(), 54);
        // ... and not at all when nothing does.
        let one_attr = pane_to_block(&w, pane, &AttrRef::Named("pressure".into())).unwrap();
        let err = apply_block(&mut empty(), &one_attr).unwrap_err();
        assert!(matches!(err, RocError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("velocity"), "{err}");
        // Onto a pane the window holds, the same block is a plain update.
        let mut held = fluid_window();
        apply_block(&mut held, &one_attr).unwrap();
    }

    /// `block` as a reader sees it: its records, read where they lie.
    fn view_of(block: &DataBlock) -> rocsdf::BlockView {
        let records = rocsdf::encode_block(&[], block);
        rocsdf::BlockView::decode(&mut records.cursor(), 1 + block.datasets.len()).unwrap()
    }

    /// Geometry that arrives in a block is input: a size it claims is
    /// checked before it sizes anything. Each of these died inside
    /// `Vec` with `capacity overflow` (or built a mesh whose connectivity
    /// indexed past its nodes) before `mesh_from_block` checked.
    #[test]
    fn hostile_geometry_is_corrupt_not_a_panic() {
        let w = fluid_window();
        let good = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        let mut fresh = Window::new("fluid");
        fresh.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        fresh.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        let refused = |block: &DataBlock, what: &str| {
            let (mut target, mut by_view, view) = (fresh.clone(), fresh.clone(), view_of(block));
            for result in [
                mesh_from_block(block).map(drop),
                apply_block(&mut target, block),
                mesh_from_block(&view).map(drop),
                apply_block(&mut by_view, &view),
            ] {
                assert!(matches!(result, Err(RocError::Corrupt(_))), "{what}: {result:?}");
            }
            assert_eq!((target.n_panes(), by_view.n_panes()), (0, 0), "{what}");
        };
        for dims in [
            vec![-1, 1, 1],
            vec![1 << 31, 1 << 31, 1],
            vec![i64::MAX, 1, 1],
            vec![i64::MAX, i64::MAX, i64::MAX],
            vec![2, 2],
            // Well-formed, but not the geometry of the coordinates carried.
            vec![2, 2, 2],
            vec![1 << 20, 1 << 20, 1 << 20],
        ] {
            let mut block = good.clone();
            block.attrs.insert("dims".into(), AttrValue::IntVec(dims.clone()));
            refused(&block, &format!("dims {dims:?}"));
            // With no coordinates to hold the claim against, the checked
            // size arithmetic is what stands between it and the allocator.
            block.datasets.retain(|d| d.name != "nc");
            let mut target = fresh.clone();
            let err = apply_block(&mut target, &block).unwrap_err();
            assert!(matches!(err, RocError::Corrupt(_) | RocError::Mismatch(_)), "{dims:?}: {err}");
            assert_eq!(target.n_panes(), 0);
        }
        for (key, value) in [("origin", vec![0.0; 2]), ("spacing", vec![])] {
            let mut block = good.clone();
            block.attrs.insert(key.into(), AttrValue::FloatVec(value));
            refused(&block, key);
        }

        let s = solid_window();
        let good = pane_to_block(&s, s.pane(BlockId(8)).unwrap(), &AttrRef::All).unwrap();
        let mut fresh = Window::new("solid");
        fresh.declare_attr(AttrSpec::node("disp", DType::F64, 3)).unwrap();
        let refused = |name: &str, data: SharedArray, what: &str| {
            let mut block = good.clone();
            let ds = block.dataset_mut(name).unwrap();
            (ds.shape, ds.data) = (vec![data.len()], data);
            let (mut target, mut by_view, view) = (fresh.clone(), fresh.clone(), view_of(&block));
            for result in [
                mesh_from_block(&block).map(drop),
                apply_block(&mut target, &block),
                mesh_from_block(&view).map(drop),
                apply_block(&mut by_view, &view),
            ] {
                assert!(matches!(result, Err(RocError::Corrupt(_))), "{what}: {result:?}");
            }
            assert_eq!((target.n_panes(), by_view.n_panes()), (0, 0), "{what}");
        };
        let conn = good.dataset("conn").unwrap().data.to_typed();
        let ArrayData::I32(conn) = conn else { panic!("conn is i32") };
        let n_nodes = good.dataset("nc").unwrap().shape[0] as i32;
        let with = |at: usize, index: i32| {
            let mut c = conn.clone();
            c[at] = index;
            SharedArray::from(c)
        };
        refused("nc", vec![0.0f64; 3 * n_nodes as usize + 1].into(), "a third of a point");
        refused("conn", conn[..conn.len() - 1].to_vec().into(), "three corners of a tet");
        refused("conn", with(0, -1), "negative node index");
        refused("conn", with(5, n_nodes), "node index one past the mesh");
        refused("conn", with(conn.len() - 1, i32::MAX), "node index far past the mesh");
        // Fewer nodes than the connectivity names.
        refused("nc", vec![0.0f64; 3].into(), "one node for a mesh of many");
    }

    #[test]
    fn window_to_blocks_covers_all_panes() {
        let mut w = fluid_window();
        w.register_pane(
            BlockId(9),
            PaneMesh::Structured {
                dims: [1, 1, 1],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let blocks = window_to_blocks(&w, &AttrRef::All).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].id, BlockId(4));
        assert_eq!(blocks[1].id, BlockId(9));
    }

    #[test]
    fn corrupt_blocks_rejected() {
        let w = fluid_window();
        let mut block = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        block.attrs.remove("mesh_kind");
        assert!(mesh_from_block(&block).is_err());
        let mut b2 = pane_to_block(&w, w.pane(BlockId(4)).unwrap(), &AttrRef::All).unwrap();
        b2.attrs.insert("mesh_kind".into(), "hexdominant".into());
        assert!(mesh_from_block(&b2).is_err());
    }
}
