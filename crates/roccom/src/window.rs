//! Windows, panes, and attribute registration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use rocio_core::{ArrayData, BlockId, Bytes, DType, Result, RocError};
use rocmesh::{StructuredBlock, UnstructuredBlock};

/// Where an attribute's values live on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// One value (per component) per mesh node.
    Node,
    /// One value (per component) per element/cell.
    Element,
    /// One value (per component) per pane (scalars like burn time).
    Pane,
}

/// Declaration of one window attribute: name, mesh location, element type
/// and number of components (1 = scalar, 3 = vector, 6 = symmetric
/// tensor…).
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSpec {
    pub name: String,
    pub location: Location,
    pub dtype: DType,
    pub ncomp: usize,
}

impl AttrSpec {
    /// Scalar node field of `dtype`.
    pub fn node(name: impl Into<String>, dtype: DType, ncomp: usize) -> Self {
        AttrSpec {
            name: name.into(),
            location: Location::Node,
            dtype,
            ncomp,
        }
    }

    /// Element/cell field.
    pub fn element(name: impl Into<String>, dtype: DType, ncomp: usize) -> Self {
        AttrSpec {
            name: name.into(),
            location: Location::Element,
            dtype,
            ncomp,
        }
    }

    /// Pane-level field.
    pub fn pane(name: impl Into<String>, dtype: DType, ncomp: usize) -> Self {
        AttrSpec {
            name: name.into(),
            location: Location::Pane,
            dtype,
            ncomp,
        }
    }
}

/// The mesh geometry of one pane.
#[derive(Debug, Clone, PartialEq)]
pub enum PaneMesh {
    /// Logically Cartesian block: geometry is implicit in dims + origin +
    /// spacing (no stored coordinates).
    Structured {
        dims: [usize; 3],
        origin: [f64; 3],
        spacing: [f64; 3],
    },
    /// Explicit coordinates + tetrahedral connectivity.
    Unstructured { coords: Vec<f64>, conn: Vec<i32> },
}

impl PaneMesh {
    /// Number of mesh nodes.
    pub fn n_nodes(&self) -> usize {
        match self {
            PaneMesh::Structured { dims, .. } => (dims[0] + 1) * (dims[1] + 1) * (dims[2] + 1),
            PaneMesh::Unstructured { coords, .. } => coords.len() / 3,
        }
    }

    /// Number of elements (cells or tets).
    pub fn n_elems(&self) -> usize {
        match self {
            PaneMesh::Structured { dims, .. } => dims[0] * dims[1] * dims[2],
            PaneMesh::Unstructured { conn, .. } => conn.len() / 4,
        }
    }

    /// Build from a structured mesh block.
    pub fn from_structured(b: &StructuredBlock) -> Self {
        PaneMesh::Structured {
            dims: [b.ni, b.nj, b.nk],
            origin: b.origin,
            spacing: b.spacing,
        }
    }

    /// Hold a mesh that came from outside the program (a file, a message)
    /// to what every later size computation assumes: structured node and
    /// cell counts that fit a `usize`; whole unstructured points and
    /// tetrahedra whose corners are nodes of the mesh.
    pub fn validate(&self) -> Result<()> {
        match self {
            PaneMesh::Structured { dims, .. } => {
                let n_nodes =
                    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d.checked_add(1)?));
                if n_nodes.is_none() {
                    return Err(RocError::Corrupt(format!(
                        "structured mesh {dims:?} has more nodes than can be counted"
                    )));
                }
            }
            PaneMesh::Unstructured { coords, conn } => {
                let n_nodes = coords.len() / 3;
                let in_mesh = |&c: &i32| usize::try_from(c).is_ok_and(|c| c < n_nodes);
                if coords.len() % 3 != 0 || conn.len() % 4 != 0 || !conn.iter().all(in_mesh) {
                    return Err(RocError::Corrupt(format!(
                        "unstructured mesh of {} coordinates and {} connectivity entries is \
                         not whole points and tetrahedra over its own nodes",
                        coords.len(),
                        conn.len()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The mesh block's own arrays become the pane's: nothing is copied.
impl From<UnstructuredBlock> for PaneMesh {
    fn from(b: UnstructuredBlock) -> Self {
        PaneMesh::Unstructured { coords: b.coords, conn: b.conn }
    }
}

/// The little-endian image of a pane's mesh datasets — `nc`, and `conn` on
/// an unstructured pane — each built with exact capacity the first time an
/// encoder asks for it (`crate::convert`), then shared by refcount with
/// every block, message and file extent that carries the mesh again.
///
/// A clone shares the image, for it describes the same mesh; equality
/// ignores it, for it is the mesh's encoding, not state of its own. The
/// one code that changes a mesh ([`Pane::move_nodes`]) drops what it
/// invalidates.
#[derive(Clone, Default)]
pub(crate) struct MeshImage {
    pub(crate) nc: HeldImage,
    pub(crate) conn: HeldImage,
}

/// One mesh dataset's image: its bytes, and the checksum the encoder keeps
/// beside them (`Payload::held_crc`). Both go together.
#[derive(Clone, Default)]
pub(crate) struct HeldImage {
    pub(crate) bytes: OnceLock<Bytes>,
    pub(crate) crc: OnceLock<u32>,
}

impl PartialEq for MeshImage {
    fn eq(&self, _: &MeshImage) -> bool {
        true
    }
}

/// Which of the two images are built, and how long each is.
impl fmt::Debug for MeshImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeshImage")
            .field("nc", &self.nc.bytes.get().map(Bytes::len))
            .field("conn", &self.conn.bytes.get().map(Bytes::len))
            .finish()
    }
}

/// One pane: a mesh block plus the buffers of every registered attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Pane {
    pub id: BlockId,
    /// Private, so that nothing changes the mesh behind its image's back.
    mesh: PaneMesh,
    image: MeshImage,
    /// The declarations the buffers follow: its window's schema, by
    /// refcount, so a pane built holds no name of its own.
    schema: Arc<Vec<AttrSpec>>,
    /// One buffer per declared attribute, in schema order (length =
    /// location count × ncomp).
    data: Vec<ArrayData>,
}

impl Pane {
    /// The pane's mesh.
    pub fn mesh(&self) -> &PaneMesh {
        &self.mesh
    }

    /// The image of the mesh's datasets, as far as an encoder has built it.
    pub(crate) fn mesh_image(&self) -> &MeshImage {
        &self.image
    }

    /// Move an unstructured pane's nodes to `coords` (ALE: a restart or an
    /// exchange brings them), as many as it has; the image of the old
    /// coordinates is dropped with its checksum, and the connectivity's is
    /// kept.
    pub(crate) fn move_nodes(&mut self, coords: Vec<f64>) -> Result<()> {
        let id = self.id;
        let PaneMesh::Unstructured { coords: held, .. } = &mut self.mesh else {
            return Err(RocError::Mismatch(format!(
                "block {id}: a structured pane's nodes do not move"
            )));
        };
        if held.len() != coords.len() {
            return Err(RocError::Mismatch(format!(
                "block {id}: coords length changed ({} -> {})",
                held.len(),
                coords.len()
            )));
        }
        *held = coords;
        self.image.nc = HeldImage::default();
        Ok(())
    }

    /// Where attribute `attr`'s buffer is held.
    fn slot(&self, attr: &str) -> Result<usize> {
        let id = self.id;
        self.schema
            .iter()
            .position(|spec| spec.name == attr)
            .ok_or_else(|| RocError::NotFound(format!("attribute '{attr}' on pane {id}")))
    }

    /// Buffer of one attribute.
    pub fn data(&self, attr: &str) -> Result<&ArrayData> {
        Ok(&self.data[self.slot(attr)?])
    }

    /// Mutable buffer of one attribute.
    pub fn data_mut(&mut self, attr: &str) -> Result<&mut ArrayData> {
        self.split_mut([attr]).map(|(_, [buf])| buf)
    }

    /// The pane's mesh beside the buffers of `attrs`, all mutable at once
    /// and in the order named — what a kernel that reads some fields and
    /// writes others holds, so it need not copy one out to get round the
    /// borrow of the pane. A name the schema does not declare is
    /// `NotFound`; one named twice is `Mismatch`.
    pub fn split_mut<const N: usize>(
        &mut self,
        attrs: [&str; N],
    ) -> Result<(&PaneMesh, [&mut ArrayData; N])> {
        let mut slots = [0; N];
        for (slot, attr) in slots.iter_mut().zip(attrs) {
            *slot = self.slot(attr)?;
        }
        let id = self.id;
        let bufs = self.data.get_disjoint_mut(slots).map_err(|_| {
            let twice = (0..N).find(|&i| slots[..i].contains(&slots[i]));
            let twice = twice.map_or("", |i| attrs[i]);
            RocError::Mismatch(format!("attribute '{twice}' named twice on pane {id}"))
        })?;
        Ok((&self.mesh, bufs))
    }

    /// Replace an attribute buffer (used by restart). Length and dtype
    /// must match the existing buffer.
    pub fn set_data(&mut self, attr: &str, value: ArrayData) -> Result<()> {
        let cur = self.data_mut(attr)?;
        if cur.dtype() != value.dtype() || cur.len() != value.len() {
            return Err(RocError::Mismatch(format!(
                "attribute '{attr}': cannot replace {}x{} with {}x{}",
                cur.dtype().name(),
                cur.len(),
                value.dtype().name(),
                value.len()
            )));
        }
        *cur = value;
        Ok(())
    }
}

/// A window: a uniform schema of attributes over a set of panes.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    name: String,
    /// Shared with every pane, which holds its buffers in this order.
    schema: Arc<Vec<AttrSpec>>,
    panes: BTreeMap<BlockId, Pane>,
    /// Panes this process owns and does not hold yet: a restart names
    /// them, and the read builds each from its block.
    reserved: BTreeSet<BlockId>,
}

impl Window {
    /// Create an empty window.
    pub fn new(name: impl Into<String>) -> Self {
        Window {
            name: name.into(),
            schema: Arc::default(),
            panes: BTreeMap::new(),
            reserved: BTreeSet::new(),
        }
    }

    /// The window's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared attribute schema, in declaration order.
    pub fn schema(&self) -> &[AttrSpec] {
        &self.schema
    }

    /// Look up one attribute's declaration.
    pub(crate) fn attr_spec(&self, name: &str) -> Result<&AttrSpec> {
        self.schema
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| {
                RocError::NotFound(format!("attribute '{name}' in window '{}'", self.name))
            })
    }

    /// Declare a new attribute. Existing panes get zero-filled buffers —
    /// modules may declare attributes in any order relative to pane
    /// registration, which is what lets independently developed modules
    /// extend each other's windows.
    ///
    /// `nc` and `conn` are refused: they name the mesh datasets a pane's
    /// block carries beside its attributes (`crate::convert`), and a block
    /// holds each name once. So is a name a record header cannot hold
    /// behind the longest group prefix a block's datasets carry.
    pub fn declare_attr(&mut self, spec: AttrSpec) -> Result<()> {
        if spec.ncomp == 0 {
            return Err(RocError::Config(format!(
                "attribute '{}' must have >=1 component",
                spec.name
            )));
        }
        if spec.name.len() > MAX_ATTR_NAME {
            return Err(RocError::Config(format!(
                "an attribute name of {} bytes in window '{}': at most {MAX_ATTR_NAME}",
                spec.name.len(),
                self.name
            )));
        }
        if MESH_DATASETS.contains(&spec.name.as_str()) {
            return Err(RocError::Config(format!(
                "attribute '{}' in window '{}': the name of a mesh dataset",
                spec.name, self.name
            )));
        }
        if self.schema.iter().any(|s| s.name == spec.name) {
            return Err(RocError::AlreadyExists(format!(
                "attribute '{}' in window '{}'",
                spec.name, self.name
            )));
        }
        for pane in self.panes.values() {
            buffer_len(&spec, &pane.mesh)?;
        }
        let (dtype, location, ncomp) = (spec.dtype, spec.location, spec.ncomp);
        Arc::make_mut(&mut self.schema).push(spec);
        for pane in self.panes.values_mut() {
            let n = location_count(location, &pane.mesh) * ncomp;
            pane.data.push(ArrayData::zeros(dtype, n));
            pane.schema = Arc::clone(&self.schema);
        }
        Ok(())
    }

    /// Register a pane with its mesh; buffers for all declared attributes
    /// are allocated zero-filled.
    pub fn register_pane(&mut self, id: BlockId, mesh: PaneMesh) -> Result<()> {
        self.build_pane(id, mesh, |_| Ok(None))
    }

    /// Register a pane whose buffers are known as it is built: `buffer`
    /// gives each declared attribute's values, or `None` for zeros. Each
    /// buffer is allocated once, at the dtype and length the schema and
    /// the mesh call for — anything else is a [`RocError::Mismatch`].
    pub(crate) fn build_pane(
        &mut self,
        id: BlockId,
        mesh: PaneMesh,
        mut buffer: impl FnMut(&AttrSpec) -> Result<Option<ArrayData>>,
    ) -> Result<()> {
        if self.panes.contains_key(&id) {
            return Err(RocError::AlreadyExists(format!(
                "pane {id} in window '{}'",
                self.name
            )));
        }
        let mut data = Vec::with_capacity(self.schema.len());
        for spec in self.schema.iter() {
            let n = buffer_len(spec, &mesh)?;
            let buf = match buffer(spec)? {
                None => ArrayData::zeros(spec.dtype, n),
                Some(buf) if buf.dtype() == spec.dtype && buf.len() == n => buf,
                Some(buf) => {
                    return Err(RocError::Mismatch(format!(
                        "pane {id}: attribute '{}' is {}x{}, its declaration and mesh call for {}x{n}",
                        spec.name,
                        buf.dtype().name(),
                        buf.len(),
                        spec.dtype.name(),
                    )))
                }
            };
            data.push(buf);
        }
        self.reserved.remove(&id);
        let schema = Arc::clone(&self.schema);
        self.panes.insert(id, Pane { id, mesh, image: MeshImage::default(), schema, data });
        Ok(())
    }

    /// Name a pane this process owns before it holds it: the id joins
    /// [`Window::pane_ids`] — what a restart read asks the snapshot for —
    /// and the read builds the pane from its block
    /// ([`crate::convert::apply_block`]), so nothing is generated only to
    /// be overwritten.
    pub fn reserve_pane(&mut self, id: BlockId) -> Result<()> {
        if self.panes.contains_key(&id) || !self.reserved.insert(id) {
            return Err(RocError::AlreadyExists(format!(
                "pane {id} in window '{}'",
                self.name
            )));
        }
        Ok(())
    }

    /// Delete a pane (block migrated away or fully burned).
    pub fn remove_pane(&mut self, id: BlockId) -> Result<Pane> {
        self.panes
            .remove(&id)
            .ok_or_else(|| RocError::NotFound(format!("pane {id} in window '{}'", self.name)))
    }

    /// Ids of all local panes, ascending: those held and those reserved.
    pub fn pane_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.panes.keys().chain(&self.reserved).copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of local panes.
    pub fn n_panes(&self) -> usize {
        self.panes.len()
    }

    /// Borrow a pane.
    pub fn pane(&self, id: BlockId) -> Result<&Pane> {
        self.panes
            .get(&id)
            .ok_or_else(|| RocError::NotFound(format!("pane {id} in window '{}'", self.name)))
    }

    /// Borrow a pane mutably.
    pub fn pane_mut(&mut self, id: BlockId) -> Result<&mut Pane> {
        self.schema_and_pane_mut(id).map(|(_, pane)| pane)
    }

    /// The schema beside one pane, mutably — what installing a block's
    /// buffers holds at once — so the caller need not copy the schema to
    /// get round the borrow of the window.
    pub(crate) fn schema_and_pane_mut(&mut self, id: BlockId) -> Result<(&[AttrSpec], &mut Pane)> {
        let Window { name, schema, panes, .. } = self;
        let pane = panes
            .get_mut(&id)
            .ok_or_else(|| RocError::NotFound(format!("pane {id} in window '{name}'")))?;
        Ok((schema, pane))
    }

    /// A pane the window holds, if it holds it.
    pub(crate) fn held(&self, id: BlockId) -> Option<&Pane> {
        self.panes.get(&id)
    }

    /// Iterate panes in id order.
    pub fn panes(&self) -> impl Iterator<Item = &Pane> {
        self.panes.values()
    }

    /// Iterate panes mutably in id order.
    pub fn panes_mut(&mut self) -> impl Iterator<Item = &mut Pane> {
        self.panes.values_mut()
    }
}

/// The dataset names a pane's mesh takes in its block: node coordinates,
/// tetrahedral connectivity.
const MESH_DATASETS: [&str; 2] = ["nc", "conn"];

/// The longest attribute name a file record can carry: a record's name is
/// `u16`-length-prefixed, and a block's group prefix (`blk`, up to 20
/// digits, `/`) takes up to 24 bytes of it.
const MAX_ATTR_NAME: usize = u16::MAX as usize - 24;

/// How many places an attribute at `location` has on a mesh.
fn location_count(location: Location, mesh: &PaneMesh) -> usize {
    match location {
        Location::Node => mesh.n_nodes(),
        Location::Element => mesh.n_elems(),
        Location::Pane => 1,
    }
}

/// Buffer length for an attribute on a mesh, or [`RocError::Corrupt`] for
/// a buffer whose bytes no allocation could hold.
fn buffer_len(spec: &AttrSpec, mesh: &PaneMesh) -> Result<usize> {
    let count = location_count(spec.location, mesh);
    count
        .checked_mul(spec.ncomp)
        .filter(|n| n.checked_mul(spec.dtype.size()).is_some_and(|b| b <= isize::MAX as usize))
        .ok_or_else(|| {
            RocError::Corrupt(format!(
                "attribute '{}' on a mesh of {count} locations is too large to allocate",
                spec.name
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::DType;

    fn small_mesh() -> PaneMesh {
        PaneMesh::Structured {
            dims: [2, 2, 2],
            origin: [0.0; 3],
            spacing: [1.0; 3],
        }
    }

    #[test]
    fn declare_then_register_allocates_buffers() {
        let mut w = Window::new("fluid");
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        w.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        let p = w.pane(BlockId(1)).unwrap();
        assert_eq!(p.data("pressure").unwrap().len(), 8);
        assert_eq!(p.data("velocity").unwrap().len(), 27 * 3);
    }

    #[test]
    fn split_mut_lends_several_buffers_of_one_pane_at_once() {
        let mut w = Window::new("solid");
        w.declare_attr(AttrSpec::node("disp", DType::F64, 3)).unwrap();
        w.declare_attr(AttrSpec::node("vel", DType::F64, 3)).unwrap();
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        let pane = w.pane_mut(BlockId(1)).unwrap();
        pane.data_mut("vel").unwrap().as_f64_mut().unwrap().fill(2.0);
        let (mesh, [disp, vel]) = pane.split_mut(["disp", "vel"]).unwrap();
        assert_eq!(disp.len(), mesh.n_nodes() * 3);
        for (x, &v) in disp.as_f64_mut().unwrap().iter_mut().zip(vel.as_f64().unwrap()) {
            *x += 0.5 * v;
        }
        assert!(pane.data("disp").unwrap().as_f64().unwrap().iter().all(|&x| x == 1.0));
        for names in [["disp", "ghost"], ["ghost", "vel"]] {
            assert!(matches!(pane.split_mut(names), Err(RocError::NotFound(_))));
        }
        let twice = pane.split_mut(["vel", "disp", "disp"]);
        assert!(matches!(&twice, Err(RocError::Mismatch(m)) if m.contains("'disp'")), "{twice:?}");
    }

    #[test]
    fn register_then_declare_backfills() {
        let mut w = Window::new("fluid");
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        w.declare_attr(AttrSpec::element("temp", DType::F32, 1)).unwrap();
        assert_eq!(w.pane(BlockId(1)).unwrap().data("temp").unwrap().len(), 8);
    }

    #[test]
    fn a_name_no_record_header_can_hold_is_refused() {
        let mut w = Window::new("w");
        let named = |len: usize| AttrSpec::pane("n".repeat(len), DType::F64, 1);
        let got = w.declare_attr(named(MAX_ATTR_NAME + 1));
        assert!(matches!(got, Err(RocError::Config(_))), "{got:?}");
        w.declare_attr(named(MAX_ATTR_NAME)).unwrap();
        // The longest name there is, behind the widest prefix: a record
        // holds it.
        w.register_pane(BlockId(u64::MAX), small_mesh()).unwrap();
        let pane = w.pane(BlockId(u64::MAX)).unwrap();
        let layout = crate::convert::plan(&w, pane, &crate::AttrRef::All).unwrap();
        let records = rocsdf::encode_block(&[], &layout);
        let n = 1 + rocio_core::BlockDesc::n_datasets(&layout);
        let view = rocsdf::BlockView::decode(&mut records.cursor(), n).unwrap();
        let block = view.to_block().unwrap();
        assert_eq!(block.datasets.last().unwrap().name, "n".repeat(MAX_ATTR_NAME));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let mut w = Window::new("w");
        w.declare_attr(AttrSpec::pane("t", DType::F64, 1)).unwrap();
        assert!(matches!(
            w.declare_attr(AttrSpec::pane("t", DType::F64, 1)),
            Err(RocError::AlreadyExists(_))
        ));
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        assert!(matches!(
            w.register_pane(BlockId(1), small_mesh()),
            Err(RocError::AlreadyExists(_))
        ));
    }

    #[test]
    fn a_reserved_pane_is_owned_before_it_is_held() {
        let mut w = Window::new("w");
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.register_pane(BlockId(2), small_mesh()).unwrap();
        w.reserve_pane(BlockId(3)).unwrap();
        w.reserve_pane(BlockId(1)).unwrap();
        for taken in [1, 2, 3] {
            assert!(matches!(w.reserve_pane(BlockId(taken)), Err(RocError::AlreadyExists(_))));
        }
        // Owned: in the id list a restart read asks for. Not held: nothing
        // to borrow, write or count.
        assert_eq!(w.pane_ids(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(w.n_panes(), 1);
        assert!(matches!(w.pane(BlockId(1)), Err(RocError::NotFound(_))));
        // Registering the pane spends the reservation.
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        w.remove_pane(BlockId(2)).unwrap();
        w.register_pane(BlockId(3), small_mesh()).unwrap();
        assert_eq!(w.pane_ids(), vec![BlockId(1), BlockId(3)]);
        assert_eq!(w.n_panes(), 2);
        let mut plain = Window::new("w");
        plain.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        plain.register_pane(BlockId(1), small_mesh()).unwrap();
        plain.register_pane(BlockId(3), small_mesh()).unwrap();
        assert_eq!(w, plain);
    }

    /// A block holds its pane's mesh as `nc` (and `conn`) beside the
    /// attributes; an attribute of either name used to be declared, and
    /// every snapshot of the window then failed on the duplicate.
    #[test]
    fn mesh_dataset_names_are_refused_as_attributes() {
        let mut w = Window::new("w");
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        for name in ["nc", "conn"] {
            let declared = w.declare_attr(AttrSpec::node(name, DType::F64, 3));
            assert!(
                matches!(declared, Err(RocError::Config(_))),
                "{name}: {declared:?}"
            );
        }
        assert!(w.schema().is_empty());
        assert!(w.pane(BlockId(1)).unwrap().data("nc").is_err());
        w.declare_attr(AttrSpec::node("nc_old", DType::F64, 3))
            .unwrap();
    }

    #[test]
    fn zero_component_attr_rejected() {
        let mut w = Window::new("w");
        assert!(matches!(
            w.declare_attr(AttrSpec::node("bad", DType::F64, 0)),
            Err(RocError::Config(_))
        ));
    }

    #[test]
    fn pane_location_gives_singleton_buffer() {
        let mut w = Window::new("w");
        w.declare_attr(AttrSpec::pane("burn_rate", DType::F64, 2)).unwrap();
        w.register_pane(BlockId(3), small_mesh()).unwrap();
        assert_eq!(w.pane(BlockId(3)).unwrap().data("burn_rate").unwrap().len(), 2);
    }

    #[test]
    fn panes_may_differ_in_size_not_schema() {
        let mut w = Window::new("w");
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        w.register_pane(
            BlockId(2),
            PaneMesh::Structured {
                dims: [4, 4, 4],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        assert_eq!(w.pane(BlockId(1)).unwrap().data("p").unwrap().len(), 8);
        assert_eq!(w.pane(BlockId(2)).unwrap().data("p").unwrap().len(), 64);
        assert_eq!(w.pane_ids(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn set_data_validates_shape_and_dtype() {
        let mut w = Window::new("w");
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.register_pane(BlockId(1), small_mesh()).unwrap();
        let pane = w.pane_mut(BlockId(1)).unwrap();
        pane.set_data("p", ArrayData::F64(vec![1.0; 8])).unwrap();
        assert!(pane.set_data("p", ArrayData::F64(vec![1.0; 7])).is_err());
        assert!(pane.set_data("p", ArrayData::F32(vec![1.0; 8])).is_err());
        assert!(pane.set_data("q", ArrayData::F64(vec![1.0; 8])).is_err());
    }

    #[test]
    fn unstructured_mesh_counts() {
        let b = rocmesh::UnstructuredBlock::tet_box(BlockId(9), [2, 1, 1], [0.0; 3], [1.0; 3]);
        let mesh = PaneMesh::from(b.clone());
        assert_eq!(mesh.n_nodes(), b.n_nodes());
        assert_eq!(mesh.n_elems(), b.n_elems());
    }
}
