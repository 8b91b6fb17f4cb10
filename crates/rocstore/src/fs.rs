//! The shared file system: real bytes, modelled time.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rocio_core::lockdep::Mutex;
use rocio_core::{
    Result, RocError, Rope, Segment, ServiceError, ServiceErrorKind, SimTime, TenantId,
};

use crate::model::DiskModel;

/// Opaque value stored in the metadata cache (see
/// [`SharedFs::cache_put`]); callers downcast to their own type.
pub type CacheValue = Arc<dyn Any + Send + Sync>;

/// One client's opens: path -> the file generation it opened.
type ClientOpens = HashMap<Arc<str>, u64>;

/// Aggregate statistics of a file system instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FsStats {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub write_ops: u64,
    pub read_ops: u64,
    pub files_created: u64,
}

struct StoredFile {
    /// The file's bytes: the rope of its extents. Writers add extents (a
    /// handle adopted from the caller, or one staged copy per call), so a
    /// byte is copied at most once on its way in; reads hand out windows
    /// of the extents as they lie. Extents are immutable: mutation replaces
    /// handles, never bytes, so a window taken earlier pins its allocation
    /// and keeps reading what it read before.
    data: Rope,
    /// Where each of `data`'s extents starts ([`Rope::starts`]), and the
    /// generation that is: built by the first read of each generation.
    starts: (u64, Vec<usize>),
    /// Monotone id drawn from the store's counter on every mutation;
    /// validates metadata-cache entries. Never reused, so delete +
    /// recreate cannot alias an old entry.
    generation: u64,
    /// The tenant this file's bytes are charged to (resolved from the
    /// ledger's prefix bindings when the file was created).
    tenant: TenantId,
    /// Bytes currently charged against `tenant` for this file. Mirrors
    /// `data.len()` exactly (appends/extensions charge, delete/truncate
    /// release), so the ledger's totals are O(1)-consistent with the map.
    charged: u64,
}

impl StoredFile {
    /// The image and where its extents start.
    fn extents(&mut self) -> (&Rope, &[usize]) {
        if self.starts.0 != self.generation {
            self.starts = (self.generation, self.data.starts());
        }
        (&self.data, &self.starts.1)
    }

    /// Charge `bytes` more of this file to its tenant, or refuse them.
    fn grow(&mut self, ledger: &mut Ledger, bytes: u64) -> Result<()> {
        ledger.charge(self.tenant, bytes)?;
        self.charged += bytes;
        Ok(())
    }
}

/// One tenant's quota account.
#[derive(Debug, Clone, Copy)]
struct TenantAccount {
    /// Byte ceiling; `u64::MAX` = unlimited.
    limit: u64,
    /// Bytes currently charged.
    used: u64,
}

impl Default for TenantAccount {
    fn default() -> Self {
        TenantAccount { limit: u64::MAX, used: 0 }
    }
}

/// The per-tenant quota ledger. It lives in the [`Store`] with the file
/// map, so a quota check and the mutation it admits are one critical
/// section: no other writer's charge can land between them.
#[derive(Default)]
struct Ledger {
    /// `(path-prefix, tenant)` namespace bindings; the longest matching
    /// prefix wins, unmatched paths belong to [`TenantId::SOLO`].
    bindings: Vec<(String, TenantId)>,
    accounts: HashMap<TenantId, TenantAccount>,
    /// Legacy aggregate cap installed by [`SharedFs::set_quota`];
    /// `u64::MAX` = unlimited. Applies across all tenants.
    aggregate_limit: u64,
    /// Sum of all accounts' `used` (kept denormalized for O(1) stat).
    total_used: u64,
}

impl Ledger {
    /// Which tenant owns `path` under the current bindings.
    fn tenant_of(&self, path: &str) -> TenantId {
        self.bindings
            .iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|&(_, t)| t)
            .unwrap_or(TenantId::SOLO)
    }

    /// Check both the tenant's own ceiling and the aggregate cap, then
    /// charge. Returns a structured quota error without mutating on
    /// rejection.
    fn charge(&mut self, tenant: TenantId, bytes: u64) -> Result<()> {
        let acct = self.accounts.entry(tenant).or_default();
        if acct.limit != u64::MAX && acct.used + bytes > acct.limit {
            return Err(ServiceError::err(
                tenant,
                ServiceErrorKind::QuotaExceeded {
                    limit: acct.limit,
                    used: acct.used,
                    requested: bytes,
                },
            ));
        }
        if self.aggregate_limit != u64::MAX && self.total_used + bytes > self.aggregate_limit {
            // The *store* is full, not the tenant's account: no tenant
            // attribution (blame would land on whichever tenant happened
            // to write last), plain storage error like a real full disk.
            return Err(RocError::Storage(format!(
                "disk full: {} bytes used of {}, {bytes} requested",
                self.total_used, self.aggregate_limit
            )));
        }
        acct.used += bytes;
        self.total_used += bytes;
        Ok(())
    }

    fn release(&mut self, tenant: TenantId, bytes: u64) {
        if let Some(acct) = self.accounts.get_mut(&tenant) {
            acct.used = acct.used.saturating_sub(bytes);
        }
        self.total_used = self.total_used.saturating_sub(bytes);
    }
}

/// Everything a [`SharedFs`] holds between calls, behind its one lock.
struct Store {
    /// Path -> file. A path is held once, by refcount: a listing hands out
    /// the table's own names ([`SharedFs::names`]).
    files: HashMap<Arc<str>, StoredFile>,
    /// Per-tenant quota ledger (plus the legacy aggregate cap): disk-full
    /// injection, per tenant.
    ledger: Ledger,
    stats: FsStats,
    /// path -> (generation, value): the parsed metadata (e.g. a decoded
    /// SDF index) of one generation of each path, shared by every client;
    /// see [`SharedFs::cache_put`]. Keyed by the file table's own names
    /// and looked up by `&str`.
    meta_memo: HashMap<Arc<str>, (u64, CacheValue)>,
    /// client -> path -> generation: which generation each client has
    /// opened, so a hit depends on the client's own history alone.
    meta_opens: HashMap<u64, ClientOpens>,
    /// The next file generation; taken by every mutation of any file.
    next_generation: u64,
}

impl Store {
    /// Apply `change` (which may charge the ledger) to `path`'s file and
    /// give the file a fresh generation; a refused change leaves both as
    /// they were.
    fn mutate(
        &mut self,
        op: &str,
        path: &str,
        change: impl FnOnce(&mut StoredFile, &mut Ledger) -> Result<()>,
    ) -> Result<()> {
        let file = self
            .files
            .get_mut(path)
            .ok_or_else(|| RocError::Storage(format!("{op}: no such file '{path}'")))?;
        change(file, &mut self.ledger)?;
        file.generation = self.next_generation;
        self.next_generation += 1;
        Ok(())
    }
}

/// A shared parallel file system with `n` storage servers.
///
/// Every op is served **processor-sharing** style by one server, among as
/// many sharers as the I/O layer declared ([`SharedFs::declare_writers`],
/// [`SharedFs::declare_readers`]) spread evenly over the servers: with `w`
/// concurrent writers per server, each write's service time is
/// `(seek + bytes/bw) · w · thrash(w)`, so the server's aggregate
/// bandwidth is bounded by `bw / thrash(w)` while the result stays
/// independent of operation arrival order — essential for deterministic
/// virtual times when the host serializes rank threads arbitrarily. Reads
/// are served concurrently (client-side caching, read-ahead) under a
/// milder direct contention curve.
///
/// All timing is virtual: operations take and return [`SimTime`]s and never
/// sleep. All contents are real: bytes written are the bytes read back.
/// No charge depends on the `client` a data method is given; only the
/// metadata cache is keyed by client.
pub struct SharedFs {
    model: DiskModel,
    n_servers: usize,
    store: Mutex<Store>,
    /// Caller-declared concurrent-writer count across all servers (see
    /// [`SharedFs::declare_writers`]).
    write_hint: AtomicUsize,
    /// Caller-declared concurrent-reader count.
    read_hint: AtomicUsize,
}

impl SharedFs {
    /// A file system with `n_servers` servers of the given model.
    pub fn new(model: DiskModel, n_servers: usize) -> Self {
        assert!(n_servers >= 1, "need at least one storage server");
        let store = Store {
            files: HashMap::new(),
            ledger: Ledger { aggregate_limit: u64::MAX, ..Ledger::default() },
            stats: FsStats::default(),
            meta_memo: HashMap::new(),
            meta_opens: HashMap::new(),
            next_generation: 0,
        };
        SharedFs {
            model,
            n_servers,
            store: Mutex::new("rocstore.store", store),
            write_hint: AtomicUsize::new(0),
            read_hint: AtomicUsize::new(0),
        }
    }

    /// Impose an aggregate capacity limit in bytes across all tenants
    /// (disk-full injection). Existing contents count against it.
    /// Per-tenant ceilings are set with [`SharedFs::set_tenant_quota`].
    pub fn set_quota(&self, bytes: usize) {
        self.store.lock().ledger.aggregate_limit = bytes as u64;
    }

    /// Set one tenant's byte ceiling (`u64::MAX` = unlimited). Charges
    /// already on the books stay; only future writes are checked against
    /// the new limit.
    pub fn set_tenant_quota(&self, tenant: TenantId, bytes: u64) {
        self.store.lock().ledger.accounts.entry(tenant).or_default().limit = bytes;
    }

    /// Bind a path prefix to a tenant: files created under the prefix are
    /// charged to that tenant's ledger account. The longest matching
    /// prefix wins; unmatched paths belong to [`TenantId::SOLO`].
    pub fn bind_tenant(&self, prefix: &str, tenant: TenantId) {
        let mut store = self.store.lock();
        store.ledger.bindings.retain(|(p, _)| p != prefix);
        store.ledger.bindings.push((prefix.to_string(), tenant));
    }

    /// Total bytes currently stored (O(1): the ledger's running total).
    pub fn used_bytes(&self) -> usize {
        self.store.lock().ledger.total_used as usize
    }

    /// Bytes currently charged to one tenant.
    pub fn tenant_used(&self, tenant: TenantId) -> u64 {
        self.store.lock().ledger.accounts.get(&tenant).map(|a| a.used).unwrap_or(0)
    }

    /// Which tenant a path would be charged to under current bindings.
    pub fn tenant_of(&self, path: &str) -> TenantId {
        self.store.lock().ledger.tenant_of(path)
    }

    /// Declare how many clients are writing concurrently (in virtual
    /// time). Collective I/O layers know their own parallelism, so they
    /// declare it before they write; until then, and for a count of 0, a
    /// write is charged as if it had the servers to itself.
    pub fn declare_writers(&self, n: usize) {
        self.write_hint.store(n, Ordering::Relaxed);
    }

    /// Declare how many clients are reading concurrently; see
    /// [`SharedFs::declare_writers`].
    pub fn declare_readers(&self, n: usize) {
        self.read_hint.store(n, Ordering::Relaxed);
    }

    /// Turing's shared file system: NFS through a single server.
    pub fn turing() -> Self {
        SharedFs::new(DiskModel::nfs_turing(), 1)
    }

    /// Frost's GPFS: two server nodes.
    pub fn frost() -> Self {
        SharedFs::new(DiskModel::gpfs_frost(), 2)
    }

    /// An effectively free file system for semantics-only tests.
    pub fn ideal() -> Self {
        SharedFs::new(DiskModel::ideal(), 1)
    }

    /// The disk model in use.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Number of storage servers.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// One server's share of a declared count: at least the op itself.
    fn sharers(&self, hint: &AtomicUsize) -> usize {
        hint.load(Ordering::Relaxed).div_ceil(self.n_servers).max(1)
    }

    /// The virtual completion time of a write of `bytes` to `path` that
    /// starts at `now` (processor sharing — see the type docs).
    fn charge_write(&self, path: &str, bytes: usize, now: SimTime) -> SimTime {
        let active = self.sharers(&self.write_hint);
        let end = now + self.model.write_time(bytes, active);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::DiskWrite,
                "disk_write",
                now,
                end,
                &format!("path={path} bytes={bytes} active={active}"),
            );
        }
        end
    }

    /// The virtual completion time of a read of `bytes` from `path` that
    /// starts at `now`.
    fn charge_read(&self, path: &str, bytes: usize, now: SimTime) -> SimTime {
        let active = self.sharers(&self.read_hint);
        let end = now + self.model.read_time(bytes, active);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::DiskRead,
                "disk_read",
                now,
                end,
                &format!("path={path} bytes={bytes} active={active}"),
            );
        }
        end
    }

    /// Create (or truncate) a file. Returns the virtual completion time.
    pub fn create(&self, path: &str, _client: u64, now: SimTime) -> SimTime {
        {
            let mut store = self.store.lock();
            let tenant = store.ledger.tenant_of(path);
            let generation = store.next_generation;
            store.next_generation += 1;
            let file = StoredFile {
                data: Rope::new(),
                starts: (generation, Vec::new()),
                generation,
                tenant,
                charged: 0,
            };
            if let Some(old) = store.files.insert(Arc::from(path), file) {
                // Truncation releases the previous image's charge.
                store.ledger.release(old.tenant, old.charged);
            }
            store.stats.files_created += 1;
        }
        self.charge_write(path, 0, now) + self.model.open_cost
    }

    /// Every write: apply `change` to `path`'s file (see
    /// [`Store::mutate`]), count a write op of `bytes`, then charge the
    /// disk for them.
    fn write(
        &self,
        op: &str,
        path: &str,
        bytes: usize,
        now: SimTime,
        change: impl FnOnce(&mut StoredFile, &mut Ledger) -> Result<()>,
    ) -> Result<SimTime> {
        {
            let mut store = self.store.lock();
            store.mutate(op, path, change)?;
            store.stats.bytes_written += bytes as u64;
            store.stats.write_ops += 1;
        }
        Ok(self.charge_write(path, bytes, now))
    }

    /// Append bytes to a file (must exist). Returns the completion time.
    pub fn append(&self, path: &str, data: &[u8], _client: u64, now: SimTime) -> Result<SimTime> {
        // The one copy of these bytes, made before the store's lock is taken.
        let extent = Bytes::copy_from_slice(data);
        self.write("append", path, data.len(), now, |f, ledger| {
            f.grow(ledger, data.len() as u64)?;
            f.data.push(extent);
            Ok(())
        })
    }

    /// Append a scatter-gather segment list to a file (must exist): the
    /// `writev`-style entry point of the zero-copy drain path. The
    /// segments land in the backing store in order, with one quota check,
    /// one stats update and one timing charge for the summed length —
    /// byte- and cost-identical to flattening the list first, minus the
    /// flattening copy: [`Segment::Shared`] handles are adopted by
    /// refcount, and all [`Segment::Owned`] runs of the call are copied
    /// once into one exact-size staging buffer whose slices become their
    /// extents ([`rocio_core::rope::segment_parts`]).
    pub fn append_segments(
        &self,
        path: &str,
        segments: &[Segment],
        _client: u64,
        now: SimTime,
    ) -> Result<SimTime> {
        let total = rocio_core::segments_len(segments);
        // Owned runs are staged here, before the store's lock is taken.
        let extents = rocio_core::rope::segment_parts(segments);
        self.write("append", path, total, now, |f, ledger| {
            f.grow(ledger, total as u64)?;
            f.data.extend(extents);
            Ok(())
        })
    }

    /// Overwrite bytes at `offset` (extends the file if needed). A write
    /// that would end past the largest possible file (`isize::MAX` bytes)
    /// is a [`RocError::Storage`].
    pub fn write_at(
        &self,
        path: &str,
        offset: usize,
        data: &[u8],
        _client: u64,
        now: SimTime,
    ) -> Result<SimTime> {
        let len = data.len();
        let end = offset.checked_add(len).filter(|&end| end <= isize::MAX as usize).ok_or_else(|| {
            RocError::Storage(format!("write_at: range {offset}+{len} overflows in '{path}'"))
        })?;
        let patch = Bytes::copy_from_slice(data);
        self.write("write_at", path, len, now, |f, ledger| {
            let size = f.data.len();
            let (keep, resume) = (offset.min(size), end.min(size));
            // A gap past EOF is zero-filled: find room for it before
            // anything is charged.
            let mut gap = Vec::new();
            gap.try_reserve_exact(offset - keep).map_err(|e| {
                RocError::Storage(format!(
                    "write_at: no room for the {}-byte gap before byte {offset} of '{path}': {e}",
                    offset - keep
                ))
            })?;
            gap.resize(offset - keep, 0);
            // Only growth consumes quota: overwriting stored bytes is free.
            f.grow(ledger, end.saturating_sub(size) as u64)?;
            // Splice the patch between the kept head and tail extents.
            let mut image = f.data.select(&[(0, keep)]);
            image.push(Bytes::from(gap));
            image.push(patch);
            image.extend(f.data.select(&[(resume, size - resume)]).parts().iter().cloned());
            f.data = image;
            Ok(())
        })
    }

    /// Permute a file's bytes, at **zero virtual cost**, with no ledger
    /// traffic and without moving a byte: the new image is the old one's
    /// `(offset, len)` ranges in the order given, expressed as windows of
    /// the same extents. This is the administrative hook a finalizing
    /// writer uses to present records at their canonical (indexed) offsets
    /// regardless of arrival order: every byte's transfer was already
    /// charged when it was appended, and a real library achieves the same
    /// layout by writing each record at its slot to begin with — the
    /// simulator separates the two so streamed appends stay cheap. The
    /// non-empty ranges must cover the image exactly once.
    pub fn permute(&self, path: &str, ranges: &[(usize, usize)]) -> Result<()> {
        self.store.lock().mutate("permute", path, |file, _| {
            let mut sorted: Vec<(usize, usize)> =
                ranges.iter().copied().filter(|r| r.1 > 0).collect();
            sorted.sort_unstable();
            let mut covered = 0usize;
            for &(offset, len) in &sorted {
                if offset != covered {
                    return Err(RocError::Storage(format!(
                        "permute: ranges {} at byte {} of '{path}'",
                        if offset > covered { "leave a hole" } else { "overlap" },
                        covered.min(offset),
                    )));
                }
                covered = offset.checked_add(len).ok_or_else(|| {
                    RocError::Storage(format!(
                        "permute: range {offset}+{len} overflows in '{path}'"
                    ))
                })?;
            }
            if covered != file.data.len() {
                return Err(RocError::Storage(format!(
                    "permute: ranges cover {covered} of {} bytes of '{path}'",
                    file.data.len()
                )));
            }
            file.data = file.data.select(ranges);
            Ok(())
        })
    }

    /// Close/commit a file. Returns the completion time.
    pub fn close(&self, path: &str, _client: u64, now: SimTime) -> Result<SimTime> {
        if !self.exists(path) {
            return Err(RocError::Storage(format!("close: no such file '{path}'")));
        }
        Ok(now + self.model.close_cost)
    }

    /// Read a batch of `(offset, len)` ranges as the pieces of the extents
    /// they lie across, range after range, in one list a caller walks with
    /// a [`rocio_core::Cursor`] under the lengths it asked for. Pieces keep
    /// their bytes across later mutation or deletion of the file.
    ///
    /// Each access is charged `lead` (e.g. a lookup) and then the disk.
    /// With `sieve = None` an access is a range, as if read one by one: a
    /// zero-length range is free, an exact repeat charged once. With
    /// `Some(max_gap)` it is a covering window of data sieving
    /// ([`crate::sieve::SievePlan`]), holes up to `max_gap` read through.
    /// An empty range list touches nothing; a range past EOF or past
    /// `usize::MAX` is a [`RocError::Storage`].
    pub fn read_parts(
        &self,
        path: &str,
        ranges: &[(usize, usize)],
        lead: SimTime,
        sieve: Option<usize>,
        _client: u64,
        now: SimTime,
    ) -> Result<(Vec<Bytes>, SimTime)> {
        self.read(path, ranges, (lead, sieve), now, |data, starts| {
            let spans = || ranges.iter().flat_map(|&range| data.spans(starts, range));
            let mut parts = Vec::with_capacity(spans().count());
            parts.extend(spans().map(|(part, span)| part.slice(span)));
            parts
        })
    }

    /// [`SharedFs::read_parts`] with `Some(max_gap)` (**data sieving**), one
    /// buffer per range: a window of the extent it lies in, or a copy of
    /// the range alone when it spans extents.
    pub fn read_sieved(
        &self,
        path: &str,
        ranges: &[(usize, usize)],
        lead: SimTime,
        max_gap: usize,
        _client: u64,
        now: SimTime,
    ) -> Result<(Vec<Bytes>, SimTime)> {
        self.read(path, ranges, (lead, Some(max_gap)), now, |data, starts| {
            ranges.iter().map(|&range| data.window(starts, range)).collect()
        })
    }

    /// Read `len` bytes at `offset`: [`SharedFs::read_parts`] of one range,
    /// as a window of the extent it lies in (allocating nothing), or a copy
    /// of the range alone when it spans extents.
    pub fn read_shared(
        &self,
        path: &str,
        offset: usize,
        len: usize,
        _client: u64,
        now: SimTime,
    ) -> Result<(Bytes, SimTime)> {
        let range = (offset, len);
        self.read(path, &[range], (0.0, None), now, |data, starts| data.window(starts, range))
    }

    /// Read a whole file: [`SharedFs::read_shared`] of every byte.
    pub fn read_all_shared(&self, path: &str, client: u64, now: SimTime) -> Result<(Bytes, SimTime)> {
        let len = self.file_size(path)?;
        self.read_shared(path, 0, len, client, now)
    }

    /// Every read: check `ranges` against `path`'s size, hand its image and
    /// extent starts to `cut`, then charge the accesses `(lead, sieve)`
    /// makes of them (see [`SharedFs::read_parts`]) and count them.
    fn read<R>(
        &self,
        path: &str,
        ranges: &[(usize, usize)],
        (lead, sieve): (SimTime, Option<usize>),
        now: SimTime,
        cut: impl FnOnce(&Rope, &[usize]) -> R,
    ) -> Result<(R, SimTime)> {
        if ranges.is_empty() {
            return Ok((cut(&Rope::new(), &[]), now));
        }
        let out = {
            let mut store = self.store.lock();
            let f = store
                .files
                .get_mut(path)
                .ok_or_else(|| RocError::Storage(format!("read: no such file '{path}'")))?;
            let eof = f.data.len();
            let beyond = |&&(o, l): &&(usize, usize)| o.checked_add(l).is_none_or(|end| end > eof);
            if let Some((offset, len)) = ranges.iter().find(beyond) {
                return Err(RocError::Storage(format!(
                    "read: range of {len} bytes at {offset} beyond EOF {eof} in '{path}'"
                )));
            }
            let (data, starts) = f.extents();
            cut(data, starts)
        };
        let (mut t, mut ops, mut bytes) = (now, 0u64, 0u64);
        let mut access = |len: usize| {
            t = self.charge_read(path, len, t + lead);
            ops += 1;
            bytes += len as u64;
        };
        if let Some(max_gap) = sieve {
            for &(_, len) in &crate::sieve::SievePlan::build(ranges, max_gap).windows {
                access(len);
            }
        } else {
            // A repeat is found by a scan among a block's few ranges, by a
            // set among many.
            let mut seen = (ranges.len() > 32).then(|| HashSet::with_capacity(ranges.len()));
            for (i, &range) in ranges.iter().enumerate() {
                let repeat = match &mut seen {
                    Some(seen) => !seen.insert(range),
                    None => ranges[..i].contains(&range),
                };
                if range.1 > 0 && !repeat {
                    access(range.1);
                }
            }
        }
        let mut store = self.store.lock();
        store.stats.read_ops += ops;
        store.stats.bytes_read += bytes;
        Ok((out, t))
    }

    /// The file's current image as the rope of its extents, by refcount:
    /// no byte moves and no time is charged. For looking at
    /// *how* a file holds its bytes (which allocation backs which range);
    /// reads that should cost what a read costs go through `read_*`.
    pub fn image(&self, path: &str) -> Result<Rope> {
        self.stat(path, |f| f.data.clone())
    }

    /// Size of a file in bytes (metadata operation, no time charged).
    pub fn file_size(&self, path: &str) -> Result<usize> {
        self.stat(path, |f| f.data.len())
    }

    /// Size of a file in bytes and the mutation generation those bytes
    /// are at, read together (no time charged): what a reader stamps the
    /// metadata it parses with ([`SharedFs::cache_put`]).
    pub fn file_generation(&self, path: &str) -> Result<(usize, u64)> {
        self.stat(path, |f| (f.data.len(), f.generation))
    }

    /// `look` at `path`'s file, or a "no such file" error.
    fn stat<R>(&self, path: &str, look: impl FnOnce(&StoredFile) -> R) -> Result<R> {
        self.store
            .lock()
            .files
            .get(path)
            .map(look)
            .ok_or_else(|| RocError::Storage(format!("stat: no such file '{path}'")))
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.store.lock().files.contains_key(path)
    }

    /// All file paths with the given prefix, sorted: the file table's own
    /// names, by refcount.
    pub fn names(&self, prefix: &str) -> Vec<Arc<str>> {
        let store = self.store.lock();
        let listed = || store.files.keys().filter(|p| p.starts_with(prefix));
        let mut out = Vec::with_capacity(listed().count());
        out.extend(listed().cloned());
        out.sort_unstable();
        out
    }

    /// [`SharedFs::names`], owned.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.names(prefix).iter().map(|p| p.to_string()).collect()
    }

    /// Delete a file, releasing its quota charge. Outstanding shared
    /// windows keep their bytes.
    pub fn delete(&self, path: &str) -> Result<()> {
        let mut store = self.store.lock();
        let old = store
            .files
            .remove(path)
            .ok_or_else(|| RocError::Storage(format!("delete: no such file '{path}'")))?;
        store.ledger.release(old.tenant, old.charged);
        // Hygiene only: the generation check already rejects stale entries
        // (a recreated file gets a fresh generation, never a reused one).
        store.meta_memo.remove(path);
        for opens in store.meta_opens.values_mut() {
            opens.remove(path);
        }
        Ok(())
    }

    /// Record that `client` opened `path` at `generation` and parsed
    /// `value` from it (e.g. a decoded SDF trailer + index). Returns
    /// whether it was kept: an entry is refused unless `generation` is
    /// still the file's, so metadata read at a generation a write has
    /// since replaced is never cached as valid.
    ///
    /// The charge is per client, the value per generation. A hit
    /// ([`SharedFs::cache_get`]) is keyed by `client`, so it depends only
    /// on that client's own deterministic history — never on how the host
    /// interleaves other ranks' opens. The value is held once per path
    /// and generation for every client ([`SharedFs::cache_shared`]): the
    /// first put of a generation keeps its value, later puts of the same
    /// generation keep that one. Any write, truncate, or delete + recreate
    /// of the path gives it a new generation, which invalidates both.
    pub fn cache_put(&self, path: &str, client: u64, generation: u64, value: CacheValue) -> bool {
        let mut store = self.store.lock();
        let Store { files, meta_memo, meta_opens, .. } = &mut *store;
        let Some((path, f)) = files.get_key_value(path) else { return false };
        if f.generation != generation {
            return false;
        }
        match meta_memo.get_mut(&**path) {
            Some(memo) if memo.0 == generation => {}
            Some(memo) => *memo = (generation, value),
            None => {
                meta_memo.insert(Arc::clone(path), (generation, value));
            }
        }
        meta_opens.entry(client).or_default().insert(Arc::clone(path), generation);
        true
    }

    /// The metadata `client` cached for `path`, if the file is still at
    /// the generation the client opened (see [`SharedFs::cache_put`]).
    /// Stale entries are dropped.
    pub fn cache_get(&self, path: &str, client: u64) -> Option<CacheValue> {
        let mut store = self.store.lock();
        let Store { files, meta_memo, meta_opens, .. } = &mut *store;
        let opens = meta_opens.get_mut(&client)?;
        let opened = *opens.get(path)?;
        let current = files.get(path).map(|f| f.generation);
        match meta_memo.get(path) {
            Some((g, v)) if Some(opened) == current && *g == opened => Some(Arc::clone(v)),
            _ => {
                opens.remove(path);
                None
            }
        }
    }

    /// The metadata any client cached for `path` at `generation`, if that
    /// is still the file's generation: what a client that has not opened
    /// this generation itself (and pays for its own reads) takes instead
    /// of parsing the same frozen bytes again. Host work only; no charge
    /// depends on it.
    pub fn cache_shared(&self, path: &str, generation: u64) -> Option<CacheValue> {
        let store = self.store.lock();
        let current = store.files.get(path).map(|f| f.generation);
        match store.meta_memo.get(path) {
            Some((g, v)) if *g == generation && current == Some(generation) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Number of files currently stored.
    pub fn n_files(&self) -> usize {
        self.store.lock().files.len()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> FsStats {
        self.store.lock().stats
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "concurrent appends are raced from threads of their own"
)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_round_trip() {
        let fs = SharedFs::ideal();
        fs.create("a.sdf", 0, 0.0);
        fs.append("a.sdf", b"hello ", 0, 0.0).unwrap();
        fs.append("a.sdf", b"world", 0, 0.0).unwrap();
        let (data, _t) = fs.read_all_shared("a.sdf", 0, 0.0).unwrap();
        assert_eq!(data, b"hello world");
        assert_eq!(fs.file_size("a.sdf").unwrap(), 11);
    }

    #[test]
    fn write_at_extends_and_overwrites() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.write_at("f", 4, b"abcd", 0, 0.0).unwrap();
        assert_eq!(fs.file_size("f").unwrap(), 8);
        fs.write_at("f", 0, b"XY", 0, 0.0).unwrap();
        let (data, _) = fs.read_all_shared("f", 0, 0.0).unwrap();
        assert_eq!(&data[..2], b"XY");
        assert_eq!(&data[4..], b"abcd");
    }

    #[test]
    fn a_write_past_the_largest_file_is_a_storage_error() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        for offset in [usize::MAX, usize::MAX - 1, isize::MAX as usize] {
            let got = fs.write_at("f", offset, b"xy", 0, 0.0);
            assert!(matches!(&got, Err(RocError::Storage(m)) if m.contains("'f'")), "{got:?}");
        }
        assert_eq!(fs.read_all_shared("f", 0, 0.0).unwrap().0, b"abc");
        let charged = (fs.used_bytes(), fs.stats().write_ops);
        assert_eq!(charged, (3, 1), "a refused write charges nothing");
    }

    #[test]
    fn a_gap_the_host_cannot_hold_is_a_storage_error() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        // Inside the largest file, but the zero-filled gap before it is
        // more memory than any host has.
        let got = fs.write_at("f", isize::MAX as usize - 8, b"xy", 0, 0.0);
        assert!(matches!(&got, Err(RocError::Storage(m)) if m.contains("'f'")), "{got:?}");
        assert_eq!(fs.read_all_shared("f", 0, 0.0).unwrap().0, b"abc");
        let charged = (fs.used_bytes(), fs.stats().write_ops);
        assert_eq!(charged, (3, 1), "a refused write charges nothing");
    }

    #[test]
    fn missing_file_errors() {
        let fs = SharedFs::ideal();
        assert!(fs.append("nope", b"x", 0, 0.0).is_err());
        assert!(fs.read_shared("nope", 0, 1, 0, 0.0).is_err());
        assert!(fs.file_size("nope").is_err());
        assert!(fs.delete("nope").is_err());
        assert!(fs.close("nope", 0, 0.0).is_err());
        assert!(!fs.exists("nope"));
    }

    #[test]
    fn read_beyond_eof_errors() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        assert!(fs.read_shared("f", 2, 5, 0, 0.0).is_err());
        assert!(fs.read_shared("f", 0, 3, 0, 0.0).is_ok());
    }

    #[test]
    fn create_truncates() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"data", 0, 0.0).unwrap();
        fs.create("f", 0, 1.0);
        assert_eq!(fs.file_size("f").unwrap(), 0);
    }

    #[test]
    fn list_filters_and_sorts() {
        let fs = SharedFs::ideal();
        for p in ["b/2", "a/1", "b/1"] {
            fs.create(p, 0, 0.0);
        }
        assert_eq!(fs.list("b/"), vec!["b/1".to_string(), "b/2".to_string()]);
        assert_eq!(fs.list("").len(), 3);
        assert_eq!(fs.n_files(), 3);
        fs.delete("b/1").unwrap();
        assert_eq!(fs.n_files(), 2);
    }

    #[test]
    fn concurrent_writes_share_the_server() {
        // Two clients writing at the same virtual instant each see ~2x the
        // solo service time (fair sharing + thrash), and the result does
        // not depend on which op reached the file system first.
        let solo = {
            let fs = SharedFs::turing();
            fs.create("x", 1, 0.0);
            fs.append("x", &vec![0u8; 1 << 20], 1, 0.0).unwrap()
        };
        let fs = SharedFs::turing();
        fs.create("x", 1, 0.0);
        fs.declare_writers(2);
        let e1 = fs.append("x", &vec![0u8; 1 << 20], 1, 0.0).unwrap();
        let e2 = fs.append("x", &vec![0u8; 1 << 20], 2, 0.0).unwrap();
        assert!((e1 - e2).abs() < 1e-9, "order-independent: {e1} vs {e2}");
        assert!(e1 > 1.9 * solo, "shared write {e1} not ~2x solo {solo}");
        assert!(e1 < 4.0 * solo, "shared write {e1} unreasonably slow");
    }

    #[test]
    fn reads_do_not_serialize() {
        let fs = SharedFs::turing();
        fs.create("x", 0, 0.0);
        fs.append("x", &vec![0u8; 1 << 20], 0, 0.0).unwrap();
        let (_, r1) = fs.read_all_shared("x", 1, 100.0).unwrap();
        let (_, r2) = fs.read_all_shared("x", 2, 100.0).unwrap();
        let single = r1 - 100.0;
        let second = r2 - 100.0;
        // Both reads overlap: the second does not queue behind the first.
        assert!(second < single * 1.5);
    }

    #[test]
    fn declared_writers_slow_a_write_beyond_solo() {
        let fs = SharedFs::turing();
        fs.create("solo", 0, 0.0);
        let solo = fs.append("solo", &vec![0u8; 1 << 20], 0, 0.0).unwrap();
        // The same write as one of 32 declared writers shares the server
        // and thrashes it: well beyond the solo service time.
        let fs2 = SharedFs::turing();
        fs2.create("busy", 0, 0.0);
        fs2.declare_writers(32);
        let busy = fs2.append("busy", &vec![0u8; 1 << 20], 0, 0.0).unwrap();
        assert!(busy > solo * 2.0, "32 declared writers {busy} vs solo {solo}");
    }

    #[test]
    fn an_undeclared_write_costs_the_solo_time_whoever_wrote_before() {
        let fs = SharedFs::turing();
        fs.create("solo", 0, 0.0);
        let solo = fs.append("solo", &vec![0u8; 1 << 20], 0, 0.5).unwrap();
        // 31 other clients wrote just before, in virtual time: with no
        // declared count, what they did moves nothing.
        let fs2 = SharedFs::turing();
        fs2.create("busy", 0, 0.0);
        for c in 1..32u64 {
            fs2.append("busy", &vec![0u8; 1024], c, 0.0).unwrap();
        }
        let busy = fs2.append("busy", &vec![0u8; 1 << 20], 0, 0.5).unwrap();
        assert_eq!(busy, solo);
    }

    #[test]
    fn quota_rejects_writes_when_full() {
        let fs = SharedFs::ideal();
        fs.set_quota(100);
        fs.create("f", 0, 0.0);
        fs.append("f", &[0u8; 60], 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 60);
        // Next write would exceed the aggregate cap — the store is full,
        // so this is a plain storage error with no tenant attribution.
        let err = fs.append("f", &[0u8; 60], 0, 0.0).unwrap_err();
        assert!(
            matches!(&err, RocError::Storage(m) if m.contains("disk full")),
            "expected disk-full storage error, got {err:?}"
        );
        // Small writes still fit; reads unaffected.
        fs.append("f", &[0u8; 40], 0, 0.0).unwrap();
        assert!(fs.read_all_shared("f", 0, 0.0).is_ok());
        // Deleting frees space.
        fs.delete("f").unwrap();
        fs.create("g", 0, 0.0);
        fs.append("g", &[0u8; 90], 0, 0.0).unwrap();
    }

    #[test]
    fn append_segments_matches_flat_append() {
        use rocio_core::Segment;
        let a = SharedFs::ideal();
        let b = SharedFs::ideal();
        a.create("f", 0, 0.0);
        b.create("f", 0, 0.0);
        let segs = [
            Segment::Owned(b"head".to_vec()),
            Segment::Shared(bytes::Bytes::from(b"payload".to_vec())),
            Segment::Owned(b"tail".to_vec()),
        ];
        let flat = rocio_core::segments_to_vec(&segs);
        let t_seg = a.append_segments("f", &segs, 0, 0.0).unwrap();
        let t_flat = b.append("f", &flat, 0, 0.0).unwrap();
        // Identical bytes, identical modelled cost, one logical write op.
        assert_eq!(t_seg, t_flat);
        assert_eq!(a.read_all_shared("f", 0, 0.0).unwrap().0, flat);
        let s = a.stats();
        assert_eq!(s.bytes_written, flat.len() as u64);
        assert_eq!(s.write_ops, 1);
    }

    #[test]
    fn shared_segments_are_adopted_and_permuted_without_a_copy() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        let (a, b) = (Bytes::from(vec![1u8; 64]), Bytes::from(vec![2u8; 32]));
        let segs = [
            Segment::Owned(b"head".to_vec()),
            Segment::Shared(a.clone()),
            Segment::Owned(Vec::new()),
            Segment::Owned(b"mid".to_vec()),
            Segment::Shared(b.clone()),
        ];
        fs.append_segments("f", &segs, 0, 0.0).unwrap();
        let extent_ptrs = || -> Vec<*const u8> {
            fs.image("f").unwrap().parts().iter().map(|e| e.as_ptr()).collect()
        };
        // Shared handles are the caller's allocations; both owned runs are
        // slices of one staging buffer; the empty run left no extent.
        let before = extent_ptrs();
        assert_eq!(before.len(), 4);
        assert_eq!((before[1], before[3]), (a.as_ptr(), b.as_ptr()));
        assert_eq!(before[2], before[0].wrapping_add(4));
        // Swap the two halves: same allocations, new order, and a range
        // that straddles extents is split, not copied.
        fs.permute("f", &[(68, 35), (0, 68)]).unwrap();
        assert_eq!(extent_ptrs(), [before[2], before[3], before[0], before[1]]);
        fs.permute("f", &[(10, 93), (0, 10)]).unwrap();
        assert_eq!(extent_ptrs()[0], b.as_ptr().wrapping_add(7));
        let mut want = [&b"mid"[..], &[2u8; 32], b"head", &[1u8; 64]].concat();
        want.rotate_left(10);
        assert_eq!(fs.read_all_shared("f", 0, 0.0).unwrap().0, want);
        assert_eq!(fs.stats().write_ops, 1, "permute is not a write");
    }

    #[test]
    fn permute_rejects_anything_but_an_exact_cover() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"0123456789", 0, 0.0).unwrap();
        for bad in [
            &[(0usize, 4usize), (5, 5)][..], // hole
            &[(0, 6), (5, 5)],               // overlap
            &[(0, 10), (3, 2)],              // a byte twice
            &[(0, 9)],                       // short
            &[(0, 11)],                      // past EOF
            &[(0, 10), (usize::MAX, 2)],     // overflow
        ] {
            let err = fs.permute("f", bad).unwrap_err();
            assert!(matches!(err, RocError::Storage(_)), "{bad:?}: {err:?}");
        }
        assert!(matches!(fs.permute("nope", &[]), Err(RocError::Storage(_))));
        // Zero-length ranges are no part of the cover, wherever they point.
        fs.permute("f", &[(5, 5), (7, 0), (0, 5)]).unwrap();
        assert_eq!(fs.read_all_shared("f", 0, 0.0).unwrap().0, b"5678901234");
    }

    #[test]
    fn a_read_is_a_window_of_the_extent_the_writer_appended() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        let payload = Bytes::from(vec![7u8; 128]);
        fs.append("f", b"head", 0, 0.0).unwrap();
        fs.append_segments("f", &[Segment::Shared(payload.clone())], 0, 0.0).unwrap();
        fs.append("f", b"tail", 0, 0.0).unwrap();
        let extents = fs.image("f").unwrap();
        let (w, _) = fs.read_shared("f", 12, 16, 0, 0.0).unwrap();
        assert_eq!(w.as_ptr(), payload[8..].as_ptr(), "inside one extent: its window");
        let (ws, _) = fs.read_sieved("f", &[(0, 4), (132, 4)], 0.0, usize::MAX, 0, 0.0).unwrap();
        assert_eq!(ws[0].as_ptr(), extents.parts()[0].as_ptr());
        assert_eq!(ws[1].as_ptr(), extents.parts()[2].as_ptr());
        // A range across extents is its pieces, in order, each a window;
        // a buffer of it is a copy of that range alone.
        let (parts, _) = fs.read_parts("f", &[(2, 4), (131, 3)], 0.0, None, 0, 0.0).unwrap();
        let ptrs: Vec<_> = parts.iter().map(|p| (p.as_ptr(), p.len())).collect();
        assert_eq!(
            ptrs,
            [
                (extents.parts()[0][2..].as_ptr(), 2),
                (payload.as_ptr(), 2),
                (payload[127..].as_ptr(), 1),
                (extents.parts()[2].as_ptr(), 2),
            ]
        );
        let (across, _) = fs.read_shared("f", 2, 4, 0, 0.0).unwrap();
        assert_eq!(across, [b'a', b'd', 7, 7]);
        // Nothing a read does changes how the file holds its bytes.
        let after = fs.image("f").unwrap();
        let ptrs = |r: &Rope| r.parts().iter().map(|p| (p.as_ptr(), p.len())).collect::<Vec<_>>();
        assert_eq!(ptrs(&after), ptrs(&extents));
    }

    #[test]
    fn a_range_past_usize_max_is_a_storage_error_at_every_read() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        fs.append("f", b"def", 0, 0.0).unwrap();
        let refused = |got: Result<()>| {
            assert!(matches!(&got, Err(RocError::Storage(m)) if m.contains("'f'")), "{got:?}");
        };
        for (offset, len) in [(usize::MAX, 2), (2, usize::MAX), (usize::MAX, usize::MAX)] {
            refused(fs.read_shared("f", offset, len, 0, 0.0).map(drop));
            let ranges = [(0, 1), (offset, len)];
            refused(fs.read_sieved("f", &ranges, 0.0, 64, 0, 0.0).map(drop));
            refused(fs.read_parts("f", &ranges, 0.0, None, 0, 0.0).map(drop));
            refused(fs.read_parts("f", &ranges, 0.0, Some(64), 0, 0.0).map(drop));
        }
        assert_eq!(fs.stats().read_ops, 0, "a refused batch charges nothing");
    }

    #[test]
    fn declared_concurrency_makes_charges_independent_of_arrival_order() {
        // Job 1 (four clients) reads first. Job 2 restarts its clocks at 0,
        // declares two readers, and its ranks reach the store in either
        // host order, one far ahead in virtual time and one near 0.
        // Neither job, nor either order, may move what a rank is charged.
        let charges = |late_first: bool| {
            let fs = SharedFs::turing();
            fs.create("f", 0, 0.0);
            fs.append("f", &vec![0u8; 1 << 16], 0, 0.0).unwrap();
            fs.declare_readers(4);
            for c in 0..4 {
                fs.read_shared("f", 0, 1 << 16, c, 0.1).unwrap();
            }
            fs.declare_readers(2);
            let late = |fs: &SharedFs| fs.read_shared("f", 0, 1 << 16, 0, 50.0).unwrap().1;
            let early = |fs: &SharedFs| fs.read_shared("f", 0, 1 << 16, 1, 0.2).unwrap().1;
            if late_first {
                let l = late(&fs);
                (early(&fs), l)
            } else {
                (early(&fs), late(&fs))
            }
        };
        assert_eq!(charges(true), charges(false));
    }

    #[test]
    fn read_parts_matches_chained_reads() {
        // The batch must be cost- and stats-identical to issuing the same
        // ranges one by one with the lead charged before each.
        let a = SharedFs::turing();
        let b = SharedFs::turing();
        for fs in [&a, &b] {
            fs.create("f", 0, 0.0);
            fs.append("f", &vec![9u8; 2048], 0, 0.0).unwrap();
        }
        let ranges = [(0usize, 100usize), (100, 400), (500, 1000)];
        let lead = 0.25;
        let (parts, t_multi) = a.read_parts("f", &ranges, lead, None, 3, 2.0).unwrap();
        let mut t = 2.0;
        for (&(off, len), w) in ranges.iter().zip(&parts) {
            let (d, e) = b.read_shared("f", off, len, 3, t + lead).unwrap();
            assert_eq!(w.as_slice(), d.as_slice());
            t = e;
        }
        assert_eq!(parts.len(), ranges.len(), "one extent: a piece per range");
        assert_eq!(t_multi, t);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().read_ops, ranges.len() as u64);
    }

    #[test]
    fn read_multi_empty_range_list_is_a_no_op() {
        let fs = SharedFs::turing();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        let before = fs.stats();
        let (parts, t) = fs.read_parts("f", &[], 0.5, None, 0, 7.0).unwrap();
        assert!(parts.is_empty());
        assert_eq!(t, 7.0);
        assert_eq!(fs.stats(), before);
        // An empty list never touches the file — not even to check it exists.
        let (w2, t2) = fs.read_parts("nope", &[], 0.5, None, 0, 7.0).unwrap();
        assert!(w2.is_empty() && t2 == 7.0);
        let (w3, t3) = fs.read_sieved("nope", &[], 0.5, 64, 0, 7.0).unwrap();
        assert!(w3.is_empty() && t3 == 7.0);
    }

    #[test]
    fn read_multi_zero_length_ranges_are_no_pieces_and_free() {
        let fs = SharedFs::turing();
        fs.create("f", 0, 0.0);
        fs.append("f", &[7u8; 64], 0, 0.0).unwrap();
        let before = fs.stats();
        let (parts, t) =
            fs.read_parts("f", &[(0, 0), (10, 0), (64, 0)], 0.5, None, 0, 3.0).unwrap();
        assert!(parts.is_empty());
        assert_eq!(t, 3.0, "zero-length ranges charge no lead and no read");
        assert_eq!(fs.stats(), before);
        let (windows, _) = fs.read_sieved("f", &[(0, 0), (64, 0)], 0.5, 64, 0, 3.0).unwrap();
        assert!(windows.len() == 2 && windows.iter().all(|w| w.is_empty()));
        // Beyond EOF is still an error, zero-length or not.
        assert!(fs.read_parts("f", &[(65, 0)], 0.0, None, 0, 3.0).is_err());
        // Mixed with a real range, only the real range is charged.
        let (ws, _) = fs.read_parts("f", &[(0, 0), (4, 8)], 0.0, None, 0, 3.0).unwrap();
        assert_eq!(ws[0].len(), 8);
        assert_eq!(fs.stats().read_ops, before.read_ops + 1);
        assert_eq!(fs.stats().bytes_read, before.bytes_read + 8);
    }

    #[test]
    fn read_multi_duplicate_ranges_charge_once_overlaps_charge_each() {
        let fs = SharedFs::turing();
        fs.create("f", 0, 0.0);
        fs.append("f", &[5u8; 128], 0, 0.0).unwrap();
        let before = fs.stats();
        // Exact duplicates: three windows out, one charge.
        let (windows, _) =
            fs.read_parts("f", &[(8, 16), (8, 16), (8, 16)], 0.0, None, 0, 1.0).unwrap();
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|w| w.as_slice() == windows[0].as_slice()));
        assert_eq!(fs.stats().read_ops, before.read_ops + 1);
        assert_eq!(fs.stats().bytes_read, before.bytes_read + 16);
        // Overlapping-but-distinct ranges are distinct requests.
        let mid = fs.stats();
        let (ws, _) = fs.read_parts("f", &[(0, 32), (16, 32)], 0.0, None, 0, 2.0).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(fs.stats().read_ops, mid.read_ops + 2);
        assert_eq!(fs.stats().bytes_read, mid.bytes_read + 64);
    }

    #[test]
    fn read_sieved_is_byte_identical_and_charges_per_window() {
        // 16-byte pieces every 64 bytes: per-range pays a seek each; the
        // sieve reads one covering window (48-byte holes <= max_gap).
        let per = SharedFs::turing();
        let sieve = SharedFs::turing();
        let image: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for fs in [&per, &sieve] {
            fs.create("f", 0, 0.0);
            fs.append("f", &image, 0, 0.0).unwrap();
        }
        let ranges: Vec<_> = (0..32).map(|i| (i * 64, 16)).collect();
        let (w_per, t_per) = per.read_parts("f", &ranges, 0.0, None, 1, 10.0).unwrap();
        let (w_sieve, t_sieve) = sieve.read_sieved("f", &ranges, 0.0, 64, 1, 10.0).unwrap();
        for (a, b) in w_per.iter().zip(&w_sieve) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let plan = crate::sieve::SievePlan::build(&ranges, 64);
        assert_eq!(plan.n_windows(), 1);
        assert_eq!(per.stats().read_ops, ranges.len() as u64);
        assert_eq!(sieve.stats().read_ops, plan.n_windows() as u64);
        assert_eq!(sieve.stats().bytes_read, plan.total_bytes as u64);
        assert!(
            t_sieve - 10.0 < (t_per - 10.0) / 2.0,
            "sieve {:.6}s not ≥2x faster than per-range {:.6}s",
            t_sieve - 10.0,
            t_per - 10.0
        );
        // Sparse request (holes > max_gap): the sieve degenerates to
        // per-range and must be cost-identical to a per-range read.
        let sparse: Vec<_> = (0..8).map(|i| (i * 512, 16)).collect();
        let a = SharedFs::turing();
        let b = SharedFs::turing();
        for fs in [&a, &b] {
            fs.create("f", 0, 0.0);
            fs.append("f", &image, 0, 0.0).unwrap();
        }
        let (wa, ta) = a.read_parts("f", &sparse, 0.25, None, 1, 0.0).unwrap();
        let (wb, tb) = b.read_sieved("f", &sparse, 0.25, 16, 1, 0.0).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        // `read_parts` sieving is charged exactly as `read_sieved`.
        let c = SharedFs::turing();
        c.create("f", 0, 0.0);
        c.append("f", &image, 0, 0.0).unwrap();
        let (pc, tc) = c.read_parts("f", &sparse, 0.25, Some(16), 1, 0.0).unwrap();
        assert_eq!((tc, c.stats()), (tb, b.stats()));
        assert_eq!(pc, wb);
    }

    #[test]
    fn shared_window_outlives_mutation_and_delete() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"old-bytes", 0, 0.0).unwrap();
        let (w, _) = fs.read_shared("f", 0, 9, 0, 0.0).unwrap();
        // Mutation adds an extent; the window pins the bytes it was cut from.
        fs.append("f", b"+new", 0, 1.0).unwrap();
        let (now, _) = fs.read_all_shared("f", 0, 2.0).unwrap();
        assert_eq!(now, b"old-bytes+new");
        fs.delete("f").unwrap();
        assert_eq!(w.as_slice(), b"old-bytes");
    }

    #[test]
    fn metadata_cache_is_per_client_and_generation_checked() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"v1", 0, 0.0).unwrap();
        let (_, g) = fs.file_generation("f").unwrap();
        assert!(fs.cache_get("f", 7).is_none());
        assert!(fs.cache_put("f", 7, g, Arc::new(1u32)));
        let hit = fs.cache_get("f", 7).expect("fresh entry hits");
        assert_eq!(*hit.downcast::<u32>().unwrap(), 1);
        // Other clients never hit on each other's opens (determinism)...
        assert!(fs.cache_get("f", 8).is_none());
        // ...but share the value of the generation they opened, and a
        // later put of that generation keeps the first value.
        let shared = fs.cache_shared("f", g).expect("the generation's value is shared");
        assert_eq!(*shared.downcast::<u32>().unwrap(), 1);
        assert!(fs.cache_put("f", 8, g, Arc::new(9u32)));
        assert_eq!(*fs.cache_get("f", 8).unwrap().downcast::<u32>().unwrap(), 1);
        // Any mutation invalidates.
        fs.append("f", b"v2", 0, 0.0).unwrap();
        assert!(fs.cache_get("f", 7).is_none());
        assert!(fs.cache_shared("f", g).is_none());
        // Delete + recreate must not resurrect an entry either.
        let (_, g2) = fs.file_generation("f").unwrap();
        assert!(fs.cache_put("f", 7, g2, Arc::new(2u32)));
        fs.delete("f").unwrap();
        fs.create("f", 0, 1.0);
        assert!(fs.cache_get("f", 7).is_none());
        assert!(fs.cache_shared("f", g2).is_none());
        // Caching a missing path is refused.
        assert!(!fs.cache_put("ghost", 7, 0, Arc::new(3u32)));
        assert!(fs.cache_get("ghost", 7).is_none());
    }

    /// Metadata read at a generation a write has since replaced is refused,
    /// for its client and for everyone else: a write landing between a
    /// reader's reads and its put must not leave a stale value cached as
    /// valid.
    #[test]
    fn a_put_at_a_generation_no_longer_current_is_refused() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"v1", 0, 0.0).unwrap();
        let (_, read_at) = fs.file_generation("f").unwrap();
        fs.append("f", b"v2", 0, 0.0).unwrap();
        assert!(!fs.cache_put("f", 7, read_at, Arc::new(1u32)), "stale put kept");
        assert!(fs.cache_get("f", 7).is_none());
        assert!(fs.cache_shared("f", read_at).is_none());
        let (_, now_at) = fs.file_generation("f").unwrap();
        assert!(fs.cache_shared("f", now_at).is_none());
        // A put at the current generation is kept.
        assert!(fs.cache_put("f", 7, now_at, Arc::new(2u32)));
        assert_eq!(*fs.cache_get("f", 7).unwrap().downcast::<u32>().unwrap(), 2);
    }

    #[test]
    fn quota_counts_read_files() {
        let fs = SharedFs::ideal();
        fs.set_quota(100);
        fs.create("f", 0, 0.0);
        fs.append("f", &[0u8; 60], 0, 0.0).unwrap();
        fs.read_shared("f", 0, 60, 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 60);
        assert!(fs.append("f", &[0u8; 60], 0, 0.0).is_err());
        fs.append("f", &[0u8; 40], 0, 0.0).unwrap(); // appending to a read image still fits
        assert_eq!(fs.used_bytes(), 100);
    }

    #[test]
    fn tenant_ledger_isolates_quotas() {
        let fs = SharedFs::ideal();
        fs.bind_tenant("t0001/", TenantId(1));
        fs.bind_tenant("t0002/", TenantId(2));
        fs.set_tenant_quota(TenantId(1), 100);
        fs.create("t0001/a", 0, 0.0);
        fs.create("t0002/a", 0, 0.0);
        fs.create("free", 0, 0.0);
        fs.append("t0001/a", &[0u8; 80], 0, 0.0).unwrap();
        // Tenant 1 hits its ceiling; the error names the tenant.
        let err = fs.append("t0001/a", &[0u8; 40], 0, 0.0).unwrap_err();
        match &err {
            RocError::Service(se) => {
                assert_eq!(se.tenant, TenantId(1));
                assert!(matches!(
                    se.kind,
                    ServiceErrorKind::QuotaExceeded { limit: 100, used: 80, requested: 40 }
                ));
            }
            other => panic!("expected Service error, got {other:?}"),
        }
        // Tenant 2 and the solo tenant are unaffected.
        fs.append("t0002/a", &[0u8; 512], 0, 0.0).unwrap();
        fs.append("free", &[0u8; 512], 0, 0.0).unwrap();
        assert_eq!(fs.tenant_used(TenantId(1)), 80);
        assert_eq!(fs.tenant_used(TenantId(2)), 512);
        assert_eq!(fs.tenant_used(TenantId::SOLO), 512);
        assert_eq!(fs.used_bytes(), 80 + 512 + 512);
        // Deleting tenant 1's file releases its charge; writes fit again.
        fs.delete("t0001/a").unwrap();
        assert_eq!(fs.tenant_used(TenantId(1)), 0);
        fs.create("t0001/b", 0, 1.0);
        fs.append("t0001/b", &[0u8; 100], 0, 1.0).unwrap();
    }

    #[test]
    fn tenant_binding_longest_prefix_wins() {
        let fs = SharedFs::ideal();
        fs.bind_tenant("out/", TenantId(1));
        fs.bind_tenant("out/deep/", TenantId(2));
        assert_eq!(fs.tenant_of("out/x"), TenantId(1));
        assert_eq!(fs.tenant_of("out/deep/x"), TenantId(2));
        assert_eq!(fs.tenant_of("elsewhere"), TenantId::SOLO);
    }

    #[test]
    fn write_at_charges_growth_only() {
        let fs = SharedFs::ideal();
        fs.set_quota(100);
        fs.create("f", 0, 0.0);
        fs.append("f", &[0u8; 90], 0, 0.0).unwrap();
        // Overwrites are free; only extension past EOF consumes quota.
        fs.write_at("f", 0, &[1u8; 90], 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 90);
        fs.write_at("f", 85, &[2u8; 10], 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 95);
        let err = fs.write_at("f", 90, &[3u8; 20], 0, 0.0).unwrap_err();
        assert!(
            matches!(&err, RocError::Storage(m) if m.contains("disk full")),
            "{err:?}"
        );
        // Rejection mutated nothing.
        assert_eq!(fs.used_bytes(), 95);
        assert_eq!(fs.file_size("f").unwrap(), 95);
    }

    #[test]
    fn quota_check_and_charge_is_atomic_under_contention() {
        // 16 threads race 10-byte appends against a 50-byte quota:
        // exactly 5 must win, regardless of interleaving. Before the
        // ledger, check (sum under one lock acquisition) and charge
        // (mutation under a later one) could both pass and overshoot.
        for round in 0..8 {
            let fs = Arc::new(SharedFs::ideal());
            fs.set_quota(50);
            fs.create("f", 0, 0.0);
            let wins: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..16)
                    .map(|c| {
                        let fs = Arc::clone(&fs);
                        s.spawn(move || fs.append("f", &[c as u8; 10], c, 0.0).is_ok())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            let n_ok = wins.iter().filter(|&&w| w).count();
            assert_eq!(n_ok, 5, "round {round}: {n_ok} writes won against a 5-write quota");
            assert_eq!(fs.used_bytes(), 50);
            assert_eq!(fs.file_size("f").unwrap(), 50);
        }
    }

    #[test]
    fn stats_accumulate() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abcd", 0, 0.0).unwrap();
        fs.read_shared("f", 0, 2, 0, 0.0).unwrap();
        let s = fs.stats();
        assert_eq!(s.files_created, 1);
        assert_eq!(s.bytes_written, 4);
        assert_eq!(s.bytes_read, 2);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_ops, 1);
    }
}
