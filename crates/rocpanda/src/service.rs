//! The multi-tenant Rocpanda service: one long-running pool of I/O
//! server ranks shared by several simultaneously admitted jobs.
//!
//! The session is the only way into Rocpanda. A [`PandaService`] owns the
//! server ranks and the shared store for the duration of one or many
//! jobs: each job is *admitted* via [`PandaService::submit`] —
//! which checks its rank layout against the pool and the jobs already
//! admitted and hands back a [`JobHandle`] naming the job's [`TenantId`] —
//! and every world rank
//! then joins the session collectively via [`PandaService::attach`]. The
//! paper's one-application session (§4.2) is a service with one job:
//! [`PandaService::admit_world`].
//!
//! Inside the service, tenants are isolated end to end: per-tenant byte
//! quotas in the store's ledger, tenant-prefixed file namespaces,
//! per-tenant drain queues served deficit-round-robin by priority, and
//! structured [`ServiceError`]s attributing every failure to the tenant
//! that caused it.

use std::sync::Arc;

use rocio_core::lockdep::Mutex;
use rocio_core::{Priority, Result, RocError, ServiceError, ServiceErrorKind, TenantId};
use rocnet::Comm;
use rocstore::SharedFs;

use crate::config::RocpandaConfig;
use crate::server::{PandaServer, TenantLane};
use crate::PandaClient;

/// One job's admission request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (reports and error text).
    pub name: String,
    /// World ranks of this job's compute clients. Must be disjoint from
    /// the server ranks and from every other admitted job.
    pub client_ranks: Vec<usize>,
    /// Drain-scheduling weight class.
    pub priority: Priority,
    /// Per-tenant byte quota in the shared store. `None` = unlimited.
    pub quota: Option<u64>,
}

impl JobSpec {
    /// A normal-priority, unlimited job over `client_ranks`.
    pub fn new(name: impl Into<String>, client_ranks: &[usize]) -> Self {
        JobSpec {
            name: name.into(),
            client_ranks: client_ranks.to_vec(),
            priority: Priority::Normal,
            quota: None,
        }
    }

    /// Set the drain-scheduling priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set the per-tenant byte quota.
    pub fn quota(mut self, bytes: u64) -> Self {
        self.quota = Some(bytes);
        self
    }
}

/// Proof of admission: names the job's tenant for quota lookups, error
/// attribution, and report labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobHandle {
    tenant: TenantId,
    name: String,
    priority: Priority,
}

impl JobHandle {
    /// The tenant id assigned at admission.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The job's name as submitted.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's drain priority as admitted.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// What this rank became after [`PandaService::attach`].
pub enum ServiceRole<'a> {
    /// A pooled I/O server shared by every admitted job; call
    /// [`PandaServer::run`], which returns once all tenants shut down.
    /// Boxed: the server carries the whole drain state and would
    /// dwarf the client variant.
    Server(Box<PandaServer<'a>>),
    /// A compute client of `job`. `comm` is the job-private communicator
    /// that replaces the world communicator in the application. Boxed
    /// (like the server arm): both sides carry their full protocol
    /// state, and the enum is just a role tag.
    Client {
        job: JobHandle,
        io: Box<PandaClient<'a>>,
        comm: Comm,
    },
    /// This rank belongs to no admitted job and is not a server.
    Idle,
}

/// One admitted job in the service plan.
#[derive(Debug, Clone)]
struct JobPlan {
    tenant: TenantId,
    name: String,
    priority: Priority,
    /// Sorted, deduplicated client world ranks.
    clients: Vec<usize>,
    quota: Option<u64>,
}

/// Admission state, guarded by the service lock.
#[derive(Debug, Default)]
struct Admission {
    jobs: Vec<JobPlan>,
    /// Tenant ids are assigned 1, 2, … in admission order (0 is the solo
    /// compatibility tenant and never assigned by a service).
    next_tenant: u32,
}

/// Builder for a [`PandaService`].
///
/// ```no_run
/// # use rocpanda::{PandaServiceBuilder, JobSpec};
/// # use std::sync::Arc;
/// # let fs = Arc::new(rocstore::SharedFs::ideal());
/// let service = PandaServiceBuilder::new(fs)
///     .servers(&[0, 3])
///     .build()
///     .unwrap();
/// let job = service.submit(JobSpec::new("genx-a", &[1, 2]).quota(64 << 20)).unwrap();
/// ```
pub struct PandaServiceBuilder {
    fs: Arc<SharedFs>,
    cfg: RocpandaConfig,
    server_ranks: Vec<usize>,
}

impl PandaServiceBuilder {
    /// Start a builder over the shared store the service will own.
    pub fn new(fs: Arc<SharedFs>) -> Self {
        PandaServiceBuilder {
            fs,
            cfg: RocpandaConfig::default(),
            server_ranks: Vec::new(),
        }
    }

    /// World ranks dedicated as pooled I/O servers.
    pub fn servers(mut self, ranks: &[usize]) -> Self {
        self.server_ranks = ranks.to_vec();
        self
    }

    /// Replace the library configuration (cost model, buffering, paths…).
    pub fn config(mut self, cfg: RocpandaConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Validate the topology and produce the (not yet attached) service.
    pub fn build(self) -> Result<PandaService> {
        if self.server_ranks.is_empty() {
            return Err(RocError::Config("Rocpanda service needs at least one server".into()));
        }
        let mut servers = self.server_ranks;
        servers.sort_unstable();
        servers.dedup();
        Ok(PandaService {
            fs: self.fs,
            cfg: self.cfg,
            server_ranks: servers,
            admission: Mutex::new("rocpanda.service", Admission {
                next_tenant: 1,
                ..Admission::default()
            }),
        })
    }
}

/// A long-running multi-tenant Rocpanda session: the pool of server
/// ranks, the shared store, and the set of admitted jobs.
///
/// Construction is host-side and deterministic; [`PandaService::attach`]
/// is the collective step each world rank performs to take its role.
pub struct PandaService {
    fs: Arc<SharedFs>,
    cfg: RocpandaConfig,
    /// Sorted, deduplicated server world ranks.
    server_ranks: Vec<usize>,
    /// Admission state. Guarded so jobs can be submitted from any thread
    /// holding a shared reference to the service.
    admission: Mutex<Admission>,
}

impl PandaService {
    /// The pooled server world ranks.
    pub fn server_ranks(&self) -> &[usize] {
        &self.server_ranks
    }

    /// Admit one job, or reject a malformed layout with a structured
    /// [`ServiceError`] of kind [`ServiceErrorKind::AdmissionSpec`].
    /// Rejections are deterministic: the same submission sequence always
    /// fails at the same job. What a tenant may *store* is its own
    /// [`JobSpec::quota`], enforced by the store's ledger on every write.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle> {
        let mut adm = self.admission.lock();
        let tenant = TenantId(adm.next_tenant);
        let reject = |kind| Err(ServiceError::err(tenant, kind));
        let mut clients = spec.client_ranks.clone();
        clients.sort_unstable();
        clients.dedup();
        if clients.is_empty() {
            return reject(ServiceErrorKind::AdmissionSpec(format!(
                "job '{}' has no client ranks",
                spec.name
            )));
        }
        if clients.len() != spec.client_ranks.len() {
            return reject(ServiceErrorKind::AdmissionSpec(format!(
                "job '{}' lists a client rank twice",
                spec.name
            )));
        }
        if let Some(&r) = clients.iter().find(|r| self.server_ranks.binary_search(r).is_ok()) {
            return reject(ServiceErrorKind::AdmissionSpec(format!(
                "job '{}' claims server rank {r}",
                spec.name
            )));
        }
        for job in &adm.jobs {
            if let Some(&r) = clients.iter().find(|r| job.clients.binary_search(r).is_ok()) {
                return reject(ServiceErrorKind::AdmissionSpec(format!(
                    "job '{}' claims rank {r}, already owned by job '{}'",
                    spec.name, job.name
                )));
            }
        }
        adm.next_tenant += 1;
        adm.jobs.push(JobPlan {
            tenant,
            name: spec.name.clone(),
            priority: spec.priority,
            clients,
            quota: spec.quota,
        });
        Ok(JobHandle {
            tenant,
            name: spec.name,
            priority: spec.priority,
        })
    }

    /// Admit every non-server rank of an `n_ranks`-rank world as one job:
    /// the paper's session, where one application owns the whole pool
    /// ("the processors split into two MPI communicators, for the clients
    /// and the servers respectively", §4.2).
    pub fn admit_world(&self, name: impl Into<String>, n_ranks: usize) -> Result<JobHandle> {
        let clients: Vec<usize> = (0..n_ranks)
            .filter(|r| self.server_ranks.binary_search(r).is_err())
            .collect();
        self.submit(JobSpec::new(name, &clients))
    }

    /// Collective session entry over the world communicator: every world
    /// rank calls this exactly once and receives its [`ServiceRole`].
    /// Binds each tenant's path namespace and quota in the store, then
    /// splits the fabric into the server group and one private
    /// communicator per job.
    pub fn attach<'a>(&'a self, world: &'a Comm) -> Result<ServiceRole<'a>> {
        // Snapshot the admitted plan; the guard must not be held across
        // the collective splits below.
        let jobs: Vec<JobPlan> = self.admission.lock().jobs.clone();
        if jobs.is_empty() {
            return Err(RocError::Config("Rocpanda service has no admitted jobs".into()));
        }
        if self.server_ranks.iter().any(|&r| r >= world.size()) {
            return Err(RocError::Config(format!(
                "server rank out of range (world size {})",
                world.size()
            )));
        }
        for job in &jobs {
            if let Some(&r) = job.clients.iter().find(|&&r| r >= world.size()) {
                return Err(ServiceError::err(
                    job.tenant,
                    ServiceErrorKind::AdmissionSpec(format!(
                        "job '{}' client rank {r} out of range (world size {})",
                        job.name,
                        world.size()
                    )),
                ));
            }
        }
        // Register every tenant with the store: namespace binding and
        // quota. Idempotent, so each attaching rank may repeat it.
        for job in &jobs {
            let prefix = format!("{}/{}", self.cfg.dir, job.tenant.path_prefix());
            self.fs.bind_tenant(&prefix, job.tenant);
            if let Some(q) = job.quota {
                self.fs.set_tenant_quota(job.tenant, q);
            }
        }
        // This rank's place: its index among the servers, or its job and
        // its index among that job's clients.
        let my_rank = world.rank();
        let server_index = self.server_ranks.binary_search(&my_rank).ok();
        let my_job = jobs
            .iter()
            .find_map(|job| Some((job, job.clients.binary_search(&my_rank).ok()?)));
        // Split 1: the library-internal communicators — the server group,
        // and one group per job. Split 2: each job's application
        // communicator (MPI_Comm_dup semantics); servers and idle ranks
        // participate with no color. Tenant ids count from 1, so color 0
        // stays the servers'.
        let job_color = my_job.map(|(job, _)| job.tenant.0);
        let lib_color = if server_index.is_some() { Some(0u32) } else { job_color };
        let app_color = if server_index.is_some() { None } else { job_color };
        let lib_sub = world.split(lib_color, my_rank as i64)?;
        let app_sub = world.split(app_color, my_rank as i64)?;
        if let Some(server_index) = server_index {
            let server_comm = lib_sub.ok_or_else(|| {
                RocError::Comm("server split yielded no communicator".into())
            })?;
            let m = self.server_ranks.len();
            let lanes: Vec<TenantLane> = jobs
                .iter()
                .map(|job| TenantLane {
                    id: job.tenant,
                    priority: job.priority,
                    clients: job.clients.clone(),
                    my_clients: job.clients[client_group(server_index, job.clients.len(), m)]
                        .to_vec(),
                })
                .collect();
            Ok(ServiceRole::Server(Box::new(PandaServer::new(
                world,
                server_comm,
                &self.fs,
                self.cfg.clone(),
                server_index,
                self.server_ranks.clone(),
                lanes,
            ))))
        } else if let Some((job, client_index)) = my_job {
            let client_comm = lib_sub.ok_or_else(|| {
                RocError::Comm("client split yielded no communicator".into())
            })?;
            let app_comm = app_sub.ok_or_else(|| {
                RocError::Comm("client app split yielded no communicator".into())
            })?;
            let (n, m) = (job.clients.len(), self.server_ranks.len());
            let my_server = (0..m)
                .find(|&i| client_group(i, n, m).contains(&client_index))
                .map(|i| self.server_ranks[i])
                .ok_or_else(|| {
                    RocError::Config(format!(
                        "client index {client_index} falls in no server group \
                         ({n} clients, {m} servers)"
                    ))
                })?;
            Ok(ServiceRole::Client {
                job: JobHandle {
                    tenant: job.tenant,
                    name: job.name.clone(),
                    priority: job.priority,
                },
                io: Box::new(PandaClient::new(
                    world,
                    client_comm,
                    self.cfg.clone(),
                    job.tenant,
                    my_server,
                    self.server_ranks.clone(),
                )),
                comm: app_comm,
            })
        } else {
            Ok(ServiceRole::Idle)
        }
    }
}

/// The slice of a job's `n_clients` (indices into its sorted client list)
/// that server `server_index` of `n_servers` owns: equal contiguous groups
/// `[i·n/m, (i+1)·n/m)`. Both arms of [`PandaService::attach`] ask this one
/// function — servers for the clients they count, clients for the server
/// that counts them — so a request can never strand at a server that does
/// not expect it.
fn client_group(server_index: usize, n_clients: usize, n_servers: usize) -> std::ops::Range<usize> {
    server_index * n_clients / n_servers..(server_index + 1) * n_clients / n_servers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> PandaService {
        PandaServiceBuilder::new(Arc::new(SharedFs::ideal())).servers(&[0, 3]).build().unwrap()
    }

    #[test]
    fn builder_rejects_empty_server_pool() {
        match PandaServiceBuilder::new(Arc::new(SharedFs::ideal())).build() {
            Err(RocError::Config(_)) => {}
            Err(other) => panic!("expected Config error, got {other}"),
            Ok(_) => panic!("empty server pool must be rejected"),
        }
    }

    /// What each rank of an attached world became, as text: `S<index>:<its
    /// clients>` or `C-><its server>:<app communicator size>`.
    fn attach_roles(svc: &PandaService, n: usize) -> Vec<String> {
        rocnet::run_ranks(n, rocnet::cluster::ClusterSpec::ideal(n), |comm| {
            match svc.attach(&comm).unwrap() {
                ServiceRole::Server(s) => format!("S{}:{:?}", s.server_index, s.client_ranks()),
                ServiceRole::Client { io, comm, .. } => {
                    format!("C->{}:{}", io.my_server, comm.size())
                }
                ServiceRole::Idle => "idle".to_string(),
            }
        })
    }

    #[test]
    fn attach_splits_roles_and_groups() {
        // 8 clients + 2 servers at ranks 0 and 5 (paper-style spread).
        let svc = PandaServiceBuilder::new(Arc::new(SharedFs::ideal()))
            .servers(&[0, 5])
            .build()
            .unwrap();
        svc.admit_world("job", 10).unwrap();
        let out = attach_roles(&svc, 10);
        assert_eq!(out[0], "S0:[1, 2, 3, 4]");
        assert_eq!(out[5], "S1:[6, 7, 8, 9]");
        for r in [1, 2, 3, 4] {
            assert_eq!(out[r], "C->0:8");
        }
        for r in [6, 7, 8, 9] {
            assert_eq!(out[r], "C->5:8");
        }
    }

    #[test]
    fn attach_rejects_out_of_range_server() {
        // (An empty pool never gets this far: `build` refuses it.)
        let svc = PandaServiceBuilder::new(Arc::new(SharedFs::ideal()))
            .servers(&[7])
            .build()
            .unwrap();
        svc.admit_world("job", 2).unwrap();
        let out = rocnet::run_ranks(2, rocnet::cluster::ClusterSpec::ideal(2), |comm| {
            matches!(svc.attach(&comm), Err(RocError::Config(_)))
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn client_groups_partition_every_job() {
        for n in 1..=17usize {
            for m in 1..=n {
                let groups: Vec<_> = (0..m).map(|i| client_group(i, n, m)).collect();
                // Contiguous, in order, covering 0..n exactly once.
                assert_eq!(groups[0].start, 0);
                assert_eq!(groups[m - 1].end, n);
                for w in groups.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "n={n} m={m}");
                }
                let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "n={n} m={m}: group sizes {sizes:?}");
            }
        }
        // Both sides of `attach` read the same partition: with two tenants
        // of different sizes (3 and 5 clients, neither divisible by the 2
        // servers), each server counts exactly the clients that name it.
        let svc = service();
        svc.submit(JobSpec::new("a", &[1, 2, 4])).unwrap();
        svc.submit(JobSpec::new("b", &[5, 6, 7, 8, 9])).unwrap();
        let out = attach_roles(&svc, 10);
        for (index, server) in [(0, 0), (1, 3)] {
            let named_by: Vec<usize> = (0..10)
                .filter(|&r| out[r].starts_with(&format!("C->{server}:")))
                .collect();
            assert_eq!(out[server], format!("S{index}:{named_by:?}"));
        }
        assert_eq!(out.iter().filter(|o| o.starts_with('C')).count(), 8);
    }

    #[test]
    fn submit_assigns_tenants_in_order() {
        let svc = service();
        let a = svc.submit(JobSpec::new("a", &[1, 2])).unwrap();
        let b = svc.submit(JobSpec::new("b", &[4, 5]).priority(Priority::High)).unwrap();
        assert_eq!(a.tenant(), TenantId(1));
        assert_eq!(b.tenant(), TenantId(2));
        assert_eq!(b.priority(), Priority::High);
        assert_eq!(a.name(), "a");
    }

    #[test]
    fn admission_rejects_malformed_specs() {
        let svc = service();
        svc.submit(JobSpec::new("a", &[1, 2])).unwrap();
        for (label, spec) in [
            ("empty", JobSpec::new("x", &[])),
            ("dup rank", JobSpec::new("x", &[4, 4])),
            ("server rank", JobSpec::new("x", &[3, 4])),
            ("claimed rank", JobSpec::new("x", &[2, 4])),
        ] {
            let err = svc.submit(spec).unwrap_err();
            let se = err.as_service().unwrap_or_else(|| panic!("{label}: {err}"));
            assert!(
                matches!(se.kind, ServiceErrorKind::AdmissionSpec(_)),
                "{label}: {err}"
            );
        }
    }
}
