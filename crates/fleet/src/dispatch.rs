//! The campaign dispatcher behind `psbi-fleet serve`.
//!
//! One long-running process owns the journals.  Submitters hand it
//! campaigns ([`crate::proto::Msg::Submit`]); workers connect, request
//! work and receive **leases** — contiguous-by-circuit slices of the job
//! grid with a deadline.  Completed [`crate::JobRecord`]s come back over
//! the wire (checksummed end to end), pass through the same reorder
//! buffer the single-process runner uses, and are appended to the same
//! append-only v2 journal **in job-index order** — which is the whole
//! determinism argument: every record is a pure function of (spec, job
//! index), and the journal only ever sees them in grid order, so its
//! bytes cannot depend on worker count, join/leave order or kill pattern.
//!
//! # Failure model
//!
//! * **Worker dies / hangs / partitions** — its lease deadline passes
//!   without a heartbeat (or its connection drops, which expires its
//!   leases immediately) and the jobs return to the pending set for
//!   re-dispatch.  If the "dead" worker later returns a result anyway,
//!   first-committed-wins: a job that is already committed or parked is
//!   acknowledged and the duplicate discarded — byte-identical either
//!   way, because both copies are the same pure function of the spec.
//! * **Result torn in transit** — the record line re-checksums on
//!   receipt; a failure drops the connection and the lease machinery
//!   takes over.  Nothing half-parsed ever reaches the journal.
//! * **Dispatcher killed (`kill -9`)** — the journal's torn-tail repair
//!   recovers committed work on restart, and the per-campaign **lease
//!   log** (`<journal>.leases`, advisory, append-only) records
//!   grant/expire/done events so a restarted dispatcher can report how
//!   many leases the crash orphaned.  Orphaned leases need no repair:
//!   their jobs were never committed, so they are simply pending again.
//!   Campaign ids restart with the dispatcher, so every result must
//!   carry its spec fingerprint (checked against the campaign's, plus a
//!   grid-identity check of the record itself) — a worker surviving the
//!   restart with cached results for an *old* campaign that shared the
//!   id can never graft foreign bytes into the new campaign's journal.
//! * **No worker ever connects** — after `inline_grace_ms` the
//!   dispatcher degrades to inline execution in-process (same
//!   [`crate::runner::execute_batch`] core the workers use), so a
//!   campaign always completes.
//!
//! Campaigns multiplex over one shared [`WorkspacePool`]; leases are
//! granted round-robin across active campaigns so no submitter starves.
//! A worker's `request` with nothing grantable is long-polled: it is
//! answered the moment a lease can be granted, or `wait {ms: 0}` after
//! at most one second.

use crate::error::FleetError;
use crate::journal::{JobRecord, Journal};
use crate::proto::{read_msg, write_msg, Msg};
use crate::runner::execute_batch;
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::WorkspacePool;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Default dispatcher address (`PSBI_DISPATCH_ADDR` overrides).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Longest a worker's `request` is held when nothing is grantable before
/// it is answered `wait {ms: 0}`.  It stays below the shortest socket
/// read timeout either side applies, `4 × max(lease_ms, 500)` = 2 s, so
/// a held request never reads as a dead peer.
const LONG_POLL: Duration = Duration::from_secs(1);

/// Knobs for one `psbi-fleet serve` process.
///
/// Like [`crate::FleetOptions`], these are *runtime* knobs: none of them
/// may change a single canonical byte.  Lease sizes, deadlines and
/// heartbeat cadence only shuffle which worker computes which pure
/// function — the reorder buffer erases the difference.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks a free port — pair with
    /// `addr_file` so scripts can find it).
    pub addr: String,
    /// Concurrently *active* campaigns; further submissions queue.
    pub max_campaigns: usize,
    /// Jobs per lease; 0 = circuit-aligned (all pending jobs of one
    /// circuit), which maximises worker-side calibration reuse.
    pub lease_jobs: usize,
    /// Lease duration in ms: a lease not renewed (heartbeat or result)
    /// within this window expires and its jobs are re-dispatched.
    pub lease_ms: u64,
    /// Heartbeat interval advertised to workers.
    pub heartbeat_ms: u64,
    /// How long the dispatcher waits for a first worker before degrading
    /// to inline in-process execution.
    pub inline_grace_ms: u64,
    /// Exit after the first submitted campaign completes (broadcasting
    /// `shutdown` to connected workers).
    pub once: bool,
    /// Per-campaign progress lines on stderr, driven by the metrics
    /// registry (a path-less registry is armed if none is).
    pub progress: bool,
    /// Write the bound address (one line) here once listening — how
    /// scripts discover a port-0 dispatcher.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let lease_ms = env_u64("PSBI_DISPATCH_LEASE_MS", 10_000);
        Self {
            addr: std::env::var("PSBI_DISPATCH_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.into()),
            max_campaigns: 1,
            lease_jobs: 0,
            lease_ms,
            heartbeat_ms: env_u64("PSBI_DISPATCH_HEARTBEAT_MS", (lease_ms / 4).max(1)),
            inline_grace_ms: env_u64("PSBI_DISPATCH_INLINE_GRACE_MS", 1_000),
            once: false,
            progress: false,
            addr_file: None,
        }
    }
}

/// Advisory append-only log of lease lifecycle events, next to the
/// journal (`<journal>.leases`).  The journal alone is the source of
/// truth for *results*; this log exists so a dispatcher restarted after
/// `kill -9` can tell (and report) which leases the crash orphaned, and
/// so post-mortems can reconstruct the grant/expire/redispatch history.
/// Parsing is tolerant: a torn tail line is simply ignored.
struct LeaseLog {
    file: File,
}

impl LeaseLog {
    /// Opens (creating if absent) and scans the log: returns the handle,
    /// the number of orphaned leases (granted, never done/expired — the
    /// signature of a dispatcher crash) and the highest lease id seen.
    fn open(path: &Path) -> Result<(Self, usize, u64), FleetError> {
        let mut open_leases = HashSet::new();
        let mut max_lease = 0u64;
        if let Ok(bytes) = std::fs::read(path) {
            for line in String::from_utf8_lossy(&bytes).lines() {
                let Ok(v) = crate::json::Json::parse(line) else {
                    continue; // torn tail from a crash mid-append
                };
                let lease = v.get("lease").and_then(crate::json::Json::as_u64);
                match (v.get("ev").and_then(crate::json::Json::as_str), lease) {
                    (Some("grant"), Some(l)) => {
                        open_leases.insert(l);
                        max_lease = max_lease.max(l);
                    }
                    (Some("done" | "expire"), Some(l)) => {
                        open_leases.remove(&l);
                        max_lease = max_lease.max(l);
                    }
                    _ => {}
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((Self { file }, open_leases.len(), max_lease))
    }

    /// Best-effort append (the log is advisory — a full disk must not
    /// fail the campaign whose journal still writes fine).
    fn ev(&mut self, line: &str) {
        let _ = self
            .file
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.file.flush());
    }

    fn grant(&mut self, lease: u64, conn: u64, jobs: &BTreeSet<usize>) {
        let jobs: Vec<String> = jobs.iter().map(usize::to_string).collect();
        self.ev(&format!(
            "{{\"ev\":\"grant\",\"lease\":{lease},\"conn\":{conn},\"jobs\":[{}]}}",
            jobs.join(",")
        ));
    }

    fn done(&mut self, lease: u64) {
        self.ev(&format!("{{\"ev\":\"done\",\"lease\":{lease}}}"));
    }

    fn expire(&mut self, lease: u64, reason: &str) {
        self.ev(&format!(
            "{{\"ev\":\"expire\",\"lease\":{lease},\"reason\":\"{}\"}}",
            crate::json::escape(reason)
        ));
    }
}

/// One outstanding lease.  `jobs` holds only the *unreturned* jobs — a
/// returned job leaves the set immediately, so expiry never re-dispatches
/// work that already reached the reorder buffer.
struct Lease {
    jobs: BTreeSet<usize>,
    deadline: Instant,
    /// Owning connection (0 = the dispatcher's inline executor).
    conn: u64,
}

/// One active campaign: the dispatcher-side mirror of the runner's
/// `CommitState`, plus the lease bookkeeping.
struct Campaign {
    spec: CampaignSpec,
    /// Canonical spec text embedded in every lease (identical bytes on
    /// both sides ⇒ identical fingerprint and grid).
    spec_text: String,
    /// [`CampaignSpec::fingerprint`] of `spec_text` — every incoming
    /// result must present it, so a record computed for a different
    /// campaign that happens to share this campaign's id (ids restart
    /// on dispatcher restart) can never reach the journal.
    fingerprint: String,
    jobs: Vec<JobSpec>,
    journal: Journal,
    journal_path: PathBuf,
    lease_log: LeaseLog,
    total: usize,
    /// Next job index to commit (resumed prefix already behind it).
    next: usize,
    resumed: usize,
    /// Completed jobs waiting for their predecessors.
    parked: BTreeMap<usize, JobRecord>,
    /// Uncommitted, unparked, unleased job indices.
    pending: BTreeSet<usize>,
    leases: HashMap<u64, Lease>,
    retries: usize,
    verify: bool,
    quarantined: u64,
    verify_failures: Vec<(usize, String)>,
    /// Campaign-fatal error (journal write failure): exit-code class and
    /// message for the submitter.
    failed: Option<(u8, String)>,
}

impl Campaign {
    fn done(&self) -> bool {
        self.next == self.total
    }

    /// Commits every parked record that has become next-in-line — the
    /// same reorder-buffer discipline as the single-process runner, which
    /// is what keeps the journal byte-identical to it.
    fn drain(&mut self) {
        while let Some(record) = self.parked.remove(&self.next) {
            let _span = psbi_obs::Span::enter_with("fleet.commit", &[("job", self.next as u64)]);
            if let Err(e) = self.journal.append(&record) {
                self.failed = Some((e.code(), e.to_string()));
                // Stop granting: pending work is pointless once the
                // journal cannot take records.
                self.pending.clear();
                return;
            }
            if record.quarantined {
                self.quarantined += 1;
            }
            psbi_obs::metrics::counter_add("fleet.jobs.committed", 1);
            self.next += 1;
        }
    }

    /// Returns a lease's unreturned jobs to the pending set.
    fn expire_lease(&mut self, lease_id: u64, reason: &str) {
        if let Some(lease) = self.leases.remove(&lease_id) {
            let _span = psbi_obs::Span::enter_with(
                "dispatch.redispatch",
                &[("lease", lease_id), ("jobs", lease.jobs.len() as u64)],
            );
            psbi_obs::metrics::counter_add("dispatch.leases.expired", 1);
            psbi_obs::metrics::counter_add("dispatch.jobs.redispatched", lease.jobs.len() as u64);
            self.pending.extend(lease.jobs.iter().copied());
            self.lease_log.expire(lease_id, reason);
        }
    }
}

/// Everything behind the table mutex.
struct Table {
    campaigns: BTreeMap<u64, Campaign>,
    next_campaign: u64,
    next_lease: u64,
    /// Round-robin cursor so lease grants rotate across campaigns.
    rr: u64,
    /// Writer halves of connected worker sessions (for the shutdown
    /// broadcast and to interleave replies line-atomically).
    conns: HashMap<u64, Arc<Mutex<TcpStream>>>,
    next_conn: u64,
    workers: u64,
    /// Set once any worker has ever said hello (gates inline fallback).
    saw_worker: bool,
    started: Instant,
}

struct ServeState {
    opts: ServeOptions,
    table: Mutex<Table>,
    wake: Condvar,
    shutdown: AtomicBool,
    pool: Arc<WorkspacePool>,
    local_addr: SocketAddr,
}

fn lock_table(state: &ServeState) -> MutexGuard<'_, Table> {
    state.table.lock().unwrap_or_else(PoisonError::into_inner)
}

fn update_gauges(t: &Table) {
    psbi_obs::metrics::gauge_set("dispatch.workers.connected", t.workers);
    psbi_obs::metrics::gauge_set(
        "dispatch.leases.outstanding",
        t.campaigns.values().map(|c| c.leases.len() as u64).sum(),
    );
    psbi_obs::metrics::gauge_set("dispatch.campaigns.active", t.campaigns.len() as u64);
}

/// A handle to a running dispatcher: its bound address and a shutdown
/// trigger (used by in-process tests; the CLI shuts down via `--once`).
#[derive(Clone)]
pub struct DispatchHandle {
    state: Arc<ServeState>,
}

impl DispatchHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Asks the dispatcher to stop: workers receive `shutdown`, queued
    /// submissions are rejected, and [`Dispatcher::run`] returns once
    /// in-flight connections unwind.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state);
    }
}

fn initiate_shutdown(state: &ServeState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    {
        let t = lock_table(state);
        for conn in t.conns.values() {
            let mut w = conn.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = write_msg(&mut *w, &Msg::Shutdown);
            let _ = w.shutdown(Shutdown::Both);
        }
    }
    state.wake.notify_all();
    // Unblock the accept loop.
    let _ = TcpStream::connect(state.local_addr);
}

/// A bound-but-not-yet-running dispatcher (so tests and scripts can learn
/// the address before any connection is handled).
pub struct Dispatcher {
    listener: TcpListener,
    state: Arc<ServeState>,
}

/// Binds and runs a dispatcher until shutdown — the `psbi-fleet serve`
/// entry point.
///
/// # Errors
///
/// Bind/IO failures and `addr_file` write failures.
pub fn serve(opts: ServeOptions) -> Result<(), FleetError> {
    Dispatcher::bind(opts)?.run()
}

impl Dispatcher {
    /// Binds the listen socket and writes `addr_file` (if configured).
    ///
    /// # Errors
    ///
    /// [`FleetError::Dispatch`] when the address cannot be bound;
    /// [`FleetError::Io`] when the addr file cannot be written.
    pub fn bind(opts: ServeOptions) -> Result<Self, FleetError> {
        if opts.progress && !psbi_obs::metrics::enabled() {
            psbi_obs::metrics::arm(None);
        }
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| FleetError::Dispatch(format!("cannot bind `{}`: {e}", opts.addr)))?;
        let local_addr = listener.local_addr()?;
        if let Some(path) = &opts.addr_file {
            std::fs::write(path, format!("{local_addr}\n"))?;
        }
        let state = Arc::new(ServeState {
            opts,
            table: Mutex::new(Table {
                campaigns: BTreeMap::new(),
                next_campaign: 1,
                next_lease: 1,
                rr: 0,
                conns: HashMap::new(),
                next_conn: 1,
                workers: 0,
                saw_worker: false,
                started: Instant::now(),
            }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pool: Arc::new(WorkspacePool::new()),
            local_addr,
        });
        Ok(Self { listener, state })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// A cloneable handle (address + shutdown trigger).
    pub fn handle(&self) -> DispatchHandle {
        DispatchHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accepts and serves connections until shutdown.  Blocks; use
    /// [`Dispatcher::handle`] from another thread (or `--once`) to stop.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop IO errors (individual connection failures are
    /// recovered by the lease machinery, not propagated).
    pub fn run(self) -> Result<(), FleetError> {
        let state = &self.state;
        std::thread::scope(|scope| {
            scope.spawn(|| reaper_loop(state));
            scope.spawn(|| inline_loop(state));
            if state.opts.progress {
                scope.spawn(|| progress_loop(state));
            }
            for stream in self.listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        scope.spawn(move || {
                            if let Err(e) = handle_conn(state, stream) {
                                // Connection-level failures are expected
                                // chaos (that is what leases are for);
                                // surface them for debugging only.
                                eprintln!("psbi-fleet: serve: connection ended: {e}");
                            }
                        });
                    }
                    Err(e) => eprintln!("psbi-fleet: serve: accept failed: {e}"),
                }
            }
            // Unblock anything still waiting (queued submitters).
            state.wake.notify_all();
        });
        Ok(())
    }
}

/// Periodically expires overdue leases (and, under the
/// `dispatch.lease.expire_early` failpoint, not-yet-overdue ones — the
/// deterministic test hook for the redispatch path), and flushes the obs
/// sinks so a long-running serve process streams its trace out instead
/// of holding it until exit.
fn reaper_loop(state: &Arc<ServeState>) {
    let tick = Duration::from_millis(state.opts.lease_ms.clamp(40, 1_000) / 4);
    let mut last_flush = Instant::now();
    while !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        {
            let mut t = lock_table(state);
            let now = Instant::now();
            for c in t.campaigns.values_mut() {
                let overdue: Vec<u64> = c
                    .leases
                    .iter()
                    .filter(|(id, lease)| {
                        lease.deadline < now
                            || psbi_fault::failpoint!("dispatch.lease.expire_early", "lease" = **id)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                for id in overdue {
                    c.expire_lease(id, "deadline");
                }
            }
            update_gauges(&t);
        }
        state.wake.notify_all();
        if last_flush.elapsed() >= Duration::from_secs(5) {
            last_flush = Instant::now();
            if let Err(e) = psbi_obs::trace::flush() {
                eprintln!("psbi-fleet: serve: trace flush failed: {e}");
            }
            if let Err(e) = psbi_obs::metrics::flush() {
                eprintln!("psbi-fleet: serve: metrics flush failed: {e}");
            }
        }
    }
}

/// Inline degradation: when no worker is connected (and none has been
/// seen since `inline_grace_ms`), the dispatcher claims leases itself and
/// executes them in-process over the shared pool — same `execute_batch`
/// core, same commit path, so a worker-less serve is just a slow fleet.
fn inline_loop(state: &Arc<ServeState>) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(40));
        let grace = Duration::from_millis(state.opts.inline_grace_ms);
        let claim = {
            let mut t = lock_table(state);
            if t.workers > 0 || t.saw_worker || t.started.elapsed() < grace {
                // Workers own the grid (or may still show up).  After a
                // worker has ever connected, recovery is the lease
                // machinery's job — re-dispatch, not inline takeover.
                continue;
            }
            grant_lease(&mut t, 0, state.opts.lease_ms, state.opts.lease_jobs)
        };
        let Some((lease_id, campaign_id, _spec_text, job_ids, retries, verify)) = claim else {
            continue;
        };
        let (spec, jobs) = {
            let t = lock_table(state);
            let Some(c) = t.campaigns.get(&campaign_id) else {
                continue;
            };
            let jobs: Vec<JobSpec> = job_ids.iter().map(|&j| c.jobs[j].clone()).collect();
            (c.spec.clone(), jobs)
        };
        psbi_obs::metrics::counter_add("dispatch.jobs.inline", job_ids.len() as u64);
        let state2 = Arc::clone(state);
        let mut emit =
            |record: JobRecord, verify_failed: Option<String>| -> Result<bool, FleetError> {
                let mut t = lock_table(&state2);
                let Some(c) = t.campaigns.get_mut(&campaign_id) else {
                    return Ok(false);
                };
                // Renew our own lease so the reaper's expiry (or the
                // `expire_early` failpoint) at worst re-dispatches jobs this
                // batch has not reached — never one already committed.
                if let Some(lease) = c.leases.get_mut(&lease_id) {
                    lease.deadline = Instant::now() + Duration::from_millis(state2.opts.lease_ms);
                }
                let keep_going = c.failed.is_none();
                accept_record(c, lease_id, record, verify_failed);
                state2.wake.notify_all();
                Ok(keep_going && !state2.shutdown.load(Ordering::SeqCst))
            };
        let batch = execute_batch(&spec, &jobs, &state.pool, retries, verify, &mut emit);
        let mut t = lock_table(state);
        if let Some(c) = t.campaigns.get_mut(&campaign_id) {
            if let Err(e) = batch {
                // Inline execution failing to even build the flow is
                // campaign-fatal (a worker would hit the same wall —
                // the spec names an unbuildable circuit).
                c.failed.get_or_insert((e.code(), e.to_string()));
                c.pending.clear();
            }
            if let Some(lease) = c.leases.remove(&lease_id) {
                c.pending.extend(lease.jobs.iter().copied());
                c.lease_log.done(lease_id);
            }
        }
        update_gauges(&t);
        drop(t);
        state.wake.notify_all();
    }
}

/// Per-campaign progress lines: aggregate load from the metrics registry
/// gauges, per-campaign counts from the table.
fn progress_loop(state: &Arc<ServeState>) {
    while !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(500));
        let snap = psbi_obs::metrics::snapshot();
        let workers = snap.gauge("dispatch.workers.connected").unwrap_or(0);
        let t = lock_table(state);
        for (id, c) in &t.campaigns {
            eprintln!(
                "psbi-fleet: serve: campaign {id} `{}` {}/{} committed \
                 ({} quarantined), {} worker(s), {} lease(s) outstanding",
                c.spec.name,
                c.next,
                c.total,
                c.quarantined,
                workers,
                c.leases.len()
            );
        }
    }
}

/// A granted lease: lease id, campaign id, spec text, job indices and the
/// campaign's retry/verify settings.
type Grant = (u64, u64, String, Vec<usize>, usize, bool);

/// Grants one lease to `conn` (0 = inline): the lowest pending job's
/// circuit, up to `lease_jobs` of its pending jobs (0 = all of them),
/// rotating round-robin across active campaigns.
fn grant_lease(t: &mut Table, conn: u64, lease_ms: u64, lease_jobs: usize) -> Option<Grant> {
    let ids: Vec<u64> = t
        .campaigns
        .iter()
        .filter(|(_, c)| c.failed.is_none() && !c.pending.is_empty())
        .map(|(id, _)| *id)
        .collect();
    if ids.is_empty() {
        return None;
    }
    let picked = ids[(t.rr as usize) % ids.len()];
    t.rr = t.rr.wrapping_add(1);
    let lease_id = t.next_lease;
    t.next_lease += 1;
    let c = t.campaigns.get_mut(&picked)?;
    let _span = psbi_obs::Span::enter_with(
        "dispatch.lease",
        &[("lease", lease_id), ("campaign", picked)],
    );
    let first = *c.pending.iter().next()?;
    let circuit = c.jobs[first].circuit_index;
    let cap = if lease_jobs == 0 {
        usize::MAX
    } else {
        lease_jobs
    };
    let jobs: BTreeSet<usize> = c
        .pending
        .iter()
        .copied()
        .filter(|&j| c.jobs[j].circuit_index == circuit)
        .take(cap)
        .collect();
    for j in &jobs {
        c.pending.remove(j);
    }
    let job_list: Vec<usize> = jobs.iter().copied().collect();
    c.lease_log.grant(lease_id, conn, &jobs);
    c.leases.insert(
        lease_id,
        Lease {
            jobs,
            deadline: Instant::now() + Duration::from_millis(lease_ms),
            conn,
        },
    );
    psbi_obs::metrics::counter_add("dispatch.leases.granted", 1);
    let grant = (
        lease_id,
        picked,
        c.spec_text.clone(),
        job_list,
        c.retries,
        c.verify,
    );
    update_gauges(t);
    Some(grant)
}

/// Long-polls a worker's `request`: grants a lease as soon as one can be
/// granted, or returns `None` on shutdown or after [`LONG_POLL`].
/// `state.wake` is notified on every event that can make work grantable
/// — admission, accepted results, lease expiry, disconnects — and on
/// shutdown, so an idle worker is answered the moment work appears
/// instead of after a client-side back-off.
fn await_grant(state: &ServeState, conn_id: u64) -> Option<Grant> {
    let deadline = Instant::now() + LONG_POLL;
    let mut t = lock_table(state);
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let grant = grant_lease(&mut t, conn_id, state.opts.lease_ms, state.opts.lease_jobs);
        let left = deadline.saturating_duration_since(Instant::now());
        if grant.is_some() || left.is_zero() {
            return grant;
        }
        t = state
            .wake
            .wait_timeout(t, left)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Feeds one verified record into a campaign's reorder buffer.  A job
/// already committed or parked is a duplicate (first-committed-wins) and
/// is discarded; everything else is accepted, whether it arrives under a
/// live lease, a stale lease or no lease at all (a "late" result from a
/// worker whose lease expired is still a perfectly good pure-function
/// result).
fn accept_record(
    c: &mut Campaign,
    lease_id: u64,
    record: JobRecord,
    verify_failed: Option<String>,
) {
    let job = record.job;
    // Whichever lease currently holds the job releases it — including a
    // *different* lease after a re-dispatch, whose worker's eventual copy
    // then lands in the duplicate path below.
    let mut emptied = None;
    for (&id, lease) in c.leases.iter_mut() {
        if lease.jobs.remove(&job) && lease.jobs.is_empty() {
            emptied = Some(id);
        }
    }
    if let Some(id) = emptied {
        c.leases.remove(&id);
        c.lease_log.done(id);
    }
    let duplicate = job < c.next || c.parked.contains_key(&job);
    if duplicate {
        psbi_obs::metrics::counter_add("dispatch.results.duplicate", 1);
        return;
    }
    c.pending.remove(&job);
    if let Some(report) = verify_failed {
        c.verify_failures.push((job, report));
    }
    psbi_obs::metrics::counter_add("dispatch.results.accepted", 1);
    let _ = lease_id; // correlation is by job index; the lease id is diagnostics
    c.parked.insert(job, record);
    c.drain();
}

/// Dispatches one accepted connection by its first message.
fn handle_conn(state: &Arc<ServeState>, stream: TcpStream) -> Result<(), FleetError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    match read_msg(&mut reader)? {
        Some(Msg::Submit {
            spec,
            journal,
            retries,
            verify,
        }) => handle_submitter(state, &writer, &spec, &journal, retries, verify),
        Some(Msg::Hello { worker }) => handle_worker(state, &mut reader, &writer, &worker),
        Some(other) => Err(FleetError::Dispatch(format!(
            "expected submit or hello, got {}",
            other.to_line()
        ))),
        None => Ok(()), // probe connection (e.g. the shutdown self-connect)
    }
}

fn send(writer: &Arc<Mutex<TcpStream>>, msg: &Msg) -> Result<(), FleetError> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_msg(&mut *w, msg).map_err(FleetError::Io)
}

/// Admits a campaign (queueing behind `max_campaigns`) and returns its id.
fn admit_campaign(
    state: &Arc<ServeState>,
    spec_text: &str,
    journal_path: &str,
    retries: usize,
    verify: bool,
) -> Result<u64, FleetError> {
    let spec = CampaignSpec::from_json(spec_text)?;
    spec.validate()?;
    // Re-render: leases must carry the *canonical* spec bytes so worker
    // and dispatcher compute identical fingerprints and grids.
    let spec_text = spec.to_json();
    let jobs = spec.jobs();
    let total = jobs.len();
    let path = PathBuf::from(journal_path);
    let mut t = lock_table(state);
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return Err(FleetError::Dispatch("dispatcher is shutting down".into()));
        }
        if t.campaigns.values().any(|c| c.journal_path == path) {
            return Err(FleetError::Dispatch(format!(
                "a campaign is already active on journal `{journal_path}`"
            )));
        }
        if t.campaigns.len() < state.opts.max_campaigns.max(1) {
            break;
        }
        let (guard, _) = state
            .wake
            .wait_timeout(t, Duration::from_millis(200))
            .unwrap_or_else(PoisonError::into_inner);
        t = guard;
    }
    let (journal, existing) = Journal::open(&path, &spec)?;
    let resumed = existing.len();
    let quarantined = existing.iter().filter(|r| r.quarantined).count() as u64;
    let (lease_log, orphans, max_lease) =
        LeaseLog::open(&PathBuf::from(format!("{}.leases", path.display())))?;
    if orphans > 0 {
        psbi_obs::metrics::counter_add("dispatch.leases.orphaned", orphans as u64);
        eprintln!(
            "psbi-fleet: serve: journal `{journal_path}` left {orphans} orphaned lease(s) \
             from a previous dispatcher (their jobs are pending again)"
        );
    }
    t.next_lease = t.next_lease.max(max_lease + 1);
    let id = t.next_campaign;
    t.next_campaign += 1;
    t.campaigns.insert(
        id,
        Campaign {
            fingerprint: spec.fingerprint(),
            spec,
            spec_text,
            jobs,
            journal,
            journal_path: path,
            lease_log,
            total,
            next: resumed,
            resumed,
            parked: BTreeMap::new(),
            pending: (resumed..total).collect(),
            leases: HashMap::new(),
            retries,
            verify,
            quarantined,
            verify_failures: Vec::new(),
            failed: None,
        },
    );
    psbi_obs::metrics::counter_add("dispatch.campaigns.submitted", 1);
    update_gauges(&t);
    drop(t);
    state.wake.notify_all();
    Ok(id)
}

/// What the submit loop observed a campaign end as.
enum CampaignEnd {
    Done { committed: usize, quarantined: u64 },
    Failed { code: u8, message: String },
}

/// Serves one submitter: admit, stream progress, report the end state,
/// then retire the campaign (dropping its journal handle and lock).
fn handle_submitter(
    state: &Arc<ServeState>,
    writer: &Arc<Mutex<TcpStream>>,
    spec_text: &str,
    journal_path: &str,
    retries: usize,
    verify: bool,
) -> Result<(), FleetError> {
    let id = match admit_campaign(state, spec_text, journal_path, retries, verify) {
        Ok(id) => id,
        Err(e) => {
            let _ = send(
                writer,
                &Msg::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
            );
            return Err(e);
        }
    };
    let (total, resumed) = {
        let t = lock_table(state);
        let c = &t.campaigns[&id];
        (c.total, c.resumed)
    };
    let _span = psbi_obs::Span::enter_with(
        "dispatch.campaign",
        &[("campaign", id), ("jobs", total as u64)],
    );
    // The submitter may die; the campaign must not.  After a failed
    // write we stop talking but keep draining until the journal is done.
    let mut submitter_alive = send(
        writer,
        &Msg::Accepted {
            campaign: id,
            total,
            resumed,
        },
    )
    .is_ok();
    let mut last_progress = (resumed, Instant::now());
    let end = loop {
        let mut t = lock_table(state);
        let table = &mut *t;
        let c = table
            .campaigns
            .get_mut(&id)
            .expect("only this thread retires the campaign");
        if let Some((code, message)) = c.failed.clone() {
            // Outstanding leases are expired (`campaign-failed`) during
            // retirement below, so the advisory lease log closes every
            // grant; a late result for the retired campaign is acked as
            // a duplicate.
            break CampaignEnd::Failed { code, message };
        }
        if c.done() {
            break if c.verify_failures.is_empty() {
                CampaignEnd::Done {
                    committed: c.next,
                    quarantined: c.quarantined,
                }
            } else {
                let detail: Vec<String> = c
                    .verify_failures
                    .iter()
                    .map(|(job, report)| format!("job {job}: {report}"))
                    .collect();
                CampaignEnd::Failed {
                    code: 9,
                    message: format!(
                        "{} of {} job(s) failed independent verification — {}",
                        c.verify_failures.len(),
                        c.total,
                        detail.join("; ")
                    ),
                }
            };
        }
        let progress = (c.next, c.quarantined, table.workers);
        drop(
            state
                .wake
                .wait_timeout(t, Duration::from_millis(200))
                .unwrap_or_else(PoisonError::into_inner)
                .0,
        );
        if submitter_alive
            && (progress.0 > last_progress.0 || last_progress.1.elapsed().as_secs() >= 2)
        {
            last_progress = (progress.0, Instant::now());
            submitter_alive = send(
                writer,
                &Msg::Progress {
                    campaign: id,
                    committed: progress.0,
                    total,
                    quarantined: progress.1,
                    workers: progress.2,
                },
            )
            .is_ok();
        }
    };
    // Retire: close out whatever leases are still outstanding (a failed
    // campaign abandons them; a completed one has none) so the advisory
    // lease log matches reality — a grant left open here would read as
    // a crash orphan on the journal's next open — then drop the journal
    // handle (and its advisory lock) before announcing the result, so a
    // submitter chaining a `report` or a follow-up campaign never races
    // the lock.
    {
        let mut t = lock_table(state);
        if let Some(c) = t.campaigns.get_mut(&id) {
            let reason = match &end {
                CampaignEnd::Done { .. } => "campaign-done",
                CampaignEnd::Failed { .. } => "campaign-failed",
            };
            for lid in c.leases.keys().copied().collect::<Vec<u64>>() {
                c.expire_lease(lid, reason);
            }
        }
        t.campaigns.remove(&id);
        update_gauges(&t);
    }
    state.wake.notify_all();
    match &end {
        CampaignEnd::Done {
            committed,
            quarantined,
        } => {
            psbi_obs::metrics::counter_add("dispatch.campaigns.completed", 1);
            if submitter_alive {
                let _ = send(
                    writer,
                    &Msg::Done {
                        campaign: id,
                        committed: *committed,
                        quarantined: *quarantined,
                    },
                );
            }
        }
        CampaignEnd::Failed { code, message } => {
            if submitter_alive {
                let _ = send(
                    writer,
                    &Msg::Error {
                        code: *code,
                        message: message.clone(),
                    },
                );
            }
        }
    }
    if state.opts.once {
        initiate_shutdown(state);
    }
    Ok(())
}

/// Serves one worker session: grant leases, renew them on heartbeats,
/// verify + accept results, and expire everything the session held the
/// moment it ends (for whatever reason).
fn handle_worker(
    state: &Arc<ServeState>,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    worker_name: &str,
) -> Result<(), FleetError> {
    let conn_id = {
        let mut t = lock_table(state);
        let id = t.next_conn;
        t.next_conn += 1;
        t.workers += 1;
        t.saw_worker = true;
        t.conns.insert(id, Arc::clone(writer));
        update_gauges(&t);
        id
    };
    // A worker that says nothing for several lease periods is gone even
    // if its TCP connection lingers (e.g. a stalled process): time the
    // read out and let the cleanup below expire its leases.
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(
            state.opts.lease_ms.max(500) * 4,
        )));
    let outcome = worker_session(state, reader, writer, conn_id);
    let mut t = lock_table(state);
    t.workers -= 1;
    t.conns.remove(&conn_id);
    let held: Vec<(u64, u64)> = t
        .campaigns
        .iter()
        .flat_map(|(cid, c)| {
            c.leases
                .iter()
                .filter(|(_, lease)| lease.conn == conn_id)
                .map(|(lid, _)| (*cid, *lid))
        })
        .collect();
    for (cid, lid) in held {
        if let Some(c) = t.campaigns.get_mut(&cid) {
            c.expire_lease(lid, "conn-closed");
        }
    }
    update_gauges(&t);
    drop(t);
    state.wake.notify_all();
    if let Err(e) = &outcome {
        eprintln!("psbi-fleet: serve: worker `{worker_name}` session ended: {e}");
    }
    outcome
}

fn worker_session(
    state: &Arc<ServeState>,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    conn_id: u64,
) -> Result<(), FleetError> {
    loop {
        let msg = match read_msg(reader) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Msg::Request => match await_grant(state, conn_id) {
                Some((lease, campaign, spec, jobs, retries, verify)) => send(
                    writer,
                    &Msg::Lease {
                        lease,
                        campaign,
                        spec,
                        jobs,
                        deadline_ms: state.opts.lease_ms,
                        heartbeat_ms: state.opts.heartbeat_ms,
                        retries,
                        verify,
                    },
                )?,
                None if state.shutdown.load(Ordering::SeqCst) => {
                    // `initiate_shutdown` has already told this worker
                    // and closed the socket; the repeat is best effort.
                    let _ = send(writer, &Msg::Shutdown);
                    return Ok(());
                }
                None => send(writer, &Msg::Wait { ms: 0 })?,
            },
            Msg::Heartbeat { lease } => {
                let _span = psbi_obs::Span::enter_with("dispatch.heartbeat", &[("lease", lease)]);
                psbi_obs::metrics::counter_add("dispatch.heartbeats", 1);
                let mut live = false;
                {
                    let mut t = lock_table(state);
                    for c in t.campaigns.values_mut() {
                        if let Some(l) = c.leases.get_mut(&lease) {
                            l.deadline =
                                Instant::now() + Duration::from_millis(state.opts.lease_ms);
                            live = true;
                        }
                    }
                }
                if !live {
                    send(writer, &Msg::Expired { lease })?;
                }
            }
            Msg::Result {
                lease,
                campaign,
                fingerprint,
                record,
                verify_failed,
            } => {
                if psbi_fault::failpoint!("dispatch.conn.drop", "campaign" = campaign) {
                    // Drop the connection *before* processing: the worker
                    // never sees an ack, reconnects, and the record is
                    // either re-sent from its unacked cache or recomputed
                    // — identical bytes either way.
                    return Err(FleetError::Dispatch(
                        "injected fault: dispatch.conn.drop".into(),
                    ));
                }
                let parsed = match JobRecord::from_json_line(&record) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        // Torn or corrupted in transit: protocol
                        // violation, drop the connection, let the lease
                        // machinery re-dispatch.
                        psbi_obs::metrics::counter_add("dispatch.results.torn", 1);
                        return Err(FleetError::Dispatch(format!(
                            "result record failed verification: {e}"
                        )));
                    }
                };
                let job = parsed.job;
                {
                    let mut t = lock_table(state);
                    if let Some(c) = t.campaigns.get_mut(&campaign) {
                        // The record must be the pure function of (this
                        // campaign's spec, its job index) it claims to
                        // be.  A fingerprint mismatch means the worker
                        // computed it for a *different* campaign that
                        // shared the id across a dispatcher restart;
                        // the grid-identity check catches the same
                        // confusion from a worker that never learned
                        // fingerprints.  Either way the bytes are
                        // foreign: drop the connection (no ack) and let
                        // the lease machinery re-dispatch.
                        if fingerprint != c.fingerprint {
                            return Err(FleetError::Dispatch(format!(
                                "result for campaign {campaign} carries spec fingerprint \
                                 {fingerprint}, expected {}",
                                c.fingerprint
                            )));
                        }
                        if job >= c.total {
                            return Err(FleetError::Dispatch(format!(
                                "result names job {job} outside the {}-job grid",
                                c.total
                            )));
                        }
                        let expected = &c.jobs[job];
                        if parsed.circuit_id != expected.circuit.id()
                            || parsed.sigma_factor.to_bits() != expected.sigma_factor.to_bits()
                        {
                            return Err(FleetError::Dispatch(format!(
                                "record for job {job} does not match the campaign grid \
                                 (circuit `{}` σ {}, expected `{}` σ {})",
                                parsed.circuit_id,
                                parsed.sigma_factor,
                                expected.circuit.id(),
                                expected.sigma_factor
                            )));
                        }
                        accept_record(
                            c,
                            lease,
                            parsed,
                            (!verify_failed.is_empty()).then_some(verify_failed),
                        );
                    } else {
                        // Campaign already retired (completed while this
                        // result was in flight): the record is a
                        // duplicate by construction.
                        psbi_obs::metrics::counter_add("dispatch.results.duplicate", 1);
                    }
                    update_gauges(&t);
                }
                state.wake.notify_all();
                send(writer, &Msg::Ack { campaign, job })?;
            }
            Msg::Goodbye => return Ok(()),
            other => {
                return Err(FleetError::Dispatch(format!(
                    "unexpected worker message {}",
                    other.to_line()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_dispatch_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn lease_log_round_trips_and_counts_orphans() {
        let path = tmp("leaselog");
        let _ = std::fs::remove_file(&path);
        let (mut log, orphans, max) = LeaseLog::open(&path).unwrap();
        assert_eq!((orphans, max), (0, 0));
        log.grant(1, 7, &BTreeSet::from([0, 1]));
        log.grant(2, 7, &BTreeSet::from([2]));
        log.done(1);
        log.expire(2, "deadline");
        log.grant(3, 8, &BTreeSet::from([2]));
        drop(log);
        // Leases 1 and 2 closed, 3 orphaned (dispatcher "crashed").
        let (_log, orphans, max) = LeaseLog::open(&path).unwrap();
        assert_eq!(orphans, 1);
        assert_eq!(max, 3);
        // A torn tail line is tolerated.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"ev\":\"grant\",\"lea");
        std::fs::write(&path, &bytes).unwrap();
        let (_log, orphans, max) = LeaseLog::open(&path).unwrap();
        assert_eq!(orphans, 1);
        assert_eq!(max, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_and_late_results_discard_deterministically() {
        let spec = CampaignSpec::example();
        let jobs = spec.jobs();
        let total = jobs.len();
        let journal_path = tmp("dup.journal");
        let lease_path = tmp("dup.journal.leases");
        for p in [&journal_path, &lease_path] {
            let _ = std::fs::remove_file(p);
        }
        let (journal, _) = Journal::open(&journal_path, &spec).unwrap();
        let (lease_log, _, _) = LeaseLog::open(&lease_path).unwrap();
        let mut c = Campaign {
            spec_text: spec.to_json(),
            fingerprint: spec.fingerprint(),
            jobs: jobs.clone(),
            spec,
            journal,
            journal_path: journal_path.clone(),
            lease_log,
            total,
            next: 0,
            resumed: 0,
            parked: BTreeMap::new(),
            pending: (0..total).collect(),
            leases: HashMap::new(),
            retries: 0,
            verify: false,
            quarantined: 0,
            verify_failures: Vec::new(),
            failed: None,
        };
        let rec = |j: usize| JobRecord::quarantined(&jobs[j], "test".into());

        // Out-of-order arrival parks; in-order commits and drains.
        c.pending.remove(&1);
        accept_record(&mut c, 1, rec(1), None);
        assert_eq!(c.next, 0);
        assert_eq!(c.parked.len(), 1);
        c.pending.remove(&0);
        accept_record(&mut c, 2, rec(0), None);
        assert_eq!(c.next, 2);
        assert!(c.parked.is_empty());

        // A duplicate of a committed job is discarded, not re-journaled.
        let bytes_before = std::fs::read(&journal_path).unwrap();
        accept_record(&mut c, 3, rec(0), None);
        assert_eq!(c.next, 2);
        assert_eq!(std::fs::read(&journal_path).unwrap(), bytes_before);

        // A "late" result with no live lease is accepted if uncommitted.
        c.pending.remove(&2);
        accept_record(&mut c, 0, rec(2), None);
        assert_eq!(c.next, 3);

        // A result releases its job from whatever lease holds it, and an
        // emptied lease retires.
        c.leases.insert(
            9,
            Lease {
                jobs: BTreeSet::from([3]),
                deadline: Instant::now(),
                conn: 1,
            },
        );
        c.pending.remove(&3);
        accept_record(&mut c, 9, rec(3), None);
        assert!(c.leases.is_empty());
        assert!(c.done());
        for p in [&journal_path, &lease_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn expired_lease_returns_only_unreturned_jobs() {
        let spec = CampaignSpec::example();
        let jobs = spec.jobs();
        let journal_path = tmp("exp.journal");
        let lease_path = tmp("exp.journal.leases");
        for p in [&journal_path, &lease_path] {
            let _ = std::fs::remove_file(p);
        }
        let (journal, _) = Journal::open(&journal_path, &spec).unwrap();
        let (lease_log, _, _) = LeaseLog::open(&lease_path).unwrap();
        let total = jobs.len();
        let mut c = Campaign {
            spec_text: spec.to_json(),
            fingerprint: spec.fingerprint(),
            jobs: jobs.clone(),
            spec,
            journal,
            journal_path,
            lease_log,
            total,
            next: 0,
            resumed: 0,
            parked: BTreeMap::new(),
            pending: BTreeSet::new(),
            leases: HashMap::new(),
            retries: 0,
            verify: false,
            quarantined: 0,
            verify_failures: Vec::new(),
            failed: None,
        };
        c.leases.insert(
            5,
            Lease {
                jobs: BTreeSet::from([0, 1]),
                deadline: Instant::now(),
                conn: 2,
            },
        );
        // Job 0 came back before the lease expired.
        accept_record(
            &mut c,
            5,
            JobRecord::quarantined(&jobs[0], "t".into()),
            None,
        );
        c.expire_lease(5, "deadline");
        // Only job 1 is re-dispatched; job 0 is committed.
        assert_eq!(c.pending, BTreeSet::from([1]));
        assert_eq!(c.next, 1);
        let lease_file = tmp("exp.journal.leases");
        let journal_file = tmp("exp.journal");
        for p in [&lease_file, &journal_file] {
            let _ = std::fs::remove_file(p);
        }
    }
}
