//! The campaign dispatcher behind `psbi-fleet serve`: a TCP front over
//! the transport-free campaign engine (`dispatch/engine.rs`).
//!
//! One long-running process owns the journals.  Submitters hand it
//! campaigns ([`crate::proto::Msg::Submit`]); workers connect, request
//! work and receive **leases** — contiguous-by-circuit slices of the job
//! grid with a deadline.  Completed [`crate::JobRecord`]s come back over
//! the wire (checksummed end to end) and are committed by the engine,
//! the same core `psbi-fleet run` drives with local consumers — one
//! reorder buffer, one journal append, so a served journal is
//! byte-identical to a local one by construction.
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
//!   dispatcher degrades to inline execution in-process: the engine's
//!   lease-consumer loop over the same batch executor the workers use,
//!   so a campaign always completes.
//! * **A commit panics** — the engine catches it and fails the campaign
//!   with the worker-crash class (exit code 8); the journal keeps its
//!   valid prefix and a resubmission resumes from it.
//!
//! Campaigns multiplex over one shared [`WorkspacePool`]; leases are
//! granted round-robin across active campaigns so no submitter starves.
//! A worker's `request` with nothing grantable is long-polled: it is
//! answered the moment a lease can be granted, or `wait` after at most
//! one second.

pub(crate) mod engine;

use crate::error::FleetError;
use crate::journal::JobRecord;
use crate::proto::{read_msg, send, write_msg, Msg};
use crate::runner::execute_batch;
use crate::spec::CampaignSpec;
use engine::{consume_leases, report_progress, Campaign, Engine, Finished, Grant, LeaseLog, Table};
use psbi_core::flow::WorkspacePool;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default dispatcher address (`PSBI_DISPATCH_ADDR` overrides).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Default lease window in ms: [`ServeOptions::lease_ms`], and the read
/// timeout basis a worker applies before its first lease names one.
pub(crate) const DEFAULT_LEASE_MS: u64 = 10_000;

/// Longest a worker's `request` is held when nothing is grantable before
/// it is answered `wait`.  It stays below the shortest socket
/// read timeout either side applies, `4 × max(lease_ms, 500)` = 2 s, so
/// a held request never reads as a dead peer.
const LONG_POLL: Duration = Duration::from_secs(1);

/// Knobs for one `psbi-fleet serve` process.
///
/// Like [`crate::FleetOptions`], these are *runtime* knobs: none of them
/// may change a single canonical byte.  Lease sizes and deadlines only
/// shuffle which worker computes which pure function — the reorder
/// buffer erases the difference.
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
    /// Lease duration in ms: a lease not renewed within this window
    /// expires and its jobs are re-dispatched.  Workers heartbeat at a
    /// quarter of it (clamped to 10 ms–60 s).
    pub lease_ms: u64,
    /// How long the dispatcher waits for a first worker before degrading
    /// to inline in-process execution.
    pub inline_grace_ms: u64,
    /// Exit after the first submitted campaign completes (broadcasting
    /// `shutdown` to connected workers).
    pub once: bool,
    /// Per-campaign progress lines on stderr.
    pub progress: bool,
    /// Write the bound address (one line) here once listening — how
    /// scripts discover a port-0 dispatcher.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: std::env::var("PSBI_DISPATCH_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.into()),
            max_campaigns: 1,
            lease_jobs: 0,
            lease_ms: DEFAULT_LEASE_MS,
            inline_grace_ms: 1_000,
            once: false,
            progress: false,
            addr_file: None,
        }
    }
}

/// The serve process: the campaign engine plus its TCP sessions.
struct ServeState {
    opts: ServeOptions,
    engine: Engine,
    /// Writer halves of connected worker sessions (for the shutdown
    /// broadcast and to interleave replies line-atomically).
    conns: Mutex<HashMap<u64, Arc<Mutex<TcpStream>>>>,
    /// Next worker connection id.  Ids start at 1, so a value above 1
    /// means a worker has said hello (which ends the inline fallback).
    next_conn: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    pool: Arc<WorkspacePool>,
    local_addr: SocketAddr,
}

fn lock_conns(state: &ServeState) -> MutexGuard<'_, HashMap<u64, Arc<Mutex<TcpStream>>>> {
    state.conns.lock().unwrap_or_else(PoisonError::into_inner)
}

fn update_gauges(state: &ServeState, t: &Table) {
    psbi_obs::metrics::gauge_set("dispatch.workers.connected", lock_conns(state).len() as u64);
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
    for conn in lock_conns(state).values() {
        let mut w = conn.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = write_msg(&mut *w, &Msg::Shutdown);
        let _ = w.shutdown(Shutdown::Both);
    }
    // Taking the engine lock orders the flag before any waiter's next
    // check, so none of them sleeps through the broadcast.
    drop(state.engine.lock());
    state.engine.wake.notify_all();
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
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| FleetError::Dispatch(format!("cannot bind `{}`: {e}", opts.addr)))?;
        let local_addr = listener.local_addr()?;
        if let Some(path) = &opts.addr_file {
            std::fs::write(path, format!("{local_addr}\n"))?;
        }
        let state = Arc::new(ServeState {
            opts,
            engine: Engine::new(),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            started: Instant::now(),
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
                scope.spawn(|| {
                    report_progress(&state.engine, || state.shutdown.load(Ordering::SeqCst))
                });
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
            state.engine.wake.notify_all();
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
            let mut t = state.engine.lock();
            let now = Instant::now();
            for c in t.campaigns.values_mut() {
                c.expire_leases("deadline", |id, lease| {
                    lease.deadline < now
                        || psbi_fault::failpoint!("dispatch.lease.expire_early", "lease" = id)
                });
            }
            update_gauges(state, &t);
        }
        state.engine.wake.notify_all();
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

/// Inline degradation: when no worker has connected within
/// `inline_grace_ms`, the dispatcher runs the engine's lease-consumer
/// loop itself, executing each lease in-process over the shared pool with
/// the workers' batch executor — so a worker-less serve is just a slow
/// fleet.
fn inline_loop(state: &Arc<ServeState>) {
    let grace = Duration::from_millis(state.opts.inline_grace_ms);
    let stopped = || state.shutdown.load(Ordering::SeqCst);
    while !stopped() {
        std::thread::sleep(Duration::from_millis(40));
        consume_leases(
            &state.engine,
            |t| {
                // Workers own the grid (or may still show up).  After a
                // worker has ever connected, recovery is the lease
                // machinery's job — re-dispatch, not inline takeover.
                if stopped()
                    || state.next_conn.load(Ordering::SeqCst) > 1
                    || state.started.elapsed() < grace
                {
                    return None;
                }
                let grant = grant(state, t, 0)?;
                psbi_obs::metrics::counter_add("dispatch.jobs.inline", grant.jobs.len() as u64);
                Some(grant)
            },
            stopped,
            |lease, emit| execute_batch(&lease.spec, &lease.jobs, &state.pool, lease.verify, emit),
        );
    }
}

/// Grants a lease to connection `conn` (0 = the inline consumer) under
/// serve's lease settings.
fn grant(state: &ServeState, t: &mut Table, conn: u64) -> Option<Grant> {
    let grant = t.grant_lease(conn, state.opts.lease_ms, state.opts.lease_jobs)?;
    let _span = psbi_obs::Span::enter_with(
        "dispatch.lease",
        &[("lease", grant.lease), ("campaign", grant.campaign)],
    );
    psbi_obs::metrics::counter_add("dispatch.leases.granted", 1);
    update_gauges(state, t);
    Some(grant)
}

/// Long-polls a worker's `request`: grants a lease as soon as one can be
/// granted, or returns `None` on shutdown or after [`LONG_POLL`].  The
/// engine's `wake` is notified on every event that can make work
/// grantable — admission, accepted results, lease expiry, disconnects —
/// and on shutdown, so an idle worker is answered the moment work
/// appears instead of after a client-side back-off.  A grant comes with
/// its campaign's canonical spec text.
fn await_grant(state: &ServeState, conn_id: u64) -> Option<(Grant, String)> {
    let deadline = Instant::now() + LONG_POLL;
    let mut t = state.engine.lock();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(g) = grant(state, &mut t, conn_id) {
            let spec_text = t.campaigns[&g.campaign].spec_text.clone();
            return Some((g, spec_text));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        t = state.engine.wait(t, left);
    }
}

/// Dispatches one accepted connection by its first message.
fn handle_conn(state: &Arc<ServeState>, stream: TcpStream) -> Result<(), FleetError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    match read_msg(&mut reader)? {
        Some(Msg::Submit {
            spec,
            journal,
            verify,
        }) => handle_submitter(state, &writer, &spec, &journal, verify),
        Some(Msg::Hello { worker }) => handle_worker(state, &mut reader, &writer, &worker),
        Some(other) => Err(FleetError::Dispatch(format!(
            "expected submit or hello, got {}",
            other.to_line()
        ))),
        None => Ok(()), // probe connection (e.g. the shutdown self-connect)
    }
}

/// Admits a campaign (queueing behind `max_campaigns`) and returns its
/// id, grid size and resumed-record count.
fn admit_campaign(
    state: &Arc<ServeState>,
    spec_text: &str,
    journal_path: &str,
    verify: bool,
) -> Result<(u64, usize, usize), FleetError> {
    let spec = CampaignSpec::from_json(spec_text)?;
    spec.validate()?;
    let path = PathBuf::from(journal_path);
    let mut t = state.engine.lock();
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
        t = state.engine.wait(t, Duration::from_millis(200));
    }
    // The campaign keeps the *canonical* re-rendered spec text, which its
    // leases carry, so worker and dispatcher compute identical
    // fingerprints and grids.
    let mut campaign = Campaign::open(spec, path.clone(), None, verify)?;
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
    campaign.lease_log = Some(lease_log);
    let (total, resumed) = (campaign.total, campaign.resumed);
    let id = t.admit(campaign);
    psbi_obs::metrics::counter_add("dispatch.campaigns.submitted", 1);
    update_gauges(state, &t);
    drop(t);
    state.engine.wake.notify_all();
    Ok((id, total, resumed))
}

/// Serves one submitter: admit, stream progress, report the end state,
/// then retire the campaign (dropping its journal handle and lock).
fn handle_submitter(
    state: &Arc<ServeState>,
    writer: &Arc<Mutex<TcpStream>>,
    spec_text: &str,
    journal_path: &str,
    verify: bool,
) -> Result<(), FleetError> {
    let (id, total, resumed) = match admit_campaign(state, spec_text, journal_path, verify) {
        Ok(admitted) => admitted,
        Err(e) => {
            let _ = send(writer, &Msg::error(&e));
            return Err(e);
        }
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
    // The loop ends with the submitter's terminal message.
    let end = loop {
        let t = state.engine.lock();
        // Only this thread retires the campaign.  Outstanding leases of a
        // failed campaign are expired (`campaign-failed`) during
        // retirement below, so the advisory lease log closes every grant;
        // a late result for the retired campaign is acked as a duplicate.
        let c = &t.campaigns[&id];
        if let Some(e) = &c.failed {
            break Msg::error(e);
        }
        if c.done() {
            break match c.verify_error() {
                Some(e) => Msg::error(&e),
                None => Msg::Done {
                    campaign: id,
                    committed: c.next,
                    quarantined: c.quarantined(),
                },
            };
        }
        let progress = (c.next, c.quarantined(), lock_conns(state).len() as u64);
        drop(state.engine.wait(t, Duration::from_millis(200)));
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
    let done = matches!(end, Msg::Done { .. });
    {
        let mut t = state.engine.lock();
        if let Some(c) = t.campaigns.get_mut(&id) {
            let reason = if done {
                "campaign-done"
            } else {
                "campaign-failed"
            };
            c.expire_leases(reason, |_, _| true);
        }
        t.campaigns.remove(&id);
        update_gauges(state, &t);
    }
    state.engine.wake.notify_all();
    if done {
        psbi_obs::metrics::counter_add("dispatch.campaigns.completed", 1);
    }
    if submitter_alive {
        let _ = send(writer, &end);
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
    let conn_id = state.next_conn.fetch_add(1, Ordering::SeqCst);
    lock_conns(state).insert(conn_id, Arc::clone(writer));
    update_gauges(state, &state.engine.lock());
    // A worker that says nothing for several lease periods is gone even
    // if its TCP connection lingers (e.g. a stalled process): time the
    // read out and let the cleanup below expire its leases.
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(
            state.opts.lease_ms.max(500) * 4,
        )));
    let outcome = worker_session(state, reader, writer, conn_id);
    lock_conns(state).remove(&conn_id);
    let mut t = state.engine.lock();
    for c in t.campaigns.values_mut() {
        c.expire_leases("conn-closed", |_, lease| lease.conn == conn_id);
    }
    update_gauges(state, &t);
    drop(t);
    state.engine.wake.notify_all();
    match outcome {
        // Once shutdown has begun, `initiate_shutdown` closes every worker
        // socket, so a reply racing it (the last `ack`, a `wait`) fails
        // with a broken pipe.  That is normal teardown, not a lost worker.
        Err(_) if state.shutdown.load(Ordering::SeqCst) => Ok(()),
        Err(e) => {
            eprintln!("psbi-fleet: serve: worker `{worker_name}` session ended: {e}");
            Err(e)
        }
        Ok(()) => Ok(()),
    }
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
                Some((grant, spec)) => send(
                    writer,
                    &Msg::Lease {
                        lease: grant.lease,
                        campaign: grant.campaign,
                        spec,
                        jobs: grant.jobs.iter().map(|j| j.index).collect(),
                        deadline_ms: grant.lease_ms,
                        verify: grant.verify,
                    },
                )?,
                None if state.shutdown.load(Ordering::SeqCst) => {
                    // `initiate_shutdown` has already told this worker
                    // and closed the socket; the repeat is best effort.
                    let _ = send(writer, &Msg::Shutdown);
                    return Ok(());
                }
                None => send(writer, &Msg::Wait)?,
            },
            Msg::Heartbeat { lease } => {
                let _span = psbi_obs::Span::enter_with("dispatch.heartbeat", &[("lease", lease)]);
                psbi_obs::metrics::counter_add("dispatch.heartbeats", 1);
                let mut live = false;
                {
                    let mut t = state.engine.lock();
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
                    let mut t = state.engine.lock();
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
                        let verify_failed = (!verify_failed.is_empty()).then_some(verify_failed);
                        let counter = if c.accept_record(Finished::remote(parsed, verify_failed)) {
                            "dispatch.results.accepted"
                        } else {
                            "dispatch.results.duplicate"
                        };
                        psbi_obs::metrics::counter_add(counter, 1);
                    } else {
                        // Campaign already retired (completed while this
                        // result was in flight): the record is a
                        // duplicate by construction.
                        psbi_obs::metrics::counter_add("dispatch.results.duplicate", 1);
                    }
                    update_gauges(state, &t);
                }
                state.engine.wake.notify_all();
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
    use super::engine::Lease;
    use super::*;
    use std::collections::BTreeSet;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_dispatch_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn session_error_after_once_shutdown_is_normal_teardown() {
        // A `once` dispatcher shuts down as soon as its campaign ends, and
        // a worker session can be mid-reply at that moment: the reply
        // hits a socket `initiate_shutdown` already closed.  Replay that
        // order deterministically with a raw worker whose heartbeat is
        // answered after shutdown began and after its write half closed.
        let dispatcher = Dispatcher::bind(ServeOptions {
            addr: "127.0.0.1:0".into(),
            once: true,
            ..ServeOptions::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut worker = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        write_msg(&mut worker, &Msg::Heartbeat { lease: 7 }).unwrap();
        initiate_shutdown(&dispatcher.state);
        conn.shutdown(Shutdown::Write).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let writer = Arc::new(Mutex::new(conn));
        let outcome = handle_worker(&dispatcher.state, &mut reader, &writer, "raw");
        assert!(outcome.is_ok(), "teardown reported as failure: {outcome:?}");
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
        let journal_path = tmp("dup.journal");
        let lease_path = tmp("dup.journal.leases");
        for p in [&journal_path, &lease_path] {
            let _ = std::fs::remove_file(p);
        }
        let mut c = Campaign::open(spec, journal_path.clone(), None, false).unwrap();
        c.lease_log = Some(LeaseLog::open(&lease_path).unwrap().0);
        let rec =
            |j: usize| Finished::remote(JobRecord::quarantined(&jobs[j], "test".into()), None);

        // Out-of-order arrival parks; in-order commits and drains.
        c.pending.remove(&1);
        c.accept_record(rec(1));
        assert_eq!(c.next, 0);
        assert_eq!(c.parked.len(), 1);
        c.pending.remove(&0);
        c.accept_record(rec(0));
        assert_eq!(c.next, 2);
        assert!(c.parked.is_empty());

        // A duplicate of a committed job is discarded, not re-journaled.
        let bytes_before = std::fs::read(&journal_path).unwrap();
        c.accept_record(rec(0));
        assert_eq!(c.next, 2);
        assert_eq!(std::fs::read(&journal_path).unwrap(), bytes_before);

        // A "late" result with no live lease is accepted if uncommitted.
        c.pending.remove(&2);
        c.accept_record(rec(2));
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
        c.accept_record(rec(3));
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
        let mut c = Campaign::open(spec, journal_path, None, false).unwrap();
        c.lease_log = Some(LeaseLog::open(&lease_path).unwrap().0);
        c.pending.clear();
        c.leases.insert(
            5,
            Lease {
                jobs: BTreeSet::from([0, 1]),
                deadline: Instant::now(),
                conn: 2,
            },
        );
        // Job 0 came back before the lease expired.
        c.accept_record(Finished::remote(
            JobRecord::quarantined(&jobs[0], "t".into()),
            None,
        ));
        c.end_lease(5, Some("deadline"));
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
