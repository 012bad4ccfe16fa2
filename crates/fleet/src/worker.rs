//! The dispatch clients: `psbi-fleet worker` and `psbi-fleet submit`.
//!
//! # Worker
//!
//! [`run_worker`] connects to a dispatcher, requests leases and executes
//! them through the same [`crate::runner`] job executor the local runner
//! and the dispatcher's inline fallback use — the determinism story needs
//! exactly one implementation of "run job `i`".
//! The robustness machinery wraps around it:
//!
//! * **Capped exponential backoff** on connect/reconnect (reset after
//!   every successful session), so a dispatcher restart is survived
//!   without a thundering herd.
//! * **Heartbeats** per lease on a dedicated thread sharing the
//!   line-atomic writer, so a long solve does not look like a dead
//!   worker.  The thread is owned by an RAII guard: it beats every
//!   quarter of the lease's `deadline_ms` (clamped to 10 ms–60 s) while
//!   the lease runs, and dropping the guard at the lease's end wakes and
//!   joins it at once — a lease ends at its last ack, never at the next
//!   beat.  The `dispatch.worker.stall` failpoint suppresses beats — the
//!   deterministic test for the expiry/re-dispatch path.
//! * **One outstanding request.**  A `request` is sent once and its
//!   reply read past any stale `ack`/`expired` left over from the
//!   previous lease (a heartbeat that crossed the lease's last ack, or
//!   the ack of a result sent just before an expiry), so a stale message
//!   never provokes a second request whose reply would land inside the
//!   next lease.
//! * **Unacknowledged results**: every computed record is kept until the
//!   dispatcher acknowledges it.  After a dropped connection the worker
//!   resumes from its last acknowledged record — re-leased jobs it
//!   already computed are *re-sent*, not re-computed (and if someone
//!   else committed them first, the dispatcher discards the duplicate;
//!   the bytes are identical either way).  Each lease's spec text is
//!   parsed when the lease arrives, and the kept records belong to one
//!   **spec fingerprint**, the current lease's: a lease of another spec
//!   drops them, so the map never outgrows one job grid.  The
//!   fingerprint, never the dispatcher-assigned campaign id, decides:
//!   ids restart when a dispatcher restarts, so an id can name a
//!   different campaign across sessions — the fingerprint cannot, and a
//!   kept record is valid for *any* campaign with the same fingerprint
//!   because it is a pure function of (spec, job).
//! * **Read/write timeouts** on the dispatcher socket, renewed from
//!   each lease's deadline: a stalled-but-alive dispatcher (or a
//!   half-open connection) surfaces as a lost connection and the
//!   reconnect path takes over, instead of wedging the worker forever.
//! * **`worker.result.torn`** tears the result line mid-write and drops
//!   the connection, exercising the dispatcher's framing rejection.
//!
//! # Submitter
//!
//! [`submit_campaign`] sends a spec, relays progress lines and maps the
//! dispatcher's terminal `error` message back onto the same
//! [`FleetError`] class (and exit code) a local `psbi-fleet run` would
//! have produced.

use crate::dispatch::engine::Finished;
use crate::error::FleetError;
use crate::proto::{read_msg, send, write_msg, Msg};
use crate::runner::execute_batch;
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::WorkspacePool;
use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs for one `psbi-fleet worker` process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Dispatcher address (`PSBI_DISPATCH_ADDR` is the CLI default).
    pub addr: String,
    /// Display name sent in `hello` (diagnostics only).
    pub name: String,
    /// First reconnect delay.
    pub backoff_min_ms: u64,
    /// Backoff cap (doubles per failed attempt up to this).
    pub backoff_max_ms: u64,
    /// Exit cleanly after this long without reaching a dispatcher
    /// (`None` = retry forever; the dispatcher's `shutdown` message is
    /// the orderly exit path).
    pub max_idle_ms: Option<u64>,
    /// Echo per-lease activity to stderr.
    pub progress: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            addr: std::env::var("PSBI_DISPATCH_ADDR")
                .unwrap_or_else(|_| crate::dispatch::DEFAULT_ADDR.into()),
            name: format!("worker-{}", std::process::id()),
            backoff_min_ms: 100,
            backoff_max_ms: 5_000,
            max_idle_ms: None,
            progress: false,
        }
    }
}

/// How one connected session ended.
enum SessionEnd {
    /// Dispatcher said `shutdown`: exit the worker.
    Shutdown,
    /// Connection lost (EOF, IO error, protocol violation, injected
    /// tear): reconnect with backoff.
    ConnLost,
}

/// How one lease ended, from the session loop's point of view.
enum LeaseEnd {
    /// Lease fully delivered or expired under us: request more work on
    /// the same connection.
    Continue,
    /// Dispatcher said `shutdown`.
    Shutdown,
    /// Connection lost mid-lease.
    ConnLost,
}

/// Per-process worker state that must survive reconnects: the shared
/// workspace pool and the unacknowledged records of one spec.
struct WorkerMemory {
    pool: Arc<WorkspacePool>,
    /// [`CampaignSpec::fingerprint`] of the spec `unacked` was computed
    /// from — the last lease's (see the module docs).
    fingerprint: String,
    /// Computed but never acknowledged: job → the exact record line
    /// (+ verifier failure report) to re-send.
    unacked: HashMap<usize, (String, String)>,
}

impl WorkerMemory {
    fn new() -> Self {
        Self {
            pool: Arc::new(WorkspacePool::new()),
            fingerprint: String::new(),
            unacked: HashMap::new(),
        }
    }
}

/// Runs a worker until the dispatcher says `shutdown` (or `max_idle_ms`
/// passes without any dispatcher) — the `psbi-fleet worker` entry point.
///
/// # Errors
///
/// Only setup-class failures; connection loss and dispatcher restarts
/// are retried, not returned.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), FleetError> {
    let mut memory = WorkerMemory::new();
    let mut backoff = Duration::from_millis(opts.backoff_min_ms.max(1));
    let mut last_contact = Instant::now();
    loop {
        if let Ok(stream) = TcpStream::connect(&opts.addr) {
            backoff = Duration::from_millis(opts.backoff_min_ms.max(1));
            match session(opts, stream, &mut memory) {
                Ok(SessionEnd::Shutdown) => {
                    if opts.progress {
                        eprintln!("psbi-fleet: worker `{}`: dispatcher shut down", opts.name);
                    }
                    return Ok(());
                }
                Ok(SessionEnd::ConnLost) => {}
                Err(e) => {
                    if opts.progress {
                        eprintln!("psbi-fleet: worker `{}`: session error: {e}", opts.name);
                    }
                }
            }
            last_contact = Instant::now();
        }
        if let Some(max) = opts.max_idle_ms {
            if last_contact.elapsed() >= Duration::from_millis(max) {
                if opts.progress {
                    eprintln!(
                        "psbi-fleet: worker `{}`: no dispatcher for {max} ms, exiting",
                        opts.name
                    );
                }
                return Ok(());
            }
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(opts.backoff_max_ms.max(1)));
    }
}

/// Applies the session IO timeouts — `lease_ms.max(500) * 4`, mirroring
/// the dispatcher's own worker-read timeout.  A timed-out read or write
/// surfaces as an IO error, which every caller already treats as a lost
/// connection, so a stalled (not dead) dispatcher hands control to the
/// reconnect/backoff path instead of wedging the worker forever.
fn set_io_timeouts(stream: &TcpStream, lease_ms: u64) {
    let timeout = Duration::from_millis(lease_ms.max(500).saturating_mul(4));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
}

/// One connected session: hello, then request/execute leases until the
/// connection ends.
fn session(
    opts: &WorkerOptions,
    stream: TcpStream,
    memory: &mut WorkerMemory,
) -> Result<SessionEnd, FleetError> {
    // Until a lease names its actual deadline, time IO out against the
    // default lease window.
    set_io_timeouts(&stream, crate::dispatch::DEFAULT_LEASE_MS);
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    send(
        &writer,
        &Msg::Hello {
            worker: opts.name.clone(),
        },
    )?;
    loop {
        send(&writer, &Msg::Request)?;
        let msg = loop {
            match read_msg(&mut reader) {
                // Stale replies for an earlier lease; the request is
                // still outstanding, so keep reading — never re-request.
                Ok(Some(Msg::Ack { .. } | Msg::Expired { .. })) => {}
                Ok(Some(msg)) => break msg,
                Ok(None) | Err(_) => return Ok(SessionEnd::ConnLost),
            }
        };
        match msg {
            // The dispatcher already held the request for its long poll.
            Msg::Wait => {}
            Msg::Shutdown => return Ok(SessionEnd::Shutdown),
            Msg::Lease {
                lease,
                campaign,
                spec,
                jobs,
                deadline_ms,
                verify,
            } => {
                if opts.progress {
                    eprintln!(
                        "psbi-fleet: worker `{}`: lease {lease} (campaign {campaign}, {} job(s))",
                        opts.name,
                        jobs.len()
                    );
                }
                set_io_timeouts(reader.get_ref(), deadline_ms);
                let ctx = LeaseCtx {
                    lease,
                    campaign,
                    spec_text: spec,
                    jobs,
                    deadline_ms,
                    verify,
                };
                match run_lease(&mut reader, &writer, memory, &ctx)? {
                    LeaseEnd::Continue => {}
                    LeaseEnd::Shutdown => return Ok(SessionEnd::Shutdown),
                    LeaseEnd::ConnLost => return Ok(SessionEnd::ConnLost),
                }
            }
            other => {
                return Err(FleetError::Dispatch(format!(
                    "unexpected dispatcher message {}",
                    other.to_line()
                )))
            }
        }
    }
}

struct LeaseCtx {
    lease: u64,
    campaign: u64,
    spec_text: String,
    jobs: Vec<usize>,
    deadline_ms: u64,
    verify: bool,
}

/// What the ack-wait loop decided for one delivered result.
enum AckWait {
    /// Record acknowledged; keep going.
    Acked,
    /// This lease expired under us; abandon its remaining jobs (cache
    /// intact — a re-lease re-sends instead of re-computing).
    Abandon,
    /// Dispatcher is going away.
    Shutdown,
    /// Connection lost.
    ConnLost,
}

/// The heartbeat interval of a lease whose window is `deadline_ms`: a
/// quarter of the window, clamped to 10 ms–60 s.
fn heartbeat_interval(deadline_ms: u64) -> Duration {
    Duration::from_millis((deadline_ms / 4).clamp(10, 60_000))
}

/// Renews one lease from a background thread for as long as it lives.
/// The thread waits on a channel with the heartbeat interval as its
/// timeout: each timeout sends one beat, and dropping the guard sends
/// the stop signal, which wakes the thread at once, then joins it.
struct Heartbeat {
    stop: mpsc::Sender<()>,
    thread: Option<JoinHandle<()>>,
}

impl Heartbeat {
    fn start(writer: &Arc<Mutex<TcpStream>>, lease: u64, interval: Duration) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let writer = Arc::clone(writer);
        let thread = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                // The `dispatch.worker.stall` failpoint suppresses beats
                // so the dispatcher-side expiry path can be tested
                // deterministically: the lease goes unrenewed.
                if psbi_fault::failpoint!("dispatch.worker.stall", "lease" = lease) {
                    continue;
                }
                if send(&writer, &Msg::Heartbeat { lease }).is_err() {
                    break;
                }
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        // The thread may already have exited on a failed send, so the
        // stop signal can find no receiver; either way the join is due.
        let _ = self.stop.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Executes one lease: re-sends kept unacked records first, then
/// computes the rest, heartbeating until the function returns.
fn run_lease(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    memory: &mut WorkerMemory,
    ctx: &LeaseCtx,
) -> Result<LeaseEnd, FleetError> {
    let spec = CampaignSpec::from_json(&ctx.spec_text)?;
    let grid = spec.jobs();
    for &j in &ctx.jobs {
        if j >= grid.len() {
            return Err(FleetError::Dispatch(format!(
                "lease names job {j} outside the {}-job grid",
                grid.len()
            )));
        }
    }
    let fingerprint = spec.fingerprint();
    if memory.fingerprint != fingerprint {
        memory.unacked.clear();
        memory.fingerprint = fingerprint;
    }
    let _heartbeat = Heartbeat::start(writer, ctx.lease, heartbeat_interval(ctx.deadline_ms));

    // Phase 1: re-send computed-but-unacked records for this lease's
    // jobs (resume from the last acknowledged record, no recompute).
    // They were computed from a spec with this lease's fingerprint, so
    // a record kept across a dispatcher restart is only ever re-sent for
    // a campaign with the *same* spec — for which its bytes are correct
    // by construction.
    let mut fresh: Vec<JobSpec> = Vec::new();
    for &j in &ctx.jobs {
        if let Some((line, verify_failed)) = memory.unacked.get(&j).cloned() {
            match send_and_await(reader, writer, memory, ctx, j, &line, &verify_failed)? {
                AckWait::Acked => {}
                AckWait::Abandon => return Ok(LeaseEnd::Continue),
                AckWait::Shutdown => return Ok(LeaseEnd::Shutdown),
                AckWait::ConnLost => return Ok(LeaseEnd::ConnLost),
            }
        } else {
            fresh.push(grid[j].clone());
        }
    }

    // Phase 2: compute the rest, delivering each record as it commits
    // locally.  `execute_batch` stops early when `emit` returns false.
    let mut end = LeaseEnd::Continue;
    let pool = Arc::clone(&memory.pool);
    let mut delivery: Result<(), FleetError> = Ok(());
    let mut emit = |finished: Finished| -> bool {
        let job = finished.record.job;
        let line = finished.record.to_json_line();
        let verify_failed = finished.verify_failed.unwrap_or_default();
        memory
            .unacked
            .insert(job, (line.clone(), verify_failed.clone()));
        match send_and_await(reader, writer, memory, ctx, job, &line, &verify_failed) {
            Ok(AckWait::Acked) => true,
            Ok(AckWait::Abandon) => false,
            Ok(AckWait::Shutdown) => {
                end = LeaseEnd::Shutdown;
                false
            }
            Ok(AckWait::ConnLost) => {
                end = LeaseEnd::ConnLost;
                false
            }
            Err(e) => {
                delivery = Err(e);
                false
            }
        }
    };
    execute_batch(&spec, &fresh, &pool, ctx.verify, &mut emit)?;
    delivery?;
    Ok(end)
}

/// Sends one result line and blocks until the dispatcher's verdict.
/// Under `worker.result.torn`, half the line is written and the
/// connection killed instead.
fn send_and_await(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    memory: &mut WorkerMemory,
    ctx: &LeaseCtx,
    job: usize,
    line: &str,
    verify_failed: &str,
) -> Result<AckWait, FleetError> {
    let msg = Msg::Result {
        campaign: ctx.campaign,
        fingerprint: memory.fingerprint.clone(),
        record: line.to_string(),
        verify_failed: verify_failed.to_string(),
    };
    if psbi_fault::failpoint!("worker.result.torn", "job" = job) {
        // Tear the message mid-line and die: the dispatcher must reject
        // the fragment and re-dispatch; our cached copy is re-sent
        // intact after reconnect.
        let wire = format!("{}\n", msg.to_line());
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(&wire.as_bytes()[..wire.len() / 2]);
        let _ = w.flush();
        let _ = w.shutdown(Shutdown::Both);
        return Ok(AckWait::ConnLost);
    }
    if send(writer, &msg).is_err() {
        return Ok(AckWait::ConnLost);
    }
    loop {
        match read_msg(reader) {
            Ok(Some(Msg::Ack { campaign, job: j })) if campaign == ctx.campaign && j == job => {
                memory.unacked.remove(&job);
                return Ok(AckWait::Acked);
            }
            Ok(Some(Msg::Ack { .. })) => {} // stale ack from an earlier lease
            Ok(Some(Msg::Expired { lease })) if lease == ctx.lease => return Ok(AckWait::Abandon),
            Ok(Some(Msg::Expired { .. })) => {} // stale expiry notice
            Ok(Some(Msg::Shutdown)) => return Ok(AckWait::Shutdown),
            Ok(Some(_)) | Ok(None) | Err(_) => return Ok(AckWait::ConnLost),
        }
    }
}

/// Knobs for one `psbi-fleet submit` invocation.  None of them changes a
/// canonical byte, and the job retry budget is not among them: workers
/// retry a panicking job twice, as a local run does.
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Dispatcher address.
    pub addr: String,
    /// Ask workers to run the independent verifier per job.
    pub verify: bool,
    /// Relay dispatcher progress messages to stderr.
    pub progress: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            addr: std::env::var("PSBI_DISPATCH_ADDR")
                .unwrap_or_else(|_| crate::dispatch::DEFAULT_ADDR.into()),
            verify: false,
            progress: false,
        }
    }
}

/// What a completed submission reported.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Dispatcher-assigned campaign id.
    pub campaign: u64,
    /// Grid size.
    pub total: usize,
    /// Records resumed from the journal (not re-executed).
    pub resumed: usize,
    /// Records in the completed journal.
    pub committed: usize,
    /// Quarantined records among them.
    pub quarantined: u64,
}

/// Reconstructs the [`FleetError`] class behind a dispatcher `error`
/// message, so `psbi-fleet submit` exits with the code a local run
/// would have.
fn error_from_code(code: u8, message: String) -> FleetError {
    match code {
        3 => FleetError::Spec(message),
        4 => FleetError::Io(std::io::Error::other(message)),
        5 => FleetError::Journal(message),
        6 => FleetError::Circuit(message),
        7 => FleetError::Corrupt {
            record: 0,
            detail: message,
        },
        8 => FleetError::Worker(message),
        9 => FleetError::Verify(message),
        _ => FleetError::Dispatch(message),
    }
}

/// Submits a campaign and blocks until the dispatcher reports the
/// journal complete — the `psbi-fleet submit` entry point.  `spec_text`
/// is the campaign spec JSON; `journal` is a dispatcher-side path.
///
/// # Errors
///
/// Connection failures ([`FleetError::Dispatch`]) and whatever terminal
/// error the dispatcher reports, mapped back onto its local class.
pub fn submit_campaign(
    spec_text: &str,
    journal: &str,
    opts: &SubmitOptions,
) -> Result<SubmitOutcome, FleetError> {
    // Parse locally first: a malformed spec should fail fast with the
    // usual spec error, not a round trip.
    CampaignSpec::from_json(spec_text)?.validate()?;
    let stream = TcpStream::connect(&opts.addr).map_err(|e| {
        FleetError::Dispatch(format!("cannot reach dispatcher at `{}`: {e}", opts.addr))
    })?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    write_msg(
        &mut writer,
        &Msg::Submit {
            spec: spec_text.to_string(),
            journal: journal.to_string(),
            verify: opts.verify,
        },
    )?;
    let (campaign, total, resumed) = match read_msg(&mut reader)? {
        Some(Msg::Accepted {
            campaign,
            total,
            resumed,
        }) => (campaign, total, resumed),
        Some(Msg::Error { code, message }) => return Err(error_from_code(code, message)),
        Some(other) => {
            return Err(FleetError::Dispatch(format!(
                "expected accepted, got {}",
                other.to_line()
            )))
        }
        None => {
            return Err(FleetError::Dispatch(
                "dispatcher closed the connection before accepting".into(),
            ))
        }
    };
    if opts.progress {
        eprintln!("psbi-fleet: submit: campaign {campaign} accepted ({resumed}/{total} resumed)");
    }
    loop {
        match read_msg(&mut reader)? {
            Some(Msg::Progress {
                committed,
                total,
                quarantined,
                workers,
                ..
            }) => {
                if opts.progress {
                    eprintln!(
                        "psbi-fleet: submit: {committed}/{total} committed \
                         ({quarantined} quarantined), {workers} worker(s)"
                    );
                }
            }
            Some(Msg::Done {
                committed,
                quarantined,
                ..
            }) => {
                return Ok(SubmitOutcome {
                    campaign,
                    total,
                    resumed,
                    committed,
                    quarantined,
                })
            }
            Some(Msg::Error { code, message }) => return Err(error_from_code(code, message)),
            Some(other) => {
                return Err(FleetError::Dispatch(format!(
                    "unexpected dispatcher message {}",
                    other.to_line()
                )))
            }
            None => {
                return Err(FleetError::Dispatch(
                    "dispatcher connection lost mid-campaign (the journal keeps \
                     its valid prefix; resubmit to resume)"
                        .into(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JobRecord;

    fn quick_spec(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            samples: 60,
            yield_samples: 120,
            calibration_samples: 120,
            ..CampaignSpec::example()
        }
    }

    #[test]
    fn heartbeat_is_a_quarter_of_the_lease_window_within_the_clamp() {
        for (deadline_ms, beat_ms) in [(40, 10), (200, 50), (10_000, 2_500), (400_000, 60_000)] {
            assert_eq!(
                heartbeat_interval(deadline_ms),
                Duration::from_millis(beat_ms),
                "deadline {deadline_ms} ms"
            );
        }
    }

    /// Unacked records are kept for one spec: a re-lease of that spec
    /// re-sends them instead of recomputing, and a lease of another spec
    /// drops them.  The kept records here are placeholders no job
    /// computes, so the dispatcher's side of the exchange tells a re-send
    /// from a recomputation.
    #[test]
    fn a_lease_of_another_spec_drops_unacked_records_and_a_re_lease_resends_them() {
        use std::net::TcpListener;

        let (spec_a, spec_b) = (quick_spec("unacked_a"), quick_spec("unacked_b"));
        let mut memory = WorkerMemory::new();
        memory.fingerprint = spec_a.fingerprint();
        for job in [0, 1] {
            memory
                .unacked
                .insert(job, (format!("kept a/{job}"), String::new()));
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake dispatcher");
        let opts = WorkerOptions {
            addr: listener.local_addr().expect("local addr").to_string(),
            name: "unacked-probe".into(),
            ..WorkerOptions::default()
        };
        let end = std::thread::scope(|scope| {
            let worker = {
                let (opts, memory) = (&opts, &mut memory);
                let stream = TcpStream::connect(&opts.addr).expect("worker connects");
                scope.spawn(move || session(opts, stream, memory))
            };
            let (stream, _) = listener.accept().expect("accept worker");
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            let mut next = || {
                read_msg(&mut reader)
                    .expect("worker line")
                    .expect("worker closed the connection")
            };
            assert!(matches!(next(), Msg::Hello { .. }));
            // One lease per step; the 240 s window puts the first beat a
            // minute out, so the reply is the lease's result.
            let mut lease = |lease: u64, campaign: u64, spec: &CampaignSpec, job: usize| {
                assert_eq!(next(), Msg::Request);
                let msg = Msg::Lease {
                    lease,
                    campaign,
                    spec: spec.to_json(),
                    jobs: vec![job],
                    deadline_ms: 240_000,
                    verify: false,
                };
                write_msg(&mut writer, &msg).expect("write lease");
                let Msg::Result {
                    fingerprint,
                    record,
                    ..
                } = next()
                else {
                    panic!("lease {lease} was not answered with its result");
                };
                assert_eq!(fingerprint, spec.fingerprint(), "lease {lease}");
                write_msg(&mut writer, &Msg::Ack { campaign, job }).expect("write ack");
                record
            };
            assert_eq!(
                lease(1, 1, &spec_a, 0),
                "kept a/0",
                "a re-lease must re-send"
            );
            let computed = lease(2, 2, &spec_b, 0);
            assert_eq!(JobRecord::from_json_line(&computed).expect("record").job, 0);
            let recomputed = lease(3, 1, &spec_a, 1);
            assert_ne!(recomputed, "kept a/1", "another spec's lease must drop it");
            assert_eq!(
                JobRecord::from_json_line(&recomputed).expect("record").job,
                1
            );
            assert_eq!(next(), Msg::Request);
            write_msg(&mut writer, &Msg::Shutdown).expect("write shutdown");
            worker.join().expect("worker thread").expect("session")
        });
        assert!(matches!(end, SessionEnd::Shutdown));
        assert_eq!(memory.fingerprint, spec_a.fingerprint());
        assert!(memory.unacked.is_empty(), "every record was acked");
    }

    /// A stale `expired` ahead of a request's reply must not provoke a
    /// second `request`: that request's reply would arrive inside the
    /// next lease's ack wait, read as a lost connection there, and cost a
    /// reconnect, a lease expiry and a recomputation.
    #[test]
    fn stale_expiry_ahead_of_a_lease_sends_no_second_request() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake dispatcher");
        let opts = WorkerOptions {
            addr: listener.local_addr().expect("local addr").to_string(),
            name: "stale-probe".into(),
            backoff_min_ms: 10,
            backoff_max_ms: 10,
            max_idle_ms: Some(2_000),
            progress: false,
        };
        let worker = std::thread::spawn(move || run_worker(&opts));
        let (stream, _) = listener.accept().expect("worker connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let mut next = || {
            read_msg(&mut reader)
                .expect("worker line")
                .expect("worker closed the connection")
        };
        assert!(matches!(next(), Msg::Hello { .. }));
        assert_eq!(next(), Msg::Request);

        let spec = quick_spec("stale_probe");
        write_msg(&mut writer, &Msg::Expired { lease: 99 }).expect("write expired");
        write_msg(
            &mut writer,
            &Msg::Lease {
                lease: 1,
                campaign: 1,
                spec: spec.to_json(),
                jobs: vec![0],
                // A 60 s beat, so no heartbeat lands between the lease
                // and its result.
                deadline_ms: 240_000,
                verify: false,
            },
        )
        .expect("write lease");
        match next() {
            Msg::Result { record, .. } => {
                assert_eq!(JobRecord::from_json_line(&record).expect("record").job, 0);
            }
            other => panic!("expected the lease's result, got {other:?}"),
        }
        write_msg(
            &mut writer,
            &Msg::Ack {
                campaign: 1,
                job: 0,
            },
        )
        .expect("write ack");
        assert_eq!(next(), Msg::Request);
        write_msg(&mut writer, &Msg::Shutdown).expect("write shutdown");
        worker.join().expect("worker thread").expect("worker run");
    }

    #[test]
    fn error_codes_round_trip_through_the_wire_mapping() {
        let cases: Vec<FleetError> = vec![
            FleetError::Spec("s".into()),
            FleetError::Io(std::io::Error::other("i")),
            FleetError::Journal("j".into()),
            FleetError::Circuit("c".into()),
            FleetError::Corrupt {
                record: 0,
                detail: "d".into(),
            },
            FleetError::Worker("w".into()),
            FleetError::Verify("v".into()),
            FleetError::Dispatch("n".into()),
        ];
        for e in cases {
            let code = e.code();
            assert_eq!(error_from_code(code, String::new()).code(), code);
        }
    }
}
