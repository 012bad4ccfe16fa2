//! The dispatcher's transport-free campaign core: the only code that
//! commits campaign records.
//!
//! A [`Campaign`] binds a spec's job grid to its journal: pending jobs,
//! outstanding leases, and the reorder buffer that appends finished
//! records **in job-index order** — so, every record being a pure
//! function of (spec, job index), the journal's bytes cannot depend on
//! who computed what, when, or how often.  Consumers take a lease
//! ([`Table::grant_lease`]), run it, and hand each finished job back
//! ([`Campaign::accept_record`]): `psbi-fleet run`'s local consumers
//! ([`consume_leases`] on a private [`Engine`]), `serve`'s TCP workers,
//! and `serve`'s inline fallback (the same [`consume_leases`] loop).

use crate::error::FleetError;
use crate::journal::{JobRecord, Journal};
use crate::runner::panic_message;
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::FlowDiagnostics;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often [`report_progress`] prints.
const PROGRESS_EVERY: Duration = Duration::from_secs(2);

/// Advisory append-only log of lease lifecycle events, next to the
/// journal (`<journal>.leases`).  The journal alone is the source of
/// truth for *results*; this log exists so a dispatcher restarted after
/// `kill -9` can tell (and report) which leases the crash orphaned, and
/// so post-mortems can reconstruct the grant/expire/redispatch history.
/// Parsing is tolerant: a torn tail line is simply ignored.
pub(crate) struct LeaseLog {
    file: File,
}

impl LeaseLog {
    /// Opens (creating if absent) and scans the log: returns the handle,
    /// the number of orphaned leases (granted, never done/expired — the
    /// signature of a dispatcher crash) and the highest lease id seen.
    pub(crate) fn open(path: &Path) -> Result<(Self, usize, u64), FleetError> {
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

    pub(crate) fn grant(&mut self, lease: u64, conn: u64, jobs: &BTreeSet<usize>) {
        let jobs: Vec<String> = jobs.iter().map(usize::to_string).collect();
        self.ev(&format!(
            "{{\"ev\":\"grant\",\"lease\":{lease},\"conn\":{conn},\"jobs\":[{}]}}",
            jobs.join(",")
        ));
    }

    pub(crate) fn done(&mut self, lease: u64) {
        self.ev(&format!("{{\"ev\":\"done\",\"lease\":{lease}}}"));
    }

    pub(crate) fn expire(&mut self, lease: u64, reason: &str) {
        self.ev(&format!(
            "{{\"ev\":\"expire\",\"lease\":{lease},\"reason\":\"{}\"}}",
            crate::json::escape(reason)
        ));
    }
}

/// One finished job on its way to the journal.
pub(crate) struct Finished {
    pub(crate) record: JobRecord,
    /// The independent verifier's failure report (non-canonical — it
    /// never reaches the journal).
    pub(crate) verify_failed: Option<String>,
    /// Wall seconds, when the job ran in this process.
    pub(crate) wall_s: Option<f64>,
    /// Solver counters, when the job ran in this process and produced a
    /// result (a quarantined job has none).
    pub(crate) diagnostics: Option<FlowDiagnostics>,
}

impl Finished {
    /// A record computed elsewhere: no local timings or counters.
    pub(crate) fn remote(record: JobRecord, verify_failed: Option<String>) -> Self {
        Self {
            record,
            verify_failed,
            wall_s: None,
            diagnostics: None,
        }
    }
}

/// One outstanding lease.  `jobs` holds only the *unreturned* jobs — a
/// returned job leaves the set immediately, so expiry never re-dispatches
/// work that already reached the reorder buffer.
pub(crate) struct Lease {
    pub(crate) jobs: BTreeSet<usize>,
    pub(crate) deadline: Instant,
    /// Holder: a worker connection, or 0 for an in-process consumer.
    pub(crate) conn: u64,
}

/// A granted lease, with what a consumer needs to run it.
pub(crate) struct Grant {
    pub(crate) lease: u64,
    pub(crate) campaign: u64,
    pub(crate) spec: Arc<CampaignSpec>,
    pub(crate) jobs: Vec<JobSpec>,
    pub(crate) verify: bool,
    /// Lease window: each accepted result pushes the deadline this far out.
    pub(crate) lease_ms: u64,
}

/// One admitted campaign: its journal, reorder buffer and leases.
pub(crate) struct Campaign {
    pub(crate) spec: Arc<CampaignSpec>,
    /// Canonical spec text embedded in every lease sent over the wire
    /// (identical bytes on both sides ⇒ identical fingerprint and grid).
    pub(crate) spec_text: String,
    /// [`CampaignSpec::fingerprint`] of `spec_text` — every incoming
    /// result must present it, so a record computed for a different
    /// campaign that happens to share this campaign's id (ids restart
    /// on dispatcher restart) can never reach the journal.
    pub(crate) fingerprint: String,
    pub(crate) jobs: Vec<JobSpec>,
    journal: Journal,
    pub(crate) journal_path: PathBuf,
    /// `serve` keeps one so a restarted dispatcher can report what its
    /// crash orphaned; a local run has no remote holders and keeps none.
    pub(crate) lease_log: Option<LeaseLog>,
    pub(crate) total: usize,
    /// One past the last job of this admission's window: `total` unless
    /// `max_jobs` stops it earlier.
    pub(crate) end: usize,
    /// Next job index to commit (resumed prefix already behind it).
    pub(crate) next: usize,
    pub(crate) resumed: usize,
    /// Finished jobs waiting for their predecessors.
    pub(super) parked: BTreeMap<usize, Finished>,
    /// Uncommitted, unparked, unleased job indices of the window.
    pub(crate) pending: BTreeSet<usize>,
    pub(crate) leases: HashMap<u64, Lease>,
    pub(crate) verify: bool,
    /// Committed records in job order, the resumed prefix included.
    pub(crate) records: Vec<JobRecord>,
    /// Per-job wall seconds of jobs this process ran and committed.
    pub(crate) job_wall_s: Vec<Option<f64>>,
    /// Per-job solver counters of jobs this process ran and committed.
    pub(crate) job_diagnostics: Vec<Option<FlowDiagnostics>>,
    /// Per-job verifier failures, in commit (= job) order.
    verify_failures: Vec<(usize, String)>,
    /// Campaign-fatal error: a journal write failure, a panic at commit
    /// time, or a circuit no flow can be built for.  Once set, nothing
    /// more is granted or committed.
    pub(crate) failed: Option<FleetError>,
    admitted: Instant,
}

impl Campaign {
    /// Opens (or resumes, with [`Journal::open`]'s checks) `spec`'s journal
    /// at `path` and admits the jobs it lacks — at most `max_jobs` of them.
    pub(crate) fn open(
        spec: CampaignSpec,
        path: PathBuf,
        max_jobs: Option<usize>,
        verify: bool,
    ) -> Result<Self, FleetError> {
        let (journal, records) = Journal::open(&path, &spec)?;
        let jobs = spec.jobs();
        let total = jobs.len();
        let resumed = records.len();
        let end = max_jobs.map_or(total, |k| total.min(resumed + k));
        Ok(Self {
            spec_text: spec.to_json(),
            fingerprint: spec.fingerprint(),
            spec: Arc::new(spec),
            jobs,
            journal,
            journal_path: path,
            lease_log: None,
            total,
            end,
            next: resumed,
            resumed,
            parked: BTreeMap::new(),
            pending: (resumed..end).collect(),
            leases: HashMap::new(),
            verify,
            records,
            job_wall_s: vec![None; total],
            job_diagnostics: vec![None; total],
            verify_failures: Vec::new(),
            failed: None,
            admitted: Instant::now(),
        })
    }

    /// Whether every job of the window is committed.
    pub(crate) fn done(&self) -> bool {
        self.next == self.end
    }

    /// Quarantined records among the committed ones.
    pub(crate) fn quarantined(&self) -> u64 {
        self.records.iter().filter(|r| r.quarantined).count() as u64
    }

    /// Fails the campaign (the first error wins).
    pub(crate) fn fail(&mut self, e: FleetError) {
        self.failed.get_or_insert(e);
    }

    /// Feeds one finished job into the reorder buffer and commits what
    /// became next-in-line.  Returns `false` when the job is discarded:
    /// already committed or parked (first-committed-wins — both copies are
    /// the same pure function of the spec), or the campaign has failed.
    /// Everything else is accepted, whether it arrives under a live
    /// lease, a stale lease or no lease at all (a "late" result from a
    /// worker whose lease expired is still a perfectly good result).
    pub(crate) fn accept_record(&mut self, finished: Finished) -> bool {
        let job = finished.record.job;
        // Whichever lease currently holds the job releases it — including
        // a *different* lease after a re-dispatch, whose worker's eventual
        // copy then lands in the duplicate path below.
        let mut emptied = None;
        for (&id, lease) in self.leases.iter_mut() {
            if lease.jobs.remove(&job) && lease.jobs.is_empty() {
                emptied = Some(id);
            }
        }
        if let Some(id) = emptied {
            self.end_lease(id, None);
        }
        if self.failed.is_some() || job < self.next || self.parked.contains_key(&job) {
            return false;
        }
        self.pending.remove(&job);
        self.parked.insert(job, finished);
        self.drain();
        true
    }

    /// Commits every parked record that has become next-in-line — the one
    /// place campaign records reach a journal.  A write error or a panic
    /// fails the campaign; the journal keeps its valid prefix either way.
    fn drain(&mut self) {
        while let Some(finished) = self.parked.remove(&self.next) {
            let job = self.next;
            let _span = psbi_obs::Span::enter_with("fleet.commit", &[("job", job as u64)]);
            let journal = &mut self.journal;
            let written = catch_unwind(AssertUnwindSafe(|| {
                if psbi_fault::failpoint!("fleet.commit.before_write", "job" = job) {
                    // Simulate a crash in the window between claiming the
                    // commit slot and writing the record: resume
                    // re-executes this job.
                    panic!("injected fault: fleet.commit.before_write");
                }
                journal.append(&finished.record)
            }));
            match written {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return self.fail(e),
                Err(payload) => return self.fail(FleetError::Worker(panic_message(payload))),
            }
            if let Some(report) = finished.verify_failed {
                self.verify_failures.push((job, report));
            }
            self.job_wall_s[job] = finished.wall_s;
            self.job_diagnostics[job] = finished.diagnostics;
            self.records.push(finished.record);
            psbi_obs::metrics::counter_add("fleet.jobs.committed", 1);
            self.next += 1;
        }
    }

    /// The error a campaign whose jobs all committed ends with when the
    /// independent verifier rejected some of them.
    pub(crate) fn verify_error(&self) -> Option<FleetError> {
        if self.verify_failures.is_empty() {
            return None;
        }
        let detail: Vec<String> = self
            .verify_failures
            .iter()
            .map(|(job, report)| format!("job {job}: {report}"))
            .collect();
        Some(FleetError::Verify(format!(
            "{} of {} job(s) failed independent verification — {}",
            self.verify_failures.len(),
            self.next,
            detail.join("; ")
        )))
    }

    /// Ends a lease, returning its unreturned jobs to the pending set:
    /// closed by a holder that is done with it, or — with a reason —
    /// expired for re-dispatch (deadline passed, holder gone, campaign
    /// retired).
    pub(crate) fn end_lease(&mut self, lease_id: u64, expired: Option<&str>) {
        let Some(lease) = self.leases.remove(&lease_id) else {
            return;
        };
        let _span = expired.map(|_| {
            psbi_obs::metrics::counter_add("dispatch.leases.expired", 1);
            psbi_obs::metrics::counter_add("dispatch.jobs.redispatched", lease.jobs.len() as u64);
            psbi_obs::Span::enter_with(
                "dispatch.redispatch",
                &[("lease", lease_id), ("jobs", lease.jobs.len() as u64)],
            )
        });
        if let Some(log) = &mut self.lease_log {
            match expired {
                Some(reason) => log.expire(lease_id, reason),
                None => log.done(lease_id),
            }
        }
        self.pending.extend(lease.jobs);
    }

    /// Expires, for `reason`, every lease `pick` selects by id and lease.
    pub(crate) fn expire_leases(&mut self, reason: &str, pick: impl Fn(u64, &Lease) -> bool) {
        let picked: Vec<u64> = self
            .leases
            .iter()
            .filter(|(id, lease)| pick(**id, lease))
            .map(|(id, _)| *id)
            .collect();
        for id in picked {
            self.end_lease(id, Some(reason));
        }
    }
}

/// Everything behind the engine mutex.
pub(crate) struct Table {
    pub(crate) campaigns: BTreeMap<u64, Campaign>,
    next_campaign: u64,
    pub(crate) next_lease: u64,
    /// Round-robin cursor so lease grants rotate across campaigns.
    rr: u64,
}

impl Table {
    /// Admits a campaign and returns its id.
    pub(crate) fn admit(&mut self, campaign: Campaign) -> u64 {
        let id = self.next_campaign;
        self.next_campaign += 1;
        self.campaigns.insert(id, campaign);
        id
    }

    /// Grants one lease to `conn`: the lowest pending job's circuit, up to
    /// `lease_jobs` of its pending jobs (0 = all of them), rotating
    /// round-robin across the campaigns that have work to grant.
    pub(crate) fn grant_lease(
        &mut self,
        conn: u64,
        lease_ms: u64,
        lease_jobs: usize,
    ) -> Option<Grant> {
        let ids: Vec<u64> = self
            .campaigns
            .iter()
            .filter(|(_, c)| c.failed.is_none() && !c.pending.is_empty())
            .map(|(id, _)| *id)
            .collect();
        if ids.is_empty() {
            return None;
        }
        let picked = ids[(self.rr as usize) % ids.len()];
        self.rr = self.rr.wrapping_add(1);
        let lease_id = self.next_lease;
        self.next_lease += 1;
        let c = self.campaigns.get_mut(&picked)?;
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
        if let Some(log) = &mut c.lease_log {
            log.grant(lease_id, conn, &jobs);
        }
        let grant = Grant {
            lease: lease_id,
            campaign: picked,
            spec: Arc::clone(&c.spec),
            jobs: jobs.iter().map(|&j| c.jobs[j].clone()).collect(),
            verify: c.verify,
            lease_ms,
        };
        c.leases.insert(
            lease_id,
            Lease {
                jobs,
                deadline: Instant::now() + Duration::from_millis(lease_ms),
                conn,
            },
        );
        Some(grant)
    }
}

/// The campaign table and the condition variable its consumers and
/// submitters wait on.
pub(crate) struct Engine {
    table: Mutex<Table>,
    /// Notified on every event that can make work grantable or end a
    /// campaign: admission, accepted results, closed or expired leases,
    /// disconnects, shutdown.
    pub(crate) wake: Condvar,
}

impl Engine {
    pub(crate) fn new() -> Self {
        Self {
            table: Mutex::new(Table {
                campaigns: BTreeMap::new(),
                next_campaign: 1,
                next_lease: 1,
                rr: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Locks the table, recovering from poisoning: every mutation keeps
    /// the table consistent at each step, and a panic while committing is
    /// caught inside `drain`.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on [`Engine::wake`] for at most `timeout`.
    pub(crate) fn wait<'a>(
        &self,
        guard: MutexGuard<'a, Table>,
        timeout: Duration,
    ) -> MutexGuard<'a, Table> {
        self.wake
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

/// The lease-consumer loop: takes leases through `grant` (called under
/// the engine lock) and runs each with `execute` until `grant` yields
/// none.  `execute` hands each finished job to `emit`, which commits it
/// and answers whether to go on — not once the campaign has failed or
/// `stop` says so.  Then the lease closes: jobs it did not return are
/// pending again, and an `execute` error fails the campaign.
pub(crate) fn consume_leases(
    engine: &Engine,
    mut grant: impl FnMut(&mut Table) -> Option<Grant>,
    stop: impl Fn() -> bool,
    mut execute: impl FnMut(&Grant, &mut dyn FnMut(Finished) -> bool) -> Result<(), FleetError>,
) {
    loop {
        let Some(lease) = grant(&mut engine.lock()) else {
            return;
        };
        let mut emit = |finished: Finished| -> bool {
            let mut t = engine.lock();
            let Some(c) = t.campaigns.get_mut(&lease.campaign) else {
                return false;
            };
            // Renew the lease, so a reaper's expiry at worst re-dispatches
            // jobs this lease has not reached — never one already committed.
            if let Some(l) = c.leases.get_mut(&lease.lease) {
                l.deadline = Instant::now() + Duration::from_millis(lease.lease_ms);
            }
            c.accept_record(finished);
            let go_on = c.failed.is_none();
            drop(t);
            engine.wake.notify_all();
            go_on && !stop()
        };
        let executed = execute(&lease, &mut emit);
        if let Some(c) = engine.lock().campaigns.get_mut(&lease.campaign) {
            if let Err(e) = executed {
                c.fail(e);
            }
            c.end_lease(lease.lease, None);
        }
        engine.wake.notify_all();
    }
}

/// The one periodic progress reporter: every [`PROGRESS_EVERY`], one
/// stderr line per campaign in the table, until `stop` says so.
pub(crate) fn report_progress(engine: &Engine, stop: impl Fn() -> bool) {
    let mut last = Instant::now();
    while !stop() {
        std::thread::sleep(Duration::from_millis(100));
        if last.elapsed() < PROGRESS_EVERY {
            continue;
        }
        last = Instant::now();
        let t = engine.lock();
        for (id, c) in &t.campaigns {
            let elapsed = c.admitted.elapsed().as_secs_f64();
            let committed = c.next - c.resumed;
            let eta = if committed > 0 && !c.done() {
                let eta = (c.end - c.next) as f64 * elapsed / committed as f64;
                format!(", ETA {eta:.0}s")
            } else {
                String::new()
            };
            eprintln!(
                "psbi-fleet: campaign {id} `{}`: {}/{} jobs committed ({} quarantined), \
                 {} lease(s) outstanding, {elapsed:.1}s elapsed{eta}",
                c.spec.name,
                c.next,
                c.total,
                c.quarantined(),
                c.leases.len()
            );
        }
    }
}
