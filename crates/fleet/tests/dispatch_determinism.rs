//! Distributed dispatch determinism matrix.
//!
//! The contract under test: a campaign executed through `psbi-fleet
//! serve` + workers produces a journal and canonical report
//! **byte-identical** to the single-process `run_campaign` reference —
//! for any worker count, join order, connection-loss pattern or
//! dispatcher restart.  Legs:
//!
//! * clean runs at 2 and 4 in-process workers, plus the no-worker
//!   inline fallback;
//! * concurrent and queued campaigns over one dispatcher
//!   (`--max-campaigns`);
//! * a worker that starts *before* the dispatcher and joins after
//!   backoff;
//! * all four dispatch failpoints (`dispatch.conn.drop`,
//!   `dispatch.worker.stall`, `dispatch.lease.expire_early`,
//!   `worker.result.torn`), each asserted to actually exercise its
//!   recovery path via the lease log;
//! * lease timing: a lease ends at its last ack rather than at the next
//!   heartbeat, heartbeats still renew a lease that outlives its window,
//!   and an outstanding request is answered with a lease on admission;
//! * quarantined records computed by real workers, a panic at commit
//!   time (the campaign fails with the worker-crash class and a
//!   resubmission completes), and a hostile deeply nested first line;
//! * subprocess legs: `kill -9` of a worker mid-lease, and `kill -9` of
//!   the dispatcher followed by a resumed re-submission.
//!
//! Every in-process leg runs under `psbi_fault::with_spec` (an empty
//! spec for the clean legs), which serialises them — failpoint state is
//! process-global and must not leak between legs.

use psbi_fleet::{
    run_campaign, run_worker, submit_campaign, CampaignReport, CampaignSpec, Dispatcher,
    FleetError, FleetOptions, Journal, ServeOptions, SubmitOptions, WorkerOptions,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn quick_spec() -> CampaignSpec {
    CampaignSpec {
        samples: 60,
        yield_samples: 120,
        calibration_samples: 120,
        seed: 2024,
        ..CampaignSpec::example()
    }
}

/// Heavier grid for the legs that need jobs slow enough to observe
/// mid-flight faults (~50 ms/job): medium circuits, 4 jobs.
fn slow_spec() -> CampaignSpec {
    let mut spec = quick_spec();
    spec.name = "dispatch_slow".into();
    spec.circuits = vec![
        psbi_netlist::bench_suite::CircuitRef::parse("medium_demo:3").unwrap(),
        psbi_netlist::bench_suite::CircuitRef::parse("medium_demo:5").unwrap(),
    ];
    spec.samples = 200;
    spec.yield_samples = 300;
    spec.calibration_samples = 300;
    spec
}

/// Doubles `spec`'s sample counts until one worker in one process runs
/// it in at least `min_ms`, and returns that time: the faster of two
/// runs, as the subprocess legs may load the host meanwhile.  The lease
/// legs need jobs and leases that last a known while, and how long a job
/// takes depends on the build and the host.
fn grow_to(spec: &mut CampaignSpec, min_ms: u64, tag: &str) -> u64 {
    let path = tmp(&format!("{tag}_timing"));
    let one_worker = FleetOptions {
        workers: 1,
        ..FleetOptions::default()
    };
    loop {
        let ms = (0..2)
            .map(|_| {
                let _ = std::fs::remove_file(&path);
                let start = Instant::now();
                run_campaign(spec, &path, &one_worker).expect("timing run");
                start.elapsed().as_millis() as u64
            })
            .min()
            .expect("two timing runs");
        if ms >= min_ms {
            cleanup(&path);
            return ms;
        }
        spec.samples *= 2;
        spec.yield_samples *= 2;
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psbi_dispatch_det_{tag}_{}", std::process::id()))
}

/// Single-process reference: journal bytes + canonical report.
fn reference(spec: &CampaignSpec, tag: &str) -> (Vec<u8>, String) {
    let path = tmp(&format!("{tag}_ref"));
    let _ = std::fs::remove_file(&path);
    let outcome = run_campaign(
        spec,
        &path,
        &FleetOptions {
            workers: 2,
            progress: false,
            ..FleetOptions::default()
        },
    )
    .expect("reference campaign");
    assert!(outcome.complete());
    let bytes = std::fs::read(&path).expect("reference journal bytes");
    let report = CampaignReport::from_outcome(spec, &outcome).canonical_json();
    let _ = std::fs::remove_file(&path);
    (bytes, report)
}

fn assert_matches_reference(
    spec: &CampaignSpec,
    journal: &Path,
    ref_bytes: &[u8],
    ref_report: &str,
    leg: &str,
) {
    let bytes = std::fs::read(journal).unwrap_or_else(|e| panic!("{leg}: read journal: {e}"));
    assert_eq!(
        bytes, ref_bytes,
        "{leg}: journal bytes differ from reference"
    );
    let records = Journal::replay(journal, spec).unwrap_or_else(|e| panic!("{leg}: replay: {e}"));
    let report = CampaignReport::from_records(spec, records).canonical_json();
    assert_eq!(report, ref_report, "{leg}: canonical report differs");
}

fn serve_opts(once: bool) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        max_campaigns: 1,
        lease_jobs: 0,
        lease_ms: 10_000,
        inline_grace_ms: 60_000, // in-process legs opt into inline explicitly
        once,
        progress: false,
        addr_file: None,
    }
}

/// Binds a dispatcher and runs it on a background thread.  Returns the
/// address, a shutdown handle and the join handle.
fn spawn_dispatcher(
    opts: ServeOptions,
) -> (
    String,
    psbi_fleet::DispatchHandle,
    std::thread::JoinHandle<Result<(), FleetError>>,
) {
    let dispatcher = Dispatcher::bind(opts).expect("bind dispatcher");
    let addr = dispatcher.local_addr().to_string();
    let handle = dispatcher.handle();
    let join = std::thread::spawn(move || dispatcher.run());
    (addr, handle, join)
}

fn spawn_worker(addr: &str, name: &str) -> std::thread::JoinHandle<Result<(), FleetError>> {
    let opts = WorkerOptions {
        addr: addr.to_string(),
        name: name.to_string(),
        backoff_min_ms: 20,
        backoff_max_ms: 200,
        max_idle_ms: Some(2_000),
        progress: false,
    };
    std::thread::spawn(move || run_worker(&opts))
}

fn submit_opts(addr: &str) -> SubmitOptions {
    SubmitOptions {
        addr: addr.to_string(),
        verify: false,
        progress: false,
    }
}

/// Runs one full distributed campaign (dispatcher + `workers` in-process
/// workers, `--once`) into `journal` and joins everything.
fn distributed_run(spec: &CampaignSpec, journal: &Path, workers: usize, opts: ServeOptions) {
    let _ = std::fs::remove_file(journal);
    let (addr, _handle, dispatcher) = spawn_dispatcher(opts);
    let worker_handles: Vec<_> = (0..workers)
        .map(|i| spawn_worker(&addr, &format!("w{i}")))
        .collect();
    let outcome = submit_campaign(
        &spec.to_json(),
        &journal.display().to_string(),
        &submit_opts(&addr),
    )
    .expect("submit");
    assert_eq!(outcome.committed, spec.jobs().len());
    dispatcher
        .join()
        .expect("dispatcher thread")
        .expect("dispatcher run");
    for w in worker_handles {
        w.join().expect("worker thread").expect("worker run");
    }
}

/// Lease ids granted but never closed (done/expired) in the advisory
/// lease log — the signature a *crash* leaves behind; an orderly run,
/// even a failed one, must close every grant.
fn open_lease_ids(journal: &Path) -> Vec<u64> {
    let lease_log = PathBuf::from(format!("{}.leases", journal.display()));
    let text = std::fs::read_to_string(&lease_log).unwrap_or_default();
    let mut open = std::collections::BTreeSet::new();
    for line in text.lines() {
        let Some(idx) = line.find("\"lease\":") else {
            continue;
        };
        let rest = &line[idx + 8..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        let Ok(id) = rest[..end].parse::<u64>() else {
            continue;
        };
        if line.contains("\"ev\":\"grant\"") {
            open.insert(id);
        } else if line.contains("\"ev\":\"done\"") || line.contains("\"ev\":\"expire\"") {
            open.remove(&id);
        }
    }
    open.into_iter().collect()
}

fn expire_events(journal: &Path) -> usize {
    let lease_log = PathBuf::from(format!("{}.leases", journal.display()));
    std::fs::read_to_string(&lease_log)
        .map(|text| {
            text.lines()
                .filter(|l| l.contains("\"ev\":\"expire\""))
                .count()
        })
        .unwrap_or(0)
}

fn cleanup(journal: &Path) {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.leases", journal.display())));
}

#[test]
fn two_and_four_workers_match_single_process() {
    psbi_fault::with_spec("", || {
        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "clean");
        for workers in [2usize, 4] {
            let journal = tmp(&format!("clean_w{workers}"));
            distributed_run(&spec, &journal, workers, serve_opts(true));
            assert_matches_reference(
                &spec,
                &journal,
                &ref_bytes,
                &ref_report,
                &format!("{workers} workers"),
            );
            cleanup(&journal);
        }
    });
}

#[test]
fn inline_fallback_matches_single_process() {
    psbi_fault::with_spec("", || {
        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "inline");
        let journal = tmp("inline");
        let mut opts = serve_opts(true);
        opts.inline_grace_ms = 50; // degrade quickly: no worker will come
        distributed_run(&spec, &journal, 0, opts);
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "inline fallback");
        cleanup(&journal);
    });
}

#[test]
fn concurrent_campaigns_each_match_their_reference() {
    psbi_fault::with_spec("", || {
        let spec_a = quick_spec();
        let mut spec_b = quick_spec();
        spec_b.seed = 7777;
        spec_b.name = "concurrent_b".into();
        let (ref_a, rep_a) = reference(&spec_a, "conc_a");
        let (ref_b, rep_b) = reference(&spec_b, "conc_b");
        let journal_a = tmp("conc_a");
        let journal_b = tmp("conc_b");
        let _ = std::fs::remove_file(&journal_a);
        let _ = std::fs::remove_file(&journal_b);
        let mut opts = serve_opts(false);
        opts.max_campaigns = 2;
        let (addr, handle, dispatcher) = spawn_dispatcher(opts);
        let workers: Vec<_> = (0..3)
            .map(|i| spawn_worker(&addr, &format!("c{i}")))
            .collect();
        let submits: Vec<_> = [(&spec_a, &journal_a), (&spec_b, &journal_b)]
            .into_iter()
            .map(|(spec, journal)| {
                let spec_text = spec.to_json();
                let journal = journal.display().to_string();
                let opts = submit_opts(&addr);
                std::thread::spawn(move || submit_campaign(&spec_text, &journal, &opts))
            })
            .collect();
        for s in submits {
            s.join().expect("submit thread").expect("submit");
        }
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        for w in workers {
            w.join().expect("worker thread").expect("worker run");
        }
        assert_matches_reference(&spec_a, &journal_a, &ref_a, &rep_a, "concurrent a");
        assert_matches_reference(&spec_b, &journal_b, &ref_b, &rep_b, "concurrent b");
        cleanup(&journal_a);
        cleanup(&journal_b);
    });
}

#[test]
fn queued_campaign_waits_for_a_slot_and_still_matches() {
    psbi_fault::with_spec("", || {
        let spec_a = quick_spec();
        let mut spec_b = quick_spec();
        spec_b.seed = 31337;
        spec_b.name = "queued_b".into();
        let (ref_a, rep_a) = reference(&spec_a, "queue_a");
        let (ref_b, rep_b) = reference(&spec_b, "queue_b");
        let journal_a = tmp("queue_a");
        let journal_b = tmp("queue_b");
        let _ = std::fs::remove_file(&journal_a);
        let _ = std::fs::remove_file(&journal_b);
        // max_campaigns = 1: the second submission must queue, not fail.
        let (addr, handle, dispatcher) = spawn_dispatcher(serve_opts(false));
        let workers: Vec<_> = (0..2)
            .map(|i| spawn_worker(&addr, &format!("q{i}")))
            .collect();
        let submits: Vec<_> = [(&spec_a, &journal_a), (&spec_b, &journal_b)]
            .into_iter()
            .map(|(spec, journal)| {
                let spec_text = spec.to_json();
                let journal = journal.display().to_string();
                let opts = submit_opts(&addr);
                std::thread::spawn(move || submit_campaign(&spec_text, &journal, &opts))
            })
            .collect();
        for s in submits {
            s.join().expect("submit thread").expect("queued submit");
        }
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        for w in workers {
            w.join().expect("worker thread").expect("worker run");
        }
        assert_matches_reference(&spec_a, &journal_a, &ref_a, &rep_a, "queued a");
        assert_matches_reference(&spec_b, &journal_b, &ref_b, &rep_b, "queued b");
        cleanup(&journal_a);
        cleanup(&journal_b);
    });
}

#[test]
fn worker_started_before_the_dispatcher_joins_after_backoff() {
    psbi_fault::with_spec("", || {
        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "rejoin");
        let journal = tmp("rejoin");
        let _ = std::fs::remove_file(&journal);
        // Pre-bind a listener to learn a free port, drop it, point the
        // worker there, and only then bring the dispatcher up on it.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let addr = probe.local_addr().expect("probe addr").to_string();
        drop(probe);
        let worker = spawn_worker(&addr, "early-bird");
        std::thread::sleep(Duration::from_millis(150)); // a few failed connects
        let mut opts = serve_opts(true);
        opts.addr = addr.clone();
        let (bound, _handle, dispatcher) = spawn_dispatcher(opts);
        assert_eq!(bound, addr);
        let outcome = submit_campaign(
            &spec.to_json(),
            &journal.display().to_string(),
            &submit_opts(&addr),
        )
        .expect("submit");
        assert_eq!(outcome.committed, spec.jobs().len());
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        worker.join().expect("worker thread").expect("worker run");
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "rejoin");
        cleanup(&journal);
    });
}

#[test]
fn conn_drop_failpoint_recovers_byte_identically() {
    let spec = quick_spec();
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "conndrop"));
    psbi_fault::with_spec("dispatch.conn.drop@nth=2,times=1", || {
        let journal = tmp("conndrop");
        distributed_run(&spec, &journal, 2, serve_opts(true));
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "conn.drop");
        // The drop closed a worker connection mid-lease: its lease was
        // force-expired (conn-closed) and re-dispatched.
        assert!(
            expire_events(&journal) >= 1,
            "conn.drop leg never expired a lease"
        );
        cleanup(&journal);
    });
}

#[test]
fn worker_stall_failpoint_expires_the_lease_and_recovers() {
    let mut spec = slow_spec();
    // At least 200 ms for the four jobs on one worker, most of it in the
    // two σ 0 jobs: a lease's first job outlasts a 40 ms lease and its
    // 10 ms reaper tick.
    psbi_fault::with_spec("", || grow_to(&mut spec, 200, "stall"));
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "stall"));
    // Leases are circuit-aligned (2 jobs), so with every heartbeat
    // suppressed a 40 ms lease always expires before its first result;
    // late results are still accepted and the re-dispatched duplicates
    // discarded.
    psbi_fault::with_spec("dispatch.worker.stall@times=100000", || {
        let journal = tmp("stall");
        let mut opts = serve_opts(true);
        opts.lease_ms = 40;
        distributed_run(&spec, &journal, 2, opts);
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "worker.stall");
        assert!(
            expire_events(&journal) >= 1,
            "stall leg never expired a lease"
        );
        cleanup(&journal);
    });
}

#[test]
fn lease_expire_early_failpoint_redispatches_byte_identically() {
    let mut spec = slow_spec();
    // At least 200 ms for the four jobs on one worker, most of it in the
    // two σ 0 jobs, so each lease lives past a 50 ms reaper tick.
    psbi_fault::with_spec("", || grow_to(&mut spec, 200, "expearly"));
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "expearly"));
    psbi_fault::with_spec("dispatch.lease.expire_early@nth=1,times=1", || {
        let journal = tmp("expearly");
        // The reaper only evaluates the failpoint on leases it examines, so
        // the lease must outlive a reaper tick: jobs of 50 ms or more
        // against a 200 ms lease (50 ms tick) guarantee a live lease at
        // tick time.
        let mut opts = serve_opts(true);
        opts.lease_ms = 200;
        distributed_run(&spec, &journal, 2, opts);
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "expire_early");
        assert!(
            expire_events(&journal) >= 1,
            "expire_early leg never expired a lease"
        );
        cleanup(&journal);
    });
}

#[test]
fn torn_result_failpoint_is_rejected_and_resent() {
    let spec = quick_spec();
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "torn"));
    psbi_fault::with_spec("worker.result.torn@nth=1,times=1", || {
        let journal = tmp("torn");
        distributed_run(&spec, &journal, 2, serve_opts(true));
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "result.torn");
        // The torn write killed that worker's connection: lease expired,
        // worker reconnected and re-sent the cached record intact.
        assert!(
            expire_events(&journal) >= 1,
            "torn-result leg never expired a lease"
        );
        cleanup(&journal);
    });
}

/// A lease ends at its last ack.  With a 120 s lease window (a 30 s
/// heartbeat interval) and one job per lease, a worker that waited out
/// its heartbeat thread's sleep before requesting again would spend
/// about 30 s per lease here.
#[test]
fn lease_ends_at_its_last_ack_not_at_the_next_heartbeat() {
    psbi_fault::with_spec("", || {
        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "prompt");
        let journal = tmp("prompt");
        let mut opts = serve_opts(true);
        opts.lease_jobs = 1;
        opts.lease_ms = 120_000;
        let started = Instant::now();
        distributed_run(&spec, &journal, 1, opts);
        let elapsed = started.elapsed();
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "prompt leases");
        assert!(
            elapsed < Duration::from_secs(10),
            "{} one-job leases took {elapsed:?} against a 30 s heartbeat interval",
            spec.jobs().len()
        );
        cleanup(&journal);
    });
}

/// Stopping the heartbeat thread promptly must not stop it early: a
/// lease that outlives `lease_ms` on heartbeats alone never expires.
/// Byte parity cannot catch lost renewals (re-dispatch recovers the same
/// bytes), so this leg asserts on the lease log and the beat count.
#[test]
fn heartbeats_renew_a_lease_that_outlives_its_window() {
    psbi_fault::with_spec("", || {
        // One circuit, so one circuit-aligned lease carries every job.
        let mut spec = slow_spec();
        spec.name = "dispatch_renewal".into();
        spec.circuits.truncate(1);
        spec.sigma_factors = (0..9).map(|k| f64::from(k) * 0.25).collect();
        let journal = tmp("renewal");
        // The lease must outlive its window by construction, whatever the
        // build and host: the window is a third of what the same campaign
        // takes on one worker in one process (the served one takes at
        // least as long), and the campaign grows until that is at least
        // 200 ms, so a beat delayed by a loaded host does not let it lapse.
        let campaign_ms = grow_to(&mut spec, 600, "renewal");
        let mut opts = serve_opts(true);
        opts.lease_ms = campaign_ms / 3;
        // Workers beat at a quarter of the lease window.
        let beat_ms = opts.lease_ms / 4;
        let heartbeats = psbi_obs::metrics::with_metrics(None, || {
            distributed_run(&spec, &journal, 1, opts.clone());
            psbi_obs::metrics::counter_value("dispatch.heartbeats")
        });
        assert_eq!(
            expire_events(&journal),
            0,
            "a heartbeat-renewed lease expired"
        );
        // Beats are at least `beat_ms` apart, and at most one can arrive
        // after the lease ended, so this many prove the lease lived past
        // its `lease_ms` window.
        assert!(
            heartbeats > opts.lease_ms / beat_ms + 1,
            "the lease never outlived its {} ms window ({heartbeats} heartbeats; \
             the campaign took {campaign_ms} ms on one worker)",
            opts.lease_ms
        );
        cleanup(&journal);
    });
}

/// An idle worker's request is held, not bounced: a raw-protocol worker
/// whose `request` is outstanding when a campaign is admitted gets a
/// lease as its reply, with no `wait` first.
#[test]
fn outstanding_request_is_answered_with_a_lease_on_admission() {
    psbi_fault::with_spec("", || {
        use psbi_fleet::proto::{read_msg, write_msg, Msg};
        use std::io::BufReader;
        use std::net::TcpStream;

        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "longpoll");
        let journal = tmp("longpoll");
        let _ = std::fs::remove_file(&journal);
        let (addr, handle, dispatcher) = spawn_dispatcher(serve_opts(false));
        let connect = || {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            (
                BufReader::new(stream.try_clone().expect("clone stream")),
                stream,
            )
        };

        // Raw worker: hello, then a heartbeat for an unknown lease whose
        // `expired` reply shows the session is being served, then the
        // request that stays outstanding.
        let (mut worker_reader, mut worker_writer) = connect();
        write_msg(
            &mut worker_writer,
            &Msg::Hello {
                worker: "poller".into(),
            },
        )
        .expect("hello");
        write_msg(&mut worker_writer, &Msg::Heartbeat { lease: 999 }).expect("probe");
        assert_eq!(
            read_msg(&mut worker_reader).expect("probe reply"),
            Some(Msg::Expired { lease: 999 })
        );
        write_msg(&mut worker_writer, &Msg::Request).expect("request");

        // Raw submitter: once `accepted` arrives the campaign is
        // admitted, and the request above is still unanswered.
        let (mut submit_reader, mut submit_writer) = connect();
        write_msg(
            &mut submit_writer,
            &Msg::Submit {
                spec: spec.to_json(),
                journal: journal.display().to_string(),
                verify: false,
            },
        )
        .expect("submit");
        assert!(matches!(
            read_msg(&mut submit_reader).expect("admission"),
            Some(Msg::Accepted { .. })
        ));
        match read_msg(&mut worker_reader).expect("request reply") {
            Some(Msg::Lease { .. }) => {}
            other => panic!("outstanding request answered with {other:?}, not a lease"),
        }

        // Hand the lease back (goodbye expires it at once) and let an
        // honest worker finish the campaign.
        write_msg(&mut worker_writer, &Msg::Goodbye).expect("goodbye");
        let worker = spawn_worker(&addr, "finisher");
        loop {
            match read_msg(&mut submit_reader).expect("submitter read") {
                Some(Msg::Progress { .. }) => {}
                Some(Msg::Done { committed, .. }) => {
                    assert_eq!(committed, spec.jobs().len());
                    break;
                }
                other => panic!("unexpected submitter message {other:?}"),
            }
        }
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        worker.join().expect("worker thread").expect("worker run");
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "long-poll");
        cleanup(&journal);
    });
}

#[test]
fn dispatcher_errors_map_back_to_local_exit_codes() {
    psbi_fault::with_spec("", || {
        let spec = quick_spec();
        let mut other = quick_spec();
        other.samples += 1; // different fingerprint
        let journal = tmp("codemap");
        let _ = std::fs::remove_file(&journal);
        // Seed the journal for `other`, then submit `spec` against it:
        // the dispatcher must report the same journal-mismatch class
        // (exit code 5) a local run would.
        let (j, _) = Journal::open(&journal, &other).expect("seed journal");
        drop(j);
        let (addr, handle, dispatcher) = spawn_dispatcher(serve_opts(false));
        let err = submit_campaign(
            &spec.to_json(),
            &journal.display().to_string(),
            &submit_opts(&addr),
        )
        .expect_err("fingerprint mismatch must fail");
        assert_eq!(err.code(), 5, "expected journal error, got: {err}");
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        cleanup(&journal);
    });
}

/// The stale-cache scenario: a worker that survived a dispatcher
/// restart re-sends a record computed for a *different* campaign whose
/// id collided with the new one.  The dispatcher must refuse it twice
/// over — by spec fingerprint, and by grid identity when the
/// fingerprint is forged — and the campaign must still finish
/// byte-identical to the single-process reference.
#[test]
fn foreign_results_are_rejected_never_journaled() {
    psbi_fault::with_spec("", || {
        use psbi_fleet::proto::{read_msg, write_msg, Msg};
        use psbi_fleet::JobRecord;
        use std::io::BufReader;
        use std::net::TcpStream;

        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "foreign");
        let journal = tmp("foreign");
        let _ = std::fs::remove_file(&journal);
        let (addr, handle, dispatcher) = spawn_dispatcher(serve_opts(false));
        let submit = {
            let spec_text = spec.to_json();
            let journal = journal.display().to_string();
            let opts = submit_opts(&addr);
            std::thread::spawn(move || submit_campaign(&spec_text, &journal, &opts))
        };

        // Hand-rolled worker half: hello, then poll until a lease lands.
        let take_lease = |name: &str| -> (BufReader<TcpStream>, TcpStream, u64, String) {
            let stream = TcpStream::connect(&addr).expect("rogue connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            write_msg(
                &mut writer,
                &Msg::Hello {
                    worker: name.into(),
                },
            )
            .expect("hello");
            loop {
                write_msg(&mut writer, &Msg::Request).expect("request");
                match read_msg(&mut reader).expect("rogue read") {
                    Some(Msg::Wait) => {}
                    Some(Msg::Lease {
                        campaign,
                        spec: spec_text,
                        ..
                    }) => return (reader, writer, campaign, spec_text),
                    other => panic!("expected lease or wait, got {other:?}"),
                }
            }
        };
        let expect_drop = |reader: &mut BufReader<TcpStream>, leg: &str| match read_msg(reader) {
            Ok(None) | Err(_) => {} // connection dropped, no ack: correct
            Ok(Some(msg)) => panic!("{leg}: rejected result was answered with {msg:?}"),
        };

        // Leg 1: record from a spec with a different fingerprint (same
        // grid shape, so only the fingerprint can catch it).
        let mut other = quick_spec();
        other.name = "dispatch_foreign_other".into();
        let (mut reader, mut writer, campaign, _) = take_lease("stale-cache");
        write_msg(
            &mut writer,
            &Msg::Result {
                campaign,
                fingerprint: other.fingerprint(),
                record: JobRecord::quarantined(&other.jobs()[0], "stale".into()).to_json_line(),
                verify_failed: String::new(),
            },
        )
        .expect("send stale result");
        expect_drop(&mut reader, "fingerprint mismatch");

        // Leg 2: correctly-fingerprinted message whose record belongs to
        // a different grid — the circuit/sigma identity check refuses it.
        let (mut reader, mut writer, campaign, spec_text) = take_lease("wrong-grid");
        let fingerprint = CampaignSpec::from_json(&spec_text)
            .expect("leased spec parses")
            .fingerprint();
        write_msg(
            &mut writer,
            &Msg::Result {
                campaign,
                fingerprint,
                record: JobRecord::quarantined(&slow_spec().jobs()[0], "foreign".into())
                    .to_json_line(),
                verify_failed: String::new(),
            },
        )
        .expect("send foreign result");
        expect_drop(&mut reader, "grid mismatch");

        // An honest worker finishes the campaign; nothing the rogues
        // sent may have reached the journal.
        let worker = spawn_worker(&addr, "honest");
        let outcome = submit.join().expect("submit thread").expect("submit");
        assert_eq!(outcome.committed, spec.jobs().len());
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        worker.join().expect("worker thread").expect("worker run");
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "foreign results");
        assert_eq!(
            open_lease_ids(&journal),
            Vec::<u64>::new(),
            "run left open grants in the lease log"
        );
        cleanup(&journal);
    });
}

/// A campaign that fails mid-flight (torn journal write) is retired
/// while a worker still holds a lease over its remaining jobs.  The
/// retirement must close that lease in the advisory log, or the next
/// `LeaseLog::open` would misreport it as a crash orphan.
#[test]
fn failed_campaign_retirement_closes_its_leases() {
    let spec = slow_spec();
    psbi_fault::with_spec("journal.write.torn@times=1", || {
        let journal = tmp("failretire");
        let _ = std::fs::remove_file(&journal);
        let (addr, handle, dispatcher) = spawn_dispatcher(serve_opts(false));
        let worker = spawn_worker(&addr, "doomed");
        let err = submit_campaign(
            &spec.to_json(),
            &journal.display().to_string(),
            &submit_opts(&addr),
        )
        .expect_err("torn journal write must fail the campaign");
        assert_eq!(err.code(), 4, "expected IO class, got: {err}");
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        worker.join().expect("worker thread").expect("worker run");
        assert_eq!(
            open_lease_ids(&journal),
            Vec::<u64>::new(),
            "failed campaign left open grants in the lease log"
        );
        cleanup(&journal);
    });
}

/// Quarantined records travel the wire like any other: two real workers
/// that panic on job 2 every attempt must journal the same quarantine
/// record, in the same place, as `run_campaign` under the same fault.
#[test]
fn quarantined_records_over_the_wire_match_single_process() {
    let spec = quick_spec();
    psbi_fault::with_spec("fleet.job.panic@job=2", || {
        let (ref_bytes, ref_report) = reference(&spec, "quarantine");
        let journal = tmp("quarantine");
        distributed_run(&spec, &journal, 2, serve_opts(true));
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "quarantine");
        let records = Journal::replay(&journal, &spec).expect("replay");
        let quarantined: Vec<usize> = records
            .iter()
            .filter(|r| r.quarantined)
            .map(|r| r.job)
            .collect();
        assert_eq!(
            quarantined,
            vec![2],
            "job 2, and only job 2, is quarantined"
        );
        cleanup(&journal);
    });
}

/// A panic between claiming the commit slot and writing the record fails
/// a served campaign with the worker-crash class (exit code 8), exactly
/// as it fails a local run — it must not leave the campaign stalled on a
/// record that is neither committed nor pending.  The journal keeps its
/// valid prefix, and a resubmission completes byte-identically.
#[test]
fn commit_panic_fails_the_served_campaign_and_resubmission_completes() {
    let spec = quick_spec();
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "commitpanic"));
    psbi_fault::with_spec("fleet.commit.before_write@job=1,times=1", || {
        let journal = tmp("commitpanic");
        cleanup(&journal);
        let (addr, handle, dispatcher) = spawn_dispatcher(serve_opts(false));
        let worker = spawn_worker(&addr, "committer");
        let journal_arg = journal.display().to_string();
        let err = submit_campaign(&spec.to_json(), &journal_arg, &submit_opts(&addr))
            .expect_err("a commit-time panic must fail the campaign");
        assert_eq!(err.code(), 8, "expected the worker-crash class, got: {err}");
        let outcome = submit_campaign(&spec.to_json(), &journal_arg, &submit_opts(&addr))
            .expect("resubmission completes");
        assert_eq!(outcome.resumed, 1, "the valid prefix is job 0");
        assert_eq!(outcome.committed, spec.jobs().len());
        handle.shutdown();
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        worker.join().expect("worker thread").expect("worker run");
        assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "commit panic");
        assert_eq!(
            open_lease_ids(&journal),
            Vec::<u64>::new(),
            "the failed campaign left open grants in the lease log"
        );
        cleanup(&journal);
    });
}

/// One short line of nested brackets on a fresh connection costs the
/// dispatcher that connection, not the process: the line is a protocol
/// error, and a campaign served afterwards by the same dispatcher still
/// matches the single-process bytes.
#[test]
fn deeply_nested_first_line_cannot_take_the_dispatcher_down() {
    psbi_fault::with_spec("", || {
        use psbi_fleet::proto::read_msg;
        use std::io::{BufReader, Write as _};
        use std::net::TcpStream;

        let spec = quick_spec();
        let (ref_bytes, ref_report) = reference(&spec, "nested");
        let journal = tmp("nested");
        cleanup(&journal);
        let (addr, _handle, dispatcher) = spawn_dispatcher(serve_opts(true));
        let mut hostile = TcpStream::connect(&addr).expect("hostile connect");
        hostile
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        hostile
            .write_all(format!("{}\n", "[".repeat(100_000)).as_bytes())
            .expect("send nested line");
        let mut reader = BufReader::new(hostile);
        assert!(
            matches!(read_msg(&mut reader), Ok(None) | Err(_)),
            "the dispatcher must drop the hostile connection without a reply"
        );
        let workers: Vec<_> = (0..2)
            .map(|i| spawn_worker(&addr, &format!("after-nested-{i}")))
            .collect();
        let outcome = submit_campaign(
            &spec.to_json(),
            &journal.display().to_string(),
            &submit_opts(&addr),
        )
        .expect("submit after the hostile line");
        assert_eq!(outcome.committed, spec.jobs().len());
        dispatcher
            .join()
            .expect("dispatcher thread")
            .expect("dispatcher run");
        for w in workers {
            w.join().expect("worker thread").expect("worker run");
        }
        assert_matches_reference(
            &spec,
            &journal,
            &ref_bytes,
            &ref_report,
            "after nested line",
        );
        cleanup(&journal);
    });
}

// ---------------------------------------------------------------------
// Subprocess legs: real processes, real SIGKILL.
// ---------------------------------------------------------------------

fn fleet_bin() -> &'static str {
    env!("CARGO_BIN_EXE_psbi-fleet")
}

fn wait_addr_file(path: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                return text;
            }
        }
        assert!(Instant::now() < deadline, "dispatcher never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Waits until the journal holds at least `records` committed lines
/// (header excluded).
fn wait_journal_records(path: &Path, records: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let n = std::fs::read_to_string(path)
            .map(|text| text.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if n >= records {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "journal {path:?} never reached {records} record(s)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn kill9(child: &mut Child) {
    let pid = child.id();
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    let _ = child.wait();
}

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigkill_of_a_worker_mid_lease_is_byte_identical() {
    let spec = slow_spec();
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "wkill"));
    let journal = tmp("wkill");
    let _ = std::fs::remove_file(&journal);
    let addr_file = tmp("wkill_addr");
    let _ = std::fs::remove_file(&addr_file);
    let serve = Command::new(fleet_bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--once",
            "--quiet",
            "--lease-jobs",
            "1", // granular leases: more chances to die mid-campaign
            "--lease-ms",
            "1500",
            "--inline-grace-ms",
            "600000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut serve = KillOnDrop(serve);
    let addr = wait_addr_file(&addr_file);
    let spawn_worker_proc = |name: &str| {
        Command::new(fleet_bin())
            .args([
                "worker",
                "--addr",
                &addr,
                "--name",
                name,
                "--quiet",
                "--max-idle-ms",
                "10000",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker")
    };
    let mut victim = spawn_worker_proc("victim");
    let survivor = KillOnDrop(spawn_worker_proc("survivor"));
    let spec_path = tmp("wkill_spec");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let submit = {
        let spec_text = spec.to_json();
        let journal = journal.display().to_string();
        let opts = submit_opts(&addr);
        std::thread::spawn(move || submit_campaign(&spec_text, &journal, &opts))
    };
    // SIGKILL the victim as soon as the campaign is demonstrably moving.
    wait_journal_records(&journal, 1);
    kill9(&mut victim);
    let outcome = submit.join().expect("submit thread").expect("submit");
    assert_eq!(outcome.committed, spec.jobs().len());
    let _ = serve.0.wait(); // --once: exits after the campaign
    drop(survivor);
    assert_matches_reference(&spec, &journal, &ref_bytes, &ref_report, "worker SIGKILL");
    cleanup(&journal);
    let _ = std::fs::remove_file(&addr_file);
    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn sigkill_of_the_dispatcher_resumes_byte_identically() {
    let spec = slow_spec();
    let (ref_bytes, ref_report) = psbi_fault::with_spec("", || reference(&spec, "dkill"));
    let journal = tmp("dkill");
    let _ = std::fs::remove_file(&journal);
    let addr_file = tmp("dkill_addr");
    let _ = std::fs::remove_file(&addr_file);
    let serve_args = |addr_file: &Path| {
        vec![
            "serve".to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--addr-file".into(),
            addr_file.display().to_string(),
            "--once".into(),
            "--quiet".into(),
            "--lease-jobs".into(),
            "1".into(),
            "--lease-ms".into(),
            "1500".into(),
            "--inline-grace-ms".into(),
            "600000".into(),
        ]
    };
    let mut serve1 = Command::new(fleet_bin())
        .args(serve_args(&addr_file))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve 1");
    let addr1 = wait_addr_file(&addr_file);
    let worker1 = KillOnDrop(
        Command::new(fleet_bin())
            .args([
                "worker",
                "--addr",
                &addr1,
                "--name",
                "w1",
                "--quiet",
                "--max-idle-ms",
                "4000",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker 1"),
    );
    let submit1 = {
        let spec_text = spec.to_json();
        let journal = journal.display().to_string();
        let opts = submit_opts(&addr1);
        std::thread::spawn(move || submit_campaign(&spec_text, &journal, &opts))
    };
    // Let the journal gain a committed prefix, then murder the dispatcher.
    wait_journal_records(&journal, 1);
    kill9(&mut serve1);
    let err = submit1
        .join()
        .expect("submit thread")
        .expect_err("submit must fail when the dispatcher dies");
    // Clean FIN surfaces as a dispatch error (10); a reset mid-read can
    // surface as IO (4).  Either way the class is loud and nonzero.
    assert!(
        err.code() == 10 || err.code() == 4,
        "expected dispatch/io error, got: {err}"
    );

    // Second dispatcher on a fresh port: the journal's valid prefix (the
    // tail may be torn by the kill) resumes; only missing jobs run.
    let _ = std::fs::remove_file(&addr_file);
    let serve2 = Command::new(fleet_bin())
        .args(serve_args(&addr_file))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve 2");
    let mut serve2 = KillOnDrop(serve2);
    let addr2 = wait_addr_file(&addr_file);
    let worker2 = KillOnDrop(
        Command::new(fleet_bin())
            .args([
                "worker",
                "--addr",
                &addr2,
                "--name",
                "w2",
                "--quiet",
                "--max-idle-ms",
                "10000",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker 2"),
    );
    let outcome = submit_campaign(
        &spec.to_json(),
        &journal.display().to_string(),
        &submit_opts(&addr2),
    )
    .expect("resumed submit");
    assert_eq!(outcome.committed, spec.jobs().len());
    assert!(
        outcome.resumed >= 1,
        "resume leg re-executed everything (resumed = 0)"
    );
    let _ = serve2.0.wait();
    drop(worker2);
    drop(worker1);
    assert_matches_reference(
        &spec,
        &journal,
        &ref_bytes,
        &ref_report,
        "dispatcher SIGKILL",
    );
    cleanup(&journal);
    let _ = std::fs::remove_file(&addr_file);
}
