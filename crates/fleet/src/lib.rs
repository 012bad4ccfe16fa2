#![warn(missing_docs)]
//! # psbi_fleet — sharded multi-circuit campaign runner
//!
//! The paper evaluates its flow over a whole benchmark suite at several
//! target periods (`T = µT + k·σT`, k ∈ {0, 1, 2}).  This crate turns that
//! "many circuits × many targets" workload into a first-class subsystem:
//!
//! * **Declarative specs** ([`spec::CampaignSpec`]): circuits (paper
//!   suite, demo classes or arbitrary generated sizes), a sigma-factor
//!   sweep, sample counts and solver options — parsed from and rendered to
//!   a stable JSON form.
//! * **Deterministic job grids**: a spec expands circuit-major into jobs
//!   identified by their global grid index, the same
//!   seed-by-global-index discipline the flow applies to sample chunks.
//! * **Sharded execution** ([`runner::run_campaign`]): the campaign is
//!   admitted into a private copy of the dispatcher's campaign engine —
//!   the only code that commits records — and `workers` local lease
//!   consumers take one-job leases from the lowest pending job; one flow
//!   per circuit serves the whole sigma sweep for all of them (timing
//!   graph and µT/σT calibration built once) and every flow shares one
//!   [`psbi_core::flow::WorkspacePool`].
//! * **Checkpoint/resume** ([`journal::Journal`]): each completed job is
//!   committed to an append-only journal *in job order* (the engine's
//!   reorder buffer holds early finishers back).  A killed campaign
//!   resumes from the journal's valid prefix — re-running only the
//!   missing jobs — and the resumed journal and report are
//!   **byte-identical** to an uninterrupted run at any worker count
//!   (`tests/fleet_determinism.rs` pins this).
//! * **Aggregated reporting** ([`report::CampaignReport`]): per-circuit /
//!   per-k yield, buffer-count, area and wall-time tables, in
//!   human-readable and JSON form; wall times are quarantined in a
//!   non-canonical section so the canonical report stays deterministic.
//!
//! * **Distributed dispatch** ([`dispatch`], [`worker`], [`proto`]): a
//!   long-running `psbi-fleet serve` puts a TCP front on the same engine,
//!   leasing deadline-carrying slices of the job grid to `psbi-fleet
//!   worker` processes over a line-delimited JSON protocol and committing
//!   their results through the engine `run` uses — byte-identical to a
//!   single-process run for any worker count, join/leave order or kill
//!   pattern (`crates/fleet/tests/dispatch_determinism.rs` pins this).
//!
//! The `psbi-fleet` binary wraps all of it:
//!
//! ```text
//! psbi-fleet init --out campaign.json        # write an editable example spec
//! psbi-fleet plan --spec campaign.json       # show the job grid
//! psbi-fleet run  --spec campaign.json --journal c.journal [--workers N]
//! psbi-fleet report --spec campaign.json --journal c.journal --json report.json
//! psbi-fleet serve --addr 127.0.0.1:7171     # dispatcher (campaigns + workers)
//! psbi-fleet worker --addr 127.0.0.1:7171    # lease executor (any machine)
//! psbi-fleet submit --addr 127.0.0.1:7171 --spec campaign.json --journal c.journal
//! ```
//!
//! # Example
//!
//! ```
//! use psbi_fleet::{run_campaign, CampaignReport, CampaignSpec, FleetOptions};
//!
//! let mut spec = CampaignSpec::example();
//! spec.samples = 40;
//! spec.yield_samples = 80;
//! spec.calibration_samples = 80;
//! let journal = std::env::temp_dir().join("psbi_fleet_doc_example.journal");
//! let _ = std::fs::remove_file(&journal);
//! let outcome = run_campaign(&spec, &journal, &FleetOptions::default()).unwrap();
//! assert!(outcome.complete());
//! let report = CampaignReport::from_outcome(&spec, &outcome);
//! assert!(report.text().contains("jobs complete"));
//! std::fs::remove_file(&journal).unwrap();
//! ```

pub mod dispatch;
pub mod error;
pub mod journal;
pub mod json;
pub mod proto;
pub mod report;
pub mod runner;
pub mod spec;
pub mod worker;

pub use dispatch::{serve, DispatchHandle, Dispatcher, ServeOptions};
pub use error::FleetError;
pub use journal::{JobRecord, Journal};
pub use report::{CampaignReport, SigmaSummary};
pub use runner::{run_campaign, CampaignOutcome, FleetOptions};
pub use spec::{CampaignSpec, JobSpec};
pub use worker::{run_worker, submit_campaign, SubmitOptions, SubmitOutcome, WorkerOptions};
