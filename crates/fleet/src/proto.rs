//! The line-delimited JSON dispatch protocol.
//!
//! Every message between `psbi-fleet serve`, `psbi-fleet worker` and
//! `psbi-fleet submit` is one JSON object on one `\n`-terminated line,
//! parsed with the crate's own [`Json`] mini-parser (the vendored serde is
//! a no-op shim).  Two framing choices carry the robustness story:
//!
//! * **Specs and records travel as escaped strings.**  A campaign spec is
//!   embedded as its canonical multi-line JSON text (so the fingerprint
//!   the journal header pins is computed from identical bytes on both
//!   sides), and a job result is embedded as the *exact* journal line the
//!   worker would have written locally — including its `crc` member.  The
//!   dispatcher re-verifies that checksum before accepting, so a result
//!   torn in transit (`worker.result.torn`) or corrupted on the wire is
//!   rejected exactly like a torn journal line, not half-committed.
//! * **Any unparseable line is a protocol violation**, answered by
//!   dropping the connection.  The lease machinery then treats the peer
//!   as dead: its jobs return to the pending set and are re-dispatched.
//!
//! The message set is deliberately small; see [`Msg`] for the full
//! vocabulary and the `dispatch`/`worker` module docs for the exchange
//! sequences built from it.

use crate::error::FleetError;
use crate::json::{escape, Json};
use std::io::BufRead;

/// One protocol message (see the module docs for framing).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server: run a campaign.  `spec` is the canonical
    /// [`crate::CampaignSpec::to_json`] text; `journal` is a
    /// **server-side** path.
    Submit {
        /// Canonical campaign spec JSON text.
        spec: String,
        /// Server-side journal path.
        journal: String,
        /// Run the independent result verifier on every job.
        verify: bool,
    },
    /// Server → submitter: the campaign was admitted.
    Accepted {
        /// Dispatcher-assigned campaign id.
        campaign: u64,
        /// Grid size.
        total: usize,
        /// Records replayed from the journal (never re-executed).
        resumed: usize,
    },
    /// Worker → server: registration (first message of a worker session).
    Hello {
        /// Worker display name (diagnostics only).
        worker: String,
    },
    /// Worker → server: ready for (more) work.  A worker keeps at most
    /// one request outstanding.  The dispatcher long-polls it: the reply
    /// is a [`Msg::Lease`] the moment one can be granted, [`Msg::Shutdown`]
    /// if the dispatcher is going away, or [`Msg::Wait`] after at most
    /// one second with nothing grantable.
    Request,
    /// Server → worker: a lease over `jobs` of one campaign.
    Lease {
        /// Lease id (heartbeat and result correlation key).
        lease: u64,
        /// Campaign id.
        campaign: u64,
        /// Canonical campaign spec JSON text (the worker rebuilds the
        /// grid from it; `jobs` index into that grid).
        spec: String,
        /// Leased job indices.
        jobs: Vec<usize>,
        /// Lease duration: the worker must heartbeat before this many ms
        /// elapse, or the lease expires and the jobs are re-dispatched.
        /// The worker beats at a quarter of it (clamped to 10 ms–60 s).
        deadline_ms: u64,
        /// Whether to run the independent verifier per job.
        verify: bool,
    },
    /// Worker → server: lease keep-alive (renews the deadline).
    Heartbeat {
        /// Lease id.
        lease: u64,
    },
    /// Worker → server: one completed job.  `record` is the exact
    /// journal line ([`crate::JobRecord::to_json_line`], crc included).
    /// It names no lease: whichever lease holds the job releases it, and
    /// a result whose lease already expired is still a good result.
    Result {
        /// Campaign id.
        campaign: u64,
        /// [`crate::CampaignSpec::fingerprint`] of the spec the record
        /// was computed from.  Campaign ids restart when a dispatcher
        /// restarts, so an id alone can name a *different* campaign
        /// across sessions; the fingerprint cannot.  The dispatcher
        /// rejects a result whose fingerprint does not match the
        /// campaign's, so stale bytes never reach a journal.
        fingerprint: String,
        /// The checksummed journal line of the record.
        record: String,
        /// Independent-verifier failure report when the lease requested
        /// `verify` and this job's re-check failed; empty otherwise
        /// (omitted from the wire form).  Non-canonical — it never
        /// touches the journal, mirroring the single-process runner.
        verify_failed: String,
    },
    /// Server → worker: the record was accepted (committed or parked in
    /// the reorder buffer) — or was already present (duplicate after a
    /// re-dispatch; first committed record wins, the copy is discarded).
    Ack {
        /// Campaign id.
        campaign: u64,
        /// Acknowledged job index.
        job: usize,
    },
    /// Server → worker: the lease is gone (expired or force-expired);
    /// abandon its remaining jobs and request a fresh lease.
    Expired {
        /// Lease id.
        lease: u64,
    },
    /// Server → worker: a long-polled [`Msg::Request`] found no work
    /// within its bound.  The dispatcher already waited out the long
    /// poll, so the worker re-requests at once.
    Wait,
    /// Server → submitter: periodic campaign progress.
    Progress {
        /// Campaign id.
        campaign: u64,
        /// Records committed to the journal so far (resumed included).
        committed: usize,
        /// Grid size.
        total: usize,
        /// Quarantined records among the committed.
        quarantined: u64,
        /// Workers currently connected to the dispatcher.
        workers: u64,
    },
    /// Server → submitter: the campaign's journal is complete.
    Done {
        /// Campaign id.
        campaign: u64,
        /// Total records in the journal.
        committed: usize,
        /// Quarantined records among them.
        quarantined: u64,
    },
    /// Server → client: a failure, with the [`FleetError::code`]-style
    /// class so `psbi-fleet submit` can exit with the same code a local
    /// run would have.
    Error {
        /// Exit-code class (see `FleetError::code`).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Server → worker: the dispatcher is going away for good
    /// (`--once` completion); exit instead of reconnecting.
    Shutdown,
    /// Worker → server: clean departure; release my leases now instead
    /// of waiting for their deadlines.
    Goodbye,
}

fn jobs_list(jobs: &[usize]) -> String {
    let items: Vec<String> = jobs.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

impl Msg {
    /// Renders the single-line wire form (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Msg::Submit {
                spec,
                journal,
                verify,
            } => format!(
                "{{\"type\":\"submit\",\"spec\":\"{}\",\"journal\":\"{}\",\
                 \"verify\":{verify}}}",
                escape(spec),
                escape(journal)
            ),
            Msg::Accepted {
                campaign,
                total,
                resumed,
            } => format!(
                "{{\"type\":\"accepted\",\"campaign\":{campaign},\"total\":{total},\
                 \"resumed\":{resumed}}}"
            ),
            Msg::Hello { worker } => {
                format!("{{\"type\":\"hello\",\"worker\":\"{}\"}}", escape(worker))
            }
            Msg::Request => "{\"type\":\"request\"}".into(),
            Msg::Lease {
                lease,
                campaign,
                spec,
                jobs,
                deadline_ms,
                verify,
            } => format!(
                "{{\"type\":\"lease\",\"lease\":{lease},\"campaign\":{campaign},\
                 \"spec\":\"{}\",\"jobs\":{},\"deadline_ms\":{deadline_ms},\
                 \"verify\":{verify}}}",
                escape(spec),
                jobs_list(jobs)
            ),
            Msg::Heartbeat { lease } => format!("{{\"type\":\"heartbeat\",\"lease\":{lease}}}"),
            Msg::Result {
                campaign,
                fingerprint,
                record,
                verify_failed,
            } => {
                let verify = if verify_failed.is_empty() {
                    String::new()
                } else {
                    format!(",\"verify_failed\":\"{}\"", escape(verify_failed))
                };
                format!(
                    "{{\"type\":\"result\",\"campaign\":{campaign},\
                     \"fingerprint\":\"{}\",\"record\":\"{}\"{verify}}}",
                    escape(fingerprint),
                    escape(record)
                )
            }
            Msg::Ack { campaign, job } => {
                format!("{{\"type\":\"ack\",\"campaign\":{campaign},\"job\":{job}}}")
            }
            Msg::Expired { lease } => format!("{{\"type\":\"expired\",\"lease\":{lease}}}"),
            Msg::Wait => "{\"type\":\"wait\"}".into(),
            Msg::Progress {
                campaign,
                committed,
                total,
                quarantined,
                workers,
            } => format!(
                "{{\"type\":\"progress\",\"campaign\":{campaign},\"committed\":{committed},\
                 \"total\":{total},\"quarantined\":{quarantined},\"workers\":{workers}}}"
            ),
            Msg::Done {
                campaign,
                committed,
                quarantined,
            } => format!(
                "{{\"type\":\"done\",\"campaign\":{campaign},\"committed\":{committed},\
                 \"quarantined\":{quarantined}}}"
            ),
            Msg::Error { code, message } => format!(
                "{{\"type\":\"error\",\"code\":{code},\"message\":\"{}\"}}",
                escape(message)
            ),
            Msg::Shutdown => "{\"type\":\"shutdown\"}".into(),
            Msg::Goodbye => "{\"type\":\"goodbye\"}".into(),
        }
    }

    /// The terminal `error` message for a failed campaign: the failure's
    /// exit-code class and text.
    pub(crate) fn error(e: &FleetError) -> Msg {
        Msg::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field — the caller should treat any
    /// parse failure as a protocol violation and drop the connection.
    pub fn from_line(line: &str) -> Result<Msg, String> {
        let v = Json::parse(line.trim_end()).map_err(|e| format!("bad message JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("message has no `type`")?;
        let str_of = |key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{key}` must be a string"))?
                .to_string())
        };
        let u64_of = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{key}` must be an integer"))
        };
        let usize_of = |key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("`{key}` must be an integer"))
        };
        let bool_of = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("`{key}` must be a bool"))
        };
        Ok(match ty {
            "submit" => Msg::Submit {
                spec: str_of("spec")?,
                journal: str_of("journal")?,
                verify: bool_of("verify")?,
            },
            "accepted" => Msg::Accepted {
                campaign: u64_of("campaign")?,
                total: usize_of("total")?,
                resumed: usize_of("resumed")?,
            },
            "hello" => Msg::Hello {
                worker: str_of("worker")?,
            },
            "request" => Msg::Request,
            "lease" => Msg::Lease {
                lease: u64_of("lease")?,
                campaign: u64_of("campaign")?,
                spec: str_of("spec")?,
                jobs: v
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or("`jobs` must be an array")?
                    .iter()
                    .map(|j| j.as_usize().ok_or("`jobs` entries must be integers"))
                    .collect::<Result<_, _>>()?,
                deadline_ms: u64_of("deadline_ms")?,
                verify: bool_of("verify")?,
            },
            "heartbeat" => Msg::Heartbeat {
                lease: u64_of("lease")?,
            },
            "result" => Msg::Result {
                campaign: u64_of("campaign")?,
                fingerprint: str_of("fingerprint")?,
                record: str_of("record")?,
                verify_failed: match v.get("verify_failed") {
                    Some(_) => str_of("verify_failed")?,
                    None => String::new(),
                },
            },
            "ack" => Msg::Ack {
                campaign: u64_of("campaign")?,
                job: usize_of("job")?,
            },
            "expired" => Msg::Expired {
                lease: u64_of("lease")?,
            },
            "wait" => Msg::Wait,
            "progress" => Msg::Progress {
                campaign: u64_of("campaign")?,
                committed: usize_of("committed")?,
                total: usize_of("total")?,
                quarantined: u64_of("quarantined")?,
                workers: u64_of("workers")?,
            },
            "done" => Msg::Done {
                campaign: u64_of("campaign")?,
                committed: usize_of("committed")?,
                quarantined: u64_of("quarantined")?,
            },
            "error" => Msg::Error {
                code: u8::try_from(u64_of("code")?).map_err(|_| "`code` out of range")?,
                message: str_of("message")?,
            },
            "shutdown" => Msg::Shutdown,
            "goodbye" => Msg::Goodbye,
            other => return Err(format!("unknown message type `{other}`")),
        })
    }
}

/// Writes one message as a single line + flush.  The whole line goes down
/// in one `write_all`, mirroring the journal's single-write discipline.
///
/// # Errors
///
/// The underlying IO error (the peer is then treated as gone).
pub fn write_msg<W: std::io::Write>(w: &mut W, msg: &Msg) -> std::io::Result<()> {
    let line = format!("{}\n", msg.to_line());
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Writes one whole message line through a writer half shared between
/// threads.
pub(crate) fn send(
    writer: &std::sync::Mutex<std::net::TcpStream>,
    msg: &Msg,
) -> Result<(), FleetError> {
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    write_msg(&mut *w, msg).map_err(FleetError::Io)
}

/// Reads one message; `Ok(None)` is a clean EOF (peer closed the
/// connection between messages).
///
/// # Errors
///
/// IO failures, and [`FleetError::Dispatch`] for an unparseable line —
/// including the half-line a killed peer tears (EOF mid-line), which is
/// how `worker.result.torn` surfaces on the dispatcher side.
pub fn read_msg<R: BufRead>(r: &mut R) -> Result<Option<Msg>, FleetError> {
    let mut line = String::new();
    let n = r.read_line(&mut line).map_err(FleetError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        // EOF mid-line: the peer died while writing — a torn message is
        // never processed, exactly like a torn journal line.
        return Err(FleetError::Dispatch(format!(
            "connection closed mid-message ({} bytes of a torn line)",
            line.len()
        )));
    }
    Msg::from_line(&line)
        .map(Some)
        .map_err(|e| FleetError::Dispatch(format!("protocol violation: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_round_trips() {
        let spec = crate::CampaignSpec::example().to_json();
        let result = |verify_failed: &str| Msg::Result {
            campaign: 3,
            fingerprint: "00ffee0123456789".into(),
            record: "{\"job\":4,\"crc\":\"00ff\"}".into(),
            verify_failed: verify_failed.into(),
        };
        // Each message with the exact keys of its wire form, in order: a
        // member that nothing reads cannot come back unnoticed.
        let msgs: [(Msg, &str); 16] = [
            (
                Msg::Submit {
                    spec: spec.clone(),
                    journal: "/tmp/a.journal".into(),
                    verify: true,
                },
                "type spec journal verify",
            ),
            (
                Msg::Accepted {
                    campaign: 3,
                    total: 8,
                    resumed: 2,
                },
                "type campaign total resumed",
            ),
            (
                Msg::Hello {
                    worker: "w\"1\"".into(),
                },
                "type worker",
            ),
            (Msg::Request, "type"),
            (
                Msg::Lease {
                    lease: 9,
                    campaign: 3,
                    spec,
                    jobs: vec![4, 5, 6],
                    deadline_ms: 10_000,
                    verify: false,
                },
                "type lease campaign spec jobs deadline_ms verify",
            ),
            (Msg::Heartbeat { lease: 9 }, "type lease"),
            (result(""), "type campaign fingerprint record"),
            (
                result("check 3 failed"),
                "type campaign fingerprint record verify_failed",
            ),
            (
                Msg::Ack {
                    campaign: 3,
                    job: 4,
                },
                "type campaign job",
            ),
            (Msg::Expired { lease: 9 }, "type lease"),
            (Msg::Wait, "type"),
            (
                Msg::Progress {
                    campaign: 3,
                    committed: 5,
                    total: 8,
                    quarantined: 1,
                    workers: 2,
                },
                "type campaign committed total quarantined workers",
            ),
            (
                Msg::Done {
                    campaign: 3,
                    committed: 8,
                    quarantined: 1,
                },
                "type campaign committed quarantined",
            ),
            (
                Msg::Error {
                    code: 7,
                    message: "journal corrupt at record 1".into(),
                },
                "type code message",
            ),
            (Msg::Shutdown, "type"),
            (Msg::Goodbye, "type"),
        ];
        for (msg, keys) in msgs {
            let line = msg.to_line();
            assert!(!line.contains('\n'), "wire form must be one line: {line}");
            assert_eq!(Msg::from_line(&line).unwrap(), msg, "round trip {line}");
            let Ok(Json::Obj(members)) = Json::parse(&line) else {
                panic!("wire form is not an object: {line}");
            };
            let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names.join(" "), keys, "key set of {line}");
        }
    }

    #[test]
    fn embedded_record_survives_with_checksum_intact() {
        // The round trip that matters: a real journal line through the
        // wire encoding still passes its crc check on the other side.
        let spec = crate::CampaignSpec::example();
        let job = &spec.jobs()[0];
        let record = crate::JobRecord::quarantined(job, "injected: \"quoted\"\nfault".into());
        let wire = Msg::Result {
            campaign: 1,
            fingerprint: spec.fingerprint(),
            record: record.to_json_line(),
            verify_failed: String::new(),
        };
        let Msg::Result { record: line, .. } = Msg::from_line(&wire.to_line()).unwrap() else {
            panic!("wrong type");
        };
        assert_eq!(crate::JobRecord::from_json_line(&line).unwrap(), record);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"type\":\"nope\"}",
            "{\"no_type\":1}",
            "{\"type\":\"ack\",\"campaign\":1}",
            "{\"type\":\"lease\",\"lease\":1,\"campaign\":1,\"spec\":\"x\",\"jobs\":[\"a\"],\
             \"deadline_ms\":1,\"verify\":false}",
        ] {
            assert!(Msg::from_line(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn deeply_nested_line_is_a_protocol_error() {
        // About 100 KB of brackets: before nesting was capped, parsing
        // this on a 2 MiB connection thread aborted the whole process.
        let line = format!("{{\"type\":\"submit\",\"spec\":{}\n", "[".repeat(100_000));
        let (parsed, read) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let parsed = Msg::from_line(&line);
                (
                    parsed,
                    read_msg(&mut std::io::Cursor::new(line.into_bytes())),
                )
            })
            .unwrap()
            .join()
            .expect("parsing must not overflow the stack");
        assert!(parsed.unwrap_err().contains("nesting"));
        assert!(matches!(
            read,
            Err(FleetError::Dispatch(m)) if m.contains("protocol violation")
        ));
    }

    #[test]
    fn read_msg_flags_torn_lines_and_clean_eof() {
        let mut clean = std::io::Cursor::new(b"{\"type\":\"request\"}\n".to_vec());
        assert_eq!(read_msg(&mut clean).unwrap(), Some(Msg::Request));
        assert_eq!(read_msg(&mut clean).unwrap(), None);
        // A torn line (no trailing newline) is a dispatch error, never a
        // silently processed half-message.
        let mut torn = std::io::Cursor::new(b"{\"type\":\"req".to_vec());
        assert!(matches!(
            read_msg(&mut torn),
            Err(FleetError::Dispatch(m)) if m.contains("torn")
        ));
    }
}
