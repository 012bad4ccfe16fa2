#![warn(missing_docs)]
//! Deterministic fault injection for the PSBI workspace.
//!
//! A **failpoint** is a named site in production code where a test (or an
//! operator chasing a bug) can deterministically inject a failure.  Sites
//! are evaluated with the [`failpoint!`] macro, which returns `true` when
//! the site should fail *this* time:
//!
//! ```ignore
//! if psbi_fault::failpoint!("fleet.job.panic", "job" = j) {
//!     panic!("injected fault: fleet.job.panic (job {j})");
//! }
//! ```
//!
//! The macro only names the site and its context; the **failure mode**
//! (panic, torn write, corrupt replay, ...) is implemented at the call
//! site, so this crate stays dependency-free and policy-free.
//!
//! # Zero cost when disabled
//!
//! With no spec installed, [`failpoint!`] is a single relaxed atomic load
//! (`enabled()`), short-circuiting before any argument is packed.  No
//! site ever allocates on the disabled path.
//!
//! # Trigger grammar (`PSBI_FAULT_SPEC`)
//!
//! A spec is a `;`-separated list of rules, each `site[@cond,cond,...]`:
//!
//! ```text
//! fleet.job.panic@job=7;journal.write.torn@record=12;memo.replay.corrupt@nth=3
//! ```
//!
//! Conditions are `key=value` with `u64` values and must all match the
//! arguments the site passes.  Two keys are reserved for the trigger
//! counters instead of matching arguments:
//!
//! * `nth=K` — start firing at the `K`-th *matching* evaluation
//!   (1-based; default 1, i.e. fire from the first match);
//! * `times=N` — fire at most `N` times in total (default unlimited).
//!
//! Counters are per rule and advance only on evaluations whose arguments
//! match, so a spec's behaviour is a pure function of the (deterministic)
//! sequence of matching evaluations — the same property the repo's
//! journals rely on.
//!
//! Specs come from the `PSBI_FAULT_SPEC` environment variable (read once,
//! on first evaluation) or programmatically via [`install`] /
//! [`with_spec`] in tests.  [`with_spec`] serialises callers through a
//! global gate: faults are process-global, so concurrent tests must not
//! interleave spec installs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, PoisonError};

/// One parsed trigger rule.
#[derive(Debug, Clone)]
struct Rule {
    site: String,
    /// Argument conditions (`key=value`), all of which must match.
    conds: Vec<(String, u64)>,
    /// 1-based matching-evaluation count at which firing starts.
    nth: u64,
    /// Maximum number of fires (`None` = unlimited).
    times: Option<u64>,
    /// Matching evaluations seen so far.
    seen: u64,
    /// Fires so far.
    fired: u64,
}

/// Fast-path gate: `true` iff a non-empty spec is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The installed rules (slow path only).
static REGISTRY: Mutex<Vec<Rule>> = Mutex::new(Vec::new());
/// One-shot `PSBI_FAULT_SPEC` environment read.
static ENV_INIT: Once = Once::new();
/// Serialises [`with_spec`] callers (faults are process-global).
static TEST_GATE: Mutex<()> = Mutex::new(());

fn registry() -> std::sync::MutexGuard<'static, Vec<Rule>> {
    // A panic *between* failpoint evaluations cannot leave the registry
    // mid-update (fire() holds the lock for the whole update), so a
    // poisoned registry is still consistent — recover it.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether any fault spec is installed.  This is the macro's fast path:
/// one relaxed atomic load once the environment has been read.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("PSBI_FAULT_SPEC") {
            if !spec.trim().is_empty() {
                if let Err(e) = install(&spec) {
                    // A malformed operator spec must not silently pass: a
                    // fault harness that injects nothing looks exactly
                    // like hardened code.  Fail loudly.
                    panic!("psbi_fault: malformed PSBI_FAULT_SPEC `{spec}`: {e}");
                }
            }
        }
    });
    ACTIVE.load(Ordering::Relaxed)
}

/// Evaluates site `site` with arguments `args`; `true` means the caller
/// should inject its failure now.  Prefer the [`failpoint!`] macro, which
/// short-circuits through [`enabled`] first.
pub fn fire(site: &str, args: &[(&str, u64)]) -> bool {
    let mut rules = registry();
    let mut any = false;
    for rule in rules.iter_mut() {
        if rule.site != site {
            continue;
        }
        let matches = rule
            .conds
            .iter()
            .all(|(k, v)| args.iter().any(|(ak, av)| ak == k && av == v));
        if !matches {
            continue;
        }
        rule.seen += 1;
        let exhausted = rule.times.is_some_and(|t| rule.fired >= t);
        if rule.seen >= rule.nth && !exhausted {
            rule.fired += 1;
            any = true;
        }
    }
    any
}

/// Installs `spec`, replacing any previous rules.
///
/// # Errors
///
/// A message naming the malformed rule or condition.
pub fn install(spec: &str) -> Result<(), String> {
    let mut rules = Vec::new();
    for rule_text in spec.split(';') {
        let rule_text = rule_text.trim();
        if rule_text.is_empty() {
            continue;
        }
        let (site, conds_text) = match rule_text.split_once('@') {
            Some((s, c)) => (s.trim(), Some(c)),
            None => (rule_text, None),
        };
        if site.is_empty() {
            return Err(format!("rule `{rule_text}` has an empty site name"));
        }
        let mut rule = Rule {
            site: site.to_string(),
            conds: Vec::new(),
            nth: 1,
            times: None,
            seen: 0,
            fired: 0,
        };
        if let Some(conds_text) = conds_text {
            for cond in conds_text.split(',') {
                let cond = cond.trim();
                if cond.is_empty() {
                    continue;
                }
                let Some((key, value)) = cond.split_once('=') else {
                    return Err(format!("condition `{cond}` is not `key=value`"));
                };
                let (key, value) = (key.trim(), value.trim());
                let value: u64 = value
                    .parse()
                    .map_err(|_| format!("condition `{cond}` needs an unsigned integer"))?;
                match key {
                    "nth" => {
                        if value == 0 {
                            return Err("`nth` is 1-based; 0 is invalid".into());
                        }
                        rule.nth = value;
                    }
                    "times" => rule.times = Some(value),
                    _ => rule.conds.push((key.to_string(), value)),
                }
            }
        }
        rules.push(rule);
    }
    let active = !rules.is_empty();
    *registry() = rules;
    ACTIVE.store(active, Ordering::Relaxed);
    Ok(())
}

/// Removes every installed rule (failpoints return to zero-cost).
pub fn clear() {
    registry().clear();
    ACTIVE.store(false, Ordering::Relaxed);
}

/// Runs `f` with `spec` installed, clearing it afterwards (also on
/// panic), serialised against every other [`with_spec`] caller.  An empty
/// spec runs `f` with faults guaranteed OFF — use it to compute fault-free
/// baselines in a test binary whose other tests inject faults.
pub fn with_spec<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    let _gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    struct ClearOnDrop;
    impl Drop for ClearOnDrop {
        fn drop(&mut self) {
            clear();
        }
    }
    let _clear = ClearOnDrop;
    if spec.trim().is_empty() {
        clear();
    } else {
        install(spec).expect("with_spec requires a well-formed fault spec");
    }
    f()
}

/// Evaluates a failpoint: `failpoint!("site")` or
/// `failpoint!("site", "key" = value, ...)` (values cast to `u64`).
/// Expands to a boolean expression that is a single atomic load when no
/// spec is installed.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::enabled() && $crate::fire($site, &[])
    };
    ($site:expr, $($key:literal = $value:expr),+ $(,)?) => {
        $crate::enabled() && $crate::fire($site, &[$(($key, $value as u64)),+])
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_failpoints_never_fire() {
        super::with_spec("", || {
            assert!(!failpoint!("some.site"));
            assert!(!failpoint!("some.site", "k" = 3));
        });
    }

    #[test]
    fn conditions_and_counters_are_deterministic() {
        super::with_spec("a.site@job=2,nth=2,times=1", || {
            // Wrong argument: never matches, counters untouched.
            assert!(!failpoint!("a.site", "job" = 1));
            // First match: nth=2 holds it back.
            assert!(!failpoint!("a.site", "job" = 2));
            // Second match fires...
            assert!(failpoint!("a.site", "job" = 2));
            // ...and times=1 exhausts the rule.
            assert!(!failpoint!("a.site", "job" = 2));
        });
    }

    #[test]
    fn multiple_rules_and_sites() {
        super::with_spec("x.one@n=1;x.two", || {
            assert!(failpoint!("x.two"));
            assert!(!failpoint!("x.one", "n" = 2));
            assert!(failpoint!("x.one", "n" = 1));
            assert!(!failpoint!("x.other"));
        });
    }

    #[test]
    fn malformed_specs_are_rejected() {
        // Behind the `with_spec` gate: the rules are process-global, so a
        // bare `clear` could wipe a concurrently running test's spec.
        super::with_spec("", || {
            assert!(super::install("site@k").is_err());
            assert!(super::install("site@k=x").is_err());
            assert!(super::install("@k=1").is_err());
            assert!(super::install("site@nth=0").is_err());
        });
    }

    #[test]
    fn clear_restores_zero_cost_path() {
        super::with_spec("y.site", || {
            assert!(failpoint!("y.site"));
        });
        assert!(!super::enabled() || !super::fire("y.site", &[]));
    }
}
