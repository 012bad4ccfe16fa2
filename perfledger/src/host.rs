//! Host and process measurements: the host/build stamp every output
//! carries, process CPU time and peak resident memory from `/proc`, and
//! the order statistics the ledger reports.

use std::path::Path;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux (glibc and musl alike).
const SC_CLK_TCK: i32 = 2;

/// User + system CPU seconds of this process so far, summed over all its
/// threads (live and exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    (ticks(11) + ticks(12)) as f64 / hz
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// What every ledger output is stamped with, so two ledgers are only
/// compared when they come from comparable hosts and builds.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Cores the process may use (`nproc`).
    pub nproc: usize,
    /// Active sampling-kernel SIMD backend.
    pub simd: &'static str,
    /// Cargo profile the ledger was built with.
    pub profile: &'static str,
    /// Git revision of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Stamp {
    /// Reads the stamp from the running process and the current directory.
    pub fn collect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: psbi_timing::simd::active().name(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (opt-level 3, debuginfo)"
            },
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd\": \"{}\", \"profile\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc, self.simd, self.profile, self.git_rev
        )
    }
}

/// Resolves `HEAD` by reading the git directory directly (no subprocess):
/// a detached hash, a loose ref, or a packed ref.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_live() {
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
