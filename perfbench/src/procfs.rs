//! Process counters from `/proc`, std only.
//!
//! Every reader returns `None` when the file is missing or unreadable,
//! so a host without `/proc` reports the counter as absent, never as 0.

use std::fs;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Minor page faults of the whole process (`/proc/self/stat` field 10).
    pub minflt: u64,
    /// User CPU time in clock ticks (field 14).
    pub utime: u64,
    /// Kernel CPU time in clock ticks (field 15).
    pub stime: u64,
    /// Nanoseconds the process's live threads waited on a run queue
    /// (`/proc/self/task/*/schedstat`, second field, summed).
    pub runq_ns: Option<u64>,
}

impl Counters {
    /// Reads the counters now.
    #[must_use]
    pub fn read() -> Option<Counters> {
        let (minflt, utime, stime) = parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)?;
        Some(Counters {
            minflt,
            utime,
            stime,
            runq_ns: runq_wait_ns(),
        })
    }
}

/// The change in each counter between two readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Minor faults taken.
    pub minflt: u64,
    /// Kernel share of the CPU time used, in `[0, 1]`.
    pub sys_share: f64,
    /// Run-queue wait, in milliseconds, when schedstat is available.
    pub runq_ms: Option<f64>,
}

impl Delta {
    /// `after - before`, or `None` if either reading is absent.
    #[must_use]
    pub fn between(before: Option<Counters>, after: Option<Counters>) -> Option<Delta> {
        let (b, a) = (before?, after?);
        let user = a.utime.saturating_sub(b.utime);
        let sys = a.stime.saturating_sub(b.stime);
        #[allow(clippy::cast_precision_loss)]
        let sys_share = if user + sys == 0 {
            0.0
        } else {
            sys as f64 / (user + sys) as f64
        };
        #[allow(clippy::cast_precision_loss)]
        let runq_ms = match (b.runq_ns, a.runq_ns) {
            (Some(x), Some(y)) => Some(y.saturating_sub(x) as f64 / 1e6),
            _ => None,
        };
        Some(Delta {
            minflt: a.minflt.saturating_sub(b.minflt),
            sys_share,
            runq_ms,
        })
    }
}

/// `(minflt, utime, stime)` from the text of `/proc/<pid>/stat`. The
/// command name may contain spaces and parentheses, so fields are
/// counted from its closing `)`.
#[must_use]
pub fn parse_stat(text: &str) -> Option<(u64, u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): field k is fields[k - 3].
    let field = |k: usize| fields.get(k - 3)?.parse::<u64>().ok();
    Some((field(10)?, field(14)?, field(15)?))
}

/// Minor faults of the process so far (cheap enough to read around one
/// simulator call in the traced run).
#[must_use]
pub fn minflt() -> Option<u64> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?).map(|(m, _, _)| m)
}

/// Peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn runq_wait_ns() -> Option<u64> {
    let mut total = 0;
    let mut any = false;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading; skip it.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        total += text.split_whitespace().nth(1)?.parse::<u64>().ok()?;
        any = true;
    }
    any.then_some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_past_a_hostile_command_name() {
        let text = "42 (a) b (c) R 1 42 42 0 -1 4194560 777 0 0 0 31 9 0 0 20 0 1 0";
        assert_eq!(parse_stat(text), Some((777, 31, 9)));
        assert_eq!(parse_stat("42 (truncated) R 1"), None);
    }

    #[test]
    fn deltas_need_both_readings() {
        let c = Counters {
            minflt: 10,
            utime: 30,
            stime: 10,
            runq_ns: Some(1_000_000),
        };
        let later = Counters {
            minflt: 25,
            utime: 60,
            stime: 20,
            runq_ns: Some(3_000_000),
        };
        let d = Delta::between(Some(c), Some(later)).unwrap();
        assert_eq!(d.minflt, 15);
        assert!((d.sys_share - 0.25).abs() < 1e-12);
        assert_eq!(d.runq_ms, Some(2.0));
        assert_eq!(Delta::between(None, Some(later)), None);
    }
}
