//! Metric names, result records, and the statistics every workload shares.

use std::time::Duration;

/// End-to-end metrics, printed by every untraced run. Each workload maps
/// them onto what its users wait for (see `Workload::aliases`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("audits_per_s", "audits/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. The layer is named
/// before the first dot; a layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.world_build_ms", "ms"),
    ("crawler.crawl_ms", "ms"),
    ("crawler.pages", "count"),
    ("crawler.captchas", "count"),
    ("crawler.fetch_us", "us"),
    ("html.parse_us", "us"),
    ("crawler.extract_us", "us"),
    ("html.page_bytes", "bytes"),
    ("policy.analyze_ms", "ms"),
    ("policy.memo_hit_ratio", "ratio"),
    ("policy.bytes_scanned", "bytes"),
    ("codeanal.resolve_ms", "ms"),
    ("codeanal.link_hit_ratio", "ratio"),
    ("codeanal.scan_ms", "ms"),
    ("code.bytes_scanned", "bytes"),
    ("honeypot.campaign_ms", "ms"),
    ("honeypot.messages_posted", "count"),
    ("honeypot.guilds_reused", "count"),
    ("store.read_calls", "count"),
    ("store.read_bytes", "bytes"),
    ("store.read_ms", "ms"),
    ("store.append_calls", "count"),
    ("store.append_bytes", "bytes"),
    ("store.append_ms", "ms"),
    ("store.write_atomic_calls", "count"),
    ("store.write_atomic_bytes", "bytes"),
    ("store.write_atomic_ms", "ms"),
    ("store.pack_bytes", "bytes"),
    ("store.journal.frames_written", "count"),
    ("store.journal.replayed", "count"),
    ("store.artifact_hit_ratio", "ratio"),
    ("store.artifact_misses.epoch0", "count"),
    ("store.artifact_misses.warm_epoch", "count"),
    ("crawl.validated", "count"),
    ("crawl.fetched_full", "count"),
    ("crawl.fetched_full.epoch0", "count"),
    ("crawl.fetched_full.warm_epoch", "count"),
    ("crawl.bytes_saved", "bytes"),
    ("oplog.appended", "count"),
    ("oplog.chain_open_ms", "ms"),
    ("oplog.view_ms", "ms"),
    ("oplog.fleet_view_ms", "ms"),
    ("sched.ticks", "count"),
    ("sched.idle_ticks", "count"),
    ("sched.idle_tick_us", "us"),
    ("sched.busy_tick_ms", "ms"),
    ("sched.parked", "count"),
    ("sched.dispatched", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// What one workload run hands back: operation accounting, metric values
/// by name, and human-readable notes (tail percentiles, sample counts).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Count one checked operation; a failed check is recorded with its
    /// reason and counts against `error_ratio`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Add a human-readable note; a repeated note is kept once.
    pub fn note(&mut self, note: impl Into<String>) {
        let note = note.into();
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the highest of p99.9/p99/p90/p50
/// (nearest rank) that still has at least ten samples beyond it, or the
/// maximum when the sample is too small for any. Returns the value and the
/// percentile label it was read at. The decade steps keep the percentile
/// fixed while a run's sample count varies by less than tenfold.
pub fn tail(values: &[f64]) -> (f64, String) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in [99.9, 99.0, 90.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.saturating_sub(1);
        if n - idx > 10 {
            return (sorted[idx], format!("p{p}"));
        }
    }
    (sorted[n - 1], "max".to_string())
}

/// Per-round peak resident set: the `VmHWM` watermark is read at the end
/// of every round and then reset to the current resident set (Linux
/// `/proc/self/clear_refs`, code 5), so one heavy round does not set the
/// figure for the whole run. Where the reset is refused the watermark
/// stays cumulative, which can only raise later rounds' readings.
#[derive(Default)]
pub struct PeakRss {
    pub rounds_mb: Vec<f64>,
}

impl PeakRss {
    pub fn reset() {
        // Best effort, see the type docs.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    pub fn round_done(&mut self) {
        self.rounds_mb.push(peak_rss_mb());
        PeakRss::reset();
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a report's canonical JSON: the digest two runs of the same
/// audit must agree on.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, "p90".to_string()));
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&values), (900.0, "p90".to_string()));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (990.0, "p99".to_string()));
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&values), (25.0, "p50".to_string()));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, "max".to_string()));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
