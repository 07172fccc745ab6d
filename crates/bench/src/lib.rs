//! # bench — experiment harness shared by the Criterion benches and the
//! `experiments` binary
//!
//! Every table and figure in §4.2 has a regeneration path here. The
//! `experiments` binary prints paper-vs-measured rows; the Criterion
//! benches time the analysis kernels on the same worlds.

#![forbid(unsafe_code)]

use chatbot_audit::{AuditConfig, AuditPipeline, AuditedBot};
use crawler::crawl::CrawlStats;
use honeypot::campaign::CampaignReport;
use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;
use store::{Backend, MemBackend};
use synth::{build_ecosystem, Ecosystem, EcosystemConfig};

/// A built world plus the static-stage output, shared by several benches.
pub struct PreparedWorld {
    /// The ecosystem.
    pub eco: Ecosystem,
    /// The pipeline used.
    pub pipeline: AuditPipeline,
    /// Static-stage output.
    pub bots: Vec<AuditedBot>,
    /// Crawl stats.
    pub stats: CrawlStats,
}

/// Build a world of `num_bots` and run the static stages.
pub fn prepare_world(num_bots: usize, seed: u64) -> PreparedWorld {
    prepare_world_workers(num_bots, seed, 1)
}

/// [`prepare_world`] with every `workers` knob (crawl sessions, analysis
/// pool, honeypot campaigns) set to `workers`.
pub fn prepare_world_workers(num_bots: usize, seed: u64, workers: usize) -> PreparedWorld {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(num_bots, seed));
    let mut config = AuditConfig {
        workers,
        ..AuditConfig::default()
    };
    config.crawl.workers = workers;
    config.honeypot.workers = workers;
    let pipeline = AuditPipeline::new(config);
    let (bots, stats) = pipeline.run_static_stages(&eco.net);
    PreparedWorld {
        eco,
        pipeline,
        bots,
        stats,
    }
}

/// Run the honeypot stage over the top `sample` bots of a prepared world.
pub fn run_honeypot(world: &PreparedWorld, sample: usize) -> CampaignReport {
    let pipeline = AuditPipeline::new(AuditConfig {
        honeypot_sample: sample,
        ..AuditConfig::default()
    });
    pipeline.run_honeypot(&world.eco)
}

/// A paper-vs-measured comparison row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Comparison {
    /// What is being compared.
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Build a row.
    pub fn new(metric: &str, paper: f64, measured: f64) -> Comparison {
        Comparison {
            metric: metric.to_string(),
            paper,
            measured,
        }
    }

    /// Absolute deviation.
    pub fn deviation(&self) -> f64 {
        (self.paper - self.measured).abs()
    }
}

/// Render comparison rows as an aligned text table.
pub fn render_comparisons(title: &str, rows: &[Comparison]) -> String {
    let mut out = format!("{title}\n");
    let width = rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(8)
        .max(8);
    out.push_str(&format!(
        "{:width$} | {:>8} | {:>8} | {:>6}\n",
        "metric",
        "paper",
        "measured",
        "|Δ|",
        width = width
    ));
    for r in rows {
        out.push_str(&format!(
            "{:width$} | {:8.2} | {:8.2} | {:6.2}\n",
            r.metric,
            r.paper,
            r.measured,
            r.deviation(),
            width = width
        ));
    }
    out
}

/// An in-memory store backend that counts the bytes read from each file,
/// so a bench can show which files a run reads back.
#[derive(Default)]
pub struct CountingBackend {
    inner: MemBackend,
    read_bytes: Mutex<BTreeMap<String, u64>>,
}

impl CountingBackend {
    /// Bytes read from each file since the last call (files read as empty
    /// or absent are listed with 0).
    pub fn take_read_bytes(&self) -> BTreeMap<String, u64> {
        std::mem::take(&mut self.read_bytes.lock().expect("read counts"))
    }

    /// The current size of `name`, not counted as a read.
    pub fn file_bytes(&self, name: &str) -> u64 {
        self.inner
            .read(name)
            .ok()
            .flatten()
            .map_or(0, |bytes| bytes.len() as u64)
    }
}

impl Backend for CountingBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let bytes = self.inner.read(name)?;
        let len = bytes.as_ref().map_or(0, Vec::len) as u64;
        *self
            .read_bytes
            .lock()
            .expect("read counts")
            .entry(name.to_string())
            .or_default() += len;
        Ok(bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(name, bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_world_runs_end_to_end() {
        let w = prepare_world(80, 3);
        assert_eq!(w.bots.len(), 80);
        assert!(w.stats.pages > 0);
    }

    #[test]
    fn counting_backend_counts_bytes_read_per_file() {
        let backend = CountingBackend::default();
        backend.append("a", b"four").unwrap();
        assert_eq!(backend.file_bytes("a"), 4);
        backend.read("a").unwrap();
        backend.read("a").unwrap();
        backend.read("absent").unwrap();
        let reads = backend.take_read_bytes();
        assert_eq!(
            reads,
            BTreeMap::from([("a".into(), 8), ("absent".into(), 0)])
        );
        assert!(backend.take_read_bytes().is_empty());
    }

    #[test]
    fn comparison_rendering() {
        let rows = vec![
            Comparison::new("valid %", 74.0, 73.5),
            Comparison::new("admin %", 54.86, 54.1),
        ];
        let table = render_comparisons("Fig 3 anchors", &rows);
        assert!(table.contains("Fig 3 anchors"));
        assert!(table.contains("valid %"));
        assert!((rows[0].deviation() - 0.5).abs() < 1e-9);
    }
}
