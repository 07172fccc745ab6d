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
