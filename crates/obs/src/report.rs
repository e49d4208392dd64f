//! End-of-run summaries built from the metrics registry.
//!
//! A [`RunReport`] reads the well-known metric names the pipeline
//! records (see DESIGN.md §14 for the full table) and renders them as
//! an operator-facing text block or a JSON object. Timing fields come
//! from detector health rows and reach the registry only under an
//! injected clock (the CLI's `--wall-clock`): a clock-free recorder's
//! report is byte-identical run to run, with every `elapsed_us` 0.

use crate::event::escape_into;
use crate::metrics::MetricsRegistry;

/// Per-detector summary row (`detector.<name>.*` metrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSummary {
    /// Detector name (`l1`, `l2`, `l3`, `store`).
    pub name: String,
    /// Whether the detector was enabled for the run.
    pub enabled: bool,
    /// Whether it completed without error.
    pub ok: bool,
    /// Dependencies / pairs detected.
    pub detected: u64,
    /// Total wall time attributed to the detector, in microseconds.
    pub elapsed_us: u64,
}

/// Per-layer cache traffic row (`cache.<layer>.hits` / `.misses`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSummary {
    /// Cache layer (`l1`, `l2`, `l3`).
    pub layer: String,
    /// Evidence-cache hits.
    pub hits: u64,
    /// Evidence-cache misses (recomputations).
    pub misses: u64,
}

impl CacheSummary {
    /// Hit rate in permille (integer, so rendering stays float-free).
    pub fn hit_permille(&self) -> u64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0
        } else {
            self.hits * 1000 / total
        }
    }
}

/// Summary of one observed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Detector rows, in the registry's name order.
    pub detectors: Vec<DetectorSummary>,
    /// Cache layers that saw any traffic, in name order.
    pub caches: Vec<CacheSummary>,
    /// Every counter not folded into the rows above, in name order.
    pub counters: Vec<(String, u64)>,
    /// Total events emitted to the trace.
    pub events: u64,
    /// True when any enabled detector failed (degraded-mode run).
    pub degraded: bool,
}

/// The detector names the pipeline records metrics under.
const DETECTORS: [&str; 4] = ["l1", "l2", "l3", "store"];

/// The cache layers the windowed pipeline records traffic for.
const CACHE_LAYERS: [&str; 3] = ["l1", "l2", "l3"];

impl RunReport {
    /// Builds a report from a recorded registry and the trace length.
    pub fn from_metrics(metrics: &MetricsRegistry, events: u64) -> Self {
        let mut detectors = Vec::new();
        for name in DETECTORS {
            let enabled = metrics.gauge(&format!("detector.{name}.enabled"));
            let ok = metrics.gauge(&format!("detector.{name}.ok"));
            if enabled.is_none() && ok.is_none() {
                continue;
            }
            detectors.push(DetectorSummary {
                name: name.to_owned(),
                enabled: enabled.unwrap_or(0) != 0,
                ok: ok.unwrap_or(0) != 0,
                detected: metrics.counter(&format!("detector.{name}.detected")),
                elapsed_us: metrics
                    .histogram(&format!("detector.{name}.us"))
                    .map_or(0, |h| h.sum_us()),
            });
        }
        let mut caches = Vec::new();
        for layer in CACHE_LAYERS {
            let hits = metrics.counter(&format!("cache.{layer}.hits"));
            let misses = metrics.counter(&format!("cache.{layer}.misses"));
            if hits + misses > 0 {
                caches.push(CacheSummary {
                    layer: layer.to_owned(),
                    hits,
                    misses,
                });
            }
        }
        let absorbed = |name: &str| {
            (name.starts_with("detector.") && name.ends_with(".detected"))
                || (name.starts_with("cache.")
                    && (name.ends_with(".hits") || name.ends_with(".misses")))
        };
        let counters = metrics
            .counters()
            .filter(|(name, _)| !absorbed(name))
            .map(|(name, v)| (name.to_owned(), v))
            .collect();
        let degraded = detectors.iter().any(|d| d.enabled && !d.ok);
        Self {
            detectors,
            caches,
            counters,
            events,
            degraded,
        }
    }

    /// Renders the report as an operator-facing text block.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "run report: {} detector(s), {} event(s){}\n",
            self.detectors.len(),
            self.events,
            if self.degraded { ", DEGRADED" } else { "" }
        ));
        for d in &self.detectors {
            let status = match (d.enabled, d.ok) {
                (false, _) => "disabled".to_owned(),
                (true, true) => format!("ok, {} detected, {} us", d.detected, d.elapsed_us),
                (true, false) => "FAILED".to_owned(),
            };
            s.push_str(&format!("  detector {}: {status}\n", d.name));
        }
        for c in &self.caches {
            s.push_str(&format!(
                "  cache {}: {} hits, {} misses ({}.{}% hit rate)\n",
                c.layer,
                c.hits,
                c.misses,
                c.hit_permille() / 10,
                c.hit_permille() % 10
            ));
        }
        for (name, v) in &self.counters {
            s.push_str(&format!("  {name}: {v}\n"));
        }
        s
    }

    /// Renders the report as one JSON object (hand-rolled — the crate
    /// has no serializer dependency by design).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"events\":{},", self.events));
        s.push_str(&format!("\"degraded\":{},", self.degraded));
        s.push_str("\"detectors\":[");
        for (i, d) in self.detectors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":\"");
            escape_into(&d.name, &mut s);
            s.push_str(&format!(
                "\",\"enabled\":{},\"ok\":{},\"detected\":{},\"elapsed_us\":{}}}",
                d.enabled, d.ok, d.detected, d.elapsed_us
            ));
        }
        s.push_str("],\"caches\":[");
        for (i, c) in self.caches.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"layer\":\"");
            escape_into(&c.layer, &mut s);
            s.push_str(&format!(
                "\",\"hits\":{},\"misses\":{},\"hit_permille\":{}}}",
                c.hits,
                c.misses,
                c.hit_permille()
            ));
        }
        s.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_into(name, &mut s);
            s.push_str(&format!("\":{v}"));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.gauge_set("detector.l1.enabled", 1);
        m.gauge_set("detector.l1.ok", 1);
        m.counter_add("detector.l1.detected", 4);
        m.observe_us("detector.l1.us", 1500);
        m.gauge_set("detector.l3.enabled", 1);
        m.gauge_set("detector.l3.ok", 0);
        m.counter_add("cache.l1.hits", 9);
        m.counter_add("cache.l1.misses", 1);
        m.counter_add("durable.steps", 7);
        m
    }

    #[test]
    fn report_reads_well_known_names() {
        let r = RunReport::from_metrics(&sample(), 42);
        assert_eq!(r.events, 42);
        assert!(r.degraded, "failed l3 must flag the run degraded");
        assert_eq!(r.detectors.len(), 2);
        assert_eq!(r.detectors[0].name, "l1");
        assert_eq!(r.detectors[0].detected, 4);
        assert_eq!(r.detectors[0].elapsed_us, 1500);
        assert_eq!(r.caches.len(), 1);
        assert_eq!(r.caches[0].hit_permille(), 900);
        assert_eq!(r.counters, vec![("durable.steps".to_owned(), 7)]);
    }

    #[test]
    fn text_and_json_render() {
        let r = RunReport::from_metrics(&sample(), 42);
        let text = r.render_text();
        assert!(text.contains("DEGRADED"));
        assert!(text.contains("detector l1: ok, 4 detected, 1500 us"));
        assert!(text.contains("cache l1: 9 hits, 1 misses (90.0% hit rate)"));
        assert!(text.contains("durable.steps: 7"));
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"degraded\":true"));
        assert!(json.contains("\"hit_permille\":900"));
    }

    #[test]
    fn empty_registry_gives_empty_report() {
        let r = RunReport::from_metrics(&MetricsRegistry::new(), 0);
        assert!(r.detectors.is_empty());
        assert!(r.caches.is_empty());
        assert!(!r.degraded);
    }
}
