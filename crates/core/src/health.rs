//! Graceful degradation: run the detectors in isolation, report health.
//!
//! On a hostile stream (see the `logdep-faults` injector) a single
//! detector can fail — L2's session reconstruction starved of user
//! context, L3 handed an empty directory, a config invalidated by
//! upstream scaling. The paper's deployment ran continuously against a
//! moving landscape; an operator tool that aborts the whole mining run
//! because one of three independent evidence sources failed is useless
//! there. [`run_pipeline`] therefore isolates each detector, converts
//! its failure into a [`DetectorHealth`] entry, and hands whatever
//! subset succeeded to [`Ensemble::combine_partial`], whose vote
//! thresholds rescale to the surviving detectors.

use crate::ensemble::{app_service_to_pairs, Ensemble};
use crate::l1::{run_l1_pool, L1Config};
use crate::l2::{run_l2_pool, L2Config};
use crate::l3::{run_l3_pool, L3Config};
use crate::model::{AppServiceModel, PairModel};
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_obs::{record, Field};
use logdep_par::ParConfig;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The three mining techniques, as health-report subjects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Technique L1: activity correlation.
    L1,
    /// Technique L2: session co-occurrence.
    L2,
    /// Technique L3: directory citations.
    L3,
    /// The durable evidence store (recovery/corruption standing of the
    /// persisted cache, reported by the crash-safe `daily` driver).
    Store,
}

impl DetectorKind {
    /// Lowercase metric/event name segment (`detector.<slug>.…`).
    pub fn slug(self) -> &'static str {
        match self {
            DetectorKind::L1 => "l1",
            DetectorKind::L2 => "l2",
            DetectorKind::L3 => "l3",
            DetectorKind::Store => "store",
        }
    }
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorKind::L1 => write!(f, "L1"),
            DetectorKind::L2 => write!(f, "L2"),
            DetectorKind::L3 => write!(f, "L3"),
            DetectorKind::Store => write!(f, "Store"),
        }
    }
}

/// Outcome of one detector in a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorHealth {
    /// Which detector this entry describes.
    pub detector: DetectorKind,
    /// Whether it ran to completion.
    pub ok: bool,
    /// The error message when it did not (`None` when `ok`, and also
    /// when the detector was disabled by configuration).
    pub error: Option<String>,
    /// Whether the detector was enabled at all.
    pub enabled: bool,
    /// Number of dependencies it detected (0 when it failed).
    pub detected: usize,
    /// Wall-clock time the detector spent, in microseconds (0 when
    /// disabled). Observational only — it is *not* part of the
    /// scientific output, and the differential harness excludes it
    /// when asserting parallel ≡ serial.
    pub elapsed_us: u64,
}

impl DetectorHealth {
    fn ran(detector: DetectorKind, detected: usize, elapsed_us: u64) -> Self {
        Self {
            detector,
            ok: true,
            error: None,
            enabled: true,
            detected,
            elapsed_us,
        }
    }

    fn failed(detector: DetectorKind, error: String, elapsed_us: u64) -> Self {
        Self {
            detector,
            ok: false,
            error: Some(error),
            enabled: true,
            detected: 0,
            elapsed_us,
        }
    }

    fn disabled(detector: DetectorKind) -> Self {
        Self {
            detector,
            ok: false,
            error: None,
            enabled: false,
            detected: 0,
            elapsed_us: 0,
        }
    }
}

/// Which detectors to run, with their configurations. `None` disables
/// a detector (e.g. no service directory available → no L3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineConfig {
    /// L1 configuration, or `None` to skip L1.
    pub l1: Option<L1Config>,
    /// L2 configuration, or `None` to skip L2.
    pub l2: Option<L2Config>,
    /// L3 configuration, or `None` to skip L3.
    pub l3: Option<L3Config>,
    /// Worker-pool configuration shared by all three detectors. The
    /// default reads `LOGDEP_THREADS` (falling back to the hardware);
    /// [`ParConfig::serial`] forces the plain sequential path.
    pub par: ParConfig,
}

impl PipelineConfig {
    /// All three detectors with their default configurations.
    pub fn all_defaults() -> Self {
        Self {
            l1: Some(L1Config::default()),
            l2: Some(L2Config::default()),
            l3: Some(L3Config::default()),
            par: ParConfig::default(),
        }
    }

    /// `all_defaults` with an explicit pool configuration.
    pub fn all_defaults_with_par(par: ParConfig) -> Self {
        Self {
            par,
            ..Self::all_defaults()
        }
    }
}

/// Everything a degraded-tolerant pipeline run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineOutcome {
    /// L1's detected pairs (`None` when L1 failed or was disabled).
    pub l1_pairs: Option<PairModel>,
    /// L2's detected pairs.
    pub l2_pairs: Option<PairModel>,
    /// L3's detected app→service dependencies.
    pub l3_deps: Option<AppServiceModel>,
    /// L3's dependencies mapped onto app pairs via the owner relation
    /// (`None` when L3 failed/was disabled *or* no owners were given).
    pub l3_pairs: Option<PairModel>,
    /// One entry per detector, in L1, L2, L3 order.
    pub health: Vec<DetectorHealth>,
    /// The partial-set ensemble over whatever succeeded.
    pub ensemble: Ensemble,
}

impl PipelineOutcome {
    /// Number of detectors that ran to completion.
    pub fn detectors_ok(&self) -> usize {
        self.health.iter().filter(|h| h.ok).count()
    }

    /// True when every *enabled* detector ran to completion.
    pub fn fully_healthy(&self) -> bool {
        self.health.iter().all(|h| h.ok || !h.enabled)
    }
}

/// Runs one detector when it is configured, timing it and turning its
/// result (or error) into a health row plus the detected model.
fn step<C, M>(
    detector: DetectorKind,
    cfg: Option<&C>,
    run_detector: impl FnOnce(&C) -> crate::Result<M>,
    n_detected: impl FnOnce(&M) -> usize,
) -> (DetectorHealth, Option<M>) {
    let Some(cfg) = cfg else {
        return (DetectorHealth::disabled(detector), None);
    };
    let start = Instant::now();
    let outcome = run_detector(cfg);
    let us = elapsed_us(start);
    match outcome {
        Ok(model) => (
            DetectorHealth::ran(detector, n_detected(&model), us),
            Some(model),
        ),
        Err(e) => (DetectorHealth::failed(detector, e.to_string(), us), None),
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Emits one detector's trace span and metrics from its health row.
///
/// Always called from the orchestration thread *after* the detector
/// finished (never from pool workers), so the event stream is
/// identical at every thread width; the wall-clock `elapsed_us` goes
/// only into the metrics histogram, never into the trace.
pub(crate) fn record_detector_health(h: &DetectorHealth) {
    record(|r| {
        let slug = h.detector.slug();
        let name = format!("detector.{slug}");
        r.span_begin(&name, &[("enabled", Field::from(h.enabled))]);
        r.span_end(
            &name,
            &[
                ("ok", Field::from(h.ok)),
                ("detected", Field::from(h.detected)),
            ],
        );
        r.gauge_set(&format!("detector.{slug}.enabled"), i64::from(h.enabled));
        r.gauge_set(&format!("detector.{slug}.ok"), i64::from(h.ok));
        r.counter_add(&format!("detector.{slug}.detected"), h.detected as u64);
        r.observe_us(&format!("detector.{slug}.us"), h.elapsed_us);
    });
}

/// Runs L1/L2/L3 in isolation over `range`, never failing as a whole:
/// a detector erroring yields a [`DetectorHealth`] entry with `ok:
/// false` while the others proceed, and the returned
/// [`Ensemble`] combines the partial detector set (vote thresholds
/// rescale via [`Ensemble::at_least_rescaled`]).
///
/// With `cfg.par` above one thread the three detectors also run
/// *concurrently* on a [`logdep_par::scope`] (L1 and L2 on pool
/// workers, L3 on the calling thread), each internally sharding on the
/// same pool configuration. `threads = 1` is the plain sequential
/// loop; either way the outputs are bit-identical, only
/// [`DetectorHealth::elapsed_us`] varies.
///
/// `owners` maps service index → owning application (as in
/// [`app_service_to_pairs`]); without it L3 still runs but cannot vote
/// on app pairs.
pub fn run_pipeline(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    owners: Option<&[SourceId]>,
    cfg: &PipelineConfig,
) -> PipelineOutcome {
    let par = &cfg.par;
    record(|r| {
        r.span_begin(
            "pipeline",
            &[
                ("start_ms", Field::from(range.start.0)),
                ("end_ms", Field::from(range.end.0)),
            ],
        );
    });
    let l1_step = || {
        step(
            DetectorKind::L1,
            cfg.l1.as_ref(),
            |c| run_l1_pool(store, range, &store.active_sources(), c, par).map(|r| r.detected),
            PairModel::len,
        )
    };
    let l2_step = || {
        step(
            DetectorKind::L2,
            cfg.l2.as_ref(),
            |c| run_l2_pool(store, range, c, par).map(|r| r.detected),
            PairModel::len,
        )
    };
    let l3_step = || {
        step(
            DetectorKind::L3,
            cfg.l3.as_ref(),
            |c| run_l3_pool(store, range, service_ids, c, par).map(|r| r.detected),
            AppServiceModel::len,
        )
    };
    let ((h1, l1_pairs), (h2, l2_pairs), (h3, l3_deps)) = if par.is_serial() {
        (l1_step(), l2_step(), l3_step())
    } else {
        logdep_par::scope(|s| {
            let t1 = s.spawn(l1_step);
            let t2 = s.spawn(l2_step);
            let r3 = l3_step();
            let r1 = match t1.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            let r2 = match t2.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            (r1, r2, r3)
        })
    };

    // Detector spans are emitted here — after both branches converge,
    // in fixed L1/L2/L3 order, from the caller thread — so the trace
    // is byte-identical whether the steps ran serial or concurrent.
    record_detector_health(&h1);
    record_detector_health(&h2);
    record_detector_health(&h3);
    let ok_count = [&h1, &h2, &h3].iter().filter(|h| h.ok).count();
    record(|r| {
        r.span_end("pipeline", &[("detectors_ok", Field::from(ok_count))]);
    });

    let mut out = PipelineOutcome {
        l1_pairs,
        l2_pairs,
        l3_pairs: match (&l3_deps, owners) {
            (Some(deps), Some(o)) => Some(app_service_to_pairs(deps, o)),
            _ => None,
        },
        l3_deps,
        health: vec![h1, h2, h3],
        ..PipelineOutcome::default()
    };
    out.ensemble = Ensemble::combine_partial(
        out.l1_pairs.as_ref(),
        out.l2_pairs.as_ref(),
        out.l3_pairs.as_ref(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{LogRecord, Millis};

    /// A store where AppA cites service SVCB (owned by AppB) and both
    /// log densely enough for L1/L2 to have something to chew on.
    fn fixture() -> (LogStore, Vec<String>, Vec<SourceId>) {
        let mut store = LogStore::new();
        let a = store.registry.source("AppA");
        let b = store.registry.source("AppB");
        let user = store.registry.user("alice");
        for i in 0..200i64 {
            let t = i * 1_000;
            store.push(
                LogRecord::minimal(a, Millis(t))
                    .with_user(user)
                    .with_text("Invoke SVCB [fct [query]]"),
            );
            store.push(
                LogRecord::minimal(b, Millis(t + 120))
                    .with_user(user)
                    .with_text("handling request"),
            );
        }
        store.finalize();
        (store, vec!["SVCB".to_owned()], vec![b])
    }

    fn full_range() -> TimeRange {
        TimeRange::new(Millis(0), Millis(300_000))
    }

    #[test]
    fn healthy_run_reports_all_ok() {
        let (store, ids, owners) = fixture();
        let out = run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults(),
        );
        assert_eq!(out.health.len(), 3);
        assert!(out.fully_healthy(), "health: {:?}", out.health);
        assert_eq!(out.detectors_ok(), 3);
        assert_eq!(out.ensemble.n_available(), 3);
        // L3 must see the citation.
        let l3 = out.l3_deps.as_ref().expect("l3 ran");
        assert!(l3.len() >= 1);
        let l3p = out.l3_pairs.as_ref().expect("owners given");
        assert!(l3p.len() >= 1);
    }

    #[test]
    fn one_failing_detector_degrades_not_aborts() {
        let (store, ids, owners) = fixture();
        let mut cfg = PipelineConfig::all_defaults();
        // Invalid L1 config: negative slot width fails validation.
        if let Some(l1) = cfg.l1.as_mut() {
            l1.slot_ms = -5;
        }
        let out = run_pipeline(&store, full_range(), &ids, Some(&owners), &cfg);
        assert!(!out.fully_healthy());
        assert_eq!(out.detectors_ok(), 2);
        let l1_health = &out.health[0];
        assert_eq!(l1_health.detector, DetectorKind::L1);
        assert!(!l1_health.ok && l1_health.enabled);
        assert!(l1_health.error.as_deref().is_some_and(|e| !e.is_empty()));
        // The others still delivered and the ensemble adapts.
        assert!(out.l1_pairs.is_none());
        assert!(out.l2_pairs.is_some());
        assert!(out.l3_deps.is_some());
        assert_eq!(out.ensemble.n_available(), 2);
        assert_eq!(out.ensemble.available(), [false, true, true]);
    }

    #[test]
    fn disabled_detector_is_not_a_failure() {
        let (store, ids, _) = fixture();
        let cfg = PipelineConfig {
            l3: None,
            ..PipelineConfig::all_defaults()
        };
        let out = run_pipeline(&store, full_range(), &ids, None, &cfg);
        assert!(out.fully_healthy(), "disabled L3 is not a failure");
        assert_eq!(out.detectors_ok(), 2);
        let l3_health = &out.health[2];
        assert!(!l3_health.enabled && l3_health.error.is_none());
        assert!(out.l3_deps.is_none() && out.l3_pairs.is_none());
    }

    #[test]
    fn l3_without_owners_runs_but_does_not_vote() {
        let (store, ids, _) = fixture();
        let out = run_pipeline(
            &store,
            full_range(),
            &ids,
            None,
            &PipelineConfig::all_defaults(),
        );
        assert!(out.l3_deps.is_some(), "L3 ran");
        assert!(out.l3_pairs.is_none(), "no owner relation, no vote");
        assert_eq!(out.ensemble.available()[2], false);
    }

    #[test]
    fn concurrent_pipeline_matches_serial_and_times_detectors() {
        let (store, ids, owners) = fixture();
        let serial = run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults_with_par(ParConfig::serial()),
        );
        let par4 = ParConfig::with_threads(4).expect("4 >= 1");
        let parallel = run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults_with_par(par4),
        );
        assert_eq!(serial.l1_pairs, parallel.l1_pairs);
        assert_eq!(serial.l2_pairs, parallel.l2_pairs);
        assert_eq!(serial.l3_deps, parallel.l3_deps);
        assert_eq!(serial.l3_pairs, parallel.l3_pairs);
        assert_eq!(serial.ensemble, parallel.ensemble);
        // Health agrees on everything but the wall-clock field.
        for (a, b) in serial.health.iter().zip(parallel.health.iter()) {
            assert_eq!(a.detector, b.detector);
            assert_eq!(a.ok, b.ok);
            assert_eq!(a.enabled, b.enabled);
            assert_eq!(a.detected, b.detected);
            assert!(a.ok && a.elapsed_us > 0, "{a:?}");
            assert!(b.elapsed_us > 0, "{b:?}");
        }
    }

    #[test]
    fn empty_store_never_panics() {
        let mut store = LogStore::new();
        store.finalize();
        let out = run_pipeline(
            &store,
            TimeRange::new(Millis(0), Millis(1_000)),
            &[],
            None,
            &PipelineConfig::all_defaults(),
        );
        assert_eq!(out.health.len(), 3);
        // Whatever failed did so gracefully.
        for h in &out.health {
            assert!(h.ok || h.error.is_some() || !h.enabled, "{h:?}");
        }
    }
}
