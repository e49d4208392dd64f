//! Graceful degradation and the one mining body.
//!
//! On a hostile stream (see the `logdep-faults` injector) a single
//! detector can fail — L2's session reconstruction starved of user
//! context, L3 handed an empty directory, a config invalidated by
//! upstream scaling. The paper's deployment ran continuously against a
//! moving landscape; an operator tool that aborts the whole mining run
//! because one of three independent evidence sources failed is useless
//! there.
//!
//! `mine` is the one body every mining run goes through: it runs L1,
//! L2 and L3 in that order on the calling thread (each detector fans
//! its own units out on the pool), isolates each detector's error into
//! a [`DetectorHealth`] row, times it, and records its `detector.<slug>`
//! span plus, when given the evidence cache, its `cache.<slug>.*`
//! counters. [`run_pipeline`] is that body with no cache, handing
//! whatever subset succeeded to [`Ensemble::combine_partial`], whose
//! vote thresholds rescale to the surviving detectors;
//! [`crate::window::run_window_cached`] is that body with the cache.
//! This is the only module that reads the wall clock, and the time it
//! measures reaches a run's metrics only when the recorder has an
//! injected clock.

use crate::cache::EvidenceCache;
use crate::ensemble::{app_service_to_pairs, Ensemble};
use crate::l1::{mine_l1, L1Config, L1Result};
use crate::l2::{mine_l2, L2Config, L2Result};
use crate::l3::{mine_l3, L3Config, L3Result};
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

/// Runs one detector when it is configured, inside its
/// `detector.<slug>` span, timing it and turning its result (or error)
/// into a health row. The span's end carries the layer's cache traffic
/// when a cache was given.
fn step<C, M>(
    detector: DetectorKind,
    cfg: Option<&C>,
    mut cache: Option<&mut EvidenceCache>,
    run_detector: impl FnOnce(&C, Option<&mut EvidenceCache>) -> crate::Result<M>,
    n_detected: impl FnOnce(&M) -> usize,
) -> (DetectorHealth, Option<crate::Result<M>>) {
    begin_detector(detector, cfg.is_some());
    let before = cache.as_deref().map(EvidenceCache::stats);
    let (health, outcome) = match cfg {
        None => (DetectorHealth::disabled(detector), None),
        Some(cfg) => {
            let start = Instant::now();
            let outcome = run_detector(cfg, cache.as_deref_mut());
            let us = elapsed_us(start);
            let health = match &outcome {
                Ok(model) => DetectorHealth::ran(detector, n_detected(model), us),
                Err(e) => DetectorHealth::failed(detector, e.to_string(), us),
            };
            (health, Some(outcome))
        }
    };
    let traffic = cache.zip(before).map(|(c, b)| {
        let d = c.stats().since(&b);
        match detector {
            DetectorKind::L1 => (d.l1_hits, d.l1_misses),
            DetectorKind::L2 => (d.l2_hits, d.l2_misses),
            DetectorKind::L3 => (d.l3_hits, d.l3_misses),
            DetectorKind::Store => (0, 0),
        }
    });
    end_detector(&health, traffic);
    (health, outcome)
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn begin_detector(detector: DetectorKind, enabled: bool) {
    record(|r| {
        let name = format!("detector.{}", detector.slug());
        r.span_begin(&name, &[("enabled", Field::from(enabled))]);
    });
}

/// Closes a detector's span and records its metrics from its health
/// row, plus its `cache.<slug>.hits/misses` counters when `traffic` is
/// given. Called from the orchestration thread only (never from pool
/// workers), so the event stream is identical at every thread width;
/// the wall-clock `elapsed_us` goes only into the metrics histogram,
/// never into the trace.
fn end_detector(h: &DetectorHealth, traffic: Option<(u64, u64)>) {
    record(|r| {
        let slug = h.detector.slug();
        let mut fields = vec![
            ("ok", Field::from(h.ok)),
            ("detected", Field::from(h.detected)),
        ];
        if let Some((hits, misses)) = traffic {
            r.counter_add(&format!("cache.{slug}.hits"), hits);
            r.counter_add(&format!("cache.{slug}.misses"), misses);
            fields.push(("hits", Field::from(hits)));
            fields.push(("misses", Field::from(misses)));
        }
        r.span_end(&format!("detector.{slug}"), &fields);
        r.gauge_set(&format!("detector.{slug}.enabled"), i64::from(h.enabled));
        r.gauge_set(&format!("detector.{slug}.ok"), i64::from(h.ok));
        r.counter_add(&format!("detector.{slug}.detected"), h.detected as u64);
        r.observe_us(&format!("detector.{slug}.us"), h.elapsed_us);
    });
}

/// Emits a detector's span and metrics from a health row computed
/// elsewhere (the durable store's standing).
pub(crate) fn record_detector_health(h: &DetectorHealth) {
    begin_detector(h.detector, h.enabled);
    end_detector(h, None);
}

/// What one [`mine`] run produced: a health row per detector, in L1,
/// L2, L3 order, and each enabled detector's result or error.
pub(crate) struct Mined {
    pub(crate) health: Vec<DetectorHealth>,
    pub(crate) l1: Option<crate::Result<L1Result>>,
    pub(crate) l2: Option<crate::Result<L2Result>>,
    pub(crate) l3: Option<crate::Result<L3Result>>,
}

/// The one mining body: L1, L2 and L3 over `range`, in that order on
/// the calling thread, each in isolation through [`step`] (each
/// detector fans its own units out on `cfg.par`). With a `cache`, every
/// detector probes it and computes only the misses; without one, every
/// unit is computed. A batch run is this body with no cache, a windowed
/// run this body with the cache.
pub(crate) fn mine(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    cfg: &PipelineConfig,
    mut cache: Option<&mut EvidenceCache>,
) -> Mined {
    let par = &cfg.par;
    let (h1, l1) = step(
        DetectorKind::L1,
        cfg.l1.as_ref(),
        cache.as_deref_mut(),
        |c, cache| {
            c.validate()?;
            let slots = range.split(c.slot_ms);
            mine_l1(store, &slots, &store.active_sources(), c, par, cache)
        },
        |r| r.detected.len(),
    );
    let (h2, l2) = step(
        DetectorKind::L2,
        cfg.l2.as_ref(),
        cache.as_deref_mut(),
        |c, cache| mine_l2(store, range, c, par, cache),
        |r| r.detected.len(),
    );
    let (h3, l3) = step(
        DetectorKind::L3,
        cfg.l3.as_ref(),
        cache,
        |c, cache| Ok(mine_l3(store, range, service_ids, c, par, cache)),
        |r| r.detected.len(),
    );
    Mined {
        health: vec![h1, h2, h3],
        l1,
        l2,
        l3,
    }
}

/// Runs L1/L2/L3 in isolation over `range`, never failing as a whole:
/// a detector erroring yields a [`DetectorHealth`] entry with `ok:
/// false` while the others proceed, and the returned
/// [`Ensemble`] combines the partial detector set (vote thresholds
/// rescale via [`Ensemble::at_least_rescaled`]). The outputs are
/// bit-identical at every `cfg.par` width; only
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
    record(|r| {
        r.span_begin(
            "pipeline",
            &[
                ("start_ms", Field::from(range.start.0)),
                ("end_ms", Field::from(range.end.0)),
            ],
        );
    });
    let mined = mine(store, range, service_ids, cfg, None);
    let ok_count = mined.health.iter().filter(|h| h.ok).count();
    record(|r| {
        r.span_end("pipeline", &[("detectors_ok", Field::from(ok_count))]);
    });

    let l3_deps = mined.l3.and_then(Result::ok).map(|r| r.detected);
    let mut out = PipelineOutcome {
        l1_pairs: mined.l1.and_then(Result::ok).map(|r| r.detected),
        l2_pairs: mined.l2.and_then(Result::ok).map(|r| r.detected),
        l3_pairs: match (&l3_deps, owners) {
            (Some(deps), Some(o)) => Some(app_service_to_pairs(deps, o)),
            _ => None,
        },
        l3_deps,
        health: mined.health,
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
    use logdep_obs::{set_recorder, take_recorder, Recorder};

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

    /// `run_pipeline` under `recorder`, returning the drained recorder.
    fn recorded_pipeline(recorder: Recorder) -> Recorder {
        let (store, ids, owners) = fixture();
        assert!(set_recorder(recorder).is_none());
        run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults(),
        );
        take_recorder().expect("recorder installed above")
    }

    #[test]
    fn clock_free_report_is_reproducible() {
        let first = recorded_pipeline(Recorder::new()).report();
        let second = recorded_pipeline(Recorder::new()).report();
        assert_eq!(first.render_json(), second.render_json());
        assert_eq!(first.detectors.len(), 3);
        assert!(first.detectors.iter().all(|d| d.ok && d.elapsed_us == 0));
        // Under an injected clock the rows keep the measured time.
        let clocked = recorded_pipeline(Recorder::with_clock(|| 0)).report();
        assert!(clocked.detectors.iter().all(|d| d.elapsed_us > 0));
    }

    #[test]
    fn bad_l1_config_fails_the_window_but_degrades_the_batch() {
        let (store, ids, owners) = fixture();
        let mut cfg = PipelineConfig::all_defaults();
        if let Some(l1) = cfg.l1.as_mut() {
            l1.slot_ms = -5;
        }
        let err = crate::window::run_window_cached(
            &store,
            full_range(),
            &ids,
            &cfg,
            &mut EvidenceCache::new(),
        )
        .expect_err("an invalid L1 config fails the windowed run");
        let l1_err = L1Config {
            slot_ms: -5,
            ..L1Config::default()
        }
        .validate()
        .expect_err("negative slot width");
        assert_eq!(err.to_string(), l1_err.to_string());

        let out = run_pipeline(&store, full_range(), &ids, Some(&owners), &cfg);
        let ok: Vec<_> = out.health.iter().map(|h| (h.detector, h.ok)).collect();
        assert_eq!(
            ok,
            [
                (DetectorKind::L1, false),
                (DetectorKind::L2, true),
                (DetectorKind::L3, true)
            ]
        );
        assert_eq!(out.health[0].error, Some(err.to_string()));
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
