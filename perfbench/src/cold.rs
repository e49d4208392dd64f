//! The `cold_remine` phase: each 7-day window of the full export mined
//! from an empty evidence cache — the cost after a config change or a
//! lost cache. The store is in memory from set-up, so no ingest is
//! timed, and the cache is only written.

use crate::mine::{check_against_batch, same_model, window_traced};
use crate::phase::Tally;
use crate::setup::{self, Ctx, Inputs, NIGHTS};
use crate::spans::Tracer;
use logdep::health::PipelineConfig;
use logdep::window::{run_window_cached, WindowOutcome};
use logdep::EvidenceCache;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct ColdOut {
    pub window_s: Vec<f64>,
    /// Traced over untraced window time, minus one (traced run).
    pub overhead: Vec<f64>,
    pub tally: Tally,
}

pub struct Cold<'a> {
    inputs: &'a Inputs,
    cfg: &'a PipelineConfig,
    /// The first outcome of each window.
    first: BTreeMap<i64, WindowOutcome>,
    windows_run: i64,
    out: ColdOut,
}

impl<'a> Cold<'a> {
    pub fn new(inputs: &'a Inputs, cfg: &'a PipelineConfig) -> Self {
        Self {
            inputs,
            cfg,
            first: BTreeMap::new(),
            windows_run: 0,
            out: ColdOut::default(),
        }
    }

    /// Mines the next window; returns the time it measured (its wall
    /// time when it failed).
    pub fn step(&mut self, tr: &mut Tracer) -> Duration {
        let day = self.windows_run % (NIGHTS + 1);
        self.windows_run += 1;
        let attempt = Instant::now();
        let result = window(
            self.inputs,
            self.cfg,
            day,
            &mut self.first,
            &mut self.out,
            tr,
        );
        tr.abort();
        let spent = result.as_ref().map_or_else(|_| attempt.elapsed(), |d| *d);
        self.out
            .tally
            .record(result.map(drop).map_err(|e| format!("window {day}: {e}")));
        spent
    }

    /// Checks each window's first outcome against the batch pipeline,
    /// after the measured phases.
    pub fn finish(mut self) -> ColdOut {
        for (day, mined) in std::mem::take(&mut self.first) {
            let store = &self.inputs.cold_store;
            if let Err(e) = check_against_batch(&mined, store, &self.inputs.service_ids, self.cfg) {
                self.out.tally.fail(format!("window {day}: {e}"));
            }
        }
        self.out
    }
}

fn window(
    inputs: &Inputs,
    cfg: &PipelineConfig,
    day: i64,
    first: &mut BTreeMap<i64, WindowOutcome>,
    out: &mut ColdOut,
    tr: &mut Tracer,
) -> Result<Duration, String> {
    let store = &inputs.cold_store;
    let ids = &inputs.service_ids;
    let w = setup::window(day);
    let t = Instant::now();
    let mined = run_window_cached(store, w, ids, cfg, &mut EvidenceCache::new()).ctx("mine")?;
    let untraced = t.elapsed();
    let mut spent = untraced;
    if tr.enabled() {
        let key = day as u64;
        let t = Instant::now();
        tr.begin("cold_window", key);
        let traced = window_traced(tr, key, store, w, ids, cfg, &mut EvidenceCache::new())?;
        tr.end(&[]);
        let traced_time = t.elapsed();
        spent += traced_time;
        if !same_model(&traced, &mined) {
            return Err("traced window differs from run_window_cached".to_owned());
        }
        out.overhead
            .push(traced_time.as_secs_f64() / untraced.as_secs_f64().max(1e-9) - 1.0);
    }
    match first.get(&day) {
        Some(earlier) if !same_model(earlier, &mined) => {
            return Err("window differs from its earlier outcome".to_owned());
        }
        Some(_) => {}
        None => {
            first.insert(day, mined);
        }
    }
    out.window_s.push(untraced.as_secs_f64());
    Ok(spent)
}
