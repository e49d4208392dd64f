//! The `nightly` phase: the documented cron path for a moving window.
//!
//! Each night starts from that night's rolling export on disk and ends
//! when the new model answers over HTTP: ingest, one durable cron step,
//! a reload of the served index from the export and the store, an
//! install into the live server, and a probe that sees the new
//! generation. `advance_s` is the cron step alone (ingest through
//! checkpoint); `freshness_s` is the whole path.

use crate::mine::{same_model, window_traced};
use crate::phase::Tally;
use crate::query::render;
use crate::setup::{self, directory_ids, ingest, night_plan, Ctx, Inputs, NIGHTS};
use crate::spans::Tracer;
use logdep::durable::SegmentPayload;
use logdep::health::PipelineConfig;
use logdep::window::{run_window_cached, WindowOutcome};
use logdep::{plan_signature, run_daily_durable, DurableStore, EvidenceCache, NoopPolicy};
use logdep_logstore::LogStore;
use logdep_serve::{run_reload, HttpClient, ModelIndex, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PROBE_PATH: &str = "/v1/model";

#[derive(Default)]
pub struct NightlyOut {
    pub advance_s: Vec<f64>,
    pub freshness_s: Vec<f64>,
    /// Traced over untraced cron-step time, minus one (traced run).
    pub overhead: Vec<f64>,
    pub tally: Tally,
}

pub struct Nightly<'a> {
    inputs: &'a Inputs,
    cfg: &'a PipelineConfig,
    handle: &'a ServerHandle,
    generation: u64,
    /// The first model each night mined.
    models: BTreeMap<i64, WindowOutcome>,
    /// Untraced copy of the durable store (traced run only).
    twin: Option<PathBuf>,
    nights_run: i64,
    out: NightlyOut,
}

/// Copies the durable store's files (checkpoint, journal, ledger).
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    for suffix in ["", ".journal", ".ledger", ".quarantine"] {
        let src = PathBuf::from(format!("{}{suffix}", from.display()));
        if src.exists() {
            std::fs::copy(&src, format!("{}{suffix}", to.display())).ctx("copy store")?;
        }
    }
    Ok(())
}

impl<'a> Nightly<'a> {
    pub fn new(
        inputs: &'a Inputs,
        cfg: &'a PipelineConfig,
        handle: &'a ServerHandle,
        traced: bool,
    ) -> Result<Self, String> {
        let twin = if traced {
            let twin = PathBuf::from(format!("{}.twin", inputs.checkpoint.display()));
            copy_store(&inputs.checkpoint, &twin)?;
            Some(twin)
        } else {
            None
        };
        Ok(Self {
            inputs,
            cfg,
            handle,
            generation: 100,
            models: BTreeMap::new(),
            twin,
            nights_run: 0,
            out: NightlyOut::default(),
        })
    }

    /// Runs the next night; returns the time it measured (its wall
    /// time when it failed).
    pub fn step(&mut self, tr: &mut Tracer) -> Duration {
        let n = 1 + self.nights_run % NIGHTS;
        self.nights_run += 1;
        let attempt = Instant::now();
        let result = if tr.enabled() {
            self.traced_night(n, tr)
        } else {
            self.night(n)
        };
        tr.abort();
        let spent = result.as_ref().map_or_else(|_| attempt.elapsed(), |d| *d);
        self.out
            .tally
            .record(result.map(drop).map_err(|e| format!("night {n}: {e}")));
        spent
    }

    /// One untraced night; returns its freshness time.
    fn night(&mut self, n: i64) -> Result<Duration, String> {
        self.generation += 1;
        let export = &self.inputs.nights[n as usize].path;
        let t0 = Instant::now();
        let (store, _) = ingest(export)?;
        let ids = directory_ids(&self.inputs.directory_xml)?;
        let daily = run_daily_durable(
            &store,
            &ids,
            self.cfg,
            &night_plan(n),
            &self.inputs.checkpoint,
            false,
            &mut NoopPolicy,
            &mut |_, _| {},
        )
        .ctx("cron step")?;
        // The cron job ends here; its store goes before the reload.
        drop(store);
        let advance = t0.elapsed();
        let source = setup::snapshot_source(self.inputs, n, self.cfg);
        let index = run_reload(&source, self.generation).ctx("reload")?;
        // The expected probe body is rendered off the clock.
        let paused = Instant::now();
        let expected = render(&index, PROBE_PATH)?;
        let pause = paused.elapsed();
        self.handle.install(index);
        let (status, body) = probe(self.handle)?;
        let freshness = t0.elapsed().saturating_sub(pause);

        check_probe(status, &body, &expected)?;
        self.check_model(n, daily.final_outcome)?;
        self.out.advance_s.push(advance.as_secs_f64());
        self.out.freshness_s.push(freshness.as_secs_f64());
        Ok(freshness)
    }

    /// One traced night: the cron step driven call by call in
    /// `run_daily_durable`'s order, and the reload from its parts.
    ///
    /// `append_step` is fed an empty delta: the cache maps are private
    /// to `logdep`, so the step's delta cannot be rebuilt from outside.
    /// The journal record therefore carries no entries, but the
    /// checkpoint that follows encodes the whole in-memory cache and
    /// empties the journal, so the files the night leaves behind are
    /// those of the untraced night. The twin store checks that, byte
    /// for byte, every night.
    ///
    /// Returns the time the traced and untraced runs took together.
    fn traced_night(&mut self, n: i64, tr: &mut Tracer) -> Result<Duration, String> {
        self.generation += 1;
        let key = n as u64;
        let export = &self.inputs.nights[n as usize];
        let checkpoint = &self.inputs.checkpoint;
        let twin = self
            .twin
            .clone()
            .ok_or("traced night without a twin store")?;
        let plan = night_plan(n);
        let window = plan.window(1);

        // The untraced cron step on the twin store, for the overhead.
        let t = Instant::now();
        let (twin_store, _) = ingest(&export.path)?;
        let ids = directory_ids(&self.inputs.directory_xml)?;
        run_daily_durable(
            &twin_store,
            &ids,
            self.cfg,
            &plan,
            &twin,
            false,
            &mut NoopPolicy,
            &mut |_, _| {},
        )
        .ctx("twin cron step")?;
        drop(twin_store);
        let untraced = t.elapsed();

        let night_start = Instant::now();
        tr.begin("night", key);
        tr.begin("advance", key);
        let t = Instant::now();
        let store = traced_ingest(tr, "ingest", key, &export.path)?;
        let ids = tr.span("directory", key, || {
            directory_ids(&self.inputs.directory_xml)
        })?;
        tr.begin("durable.open", key);
        let fp = plan_signature(&store, &ids, self.cfg, &plan);
        let mut durable = DurableStore::open(checkpoint, fp, &mut NoopPolicy).ctx("open store")?;
        tr.end(&[]);
        tr.span("durable.discard", key, || {
            durable.discard_progress(&mut NoopPolicy)
        })
        .ctx("discard progress")?;
        tr.span("durable.ledger", key, || {
            durable.append_ledger(&mut NoopPolicy)
        })
        .ctx("ledger")?;
        let outcome = window_traced(tr, key, &store, window, &ids, self.cfg, durable.cache_mut())?;
        tr.span("durable.append", key, || {
            durable.append_step(1, window, SegmentPayload::default(), &mut NoopPolicy)
        })
        .ctx("append step")?;
        tr.span("durable.checkpoint", key, || {
            durable.checkpoint(&mut NoopPolicy)
        })
        .ctx("checkpoint")?;
        tr.span("durable.ledger", key, || {
            durable.append_ledger(&mut NoopPolicy)
        })
        .ctx("ledger")?;
        drop(durable);
        drop(store);
        let traced = t.elapsed();
        tr.end(&[]);

        tr.begin("reload", key);
        let rstore = traced_ingest(tr, "reload.ingest", key, &export.path)?;
        let rids = tr.span("reload.directory", key, || {
            directory_ids(&self.inputs.directory_xml)
        })?;
        let mut cache = tr.span("durable.open_existing", key, || {
            DurableStore::open_existing(checkpoint, &mut NoopPolicy)
                .map_or_else(|_| EvidenceCache::new(), |s| s.cache().clone())
        });
        tr.begin("index.build", key);
        let index = ModelIndex::from_store(
            &rstore,
            &rids,
            self.cfg,
            &setup::night_index_plan(n),
            &mut cache,
            self.generation,
        )
        .ctx("index build")?;
        let stats = cache.stats();
        tr.end(&[
            ("hits", stats.hits() as f64),
            ("misses", stats.misses() as f64),
        ]);
        tr.end(&[]);
        let expected = tr.span("check.render", key, || render(&index, PROBE_PATH))?;
        tr.span("swap", key, || self.handle.install(index));
        let (status, body) = tr.span("probe", key, || probe(self.handle))?;
        let checkpoint_bytes = std::fs::metadata(checkpoint).ctx("stat checkpoint")?.len();
        tr.end(&[("checkpoint_bytes", checkpoint_bytes as f64)]);
        let spent = untraced + night_start.elapsed();

        check_probe(status, &body, &expected)?;
        self.check_model(n, outcome)?;
        if std::fs::read(checkpoint).ctx("read checkpoint")?
            != std::fs::read(&twin).ctx("read twin checkpoint")?
        {
            return Err("traced checkpoint differs from the untraced night's".to_owned());
        }
        let untraced = untraced.max(Duration::from_nanos(1));
        self.out
            .overhead
            .push(traced.as_secs_f64() / untraced.as_secs_f64() - 1.0);
        Ok(spent)
    }

    /// A repeated night must mine the model it mined the first time;
    /// the first model of each night is checked in [`Self::finish`].
    fn check_model(&mut self, n: i64, got: WindowOutcome) -> Result<(), String> {
        match self.models.get(&n) {
            None => {
                self.models.insert(n, got);
                Ok(())
            }
            Some(first) if same_model(first, &got) => Ok(()),
            Some(_) => Err("model differs from the same night's earlier model".to_owned()),
        }
    }

    /// Checks each night's model against a fresh-cache mine of the
    /// night's own export, after the measured phases. Models of
    /// different exports are never compared: source interning follows
    /// each export's order of first appearance, and the L1 model
    /// depends on that order.
    pub fn finish(mut self) -> NightlyOut {
        for (n, got) in std::mem::take(&mut self.models) {
            let result = (|| {
                let (store, _) = ingest(&self.inputs.nights[n as usize].path)?;
                let reference = run_window_cached(
                    &store,
                    setup::window(n),
                    &self.inputs.service_ids,
                    self.cfg,
                    &mut EvidenceCache::new(),
                )
                .ctx("reference mine")?;
                if same_model(&reference, &got) {
                    Ok(())
                } else {
                    Err("model differs from a fresh-cache mine of its export".to_owned())
                }
            })();
            if let Err(e) = result {
                self.out.tally.fail(format!("night {n}: {e}"));
            }
        }
        self.out
    }
}

/// The probe a freshness check would send: a new connection asking for
/// the live model.
fn probe(handle: &ServerHandle) -> Result<(u16, String), String> {
    let mut client = HttpClient::connect(handle.addr(), 30_000).ctx("probe connect")?;
    client.get(PROBE_PATH).ctx("probe")
}

fn check_probe(status: u16, body: &str, expected: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("probe status {status}"));
    }
    if body != expected {
        return Err("probe body differs from the new index's rendering".to_owned());
    }
    Ok(())
}

/// `read_store_resilient` on `path` as one span carrying its volume.
fn traced_ingest(tr: &mut Tracer, name: &str, key: u64, path: &Path) -> Result<LogStore, String> {
    let bytes = std::fs::metadata(path).ctx("stat export")?.len();
    tr.begin(name, key);
    let (store, report) = ingest(path)?;
    tr.end(&[
        ("lines", report.total_lines as f64),
        ("bytes", bytes as f64),
        ("deduped", report.deduped as f64),
        ("quarantined", report.quarantined as f64),
    ]);
    Ok(store)
}
