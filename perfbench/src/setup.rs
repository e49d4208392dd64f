//! Set-up shared by every workload: simulate the landscape, write the
//! exports the program reads, prime the durable store with night 0 and
//! build the two served generations.

use logdep::health::PipelineConfig;
use logdep::l1::L1Config;
use logdep::l2::L2Config;
use logdep::l3::L3Config;
use logdep::{run_daily_durable, DailyPlan, DurableStore, NoopPolicy};
use logdep_logstore::codec::write_record;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{
    read_store_resilient, IngestPolicy, IngestReport, LogRecord, LogStore, Millis,
};
use logdep_par::ParConfig;
use logdep_serve::{run_reload, IndexPlan, ModelIndex, SnapshotSource};
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate_with, ServiceDirectory, SimConfig, Topology};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Width of the mined window, in days.
pub const WINDOW_DAYS: i64 = 7;
/// Nights 1..=NIGHTS advance the window; night 0 primes the store.
pub const NIGHTS: i64 = 7;
/// Simulated days: enough for the last night's window.
const SIM_DAYS: i64 = WINDOW_DAYS + NIGHTS;
/// Seed of the simulated landscape (applications, services and their
/// dependencies). It stays fixed so that `--seed` varies the traffic
/// over one landscape, not the size of the landscape itself: a new
/// topology per seed changes the work per night by a fifth.
const LANDSCAPE_SEED: u64 = 42;

/// Turns any displayable error into this benchmark's error string.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// One TSV export on disk.
pub struct Export {
    pub path: PathBuf,
    pub lines: usize,
    pub bytes: u64,
}

/// Everything the phases start from.
pub struct Inputs {
    pub directory_xml: PathBuf,
    pub service_ids: Vec<String>,
    /// Rolling export of night `n` (its window's days only), by `n`.
    pub nights: Vec<Export>,
    /// The whole simulated span as one export.
    pub full: Export,
    /// `full`, ingested: the store the cold re-mines read.
    pub cold_store: LogStore,
    /// Durable store primed with night 0.
    pub checkpoint: PathBuf,
    /// Served generations: night 0's week of one-day snapshots, and
    /// the same week without its oldest day.
    pub gen_a: ModelIndex,
    pub gen_b: ModelIndex,
}

/// The detector configuration of the nightly cron path, with the
/// mining pool pinned to `threads`.
pub fn pipeline_config(threads: usize) -> Result<PipelineConfig, String> {
    Ok(PipelineConfig {
        l1: Some(L1Config {
            minlogs: 25,
            seed: 7,
            ..L1Config::default()
        }),
        l2: Some(L2Config::default()),
        l3: Some(L3Config::with_stop_patterns(standard_stop_patterns())),
        par: ParConfig::with_threads(threads).ctx("pool width")?,
    })
}

/// The 7-day window starting on `day`.
pub fn window(day: i64) -> TimeRange {
    TimeRange::new(Millis::from_days(day), Millis::from_days(day + WINDOW_DAYS))
}

/// Night `n`'s cron step: one step whose window starts on day `n`.
pub fn night_plan(n: i64) -> DailyPlan {
    DailyPlan {
        start_day: n,
        window_days: WINDOW_DAYS,
        advance_days: 1,
        steps: 1,
    }
}

/// What night `n` serves: its window as a week of one-day snapshots.
pub fn night_index_plan(n: i64) -> IndexPlan {
    IndexPlan {
        start_day: n,
        window_days: 1,
        advance_days: 1,
        steps: WINDOW_DAYS as u64,
    }
}

/// The reload source of night `n`: its export, the directory and the
/// durable store the cron step just wrote.
pub fn snapshot_source(inputs: &Inputs, n: i64, cfg: &PipelineConfig) -> SnapshotSource {
    SnapshotSource {
        logs: inputs.nights[n as usize].path.display().to_string(),
        directory: Some(inputs.directory_xml.display().to_string()),
        store: Some(inputs.checkpoint.clone()),
        plan: night_index_plan(n),
        cfg: cfg.clone(),
    }
}

/// Resilient ingest of one export, as the cron path reads it.
pub fn ingest(path: &Path) -> Result<(LogStore, IngestReport), String> {
    let file = std::fs::File::open(path).ctx("open export")?;
    read_store_resilient(BufReader::new(file), &IngestPolicy::default()).ctx("ingest")
}

/// Service ids of the directory XML.
pub fn directory_ids(path: &Path) -> Result<Vec<String>, String> {
    let xml = std::fs::read_to_string(path).ctx("read directory")?;
    let dir = ServiceDirectory::from_xml(&xml).ctx("parse directory")?;
    Ok(dir.ids().iter().map(|s| s.to_string()).collect())
}

fn write_export(path: PathBuf, records: &[LogRecord], store: &LogStore) -> Result<Export, String> {
    let mut w = BufWriter::new(std::fs::File::create(&path).ctx("create export")?);
    for r in records {
        write_record(&mut w, r, &store.registry).ctx("write export")?;
    }
    w.flush().ctx("flush export")?;
    let bytes = std::fs::metadata(&path).ctx("stat export")?.len();
    Ok(Export {
        path,
        lines: records.len(),
        bytes,
    })
}

/// Builds every input under `dir` (created fresh).
pub fn build(dir: &Path, seed: u64, scale: f64, cfg: &PipelineConfig) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).ctx("create work dir")?;
    let mut sim = SimConfig::paper_week(seed, scale);
    sim.days = SIM_DAYS as u32;
    let landscape = Topology::generate(&sim.topology, &sim.noise, LANDSCAPE_SEED);
    let out = simulate_with(&sim, landscape);

    let directory_xml = dir.join("directory.xml");
    std::fs::write(&directory_xml, out.directory.to_xml()).ctx("write directory")?;
    let nights = (0..=NIGHTS)
        .map(|n| {
            let path = dir.join(format!("night-{n}.tsv"));
            write_export(path, out.store.range(window(n)), &out.store)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let full = write_export(dir.join("full.tsv"), out.store.records(), &out.store)?;
    drop(out);

    let service_ids = directory_ids(&directory_xml)?;
    let (cold_store, _) = ingest(&full.path)?;

    let checkpoint = dir.join("night.ck");
    let (store0, _) = ingest(&nights[0].path)?;
    run_daily_durable(
        &store0,
        &service_ids,
        cfg,
        &night_plan(0),
        &checkpoint,
        false,
        &mut NoopPolicy,
        &mut |_, _| {},
    )
    .ctx("prime night 0")?;

    let mut inputs = Inputs {
        directory_xml,
        service_ids,
        nights,
        full,
        cold_store,
        checkpoint,
        gen_a: ModelIndex::empty(0),
        gen_b: ModelIndex::empty(0),
    };
    inputs.gen_a = run_reload(&snapshot_source(&inputs, 0, cfg), 1).ctx("reload night 0")?;
    let mut cache = DurableStore::open_existing(&inputs.checkpoint, &mut NoopPolicy)
        .ctx("open primed store")?
        .cache()
        .clone();
    let shorter = IndexPlan {
        start_day: 1,
        steps: WINDOW_DAYS as u64 - 1,
        ..night_index_plan(0)
    };
    inputs.gen_b =
        ModelIndex::from_store(&store0, &inputs.service_ids, cfg, &shorter, &mut cache, 2)
            .ctx("build generation 2")?;
    Ok(inputs)
}
