//! The swap path: the only serve-time module allowed to touch the
//! filesystem or the durable store.
//!
//! A reload re-ingests the log export(s), re-reads the service
//! directory, warms the evidence cache from the durable store mined by
//! `logdep daily` (when one is given), and builds a fresh
//! [`ModelIndex`]. The server's orchestrator thread is the only caller
//! at serve time; request handlers are denied any path into this
//! module by the `blocking-io-in-handler` workspace lint.

use crate::index::{IndexPlan, ModelIndex};
use crate::ServeError;
use logdep::{DurableStore, EvidenceCache, NoopPolicy, PipelineConfig};
use logdep_logstore::load_logs;
use logdep_obs::{record, Field};
use logdep_sim::ServiceDirectory;
use std::path::PathBuf;

/// Where and how to (re)build the index from disk.
#[derive(Debug, Clone)]
pub struct SnapshotSource {
    /// Comma-separated TSV log export paths (resilient ingest).
    pub logs: String,
    /// Service-directory XML path, or `None` to skip L3.
    pub directory: Option<String>,
    /// Durable evidence store to warm the cache from, if present.
    pub store: Option<PathBuf>,
    /// The window schedule to mine.
    pub plan: IndexPlan,
    /// Detector configuration.
    pub cfg: PipelineConfig,
}

/// Loads everything from disk and builds index `generation`.
///
/// Emits a `reload` span pair (begin before the first byte is read,
/// end with the mined day count) so a traced serve run shows every
/// swap; the per-window spans land in the index's own captured report.
pub fn run_reload(source: &SnapshotSource, generation: u64) -> Result<ModelIndex, ServeError> {
    record(|r| r.span_begin("reload", &[("generation", Field::from(generation))]));
    let result = reload_inner(source, generation);
    let days = result.as_ref().map(|idx| idx.days().count()).unwrap_or(0);
    record(|r| {
        r.span_end(
            "reload",
            &[
                ("generation", Field::from(generation)),
                ("days", Field::from(days)),
                ("ok", Field::from(result.is_ok())),
            ],
        );
    });
    result
}

fn reload_inner(source: &SnapshotSource, generation: u64) -> Result<ModelIndex, ServeError> {
    let (store, _reports) = load_logs(&source.logs).map_err(ServeError::Build)?;
    let ids = match &source.directory {
        Some(path) => directory_ids(path)?,
        None => Vec::new(),
    };
    let mut cache = warm_cache(source);
    ModelIndex::from_store(
        &store,
        &ids,
        &source.cfg,
        &source.plan,
        &mut cache,
        generation,
    )
}

fn directory_ids(path: &str) -> Result<Vec<String>, ServeError> {
    let xml = std::fs::read_to_string(path)
        .map_err(|e| ServeError::Build(format!("open {path:?}: {e}")))?;
    let dir = ServiceDirectory::from_xml(&xml)
        .map_err(|e| ServeError::Build(format!("directory {path}: {e}")))?;
    Ok(dir.ids().iter().map(|s| s.to_string()).collect())
}

/// Clones the evidence cache out of the durable store, if one exists.
/// A missing or unreadable store degrades to a cold cache — serving
/// must come up even when mining state is damaged (repair is `logdep
/// cache repair`'s job, not the server's).
fn warm_cache(source: &SnapshotSource) -> EvidenceCache {
    let Some(path) = &source.store else {
        return EvidenceCache::new();
    };
    if !path.exists() {
        return EvidenceCache::new();
    }
    match DurableStore::open_existing(path, &mut NoopPolicy) {
        Ok(store) => store.cache().clone(),
        Err(_) => EvidenceCache::new(),
    }
}
