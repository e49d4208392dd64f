//! The `serve` phase: a closed loop of keep-alive clients against the
//! 2-worker server, with one of two prebuilt generations swapped in at
//! a fixed cadence. Mining does none of the work here; the HTTP,
//! handler and index layers do all of it.

use crate::phase::Tally;
use crate::setup::Inputs;
use crate::spans::Tracer;
use crate::stats::{quantile, Rng, Zipf};
use logdep_logstore::SourceId;
use logdep_serve::handlers::handle_request;
use logdep_serve::http::parse_request;
use logdep_serve::{HttpClient, ModelIndex, ServerHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client connections of the closed loop.
pub const CLIENTS: usize = 2;
/// Worker threads of the server.
pub const SERVER_WORKERS: usize = 2;
/// One install every this often while the clients run.
const SWAP_EVERY: Duration = Duration::from_millis(200);
/// The closed loop runs in slices of this length, interleaved with
/// the other phases so that all of them sample the same stretch of
/// the host's load.
const SLICE: Duration = Duration::from_millis(500);
/// Requests drawn per client; a client cycles through its list.
const REQUESTS_PER_CLIENT: usize = 2048;
/// Requests replayed in process to time parse, handler and render.
const REPLAYS: usize = 4096;
/// Zipf exponent of the app-name draws.
const ZIPF_S: f64 = 1.1;

pub const ENDPOINTS: [&str; 6] = ["pair", "impact", "diff", "churn", "model", "healthz"];

struct Req {
    path: String,
    endpoint: usize,
}

struct Sample {
    start: Instant,
    end: Instant,
    /// Bit 0: body is generation A's rendering; bit 1: generation B's.
    matched: u8,
    error: Option<String>,
}

/// One slice of the closed loop, summarised.
pub struct SliceStats {
    /// Requests completed within the slice per second of slice.
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

#[derive(Default)]
pub struct QueryOut {
    pub slices: Vec<SliceStats>,
    pub requests: usize,
    pub tally: Tally,
}

fn head(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: logdep\r\n\r\n")
}

fn url_safe(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// The request mix: 70% pair, 15% impact (depth 2–3), 5% diff, 5%
/// churn, 4% model, 1% healthz, app names drawn Zipf-skewed.
fn requests(gen_a: &ModelIndex, days: &[i64], seed: u64) -> Result<Vec<Req>, String> {
    let mut rng = Rng::new(seed);
    let mut names: Vec<String> = (0..gen_a.n_sources())
        .map(|i| gen_a.source_label(SourceId(i as u32)))
        .filter(|n| url_safe(n) && gen_a.knows(n))
        .collect();
    if names.len() < 2 || days.len() < 2 {
        return Err("too few sources or days to draw requests from".to_owned());
    }
    for i in (1..names.len()).rev() {
        names.swap(i, rng.below(i + 1));
    }
    let zipf = Zipf::new(names.len(), ZIPF_S);
    let mut out = Vec::with_capacity(REQUESTS_PER_CLIENT);
    for _ in 0..REQUESTS_PER_CLIENT {
        let u = rng.unit();
        let (endpoint, path) = if u < 0.70 {
            let src = zipf.draw(&mut rng);
            let mut dst = zipf.draw(&mut rng);
            if dst == src {
                dst = (src + 1) % names.len();
            }
            (0, format!("/v1/pair?src={}&dst={}", names[src], names[dst]))
        } else if u < 0.85 {
            let app = &names[zipf.draw(&mut rng)];
            (
                1,
                format!("/v1/impact?app={app}&depth={}", 2 + rng.below(2)),
            )
        } else if u < 0.90 {
            let a = rng.below(days.len() - 1);
            let b = a + 1 + rng.below(days.len() - 1 - a);
            (2, format!("/v1/diff?from={}&to={}", days[a], days[b]))
        } else if u < 0.95 {
            (3, format!("/v1/churn?top={}", 3 + rng.below(3)))
        } else if u < 0.99 {
            (4, "/v1/model".to_owned())
        } else {
            (5, "/healthz".to_owned())
        };
        out.push(Req { path, endpoint });
    }
    Ok(out)
}

/// The body the server's handlers give `GET path` on `index`, rendered
/// in process; an error unless it answers 200.
pub fn render(index: &ModelIndex, path: &str) -> Result<String, String> {
    let req = parse_request(head(path).as_bytes()).map_err(|e| format!("parse {path}: {e:?}"))?;
    let resp = handle_request(index, &req).ok_or_else(|| format!("{path} not routed"))?;
    if resp.status != 200 {
        return Err(format!("{path} answers {} in process", resp.status));
    }
    Ok(String::from_utf8_lossy(&resp.body).into_owned())
}

/// Both generations' in-process renderings of every distinct path.
fn expected_bodies(
    lists: &[Vec<Req>],
    gens: [&ModelIndex; 2],
) -> Result<HashMap<String, [String; 2]>, String> {
    let mut out = HashMap::new();
    for req in lists.iter().flatten() {
        if !out.contains_key(&req.path) {
            let bodies = [render(gens[0], &req.path)?, render(gens[1], &req.path)?];
            out.insert(req.path.clone(), bodies);
        }
    }
    Ok(out)
}

/// One client's closed loop: the next request goes out only when the
/// previous one has completed. Returns the samples and where in its
/// list the client stopped.
fn client_loop(
    mut client: HttpClient,
    list: &[Req],
    mut cursor: usize,
    expected: &HashMap<String, [String; 2]>,
    stop: &AtomicBool,
) -> (Vec<Sample>, usize) {
    let mut samples = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let req = &list[cursor % list.len()];
        cursor += 1;
        let start = Instant::now();
        let got = client.get(&req.path);
        let end = Instant::now();
        let (matched, error) = match got {
            Ok((200, body)) => {
                let exp = &expected[&req.path];
                let m = u8::from(body == exp[0]) | (u8::from(body == exp[1]) << 1);
                let error = (m == 0).then(|| format!("{}: body matches no generation", req.path));
                (m, error)
            }
            Ok((status, _)) => (0, Some(format!("{}: status {status}", req.path))),
            Err(e) => (0, Some(format!("{}: {e}", req.path))),
        };
        let failed = error.is_some();
        samples.push(Sample {
            start,
            end,
            matched,
            error,
        });
        if failed {
            break;
        }
    }
    (samples, cursor)
}

/// Generations that may have answered a request in flight over
/// `[start, end]`: an installed generation is live from just before its
/// install until the next install returns.
fn live_mask(swaps: &[(u8, Instant, Instant)], start: Instant, end: Instant) -> u8 {
    let mut mask = 0u8;
    for (k, &(bit, from, _)) in swaps.iter().enumerate() {
        let until = swaps.get(k + 1).map(|s| s.2);
        let began = k == 0 || from <= end;
        if began && until.is_none_or(|u| u >= start) {
            mask |= bit;
        }
    }
    mask
}

pub struct Query<'a> {
    inputs: &'a Inputs,
    handle: &'a ServerHandle,
    lists: Vec<Vec<Req>>,
    expected: HashMap<String, [String; 2]>,
    /// Position of each client in its list, kept across slices.
    cursors: Vec<usize>,
    out: QueryOut,
}

impl<'a> Query<'a> {
    pub fn new(inputs: &'a Inputs, handle: &'a ServerHandle, seed: u64) -> Result<Self, String> {
        let days: Vec<i64> = inputs.gen_b.days().map(|d| d.day).collect();
        let lists = (0..CLIENTS as u64)
            .map(|c| requests(&inputs.gen_a, &days, seed.wrapping_mul(31).wrapping_add(c)))
            .collect::<Result<Vec<_>, _>>()?;
        let expected = expected_bodies(&lists, [&inputs.gen_a, &inputs.gen_b])?;
        Ok(Self {
            inputs,
            handle,
            lists,
            expected,
            cursors: vec![0; CLIENTS],
            out: QueryOut::default(),
        })
    }

    /// Runs the closed loop for one slice; returns the slice's time.
    pub fn step(&mut self, tr: &mut Tracer) -> Duration {
        let attempt = Instant::now();
        if let Err(e) = self.slice(tr) {
            self.out.tally.record(Err(e));
        }
        tr.abort();
        attempt.elapsed().min(SLICE)
    }

    fn slice(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let (handle, lists, expected) = (self.handle, &self.lists, &self.expected);
        // Installs take the index by value: clone them off the clock.
        let n_swaps = (SLICE.as_millis() / SWAP_EVERY.as_millis()) as usize;
        let mut pending: Vec<(u8, ModelIndex)> = (0..n_swaps)
            .map(|k| {
                if k % 2 == 0 {
                    (2, self.inputs.gen_b.clone())
                } else {
                    (1, self.inputs.gen_a.clone())
                }
            })
            .rev()
            .collect();
        let clients = lists
            .iter()
            .map(|_| HttpClient::connect(handle.addr(), 30_000).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;

        let first = self.inputs.gen_a.clone();
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        handle.install(first);
        let mut swaps = vec![(1u8, start, Instant::now())];
        let cursors = &self.cursors;
        let (results, stopped) = logdep_par::scope(|s| {
            let workers: Vec<_> = clients
                .into_iter()
                .zip(lists)
                .zip(cursors)
                .map(|((client, list), &cursor)| {
                    let stop = &stop;
                    s.spawn(move || client_loop(client, list, cursor, expected, stop))
                })
                .collect();
            let end = start + SLICE;
            let mut next = start + SWAP_EVERY;
            while next < end {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                let Some((bit, index)) = pending.pop() else {
                    break;
                };
                let before = Instant::now();
                tr.span("swap", swaps.len() as u64, || handle.install(index));
                swaps.push((bit, before, Instant::now()));
                next += SWAP_EVERY;
            }
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            stop.store(true, Ordering::SeqCst);
            let stopped = Instant::now();
            let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            (results, stopped)
        });
        let mut latencies_us = Vec::new();
        let mut completed = 0u64;
        for (c, result) in results.into_iter().enumerate() {
            let Ok((samples, cursor)) = result else {
                self.out
                    .tally
                    .record(Err("client thread panicked".to_owned()));
                continue;
            };
            self.cursors[c] = cursor;
            for sample in samples {
                let result = match sample.error {
                    Some(e) => Err(e),
                    None if sample.matched & live_mask(&swaps, sample.start, sample.end) == 0 => {
                        Err("body of a generation that was not live".to_owned())
                    }
                    None => Ok(()),
                };
                if result.is_ok() {
                    latencies_us.push(sample.end.duration_since(sample.start).as_secs_f64() * 1e6);
                    if sample.end <= stopped {
                        completed += 1;
                    }
                    self.out.requests += 1;
                    tr.push_root("query", self.out.requests as u64, sample.start, sample.end);
                }
                self.out.tally.record(result);
            }
        }
        self.out.slices.push(SliceStats {
            rps: completed as f64 / stopped.duration_since(start).as_secs_f64(),
            p50_us: quantile(&latencies_us, 0.5),
            p99_us: quantile(&latencies_us, 0.99),
        });
        Ok(())
    }

    /// The phase's results; the traced run also replays the mix in
    /// process to time parse, handler and render.
    pub fn finish(mut self, tr: &mut Tracer) -> QueryOut {
        if tr.enabled() {
            if let Err(e) = replay(&self.inputs.gen_a, &self.lists[0], tr) {
                self.out.tally.record(Err(e));
            }
            tr.abort();
        }
        self.out
    }
}

/// Replays the mix in process through the same public calls the
/// server makes — parse, handle, render — with a span around each.
fn replay(index: &ModelIndex, list: &[Req], tr: &mut Tracer) -> Result<(), String> {
    for i in 0..REPLAYS {
        let req = &list[i % list.len()];
        let bytes = head(&req.path).into_bytes();
        let key = i as u64;
        tr.begin("replay", key);
        let parsed = tr
            .span("http.parse", key, || parse_request(&bytes))
            .map_err(|e| format!("parse {}: {e:?}", req.path))?;
        tr.begin(&format!("handler.{}", ENDPOINTS[req.endpoint]), key);
        let resp = handle_request(index, &parsed).ok_or("path not routed")?;
        tr.end(&[("bytes", resp.body.len() as f64)]);
        let wire = tr.span("http.render", key, || resp.to_bytes(true));
        tr.end(&[("wire_bytes", wire.len() as f64)]);
    }
    Ok(())
}
