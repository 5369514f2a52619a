//! The load generator: an open-loop phase on a Poisson schedule and a
//! closed-loop phase at a fixed number of outstanding requests. One
//! thread sends every request and polls every stream with `try_recv`;
//! no thread is started per request.

use std::time::{Duration, Instant};

use cb_core::engine::{ChunkSource, Request, Response, TtftBreakdown};
use cb_core::stream::{Event, ResponseStream};
use cb_obs::trace::{alloc_span_id, record_span_with_id};
use cb_tokenizer::TokenId;

use crate::stats::Status;
use crate::sys;
use crate::target::{System, RATIO};
use crate::workload::{GenRequest, MAX_NEW_TOKENS};

/// Poll interval while nothing is due and no request is decoding.
const POLL: Duration = Duration::from_micros(200);

/// Poll interval while a request is decoding: token gaps are fractions
/// of a millisecond, and a coarser poll would round each one to whole
/// poll intervals.
const TOKEN_POLL: Duration = Duration::from_micros(50);

/// A request still outstanding after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Benchmark-side trace ids carry this tag in their top byte.
const TRACE_TAG: u64 = 0xBE << 56;

/// One finished request as the client saw it.
#[derive(Debug)]
pub struct Done {
    /// Index into the phase's request list.
    pub index: usize,
    /// Terminal status.
    pub status: Status,
    /// Due (open loop) or send (closed loop) time, as a span timestamp.
    pub due_ns: u64,
    /// When the client saw the first token, as a span timestamp.
    pub first_ns: Option<u64>,
    /// Gaps between consecutive answer tokens, in ms.
    pub gaps_ms: Vec<f64>,
    /// The engine's TTFT breakdown from the `FirstToken` event.
    pub breakdown: Option<TtftBreakdown>,
    /// The final response (status `Done` only).
    pub response: Option<Served>,
    /// Streamed tokens disagreed with the final answer.
    pub stream_mismatch: bool,
    /// Benchmark-side trace id and root span (0 when untraced).
    pub trace: (u64, u64),
}

/// What the benchmark keeps of a [`Response`]: everything but the fused
/// KV cache, which an in-process response carries and which would
/// otherwise pile up in the generator's memory.
#[derive(Debug)]
pub struct Served {
    /// The decoded answer.
    pub answer: Vec<TokenId>,
    /// The engine's finalized timing.
    pub ttft: TtftBreakdown,
    /// Where each chunk's KV came from.
    pub chunk_sources: Vec<ChunkSource>,
    /// Context rows the blend covered.
    pub ctx_len: usize,
    /// Mean share of context rows recomputed per layer.
    pub recompute_fraction: f64,
}

impl From<Response> for Served {
    fn from(r: Response) -> Self {
        Self {
            recompute_fraction: f64::from(r.blend.stats.mean_recompute_fraction()),
            ctx_len: r.blend.stats.ctx_len,
            answer: r.answer,
            ttft: r.ttft,
            chunk_sources: r.chunk_sources,
        }
    }
}

impl Done {
    /// Client TTFT from the due time, in ms.
    pub fn ttft_ms(&self) -> Option<f64> {
        self.first_ns
            .map(|f| f.saturating_sub(self.due_ns) as f64 / 1e6)
    }
}

struct Flight {
    index: usize,
    stream: Option<ResponseStream>,
    started: Instant,
    due_ns: u64,
    first_ns: Option<u64>,
    last_token: Option<Instant>,
    gaps_ms: Vec<f64>,
    tokens: Vec<TokenId>,
    breakdown: Option<TtftBreakdown>,
    trace: (u64, u64),
}

/// What the generator measured besides the requests themselves.
#[derive(Debug, Default)]
pub struct Extra {
    /// How late each open-loop send was, in ms.
    pub lag_ms: Vec<f64>,
    /// The first few failures, as text.
    pub errors: Vec<String>,
    /// Highest thread count the process reached.
    pub threads_peak: u64,
    /// Decode-batch occupancy samples taken while a batch was running.
    pub occupancy: Vec<f64>,
}

/// Sends requests and collects their outcomes.
pub struct Driver<'a> {
    system: &'a System,
    /// Trace every other request (trace runs only).
    traced: bool,
    /// Distinguishes this driver's trace ids from other phases'.
    phase: u64,
    flights: Vec<Flight>,
    /// Finished requests, in completion order.
    pub done: Vec<Done>,
    /// Side measurements.
    pub extra: Extra,
    last_sample: Instant,
    occupancy: std::sync::Arc<cb_obs::metrics::Gauge>,
}

impl<'a> Driver<'a> {
    /// A driver over `system`; `phase` tags its trace ids.
    pub fn new(system: &'a System, traced: bool, phase: u64) -> Self {
        Self {
            system,
            traced,
            phase,
            flights: Vec::new(),
            done: Vec::new(),
            extra: Extra::default(),
            last_sample: Instant::now(),
            occupancy: cb_obs::metrics::Registry::global().gauge("cb_batch_occupancy"),
        }
    }

    fn send(&mut self, index: usize, req: &GenRequest, due_ns: u64) {
        let started = Instant::now();
        let sent_ns = cb_obs::now_nanos();
        let trace = if self.traced && index.is_multiple_of(2) {
            (
                TRACE_TAG | self.phase << 40 | (index as u64 + 1),
                alloc_span_id(),
            )
        } else {
            (0, 0)
        };
        if trace.0 != 0 {
            record_span_with_id(
                trace.0,
                alloc_span_id(),
                trace.1,
                "loadgen.lag",
                due_ns,
                sent_ns,
            );
        }
        let request = Request::new(req.chunk_ids.clone(), req.query.clone())
            .ratio(RATIO)
            .max_new_tokens(MAX_NEW_TOKENS)
            .trace(trace.0, trace.1);
        let submit_ns = cb_obs::now_nanos();
        let stream = self.system.submit(request);
        if trace.0 != 0 {
            let end = cb_obs::now_nanos();
            record_span_with_id(
                trace.0,
                alloc_span_id(),
                trace.1,
                "client.submit",
                submit_ns,
                end,
            );
        }
        self.flights.push(Flight {
            index,
            stream,
            started,
            due_ns,
            first_ns: None,
            last_token: None,
            gaps_ms: Vec::new(),
            tokens: Vec::new(),
            breakdown: None,
            trace,
        });
    }

    /// Drains every buffered event; returns how many requests finished.
    fn poll(&mut self) -> usize {
        let before = self.done.len();
        let mut i = 0;
        while i < self.flights.len() {
            let f = &mut self.flights[i];
            let mut terminal: Option<(Status, Option<Response>)> = match &f.stream {
                None => Some((Status::Refused, None)),
                Some(_) => None,
            };
            while terminal.is_none() {
                let Some(ev) = f.stream.as_ref().and_then(|s| s.try_recv()) else {
                    break;
                };
                match ev {
                    Event::FirstToken(b) => {
                        f.first_ns.get_or_insert_with(cb_obs::now_nanos);
                        f.breakdown = Some(b);
                    }
                    Event::Token(t) => {
                        let now = Instant::now();
                        if let Some(prev) = f.last_token.replace(now) {
                            f.gaps_ms.push(now.duration_since(prev).as_secs_f64() * 1e3);
                        }
                        f.tokens.push(t);
                    }
                    Event::Done(r) => terminal = Some((Status::Done, Some(r))),
                    Event::Failed(e) => {
                        note(&mut self.extra.errors, format!("request: {e:?}"));
                        terminal = Some((Status::Failed, None));
                    }
                    Event::Queued | Event::Admitted => {}
                }
            }
            if terminal.is_none() && f.started.elapsed() > REQUEST_TIMEOUT {
                note(
                    &mut self.extra.errors,
                    format!("request: no end after {REQUEST_TIMEOUT:?}"),
                );
                terminal = Some((Status::Failed, None));
            }
            match terminal {
                Some((status, response)) => {
                    let f = self.flights.swap_remove(i);
                    if f.trace.0 != 0 {
                        let end_ns = cb_obs::now_nanos();
                        record_span_with_id(f.trace.0, f.trace.1, 0, "client", f.due_ns, end_ns);
                    }
                    let stream_mismatch = response.as_ref().is_some_and(|r| r.answer != f.tokens);
                    self.done.push(Done {
                        index: f.index,
                        status,
                        due_ns: f.due_ns,
                        first_ns: f.first_ns,
                        gaps_ms: f.gaps_ms,
                        breakdown: f.breakdown,
                        response: response.map(Served::from),
                        stream_mismatch,
                        trace: f.trace,
                    });
                }
                None => i += 1,
            }
        }
        if self.last_sample.elapsed() >= Duration::from_millis(20) {
            self.last_sample = Instant::now();
            self.extra.threads_peak = self.extra.threads_peak.max(sys::threads());
            let occ = self.occupancy.value();
            if occ > 0.0 {
                self.extra.occupancy.push(occ);
            }
        }
        self.done.len() - before
    }

    /// Waits for every outstanding request (bounded by the request
    /// timeout).
    pub fn drain(&mut self) {
        while !self.flights.is_empty() {
            if self.poll() == 0 {
                self.idle(POLL);
            }
        }
    }

    /// Waits up to `max` for more events, or [`TOKEN_POLL`] while a
    /// request is between its first token and its end.
    fn idle(&self, max: Duration) {
        let max = if self.flights.iter().any(|f| f.first_ns.is_some()) {
            max.min(TOKEN_POLL)
        } else {
            max
        };
        if !max.is_zero() {
            std::thread::sleep(max);
        }
    }

    /// Open loop: request `i` is due at `start + schedule[i]` seconds,
    /// whether or not earlier ones finished.
    pub fn open_loop(&mut self, requests: &[GenRequest], schedule: &[f64]) {
        let start = Instant::now();
        let start_ns = cb_obs::now_nanos();
        let mut next = 0;
        while next < schedule.len() {
            let now = Instant::now();
            while next < schedule.len() {
                let offset = Duration::from_secs_f64(schedule[next]);
                let due = start + offset;
                if due > now {
                    break;
                }
                let lag = Instant::now().duration_since(due);
                self.extra.lag_ms.push(lag.as_secs_f64() * 1e3);
                let due_ns = start_ns + offset.as_nanos() as u64;
                self.send(next, &requests[next], due_ns);
                next += 1;
            }
            self.poll();
            if next < schedule.len() {
                let due = start + Duration::from_secs_f64(schedule[next]);
                self.idle(due.saturating_duration_since(Instant::now()).min(POLL));
            }
        }
        self.drain();
    }

    /// Closed loop: keeps `outstanding` requests in flight for `span`,
    /// taking each new request from `make` and appending it to `requests`;
    /// returns completions per second over the span. Requests still
    /// outstanding at the end are drained and kept.
    pub fn closed_loop(
        &mut self,
        outstanding: usize,
        span: Duration,
        mut make: impl FnMut() -> GenRequest,
        requests: &mut Vec<GenRequest>,
    ) -> f64 {
        let start = Instant::now();
        let first = self.done.len();
        while start.elapsed() < span {
            while self.flights.len() < outstanding {
                let i = requests.len();
                requests.push(make());
                let now_ns = cb_obs::now_nanos();
                self.send(i, &requests[i], now_ns);
            }
            if self.poll() == 0 {
                self.idle(POLL);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let completed = self.done[first..]
            .iter()
            .filter(|d| d.status == Status::Done)
            .count();
        self.drain();
        completed as f64 / elapsed
    }
}

/// The ingest stream: registers new chunks at a fixed rate and
/// unregisters the oldest live one beyond a window.
pub struct Ingest<'a> {
    system: &'a System,
    chunks: Vec<Vec<TokenId>>,
    rate: f64,
    window: usize,
}

/// What the ingest stream did.
#[derive(Debug, Default)]
pub struct IngestReport {
    /// Latency of each registration, in ms.
    pub register_ms: Vec<f64>,
    /// Registrations or unregistrations that failed.
    pub failed: u64,
    /// The first few failures, as text.
    pub errors: Vec<String>,
}

/// Keeps the first few failure messages of a run for its report.
fn note(errors: &mut Vec<String>, message: String) {
    if errors.len() < 4 {
        errors.push(message);
    }
}

impl<'a> Ingest<'a> {
    /// Ingests `chunks` in order at `rate` per second.
    pub fn new(system: &'a System, chunks: Vec<Vec<TokenId>>, rate: f64, window: usize) -> Self {
        Self {
            system,
            chunks,
            rate,
            window,
        }
    }

    /// Runs until `stop` is set or the chunks run out.
    pub fn run(&self, stop: &std::sync::atomic::AtomicBool) -> IngestReport {
        use std::sync::atomic::Ordering;
        let mut report = IngestReport::default();
        let mut live = std::collections::VecDeque::new();
        let start = Instant::now();
        for (i, chunk) in self.chunks.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / self.rate);
            while Instant::now() < due {
                if stop.load(Ordering::Relaxed) {
                    return report;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()).min(POLL * 10));
            }
            if stop.load(Ordering::Relaxed) {
                return report;
            }
            let t = Instant::now();
            match self.system.register(chunk) {
                Ok(id) => {
                    report.register_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    live.push_back(id);
                }
                Err(e) => {
                    report.failed += 1;
                    note(&mut report.errors, format!("register: {e:?}"));
                }
            }
            while live.len() > self.window {
                let oldest = live.pop_front().expect("window is non-empty");
                if !self.system.unregister(oldest) {
                    report.failed += 1;
                    note(
                        &mut report.errors,
                        format!("unregister {oldest:?}: not found"),
                    );
                }
            }
        }
        report
    }
}
