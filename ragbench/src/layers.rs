//! The traced run's per-layer metrics: read from the spans and stats the
//! program already keeps, from the client's own observations, and from
//! timed calls into the model and tensor layers' public functions.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use cb_core::engine::ChunkSource;
use cb_obs::metrics::{HistSnapshot, MetricsSnapshot};
use cb_obs::trace::{SpanRecord, Tracer};
use cb_tensor::Matrix;

use crate::drive::{Done, Served};
use crate::ledger;
use crate::stats::{mean, quantile, summarize, tail_q, Status};
use crate::target::System;
use crate::workload::{GenRequest, Rng, MAX_NEW_TOKENS};
use crate::{Metrics, Oracle, Timed};

/// Distinct requests the model probes replay.
const PROBE_SAMPLE: usize = 24;

/// How long the matmul probe times the kernel.
const MATMUL_PROBE: Duration = Duration::from_millis(300);

/// What the per-layer pass reads.
pub struct Ctx<'a> {
    pub spec_name: &'static str,
    pub seed: u64,
    pub nproc: usize,
    pub system: &'a System,
    pub timed: &'a Timed,
    pub ttft_p50_ms: f64,
    pub scratch: &'a Path,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn span_ms(s: &SpanRecord) -> f64 {
    (s.end_ns - s.start_ns) as f64 / 1e6
}

/// `after - before` of one registry histogram.
fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> HistSnapshot {
    let a = after.hist(name).cloned().unwrap_or_default();
    let Some(b) = before.hist(name) else {
        return a;
    };
    let prev: HashMap<u32, u64> = b.buckets.iter().copied().collect();
    HistSnapshot {
        sub_bits: a.sub_bits,
        count: a.count - b.count,
        sum: a.sum - b.sum,
        buckets: a
            .buckets
            .iter()
            .filter_map(|&(i, c)| {
                let d = c - prev.get(&i).copied().unwrap_or(0);
                (d > 0).then_some((i, d))
            })
            .collect(),
    }
}

fn hist_ms(h: &HistSnapshot, q: f64) -> f64 {
    h.quantile_seconds(q) * 1e3
}

/// GFLOP/s of `Matrix::matmul_into` at the model's fused QKV shape with
/// `rows` context rows, and the bytes one call moves (computed from the
/// shapes: both operands read once, the output written once).
fn matmul_probe(model: &cb_model::Model, rows: usize) -> (f64, f64) {
    let w = &model.layers[0].fused_qkv;
    let (k, n) = (w.rows(), w.cols());
    let x = Matrix::from_vec(
        rows,
        k,
        (0..rows * k)
            .map(|i| ((i * 7919) % 1000) as f32 / 1000.0 - 0.5)
            .collect(),
    );
    let mut out = Matrix::default();
    x.matmul_into(w, &mut out);
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < MATMUL_PROBE {
        x.matmul_into(std::hint::black_box(w), &mut out);
        std::hint::black_box(&out);
        calls += 1;
    }
    let flops = 2.0 * (rows * k * n) as f64 * calls as f64;
    let bytes = 4.0 * (rows * k + k * n + rows * n) as f64;
    (flops / t.elapsed().as_secs_f64() / 1e9, bytes)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(ctx: &Ctx, oracle: &mut Oracle) -> Metrics {
    let t = ctx.timed;
    let spans = Tracer::global().drain();
    let all: Vec<(&Done, &GenRequest)> = t
        .open
        .iter()
        .map(|d| (d, &t.open_reqs[d.index]))
        .chain(t.closed.iter().map(|d| (d, &t.closed_reqs[d.index])))
        .collect();
    // Layer readings cover the open-loop phase: the latency regime the
    // TTFT and ITL metrics come from. The closed loop saturates every
    // queue on purpose and would swamp them.
    let (w0, w1) = (&t.start, &t.open_end);
    let done: Vec<&Done> = t.open.iter().filter(|d| d.status == Status::Done).collect();
    let completed = done.len().max(1) as f64;
    let per_1k = |n: u64| n as f64 * 1000.0 / completed;
    let wall_s = (w1.at - w0.at).as_secs_f64();
    let in_window = |s: &&SpanRecord| s.start_ns >= w0.ns && s.start_ns < w1.ns;

    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in &spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let traced: Vec<&Done> = done.iter().copied().filter(|d| d.trace.0 != 0).collect();
    let in_trace = |d: &Done, name: &str| -> Option<&SpanRecord> {
        by_trace
            .get(&d.trace.0)?
            .iter()
            .copied()
            .find(|s| s.name == name)
    };

    let mut m: Metrics = BTreeMap::new();

    // loadgen + process.
    m.insert("loadgen.lag_p99_ms", (summarize(&t.lag_ms).tail, "ms"));
    m.insert("process.threads_peak", (t.threads_peak as f64, "count"));
    m.insert(
        "process.cpu_util",
        (
            (w1.cpu - w0.cpu).as_secs_f64() / (wall_s * ctx.nproc as f64),
            "ratio",
        ),
    );

    // net: client time from the submit call to the first token, minus the
    // worker-side queue wait and prefill.
    let hops: Vec<f64> = traced
        .iter()
        .filter_map(|d| {
            let submit = in_trace(d, "client.submit")?;
            let queue = in_trace(d, "queue")?;
            let first = d.first_ns?;
            let worker = span_ms(queue) + ms(d.breakdown?.total);
            Some((first.saturating_sub(submit.start_ns)) as f64 / 1e6 - worker)
        })
        .collect();
    let hop = summarize(&hops);
    m.insert("net.hop_ms_p50", (hop.p50, "ms"));
    m.insert("net.hop_ms_p99", (hop.tail, "ms"));
    // Gateway counters over the window; one replica reads as all-local.
    let (c0, c1) = (
        w0.cluster.clone().unwrap_or_default(),
        w1.cluster.clone().unwrap_or_default(),
    );
    let local = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    m.insert(
        "net.request_locality",
        (
            local(
                c1.local_requests - c0.local_requests,
                c1.total_requests - c0.total_requests,
            ),
            "ratio",
        ),
    );
    m.insert(
        "net.chunk_locality",
        (
            local(
                c1.chunk_local - c0.chunk_local,
                c1.chunk_lookups - c0.chunk_lookups,
            ),
            "ratio",
        ),
    );
    m.insert(
        "net.spills_per_1k",
        (per_1k(c1.spills - c0.spills), "per_1k"),
    );
    m.insert("net.retries", ((c1.retries - c0.retries) as f64, "count"));

    // scheduler.
    let queue: Vec<f64> = spans
        .iter()
        .filter(in_window)
        .filter(|s| s.name == "queue")
        .map(span_ms)
        .collect();
    let qs = summarize(&queue);
    m.insert("scheduler.queue_wait_ms_p50", (qs.p50, "ms"));
    m.insert("scheduler.queue_wait_ms_p99", (qs.tail, "ms"));
    m.insert(
        "scheduler.peak_queue_depth",
        (ctx.system.peak_queue_depth() as f64, "count"),
    );
    let serve: Vec<&SpanRecord> = spans
        .iter()
        .filter(in_window)
        .filter(|s| s.name == "serve" || s.name == "prefill")
        .collect();
    let busy_s =
        serve.iter().map(|s| span_ms(s)).sum::<f64>() / 1e3 * completed / serve.len().max(1) as f64;
    m.insert(
        "scheduler.busy_frac",
        (
            busy_s / (wall_s * ctx.system.scheduler_threads().max(1) as f64),
            "ratio",
        ),
    );
    m.insert(
        "decode.batch_occupancy_mean",
        (
            if t.occupancy.is_empty() {
                1.0
            } else {
                mean(&t.occupancy)
            },
            "count",
        ),
    );

    // engine precompute + blend, from the responses.
    let resp: Vec<&Served> = done.iter().filter_map(|d| d.response.as_ref()).collect();
    let (hits, tier0, precomputed) = sources(&done);
    let pre: Vec<f64> = resp
        .iter()
        .filter(|r| r.ttft.precompute > Duration::ZERO)
        .map(|r| ms(r.ttft.precompute))
        .collect();
    m.insert("precompute.ms_p50", (summarize(&pre).p50, "ms"));
    m.insert(
        "precompute.chunks_per_req",
        (precomputed as f64 / completed, "count"),
    );
    let recompute = summarize(
        &resp
            .iter()
            .map(|r| ms(r.ttft.recompute))
            .collect::<Vec<_>>(),
    );
    let load_wait = summarize(
        &resp
            .iter()
            .map(|r| ms(r.ttft.load_wait))
            .collect::<Vec<_>>(),
    );
    m.insert("blend.recompute_ms_p50", (recompute.p50, "ms"));
    m.insert("blend.recompute_ms_p99", (recompute.tail, "ms"));
    m.insert("blend.load_wait_ms_p50", (load_wait.p50, "ms"));
    m.insert("blend.load_wait_ms_p99", (load_wait.tail, "ms"));
    m.insert(
        "blend.recompute_fraction_mean",
        (
            mean(
                &resp
                    .iter()
                    .map(|r| r.recompute_fraction)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
    );
    let ctx_tokens: Vec<f64> = resp.iter().map(|r| r.ctx_len as f64).collect();
    m.insert("blend.ctx_tokens_mean", (mean(&ctx_tokens), "count"));

    // model: replay a seeded sample of distinct served requests on the
    // idle oracle engine and as a full prefill of the same context.
    let mut rng = Rng::new(ctx.seed, 7);
    let mut seen = std::collections::HashSet::new();
    let mut sample: Vec<(&Done, &GenRequest)> = all
        .iter()
        .copied()
        .filter(|(d, r)| d.response.is_some() && seen.insert(r.key))
        .collect();
    for i in (1..sample.len()).rev() {
        sample.swap(i, rng.range(0, i));
    }
    sample.truncate(PROBE_SAMPLE);
    let model = oracle.engine.model().clone();
    let bos = model.cfg.vocab.id(cb_tokenizer::TokenKind::Bos);
    let (mut blend_ms, mut prefill_ms) = (Vec::new(), Vec::new());
    let (mut prefill_tokens, mut agree) = (0usize, 0usize);
    for (d, req) in &sample {
        let lone = oracle.answer(req).1;
        blend_ms.push(ms(lone.load_wait + lone.recompute));
        let full: Vec<u32> = std::iter::once(bos)
            .chain(req.chunks.iter().flatten().copied())
            .chain(req.query.iter().copied())
            .collect();
        let t0 = Instant::now();
        std::hint::black_box(model.prefill(&full));
        prefill_ms.push(ms(t0.elapsed()));
        prefill_tokens += full.len();
        let served = &d
            .response
            .as_ref()
            .expect("sampled requests completed")
            .answer;
        agree += usize::from(model.generate(&full, MAX_NEW_TOKENS) == *served);
    }
    let med = |v: &[f64]| summarize(v).p50;
    m.insert(
        "blend.vs_full_prefill",
        (med(&blend_ms) / med(&prefill_ms).max(1e-9), "ratio"),
    );
    m.insert(
        "blend.agree_full_prefill",
        (agree as f64 / sample.len().max(1) as f64, "ratio"),
    );
    m.insert(
        "model.prefill_us_per_token",
        (
            prefill_ms.iter().sum::<f64>() * 1e3 / prefill_tokens.max(1) as f64,
            "us",
        ),
    );

    // decode.
    let (reg0, reg1) = (&w0.registry, &w1.registry);
    let per_token: Vec<f64> = resp
        .iter()
        .filter(|r| !r.answer.is_empty())
        .map(|r| ms(r.ttft.decode) / r.answer.len() as f64)
        .collect();
    m.insert("decode.token_ms_p50", (summarize(&per_token).p50, "ms"));
    let steps = hist_delta(reg0, reg1, "cb_decode_step_seconds");
    let steps = if steps.count > 0 {
        steps
    } else {
        hist_delta(reg0, reg1, "cb_decode_token_seconds")
    };
    m.insert("decode.step_ms_p50", (hist_ms(&steps, 0.5), "ms"));
    let decode_s: f64 = resp.iter().map(|r| r.ttft.decode.as_secs_f64()).sum();
    let total_s: f64 = resp.iter().map(|r| r.ttft.total.as_secs_f64()).sum();
    m.insert("decode.share", (decode_s / total_s.max(1e-12), "ratio"));

    // tensor.
    let rows = mean(&ctx_tokens).round().max(1.0) as usize;
    let (gflops, bytes) = matmul_probe(&model, rows);
    m.insert("tensor.matmul_gflops", (gflops, "GFLOP/s"));

    // kv.
    let (s0, s1) = (&w0.store, &w1.store);
    let lookups = (s1.hits - s0.hits) + (s1.misses - s0.misses);
    m.insert(
        "kv.hit_rate",
        ((s1.hits - s0.hits) as f64 / lookups.max(1) as f64, "ratio"),
    );
    m.insert(
        "kv.tier0_share",
        (tier0 as f64 / hits.max(1) as f64, "ratio"),
    );
    m.insert(
        "kv.loaded_mb_per_s",
        (
            (s1.loaded_bytes - s0.loaded_bytes) as f64 / 1e6 / wall_s,
            "MB/s",
        ),
    );
    m.insert(
        "kv.spills_per_1k",
        (per_1k(s1.spills - s0.spills), "per_1k"),
    );
    m.insert(
        "kv.promotions_per_1k",
        (per_1k(s1.promotions - s0.promotions), "per_1k"),
    );
    m.insert(
        "kv.evictions_per_1k",
        (per_1k(s1.evictions - s0.evictions), "per_1k"),
    );
    let fetch: Vec<f64> = traced
        .iter()
        .filter_map(|d| {
            let s = in_trace(d, "prefill.fetch")?;
            Some(span_ms(s) - ms(d.breakdown?.precompute))
        })
        .collect();
    m.insert("kv.fetch_ms_p50", (summarize(&fetch).p50, "ms"));

    // storage + register.
    m.insert(
        "storage.compactions",
        ((s1.compactions - s0.compactions) as f64, "count"),
    );
    let compaction = hist_delta(reg0, reg1, "cb_compaction_seconds");
    m.insert(
        "storage.compaction_ms_p99",
        (
            hist_ms(&compaction, tail_q(compaction.count as usize)),
            "ms",
        ),
    );
    m.insert(
        "storage.reclaimed_mb",
        (
            (s1.compaction_reclaimed_bytes - s0.compaction_reclaimed_bytes) as f64 / 1e6,
            "MB",
        ),
    );
    let reg = summarize(&t.register_ms);
    m.insert("register.ms_p50", (reg.p50, "ms"));
    m.insert("register.ms_p99", (reg.tail, "ms"));

    // obs + ledger, over the open loop (every other request traced).
    let ttft_of = |traced_side: bool| -> Vec<f64> {
        t.open
            .iter()
            .filter(|d| d.status == Status::Done && (d.trace.0 != 0) == traced_side)
            .filter_map(Done::ttft_ms)
            .collect()
    };
    let (on, off) = (
        summarize(&ttft_of(true)).p50,
        summarize(&ttft_of(false)).p50,
    );
    m.insert(
        "obs.trace_overhead_pct",
        ((on - off) / off.max(1e-9) * 100.0, "%"),
    );
    let (mut gap_ms, mut ttft_ms) = (Vec::new(), Vec::new());
    let mut ledger_spans: Vec<SpanRecord> = Vec::new();
    for d in t
        .open
        .iter()
        .filter(|d| d.trace.0 != 0 && d.status == Status::Done)
    {
        let (Some(first), Some(own)) = (d.first_ns, by_trace.get(&d.trace.0)) else {
            continue;
        };
        gap_ms.push(ledger::unattributed(own, d.trace.1, d.due_ns, first) as f64 / 1e6);
        ttft_ms.push((first - d.due_ns) as f64 / 1e6);
        ledger_spans.extend(own.iter().map(|s| (*s).clone()));
    }
    let mut sorted = gap_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let unattributed_p50 = quantile(&sorted, 0.5).unwrap_or(0.0);
    m.insert(
        "ledger.unattributed_pct",
        (
            unattributed_p50 / summarize(&ttft_ms).p50.max(1e-9) * 100.0,
            "%",
        ),
    );

    eprintln!(
        "  ledger over {} traced open-loop requests (client TTFT p50 {:.3} ms, all requests {:.3} ms); \
         matmul {} x {} x {} moves {:.0} bytes per call",
        ttft_ms.len(),
        summarize(&ttft_ms).p50,
        ctx.ttft_p50_ms,
        rows,
        model.layers[0].fused_qkv.rows(),
        model.layers[0].fused_qkv.cols(),
        bytes
    );
    eprintln!(
        "  {:<16} {:>7} {:>12} {:>12}",
        "span", "count", "mean ms", "self ms"
    );
    for (name, (n, dur, own)) in ledger::self_times(&ledger_spans) {
        eprintln!(
            "  {name:<16} {n:>7} {:>12.4} {:>12.4}",
            dur as f64 / 1e6 / n as f64,
            own as f64 / 1e6 / n as f64
        );
    }
    let path = ctx
        .scratch
        .join(format!("trace-{}-{}.json", ctx.spec_name, ctx.seed));
    match std::fs::write(&path, cb_obs::trace::chrome_trace_json(&ledger_spans)) {
        Ok(()) => eprintln!("  chrome trace: {}", path.display()),
        Err(e) => eprintln!("  chrome trace not written: {e}"),
    }
    for (k, (v, u)) in &m {
        eprintln!("  {k:<32} {v:>12.4} {u}");
    }
    m
}

/// Chunk-source shares of the completed requests: (hits, tier-0 hits,
/// precomputed).
fn sources(done: &[&Done]) -> (usize, usize, usize) {
    let mut out = (0, 0, 0);
    for d in done {
        if let Some(r) = &d.response {
            for s in &r.chunk_sources {
                match s {
                    ChunkSource::Hit { tier } => {
                        out.0 += 1;
                        out.1 += usize::from(*tier == 0);
                    }
                    ChunkSource::Precomputed => out.2 += 1,
                }
            }
        }
    }
    out
}
