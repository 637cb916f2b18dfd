//! `server`: the ROADMAP's end-to-end simulator path at scale.
//!
//! Set-up generates a seeded `server` trace with `lifepred gen`. Each
//! iteration then runs `lifepred train` and `lifepred simulate` under
//! the `bsd`, `first-fit`, `arena` (offline predictor) and `online`
//! backends, all through `lifepred_cli::run`. With tracing, the
//! per-layer pass times the pieces of a simulate run directly —
//! `MappedTrace` open and decode, the records walk, `SiteExtractor`,
//! `Profile` and `train` — so the heap's own self time is what is left.

use crate::measure::{cpu_now, usage, Samples};
use crate::{field, fnv64, Ctx, DEFAULT_SEED};
use lifepred_core::{train, Profile, SiteConfig, SiteExtractor, TrainConfig, DEFAULT_THRESHOLD};
use lifepred_obs::Snapshot;
use lifepred_trace::{ChunkSource, EventChunk};
use lifepred_tracefile::MappedTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// `lifepred gen` runs before the timed loop.
const SETUP_REPEATS: usize = 5;

/// The four simulate backends: metric key and CLI arguments (`{pred}`
/// stands for the trained predictor's path).
const BACKENDS: [(&str, &[&str]); 4] = [
    ("bsd", &["--allocator", "bsd"]),
    ("firstfit", &["--allocator", "first-fit"]),
    ("arena", &["--predictor", "{pred}"]),
    ("online", &["--predictor", "online"]),
];

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let events_arg = if ctx.smoke { "60k" } else { "1200k" };
    let trace = ctx.path("server.lpt");
    let pred = ctx.path("pred.json");
    let seed = ctx.seed.to_string();

    // Set-up: the same seeded trace, generated several times before
    // the loop and once more after each iteration, so the median spans
    // the whole run.
    let mut setup = Samples::default();
    let mut header = None;
    let mut gen = |ctx: &mut Ctx, setup: &mut Samples| -> Result<(), String> {
        let args = [
            "gen", "--events", events_arg, "--seed", &seed, "-o", &trace, "--force",
        ];
        let (out, secs) = ctx.cli("workloads.gen", &args)?;
        setup.push(secs);
        // The first line names the trace; the rest are timings.
        let first = out.lines().next().unwrap_or("").replace(&trace, "<trace>");
        if header.get_or_insert_with(|| first.clone()) != &first {
            ctx.fail(1, format!("gen is not deterministic: {first}"));
        }
        Ok(())
    };
    for _ in 0..SETUP_REPEATS {
        gen(ctx, &mut setup)?;
    }
    let digest = fnv64(&std::fs::read(&trace).map_err(|e| format!("{trace}: {e}"))?);
    println!("digest: server_trace fnv64 {digest:016x}");
    let (events, objects, bytes) = {
        let m = MappedTrace::open_unverified(&trace).map_err(|e| format!("{trace}: {e}"))?;
        (
            m.event_count() as f64,
            m.stats().total_objects as f64,
            m.stats().total_bytes as f64,
        )
    };

    let reference = if ctx.seed == DEFAULT_SEED && !ctx.smoke {
        Some(sections(&ctx.reference("server-seed1.txt")?))
    } else {
        None
    };
    let mut first_outputs: Option<Vec<String>> = None;
    let mut stage = vec![Samples::default(); 1 + BACKENDS.len()];
    let mut cpu = Samples::default();
    let plain = ctx.closed_loop(1, |ctx| {
        let cpu0 = cpu_now();
        let started = Instant::now();
        let (out, secs) = ctx.cli("core.train", &["train", &trace, "-o", &pred])?;
        stage[0].push(secs);
        let mut outputs = vec![out.replace(&pred, "<pred>")];
        for (i, (name, flags)) in BACKENDS.iter().enumerate() {
            let mut args = vec!["simulate", trace.as_str()];
            args.extend(
                flags
                    .iter()
                    .map(|f| if *f == "{pred}" { pred.as_str() } else { f }),
            );
            let (out, secs) = ctx.cli(span_name(name), &args)?;
            stage[1 + i].push(secs);
            if field(&out, "allocations:") != Some(objects) || field(&out, "bytes:") != Some(bytes)
            {
                ctx.fail(1, format!("simulate {name}: totals differ from the trace"));
            }
            outputs.push(out);
        }
        let secs = started.elapsed().as_secs_f64();
        cpu.push(cpu_now() - cpu0);
        check_outputs(ctx, &outputs, &mut first_outputs, reference.as_ref());
        gen(ctx, &mut setup)?;
        Ok(secs)
    })?;
    ctx.metrics.median("setup_s", "s", &setup);
    ctx.metrics.median("pipeline_s", "s", &plain);
    ctx.metrics.median("cpu_s", "s", &cpu);
    ctx.metrics
        .value("peak_rss_bytes", "bytes", usage(false).maxrss_bytes as f64);

    ctx.metrics.median("train_s", "s", &stage[0]);
    for (i, (name, _)) in BACKENDS.iter().enumerate() {
        let mut rate = Samples::default();
        for &s in stage[1 + i].values() {
            rate.push(events / s);
        }
        ctx.metrics
            .median(&format!("simulate_{name}_events_per_s"), "1/s", &rate);
    }
    if let Some(outputs) = &first_outputs {
        simulated_statistics(ctx, outputs);
    }
    if ctx.trace {
        let simulate_s: Vec<f64> = stage[1..].iter().map(Samples::median).collect();
        per_layer(ctx, &trace, events, setup.median(), &simulate_s)?;
    }
    Ok(())
}

fn span_name(backend: &str) -> &'static str {
    match backend {
        "bsd" => "heap.simulate.bsd",
        "firstfit" => "heap.simulate.firstfit",
        "arena" => "heap.simulate.arena",
        _ => "heap.simulate.online",
    }
}

/// Every iteration must print what the first printed; at the pinned
/// seed, what the reference holds.
fn check_outputs(
    ctx: &mut Ctx,
    outputs: &[String],
    first: &mut Option<Vec<String>>,
    reference: Option<&BTreeMap<String, String>>,
) {
    let names = std::iter::once("train").chain(BACKENDS.iter().map(|(n, _)| *n));
    for (i, (name, out)) in names.zip(outputs).enumerate() {
        if let Some(first) = first.as_ref() {
            if &first[i] != out {
                ctx.fail(1, format!("{name}: output changed between iterations"));
                continue;
            }
        }
        if let Some(reference) = reference {
            if reference.get(name).map(String::as_str) != Some(out.as_str()) {
                ctx.fail(
                    1,
                    format!("{name}: output differs from ref/server-seed1.txt"),
                );
            }
        }
    }
    first.get_or_insert_with(|| outputs.to_vec());
}

/// Simulated statistics from the printed reports: a speed-only change
/// must leave every one of them as it is.
fn simulated_statistics(ctx: &mut Ctx, outputs: &[String]) {
    for (i, (name, _)) in BACKENDS.iter().enumerate() {
        let heap = field(&outputs[1 + i], "max heap bytes:").unwrap_or(0.0);
        ctx.metrics
            .value(&format!("heap.{name}.max_heap_bytes"), "bytes", heap);
    }
    let arena = &outputs[3];
    let share =
        field(arena, "arena allocs:").unwrap_or(0.0) / field(arena, "allocations:").unwrap_or(1.0);
    ctx.metrics
        .value("heap.arena.arena_alloc_share", "ratio", share);
    let online = &outputs[4];
    ctx.metrics.value(
        "adaptive.epochs",
        "count",
        field(online, "epochs:").unwrap_or(0.0),
    );
    let mispredicted = field(online, "mispredictions:").unwrap_or(0.0);
    ctx.metrics
        .value("adaptive.mispredictions", "count", mispredicted);
    let coverage = field(online, "coverage:").unwrap_or(0.0) / 100.0;
    ctx.metrics
        .value("adaptive.coverage_alloc_share", "ratio", coverage);
}

/// Median seconds of `repeats` calls of `f`.
fn median_of<R>(
    ctx: &mut Ctx,
    span: &'static str,
    repeats: usize,
    mut f: impl FnMut() -> R,
) -> (R, f64) {
    let mut s = Samples::default();
    let mut last = None;
    for _ in 0..repeats {
        let (r, secs) = ctx.time(span, &mut f);
        s.push(secs);
        last = Some(r);
    }
    (last.expect("repeats > 0"), s.median())
}

fn per_layer(
    ctx: &mut Ctx,
    trace: &str,
    events: f64,
    gen_s: f64,
    simulate_s: &[f64],
) -> Result<(), String> {
    let err = |e: lifepred_tracefile::TraceFileError| format!("{trace}: {e}");
    ctx.metrics
        .value("workloads.gen_events_per_s", "1/s", events / gen_s);

    // trace + core: what `lifepred train` does.
    let (loaded, load_s) = median_of(ctx, "trace.load_trace", 3, || {
        lifepred_tracefile::load_trace(trace)
    });
    let loaded = loaded.map_err(err)?;
    ctx.metrics.value("trace.load_s", "s", load_s);
    let config = SiteConfig::default();
    let (profile, profile_s) = median_of(ctx, "core.profile", 3, || {
        Profile::build_many(std::iter::once(&loaded), &config, DEFAULT_THRESHOLD)
    });
    let tc = TrainConfig {
        threshold: DEFAULT_THRESHOLD,
        ..TrainConfig::default()
    };
    let (db, train_s) = median_of(ctx, "core.train", 3, || train(&profile, &tc));
    ctx.metrics.value("core.profile_s", "s", profile_s);
    ctx.metrics.value("core.train_s", "s", train_s);
    ctx.metrics
        .value("core.sites", "count", profile.total_sites() as f64);
    ctx.metrics
        .value("core.short_sites", "count", db.len() as f64);
    drop(loaded);

    // tracefile: open + verify, decode-only, records walk.
    let (mapped, open_s) = median_of(ctx, "tracefile.open_verify", 5, || MappedTrace::open(trace));
    let mapped = mapped.map_err(err)?;
    let file_len = mapped.file_len() as f64;
    ctx.metrics.value("tracefile.open_verify_s", "s", open_s);
    ctx.metrics
        .value("tracefile.verify_bytes_per_s", "bytes/s", file_len / open_s);
    ctx.metrics
        .value("tracefile.bytes_per_event", "bytes", file_len / events);
    let (decoded, decode_s) = median_of(ctx, "tracefile.decode", 3, || {
        let mut source = mapped.events();
        let mut chunk = EventChunk::new();
        let mut n = 0u64;
        while source.next_chunk(&mut chunk)? {
            n += chunk.len() as u64;
        }
        Ok::<u64, lifepred_tracefile::TraceFileError>(n)
    });
    if decoded.map_err(err)? as f64 != events {
        ctx.fail(
            1,
            "decode-only pass: event count differs from the header".into(),
        );
    }
    ctx.metrics
        .value("tracefile.decode_events_per_s", "1/s", events / decode_s);
    let (walked, walk_s) = median_of(ctx, "tracefile.records_walk", 3, || {
        let mut n = 0u64;
        for r in mapped.records()? {
            std::hint::black_box(r?);
            n += 1;
        }
        Ok::<u64, lifepred_tracefile::TraceFileError>(n)
    });
    let records = walked.map_err(err)? as f64;
    ctx.metrics.value("tracefile.records_walk_s", "s", walk_s);
    let (sited, site_s) = median_of(ctx, "core.site_pass", 3, || {
        let mut extractor = SiteExtractor::from_chains(mapped.chain_table(), config);
        let mut sum = 0u64;
        for r in mapped.records()? {
            sum = sum.wrapping_add(extractor.site_of(&r?).fingerprint());
        }
        Ok::<u64, lifepred_tracefile::TraceFileError>(sum)
    });
    sited.map_err(err)?;
    let site_pass_s = (site_s - walk_s).max(0.0);
    ctx.metrics.value(
        "core.site_pass_ns_per_record",
        "ns",
        site_pass_s * 1e9 / records,
    );

    // heap self time: simulate minus open, decode and (for the
    // predicting backends) the records walk and site pass.
    for (i, (name, _)) in BACKENDS.iter().enumerate() {
        let mut other = open_s + decode_s;
        if i >= 2 {
            other += site_s;
        }
        let place_ns = (simulate_s[i] - other) * 1e9 / events;
        ctx.metrics
            .value(&format!("heap.{name}.place_ns_per_event"), "ns", place_ns);
    }

    // obs: the same simulate with `--metrics-out`, and the heap's
    // index counters from the dump.
    let pred = ctx.path("pred.json");
    let mut frees_invalid = 0.0;
    for (i, (name, flags)) in BACKENDS.iter().enumerate() {
        let dump = ctx.path(&format!("metrics-{name}.json"));
        let mut s = Samples::default();
        for _ in 0..2 {
            let mut args = vec!["simulate", trace];
            args.extend(
                flags
                    .iter()
                    .map(|f| if *f == "{pred}" { pred.as_str() } else { f }),
            );
            args.extend(["--metrics-out", dump.as_str(), "--force"]);
            s.push(ctx.cli("obs.simulate_metrics_out", &args)?.1);
        }
        let overhead = s.median() / simulate_s[i] - 1.0;
        ctx.metrics.value(
            &format!("obs.{name}.metrics_overhead_share"),
            "ratio",
            overhead,
        );
        let text = std::fs::read_to_string(&dump).map_err(|e| format!("{dump}: {e}"))?;
        let snap = Snapshot::from_json(&text).map_err(|e| format!("{dump}: {e}"))?;
        let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
        frees_invalid += counter("lifepred_sim_frees_invalid_total");
        if *name == "firstfit" {
            let allocs = counter("lifepred_sim_allocs_total").max(1.0);
            let scans = counter("lifepred_sim_index_bitmap_scans_total") / allocs;
            ctx.metrics
                .value("heap.firstfit.index_scans_per_alloc", "ratio", scans);
            let hits = counter("lifepred_sim_index_bin_hits_total") / allocs;
            ctx.metrics
                .value("heap.firstfit.bin_hit_share", "ratio", hits);
        }
    }
    ctx.metrics
        .value("heap.frees_invalid", "count", frees_invalid);
    Ok(())
}

/// Splits a reference file into its `== <name>` sections.
fn sections(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.split_inclusive('\n') {
        if let Some(name) = line.strip_prefix("== ") {
            if let Some((n, body)) = current.take() {
                out.insert(n, body);
            }
            current = Some((name.trim_end().to_owned(), String::new()));
        } else if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
        }
    }
    if let Some((n, body)) = current {
        out.insert(n, body);
    }
    out
}
