//! `sweep`: a cold `lifepred sweep run` over the five paper programs'
//! recorded test traces, then a warm re-run on the same store. This is
//! the only workload for the sweep engine, its result store (writes
//! when cold, reads when warm) and the decode path the sweep uses. Its
//! inputs are fixed by `crates/workloads`; the seed does not change
//! them.

use crate::measure::{cpu_now, usage, Samples};
use crate::Ctx;
use lifepred_trace::{ChunkSource, EventChunk};
use lifepred_tracefile::MappedTrace;
use std::time::Instant;

/// The five programs of the paper (the `server` family is not one).
const PROGRAMS: [&str; 5] = ["cfrac", "espresso", "gawk", "ghost", "perl"];

/// Recordings of the five test traces before the timed loop.
const SETUP_REPEATS: usize = 4;

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    // Set-up: record each program's test (last) input, before the loop
    // and again after each iteration so the median spans the run.
    let mut traces = Vec::new();
    let mut setup = Samples::default();
    let record = |ctx: &mut Ctx, setup: &mut Samples| -> Result<Vec<String>, String> {
        let mut traces = Vec::new();
        let mut total = 0.0;
        for name in PROGRAMS {
            let w =
                lifepred_workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
            let input = (w.inputs().len() - 1).to_string();
            let path = ctx.path(&format!("{name}.lpt"));
            let args = ["record", "--workload", name, "--input", &input, "-o", &path];
            total += ctx.cli("workloads.record", &args)?.1;
            traces.push(path);
        }
        setup.push(total);
        Ok(traces)
    };
    for _ in 0..SETUP_REPEATS {
        traces = record(ctx, &mut setup)?;
    }

    let policies = if ctx.smoke {
        r#"["complete"]"#
    } else {
        r#"["complete", "len-1", "len-2", "len-4", "cce", "size-only"]"#
    };
    let quoted: Vec<String> = traces.iter().map(|t| format!("{t:?}")).collect();
    let spec = format!(
        "{{\"schema\": \"lifepred-sweep-v1\", \"name\": \"perfbench\",\n \
         \"traces\": [{}],\n \"backends\": [\"offline\", \"online\", \"firstfit\", \"bsd\"],\n \
         \"policies\": {policies}}}\n",
        quoted.join(", ")
    );
    let spec_path = ctx.path("grid.json");
    std::fs::write(&spec_path, spec).map_err(|e| format!("{spec_path}: {e}"))?;
    let reference = if ctx.smoke {
        None
    } else {
        Some(ctx.reference("sweep.txt")?)
    };

    let (mut cold, mut warm, mut cpu) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut unique, mut warm_hits) = (0.0, 0.0);
    let mut round = 0;
    let plain = ctx.closed_loop(1, |ctx| {
        round += 1;
        let store = ctx.path(&format!("store-{round}"));
        let (cold_out, warm_out) = (ctx.path("cold.txt"), ctx.path("warm.txt"));
        let cpu0 = cpu_now();
        let started = Instant::now();
        let run = |ctx: &mut Ctx, span, out: &str| {
            let args = [
                "sweep", "run", "--spec", &spec_path, "--store", &store, "--jobs", "2", "--out",
                out,
            ];
            let result = ctx.cli(span, &args);
            if let Err(e) = &result {
                // "sweep: 3 cell(s) failed": each failed cell is a
                // failed operation. The run ends here.
                if let Some(n) = failed_cells(e) {
                    ctx.attempted += n;
                    ctx.fail(n, format!("{n} sweep cell(s) failed"));
                    ctx.metrics.value("sweep.errors", "count", n as f64);
                }
            }
            result
        };
        let (cold_summary, cold_s) = run(ctx, "sweep.run_cold", &cold_out)?;
        let (warm_summary, warm_s) = run(ctx, "sweep.run_warm", &warm_out)?;
        let secs = started.elapsed().as_secs_f64();
        cpu.push(cpu_now() - cpu0);
        cold.push(cold_s);
        warm.push(warm_s);

        let cold_text =
            std::fs::read_to_string(&cold_out).map_err(|e| format!("{cold_out}: {e}"))?;
        let warm_text =
            std::fs::read_to_string(&warm_out).map_err(|e| format!("{warm_out}: {e}"))?;
        // "run: 120 cells (70 unique), 70 cached, 0 computed"
        let counts = |s: &str| -> Vec<f64> {
            s.lines()
                .find(|l| l.starts_with("run:"))
                .unwrap_or("")
                .split(|c: char| !c.is_ascii_digit())
                .filter_map(|t| t.parse().ok())
                .collect()
        };
        let (c, w) = (counts(&cold_summary), counts(&warm_summary));
        let cells = |v: &[f64]| v.first().copied().unwrap_or(0.0) as u64;
        let ok = reference.as_ref().is_none_or(|r| *r == cold_text);
        ctx.check(cells(&c), ok, || {
            "cold sweep render differs from ref/sweep.txt".into()
        });
        ctx.check(cells(&w), warm_text == cold_text, || {
            "warm sweep render differs from the cold one".into()
        });
        if c.len() != 4 || w.len() != 4 || c[2] != 0.0 || w[2] != w[1] || w[3] != 0.0 {
            ctx.fail(1, format!("unexpected cache use: cold {c:?}, warm {w:?}"));
        }
        unique = w.get(1).copied().unwrap_or(0.0);
        warm_hits = w.get(2).copied().unwrap_or(0.0);
        std::fs::remove_dir_all(&store).map_err(|e| format!("{store}: {e}"))?;
        record(ctx, &mut setup)?;
        Ok(secs)
    })?;
    ctx.metrics.median("setup_s", "s", &setup);
    ctx.metrics.median("pipeline_s", "s", &plain);
    ctx.metrics.median("cpu_s", "s", &cpu);
    ctx.metrics
        .value("peak_rss_bytes", "bytes", usage(false).maxrss_bytes as f64);
    ctx.metrics.median("sweep_cold_s", "s", &cold);

    if ctx.trace {
        ctx.metrics.value("workloads.record_s", "s", setup.median());
        ctx.metrics.value("sweep.unique_cells", "count", unique);
        ctx.metrics.value("sweep.cache_hits", "count", warm_hits);
        // Every cell succeeded, or `run` above would have ended the
        // run with the count of those that failed.
        ctx.metrics.value("sweep.errors", "count", 0.0);
        ctx.metrics.median("sweep.warm_s", "s", &warm);
        ctx.metrics
            .value("sweep.warm_hit_rate", "ratio", warm_hits / unique.max(1.0));
        // The sweep's traces decoded in event chunks, the way a cell
        // replays them.
        let (mut events, mut bytes, mut secs) = (0.0, 0.0, 0.0);
        for path in &traces {
            let mapped = MappedTrace::open(path).map_err(|e| format!("{path}: {e}"))?;
            let (n, s) = ctx.time("tracefile.chunked_decode", || {
                let mut source = mapped.events();
                let mut chunk = EventChunk::new();
                let mut n = 0u64;
                while source.next_chunk(&mut chunk)? {
                    n += chunk.len() as u64;
                }
                Ok::<u64, lifepred_tracefile::TraceFileError>(n)
            });
            events += n.map_err(|e| format!("{path}: {e}"))? as f64;
            bytes += mapped.file_len() as f64;
            secs += s;
        }
        ctx.metrics.value(
            "tracefile.chunked_decode_events_per_s",
            "1/s",
            events / secs,
        );
        ctx.metrics
            .value("tracefile.bytes_per_event", "bytes", bytes / events);
    }
    Ok(())
}

/// The number of failed cells in a `sweep run` error
/// (`"...: sweep: 3 cell(s) failed"`).
fn failed_cells(error: &str) -> Option<u64> {
    let head = error.strip_suffix(" cell(s) failed")?;
    head.rsplit(' ').next()?.parse().ok()
}
