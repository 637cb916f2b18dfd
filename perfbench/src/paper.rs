//! `paper`: the reproduction itself — Tables 1–9 as the `all_tables`
//! binary prints them, on in-memory traces recorded by the `trace`
//! crate (no `.lpt`, mmap or sweep on the timed path). Its inputs are
//! fixed by `crates/workloads`; the seed does not change them.
//!
//! Set-up records the suite (`lifepred_bench::build_suite`, the same
//! call `all_tables` starts with). Each iteration runs `all_tables` as
//! a child process and compares its output with `ref/tables.txt`.

use crate::measure::{usage, Samples};
use crate::{fnv64, Ctx};
use lifepred_core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred_obs::Snapshot;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Suite recordings before the timed loop.
const SETUP_REPEATS: usize = 4;

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    // Set-up, measured before the loop and again after each iteration
    // so the median spans the whole run.
    let mut setup = Samples::default();
    let mut suite = Vec::new();
    let mut record = |ctx: &mut Ctx, setup: &mut Samples| {
        let (s, secs) = ctx.time("workloads.build_suite", lifepred_bench::build_suite);
        setup.push(secs);
        suite = s;
    };
    for _ in 0..SETUP_REPEATS {
        record(ctx, &mut setup);
    }

    let exe = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name("all_tables");
    let reference = ctx.reference("tables.txt")?;
    let mut cpu = Samples::default();
    let mut digest = None;
    let plain = ctx.closed_loop(1, |ctx| {
        let cpu0 = usage(true).cpu_s;
        let id = ctx.spans.enter("bench.all_tables");
        let started = Instant::now();
        let out = Command::new(&exe)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let secs = started.elapsed().as_secs_f64();
        ctx.spans.exit(id);
        cpu.push(usage(true).cpu_s - cpu0);
        let text = String::from_utf8_lossy(&out.stdout);
        digest.get_or_insert_with(|| fnv64(&out.stdout));
        let mismatch = text
            .lines()
            .zip(reference.lines())
            .position(|(a, b)| a != b)
            .or_else(|| (text.lines().count() != reference.lines().count()).then_some(0));
        ctx.check(
            1,
            out.status.success() && mismatch.is_none(),
            || match mismatch {
                Some(line) => format!(
                    "all_tables: output differs from ref/tables.txt at line {}",
                    line + 1
                ),
                None => format!("all_tables exited with {}", out.status),
            },
        );
        record(ctx, &mut setup);
        Ok(secs)
    })?;
    ctx.metrics.median("setup_s", "s", &setup);
    println!("digest: paper_tables fnv64 {:016x}", digest.unwrap_or(0));
    ctx.metrics.median("pipeline_s", "s", &plain);
    ctx.metrics.median("tables_s", "s", &plain);
    ctx.metrics.median("cpu_s", "s", &cpu);
    ctx.metrics
        .value("peak_rss_bytes", "bytes", usage(true).maxrss_bytes as f64);

    if ctx.trace {
        per_layer(ctx, &suite, setup.median())?;
    }
    Ok(())
}

fn per_layer(
    ctx: &mut Ctx,
    suite: &[lifepred_bench::SuiteEntry],
    build_s: f64,
) -> Result<(), String> {
    ctx.metrics.value("tables.suite_build_s", "s", build_s);
    ctx.metrics.value("workloads.record_s", "s", build_s);

    // core: profile and train every suite trace, as the tables do
    // under the default site policy.
    let config = SiteConfig::default();
    let tc = TrainConfig::default();
    let (mut profile_s, mut train_s, mut sites, mut short) = (0.0, 0.0, 0, 0);
    for entry in suite {
        for trace in [&entry.train, &entry.test] {
            let (profile, secs) = ctx.time("core.profile", || {
                Profile::build_many(std::iter::once(trace), &config, DEFAULT_THRESHOLD)
            });
            profile_s += secs;
            let (db, secs) = ctx.time("core.train", || train(&profile, &tc));
            train_s += secs;
            sites += profile.total_sites();
            short += db.len();
        }
    }
    ctx.metrics.value("core.profile_s", "s", profile_s);
    ctx.metrics.value("core.train_s", "s", train_s);
    ctx.metrics.value("core.sites", "count", sites as f64);
    ctx.metrics.value("core.short_sites", "count", short as f64);

    // heap: first-fit index work over the suite's test traces, read
    // from a `simulate --metrics-out` dump.
    let mut args = vec!["simulate".to_owned()];
    for entry in suite {
        let path = ctx.path(&format!("{}.lpt", entry.name));
        lifepred_tracefile::save_trace(&path, &entry.test).map_err(|e| format!("{path}: {e}"))?;
        args.push(path);
    }
    let dump = ctx.path("metrics-firstfit.json");
    args.extend(["--allocator", "first-fit", "--metrics-out", &dump].map(str::to_owned));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    ctx.cli("heap.simulate.firstfit", &args)?;
    let text = std::fs::read_to_string(&dump).map_err(|e| format!("{dump}: {e}"))?;
    let snap = Snapshot::from_json(&text).map_err(|e| format!("{dump}: {e}"))?;
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let allocs = counter("lifepred_sim_allocs_total").max(1.0);
    let scans = counter("lifepred_sim_index_bitmap_scans_total") / allocs;
    ctx.metrics
        .value("heap.firstfit.index_scans_per_alloc", "ratio", scans);
    let hits = counter("lifepred_sim_index_bin_hits_total") / allocs;
    ctx.metrics
        .value("heap.firstfit.bin_hit_share", "ratio", hits);
    ctx.metrics.value(
        "heap.frees_invalid",
        "count",
        counter("lifepred_sim_frees_invalid_total"),
    );
    Ok(())
}
